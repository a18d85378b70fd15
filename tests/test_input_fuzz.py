"""Fuzzing of the input boundary: malformed text may only raise
FormatError, and ``topstruct verify`` maps bad decompositions to the
CLI contract (64 for bad input, 1 for a violation)."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import brute_is_tree

from topstruct.cli import main
from topstruct.decomposition import parse_td
from topstruct.errors import FormatError
from topstruct.graph import MAX_GR_VERTICES, parse_gr, path_graph, write_gr

FUZZ = settings(max_examples=200, deadline=None)
CLI_FUZZ = settings(max_examples=40, deadline=None)


def _texts(header, heads, words):
    """Arbitrary text, or an optional well-formed ``header`` line
    followed by lines that start like the format's own lines (one of
    ``heads``) and go on with its words, small integers and junk: these
    reach far deeper into a parser."""
    token = st.one_of(
        st.sampled_from(words + ["", "-1", "0", "x", "1.5", "٣", "\t"]),
        st.integers(-3, 12).map(str),
    )
    line = st.builds(
        lambda head, rest: " ".join([head] + rest),
        st.sampled_from(heads),
        st.lists(token, max_size=5),
    )
    doc = st.builds(
        lambda first, rest: "\n".join(first + rest),
        st.lists(header, max_size=1),
        st.lists(line, max_size=8),
    )
    return st.one_of(st.text(), doc)


def _parses_or_format_error(parse, text):
    try:
        parse(text)
    except FormatError:
        pass


@FUZZ
@given(
    _texts(
        st.builds("p tw {} {}".format, st.integers(0, 8), st.integers(0, 8)),
        ["p tw", "p", "c", ""],
        ["p", "tw"],
    )
)
def test_parse_gr_raises_only_format_error(text):
    _parses_or_format_error(parse_gr, text)


@FUZZ
@given(
    _texts(
        st.builds(
            "s td {} {} {}".format,
            st.integers(0, 4), st.integers(0, 6), st.integers(0, 8),
        ),
        ["s td", "s", "b", "c color", "c", ""],
        ["s", "td", "b", "color", "red", "blue"],
    )
)
def test_parse_td_raises_only_format_error(text):
    _parses_or_format_error(parse_td, text)


def test_oversized_gr_header_is_a_format_error(tmp_path):
    # refused from the header alone, before one mask per vertex is built
    assert parse_gr("p tw %d 0\n" % MAX_GR_VERTICES).n == MAX_GR_VERTICES
    for n in (MAX_GR_VERTICES + 1, 10 ** 9):
        with pytest.raises(FormatError, match="line 1"):
            parse_gr("p tw %d 0\n" % n)
    gr = tmp_path / "huge.gr"
    gr.write_text("p tw 1000000000 0\n")
    assert main(["find", "--kind", "block", "--k", "2", str(gr)]) == 64


def _verify(tmp_path_factory, n, bags, edges):
    """Exit code of ``topstruct verify`` on P_n and the given .td."""
    work = tmp_path_factory.getbasetemp() / "fuzz"
    work.mkdir(exist_ok=True)
    gr, td = work / "g.gr", work / "g.td"
    gr.write_text(write_gr(path_graph(n)))
    lines = ["s td %d %d %d" % (len(bags), max(map(len, bags)), n)]
    lines += [
        " ".join(["b", str(i)] + [str(v) for v in bag])
        for i, bag in enumerate(bags, start=1)
    ]
    lines += ["%d %d" % e for e in edges]
    td.write_text("\n".join(lines) + "\n")
    return main(["verify", str(gr), str(td), "--k", "2", "--m", "4"])


@CLI_FUZZ
@given(st.data())
def test_verify_rejects_bag_vertices_outside_range(tmp_path_factory, data):
    n = data.draw(st.integers(1, 6))
    vertex = st.integers(-2, n + 3)
    bags = data.draw(
        st.lists(st.lists(vertex, min_size=1, max_size=n + 2), min_size=1,
                 max_size=3)
    )
    assume(any(not 1 <= v <= n for bag in bags for v in bag))
    edges = [(i, i + 1) for i in range(1, len(bags))]
    assert _verify(tmp_path_factory, n, bags, edges) == 64


@CLI_FUZZ
@given(st.data())
def test_verify_rejects_a_non_tree(tmp_path_factory, data):
    n = data.draw(st.integers(1, 6))
    nodes = data.draw(st.integers(1, 4))
    node = st.integers(1, nodes)
    edges = data.draw(st.lists(st.tuples(node, node), max_size=6))
    assume(not brute_is_tree(range(1, nodes + 1), edges))
    # node 1 holds all of P_n and every other node only vertex 1: on a
    # path of nodes this passes, so only the tree can be at fault
    bags = [list(range(1, n + 1))] + [[1]] * (nodes - 1)
    path = [(i, i + 1) for i in range(1, nodes)]
    assert _verify(tmp_path_factory, n, bags, path) == 0
    assert _verify(tmp_path_factory, n, bags, edges) == 1
