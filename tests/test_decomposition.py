import random

import pytest

from conftest import (
    ExplicitOrientation,
    InconsistentOrientation,
    contract_tree_edge,
    home_node,
    is_separation,
    torso_at_subtree,
)

from topstruct.decomposition import (
    TreeDecomposition,
    parse_td,
    renumbered,
    write_td,
)
from topstruct.errors import FormatError, InvariantViolation
from topstruct.graph import (
    Graph,
    cycle_graph,
    path_graph,
    random_graph,
)
from topstruct.lean import build_k_lean
from topstruct.verifier import _torso, verify_decomposition


def path_td():
    """P4 decomposed along its edges."""
    return TreeDecomposition(
        {(1, 2), (2, 3)},
        {1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({3, 4})},
    )


def test_validate():
    g = path_graph(4)
    td = path_td()
    assert verify_decomposition(g, td)
    # missing edge coverage
    bad = TreeDecomposition({(1, 2)}, {1: frozenset({1, 2}), 2: frozenset({4})})
    assert not verify_decomposition(g, bad)
    # broken subtree connectivity
    bad2 = TreeDecomposition(
        {(1, 2), (2, 3)},
        {1: frozenset({1, 2}), 2: frozenset({3}), 3: frozenset({1, 3, 4})},
    )
    assert not verify_decomposition(g, bad2)
    # not a tree (cycle)
    bad3 = TreeDecomposition(
        {(1, 2), (2, 3), (1, 3)},
        {1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({3, 4})},
    )
    assert not verify_decomposition(g, bad3)


def test_induced_separation_and_order():
    g = path_graph(4)
    td = path_td()
    s = td.induced_separation(1, 2)
    assert s.side_a == {1, 2} and s.side_b == {2, 3, 4}
    assert s.separator == {2} == td.bags[1] & td.bags[2]
    assert td.edge_order(1, 2) == 1
    assert td.adhesion() == 1
    assert is_separation(g, s.side_a, s.side_b)
    with pytest.raises(InvariantViolation, match="not a tree edge"):
        td.induced_separation(1, 3)


def test_min_order_on_path():
    td = path_td()
    assert td.min_order_on_path(1, 3) == 1
    assert td.min_order_on_path(2, 2) is None


def test_torso():
    g = path_graph(4)
    td = path_td()
    assert _torso(g, td, 2).sorted_edges() == [(1, 2)]  # bag {2, 3}
    # a torso overlays a clique on each adhesion set at its boundary
    c = cycle_graph(4)
    td2 = TreeDecomposition(
        {(1, 2)},
        {1: frozenset({1, 2, 4}), 2: frozenset({2, 3, 4})},
    )
    assert verify_decomposition(c, td2)
    torso = _torso(c, td2, 1)
    # bag {1, 2, 4} relabelled to 1, 2, 3: edge 2-4 appears via the
    # adhesion clique
    assert torso.n == 3 and torso.has_edge(2, 3)
    # the subtree of both nodes has no boundary, and C4 lacks 2-4
    assert not torso_at_subtree(c, td2, {1, 2}).has_edge(2, 4)


def test_contract_tree_edge():
    td = path_td()
    out = contract_tree_edge(td, 1, 2)
    assert len(out.nodes) == 2
    fresh = max(out.nodes)
    assert out.bags[fresh] == {1, 2, 3}
    assert out.has_tree_edge(fresh, 3)


def test_contraction_leaves_rest_alone():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(2, 9)
        g = random_graph(n, rng.choice([0.3, 0.6]), rng)
        td = build_k_lean(g, 2)
        if not td.tree_edges:
            continue
        e = sorted(td.tree_edges)[rng.randrange(len(td.tree_edges))]
        out = contract_tree_edge(td, *e)
        fresh = max(out.nodes)
        for other in sorted(td.tree_edges):
            if other == e:
                continue
            a, b = other
            a2 = fresh if a in e else a
            b2 = fresh if b in e else b
            old = td.induced_separation(a, b)
            new = out.induced_separation(min(a2, b2), max(a2, b2))
            assert {old.side_a, old.side_b} == {new.side_a, new.side_b}
        for node in td.nodes:
            if node in e:
                continue
            t_old = torso_at_subtree(g, td, {node})
            t_new = torso_at_subtree(g, out, {node})
            assert t_old == t_new


def test_fatness():
    td = path_td()
    f = td.fatness(4)
    # bags of size 2,2,2 on n=4: a_0 (size 4) = 0, a_1 = 0, a_2 = 3, ...
    assert f == (0, 0, 3, 0, 0)
    single = TreeDecomposition.single_bag([1, 2, 3, 4])
    assert single.fatness(4) > f  # lexicographically fatter
    assert single.fatness(4) == (1, 0, 0, 0, 0)


def test_check_k_lean_examples():
    g = path_graph(3)
    td = TreeDecomposition({(1, 2)}, {1: frozenset({1, 2}), 2: frozenset({2, 3})})
    assert td.check_k_lean(g, 2) is None
    two_triangles = Graph.from_edges(
        6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    )
    big = TreeDecomposition.single_bag(range(1, 7))
    viol = big.check_k_lean(two_triangles, 2)
    assert viol is not None
    assert viol.witness.order < viol.p
    # adhesion >= k must be rejected
    wide = TreeDecomposition(
        {(1, 2)},
        {1: frozenset({1, 2, 3}), 2: frozenset({2, 3, 4})},
    )
    with pytest.raises(ValueError):
        wide.check_k_lean(path_graph(4), 2)


def test_home_node():
    g = path_graph(4)
    td = path_td()
    # orient every edge separation toward the side containing vertex 4
    def orient(k):
        pairs = []
        for e in td.tree_edges:
            s = td.induced_separation(*e)
            w = s.side_a if 4 in s.side_a - s.side_b else s.side_b
            pairs.append((s, w))
        return ExplicitOrientation.from_w_sides(k, pairs)

    assert home_node(td, orient(4)) == 3
    # flipping one edge away from the path creates two sinks
    s12 = td.induced_separation(1, 2)
    s23 = td.induced_separation(2, 3)
    bad = ExplicitOrientation.from_w_sides(
        4, [(s12, s12.side_a), (s23, s23.side_b)]
    )
    with pytest.raises(InconsistentOrientation):
        home_node(td, bad)


def test_td_round_trip():
    td = renumbered(path_td())
    text = write_td(td, 4, {1: "blue", 2: "red", 3: "blue"})
    parsed, n, colors = parse_td(text)
    assert n == 4
    assert parsed == td
    assert colors == {1: "blue", 2: "red", 3: "blue"}


def test_parse_td_errors():
    with pytest.raises(FormatError, match="header"):
        parse_td("b 1 1 2\n")
    with pytest.raises(FormatError, match="declares"):
        parse_td("s td 2 2 3\nb 1 1 2\n")
    with pytest.raises(FormatError, match="max size"):
        parse_td("s td 1 1 3\nb 1 1 2\n")
    with pytest.raises(FormatError, match="unknown bag"):
        parse_td("s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 5\n")
    with pytest.raises(FormatError, match="red or blue"):
        parse_td("s td 1 2 3\nb 1 1 2\nc color 1 green\n")
    with pytest.raises(FormatError, match="line 4: bag 1 colored twice"):
        parse_td("s td 1 2 2\nb 1 1 2\nc color 1 red\nc color 1 blue\n")
