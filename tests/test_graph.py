import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topstruct.errors import FormatError
from topstruct.graph import (
    Graph,
    bits,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    mask_of,
    parse_gr,
    path_graph,
    petersen_graph,
    random_graph,
    set_of,
    write_gr,
)


def test_mask_helpers():
    assert mask_of([1, 3, 5]) == 0b101010
    assert set_of(0b101010) == {1, 3, 5}
    assert list(bits(0b1100)) == [2, 3]


def test_from_edges_rejects_loops_and_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 1)])
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(1, 4)])


def test_basic_queries():
    g = Graph.from_edges(4, [(1, 2), (2, 3), (3, 1)])
    assert g.has_edge(2, 1) and not g.has_edge(1, 4)
    assert g.neighbors(2) == {1, 3}
    assert g.degree(4) == 0
    assert g.vertex_mask == 0b11110
    assert g.sorted_edges() == [(1, 2), (1, 3), (2, 3)]


def test_components_and_connectivity():
    g = Graph.from_edges(5, [(1, 2), (3, 4)])
    comps = sorted(sorted(c) for c in g.components())
    assert comps == [[1, 2], [3, 4], [5]]
    assert g.is_connected_set({1, 2})
    assert not g.is_connected_set({1, 3})
    assert g.is_connected_set(set())


def test_overlay_clique():
    g = path_graph(4)
    gz = g.overlay_clique({1, 3, 4})
    assert gz.has_edge(1, 3) and gz.has_edge(1, 4) and gz.has_edge(3, 4)
    assert gz.has_edge(1, 2)
    assert len(gz.edges) == len(g.edges) + 2  # (3,4) already present


def test_induced_relabels():
    g = cycle_graph(5)
    sub, labels = g.induced([2, 3, 5])
    assert labels == [2, 3, 5]
    assert sub.n == 3
    assert sub.sorted_edges() == [(1, 2)]  # only 2-3 survives


def test_contract_edge():
    g = cycle_graph(4)
    h = g.contract_edge(1, 2)
    assert h.n == 3
    # contracting one cycle edge leaves a triangle
    assert len(h.edges) == 3
    with pytest.raises(ValueError):
        g.contract_edge(1, 3)


def test_families():
    assert len(complete_graph(5).edges) == 10
    assert len(complete_bipartite(3, 3).edges) == 9
    assert len(grid_graph(3, 3).edges) == 12
    pet = petersen_graph()
    assert pet.n == 10 and len(pet.edges) == 15
    assert all(pet.degree(v) == 3 for v in pet.vertices)
    # girth 5: no triangles or 4-cycles through vertex 1
    assert not any(
        pet.has_edge(u, v)
        for u in pet.neighbors(1)
        for v in pet.neighbors(1)
        if u < v
    )


def test_parse_gr_round_trip():
    g = petersen_graph()
    assert parse_gr(write_gr(g)) == g


def test_parse_gr_errors():
    with pytest.raises(FormatError, match="line 1"):
        parse_gr("p tw bogus\n")
    with pytest.raises(FormatError, match="header"):
        parse_gr("1 2\np tw 2 1\n")
    with pytest.raises(FormatError, match="line 2"):
        parse_gr("p tw 3 1\n1 5\n")
    with pytest.raises(FormatError, match="declares"):
        parse_gr("p tw 3 2\n1 2\n")
    with pytest.raises(FormatError):
        parse_gr("c only a comment\n")


def test_parse_gr_ignores_comments_and_blank_lines():
    g = parse_gr("c hello\n\np tw 3 1\nc mid\n2 3\n")
    assert g.n == 3 and g.sorted_edges() == [(2, 3)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 12), st.integers(0, 10 ** 6))
def test_gr_round_trip_random(n, seed):
    g = random_graph(n, 0.4, random.Random(seed))
    assert parse_gr(write_gr(g)) == g


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 10), st.integers(0, 10 ** 6))
def test_components_partition(n, seed):
    g = random_graph(n, 0.3, random.Random(seed))
    comps = g.components()
    seen = set()
    for c in comps:
        assert not (c & seen)
        assert g.is_connected_set(c)
        seen |= c
    assert seen == set(g.vertices)
