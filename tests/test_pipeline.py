import itertools
import random

import pytest

from conftest import small_corpus

from topstruct import pipeline
from topstruct.decomposition import TreeDecomposition
from topstruct.errors import (
    BichromaticComponent,
    BudgetExceeded,
    CoverageImpossible,
    Indistinguishable,
    UncoloredComponent,
)
from topstruct.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
)
from topstruct.lean import build_k_lean
from topstruct.obstructions import (
    DEFAULT_BUDGET,
    block_orientation,
    find_clique_model,
    find_k_blocks,
    model_orientation,
)
from topstruct.pipeline import (
    Parameters,
    check_join_lemma,
    color_nodes,
    contract_blue,
    distinguishing_order,
    run_structure,
    select_f,
)
from topstruct.verifier import verify_subdivision, verify_theorem


def two_triangles_joined():
    """Two triangles sharing the cut vertex 3."""
    return Graph.from_edges(
        5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)]
    )


def test_parameters():
    p = Parameters.from_r(4)
    assert (p.k, p.m, p.generalized) == (12, 24, False)
    with pytest.raises(ValueError):
        Parameters.from_r(1)
    p = Parameters.generalized_km(3, 6)
    assert p.r == 2 and p.generalized
    p = Parameters.generalized_km(6, 11)
    assert p.r == 3
    # k = 6 allows r = 3, but 2 * 3 * 2 - 1 = 11 > m = 10 does not
    assert Parameters.generalized_km(6, 10).r == 2
    with pytest.raises(ValueError):
        Parameters.generalized_km(1, 6)


def test_distinguishing_order_cut_vertex():
    g = two_triangles_joined()
    k = 2
    blocks = find_k_blocks(g, k)
    tri = {frozenset(b.vertices) for b in blocks}
    assert frozenset({1, 2, 3}) in tri and frozenset({3, 4, 5}) in tri
    o1 = block_orientation(g, k, frozenset({1, 2, 3}))
    o2 = block_orientation(g, k, frozenset({3, 4, 5}))
    assert distinguishing_order(g, o1, o2) == 1
    with pytest.raises(Indistinguishable):
        distinguishing_order(g, o1, o1)


def test_distinguishing_order_block_vs_model():
    g = two_triangles_joined()
    o1 = block_orientation(g, 2, frozenset({1, 2, 3}))
    model = find_clique_model(g, 3, require_meet={3, 4, 5})
    o2 = model_orientation(g, 2, model)
    assert distinguishing_order(g, o1, o2) == 1


def _manual_td():
    return TreeDecomposition(
        {1, 2, 3},
        {(1, 2), (2, 3)},
        {1: frozenset({1, 2}), 2: frozenset({2, 3}), 3: frozenset({3, 4})},
    )


def test_select_f_cases():
    td = _manual_td()
    g = path_graph(4)
    assert select_f(g, td, set(), {2}) == frozenset()
    assert select_f(g, td, {1}, set()) == frozenset()
    f = select_f(g, td, {1}, {3})
    assert len(f) == 1 and list(f)[0] in {(1, 2), (2, 3)}
    # two pairs share one efficient edge: F stays a singleton
    f = select_f(g, td, {1, 2}, {3})
    assert f == frozenset({(2, 3)})
    with pytest.raises(CoverageImpossible):
        select_f(g, td, {2}, {2})


def test_color_nodes_cases():
    td = _manual_td()
    c = color_nodes(td, set(), {1}, set())
    assert set(c.color.values()) == {"blue"}
    c = color_nodes(td, {(2, 3)}, {1}, {3})
    assert c.color == {1: "blue", 2: "blue", 3: "red"}
    with pytest.raises(BichromaticComponent):
        color_nodes(td, set(), {1}, {3})
    with pytest.raises(UncoloredComponent):
        color_nodes(td, {(1, 2)}, {1}, set())
    c = color_nodes(td, {(1, 2)}, {1}, set(), default_blue=True)
    assert c.color == {1: "blue", 2: "blue", 3: "blue"}
    assert c.defaulted == {2, 3}


def test_contract_blue():
    td = _manual_td()
    c = color_nodes(td, {(2, 3)}, {1}, {3})
    out, oc = contract_blue(td, c)
    assert len(out.nodes) == 2
    blue = [t for t, col in oc.color.items() if col == "blue"]
    red = [t for t, col in oc.color.items() if col == "red"]
    assert len(blue) == 1 and len(red) == 1
    assert out.bags[blue[0]] == {1, 2, 3}
    assert out.bags[red[0]] == {3, 4}
    # alternating r/b/r keeps the shape
    c2 = color_nodes(td, {(1, 2), (2, 3)}, {2}, {1, 3})
    out2, _ = contract_blue(td, c2)
    assert len(out2.nodes) == 3


def test_check_join_lemma_simple():
    g = two_triangles_joined()
    td = TreeDecomposition(
        {1, 2},
        {(1, 2)},
        {1: frozenset({1, 2, 3}), 2: frozenset({3, 4, 5})},
    )
    assert td.validate(g)
    assert check_join_lemma(g, td, 1, 2)
    assert check_join_lemma(g, td, 2, 1)


def test_check_join_lemma_adhesion_zero():
    g = Graph.from_edges(2, [])
    td = TreeDecomposition(
        {1, 2}, {(1, 2)}, {1: frozenset({1}), 2: frozenset({2})}
    )
    assert check_join_lemma(g, td, 1, 2)


def test_run_structure_tree():
    p = Parameters.from_r(4)
    res = run_structure(path_graph(6), p)
    assert res.variant == "decomposition"
    assert verify_theorem(path_graph(6), p, res).passed
    assert res.coloring.color == {max(res.decomposition.nodes): "blue"} or all(
        c == "blue" for c in res.coloring.color.values()
    )


def test_run_structure_k6_subdivision():
    p = Parameters.generalized_km(3, 6)
    res = run_structure(complete_graph(6), p)
    assert res.variant == "subdivision"
    assert verify_subdivision(
        complete_graph(6), len(res.subdivision.branch_vertices), res.subdivision
    )
    # prescribed branch vertices come from the block
    assert set(res.subdivision.branch_vertices) <= set(
        itertools.chain.from_iterable([b.vertices for b in res.blocks])
    )


def test_run_structure_two_k5s():
    edges = []
    for grp in ([1, 2, 3, 4, 5], [4, 5, 6, 7, 8]):
        edges += list(itertools.combinations(grp, 2))
    g = Graph.from_edges(8, edges)
    p = Parameters.generalized_km(3, 5)
    res = run_structure(g, p)
    # a block and a model share a home node here, so the run exits with
    # the (degenerate, r=2) subdivision
    assert res.variant == "subdivision"
    assert verify_subdivision(g, 2, res.subdivision)
    # with m = 6 no model exists and the decomposition variant appears
    p6 = Parameters.generalized_km(3, 6)
    res6 = run_structure(g, p6)
    assert res6.variant == "decomposition"
    assert verify_theorem(g, p6, res6).passed


def test_run_structure_enumerates_s_k_once(monkeypatch):
    """The lean builder and the subdivision exit share one S_k(G)."""
    from topstruct import decomposition, lean, obstructions
    from topstruct.separations import enumerate_separations

    calls = []

    def counting(g, k, *args, **kwargs):
        calls.append(k)
        return enumerate_separations(g, k, *args, **kwargs)

    for module in (pipeline, lean, decomposition, obstructions):
        monkeypatch.setattr(module, "enumerate_separations", counting)
    two_k5s = Graph.from_edges(
        8,
        list(itertools.combinations([1, 2, 3, 4, 5], 2))
        + list(itertools.combinations([4, 5, 6, 7, 8], 2)),
    )
    for g, p in [
        (complete_graph(6), Parameters.generalized_km(3, 6)),
        (two_k5s, Parameters.generalized_km(3, 5)),
    ]:
        calls.clear()
        assert run_structure(g, p).variant == "subdivision"
        assert calls == [p.k]


def test_run_structure_budget_bounds_separation_enumeration():
    # S_k(G) is the run's first stage, so it must spend the run's budget
    with pytest.raises(BudgetExceeded, match="separation enumeration"):
        run_structure(
            petersen_graph(), Parameters.generalized_km(3, 6), budget=1
        )


def test_run_structure_lemma_properties():
    """Coloring totality, join lemma on F edges, blue torsos minor-free."""
    from topstruct.verifier import minor_oracle

    rng = random.Random(71)
    p = Parameters.generalized_km(3, 6)
    runs = 0
    for _ in range(25):
        n = rng.randint(1, 10)
        g = random_graph(n, rng.choice([0.3, 0.5]), rng)
        res = run_structure(g, p)
        if res.variant != "decomposition":
            continue
        runs += 1
        lc = res.lean_coloring
        assert set(lc.color) == set(res.lean.nodes)
        for a, b in sorted(lc.f_edges):
            for s, t in ((a, b), (b, a)):
                if lc.color[s] == "blue" and lc.color[t] == "red":
                    assert check_join_lemma(g, res.lean, s, t)
        for t in sorted(res.decomposition.nodes):
            if res.coloring.color[t] == "blue":
                torso, _ = res.decomposition.torso_at_node(g, t)
                assert not minor_oracle(torso, p.m)
    assert runs > 5


def test_model_homes_match_unpruned_search():
    """The prunes in _model_home_nodes skip only searches that fail."""
    homes_seen = empty_seen = 0
    for k, m in [(2, 4), (3, 6)]:
        for g in small_corpus(29, 40, 10):
            td = build_k_lean(g, k)
            want = {
                t
                for t in sorted(td.nodes)
                if find_clique_model(g, m, require_meet=td.bags[t]) is not None
            }
            got = pipeline._model_home_nodes(g, m, td, budget=DEFAULT_BUDGET)
            assert set(got) == want
            homes_seen += bool(want)
            empty_seen += not want
    assert homes_seen > 5 and empty_seen > 5


def test_model_homes_skip_search_below_edge_count(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return find_clique_model(*args, **kwargs)

    monkeypatch.setattr(pipeline, "find_clique_model", counting)
    g = cycle_graph(8)  # 8 vertices, but K_5 needs 10 edges
    td = TreeDecomposition.single_bag(g.vertices)
    assert pipeline._model_home_nodes(g, 5, td, budget=DEFAULT_BUDGET) == {}
    assert calls == []
    # K_5 has exactly as many edges as it needs, so the search runs
    k5 = complete_graph(5)
    td = TreeDecomposition.single_bag(k5.vertices)
    homes = pipeline._model_home_nodes(k5, 5, td, budget=DEFAULT_BUDGET)
    assert set(homes) == {1}
    assert len(calls) == 1
