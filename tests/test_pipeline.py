import itertools
import random

import pytest

from conftest import (
    BlockOrientation,
    ModelOrientation,
    check_join_lemma,
    distinguishing_order,
    find_meeting_model,
    full_s_k,
    meeting_homes,
    octahedron_petersen,
    orientations_agree,
    perfbench_corpora,
    planar_3_tree,
    random_cubic,
    reference_contract_blue,
    small_corpus,
    surplus_refutes,
    torso_at_subtree,
    unpruned_homes,
)

from topstruct import obstructions, pipeline
from topstruct.decomposition import TreeDecomposition, write_td
from topstruct.errors import Budget, BudgetExceeded, InvariantViolation
from topstruct.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    random_graph,
)
from topstruct.lean import build_k_lean, lean_step_trace
from topstruct.obstructions import (
    DEFAULT_BUDGET,
    extract_subdivision,
    find_k_blocks,
    find_z_based_model,
    refutes_clique_minor,
    serialize_subdivision,
)
from topstruct.pipeline import (
    Coloring,
    Parameters,
    color_nodes,
    contract_blue,
    run_structure,
    select_f,
)
from topstruct.separations import enumerate_separations
from topstruct.verifier import (
    minor_oracle,
    verify_decomposition,
    verify_subdivision,
    verify_theorem,
)


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


def test_parameters_need_m_at_least_k():
    # m disjoint branch sets all meet some separator of m < k vertices,
    # so a K_m model would orient no such S_k
    with pytest.raises(ValueError, match="m >= k"):
        Parameters.generalized_km(4, 3)
    assert Parameters.generalized_km(4, 4).m == 4
    assert Parameters.generalized_km(3, 6).m == 6


def test_distinguishing_order_cut_vertex():
    g = two_triangles_joined()
    k = 2
    blocks = find_k_blocks(g, k)
    tri = {frozenset(b.vertices) for b in blocks}
    assert frozenset({1, 2, 3}) in tri and frozenset({3, 4, 5}) in tri
    o1 = BlockOrientation(k, frozenset({1, 2, 3}))
    o2 = BlockOrientation(k, frozenset({3, 4, 5}))
    assert distinguishing_order(g, o1, o2) == 1
    assert distinguishing_order(g, o1, o1) is None


def test_distinguishing_order_block_vs_model():
    g = two_triangles_joined()
    o1 = BlockOrientation(2, frozenset({1, 2, 3}))
    model = find_meeting_model(g, 3, {3, 4, 5})
    o2 = ModelOrientation(2, model)
    assert distinguishing_order(g, o1, o2) == 1


def _manual_td():
    return TreeDecomposition(
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
    with pytest.raises(InvariantViolation, match="no efficient edge"):
        select_f(g, td, {2}, {2})


def test_color_nodes_cases():
    td = _manual_td()
    c = color_nodes(td, set(), {1}, set())
    assert set(c.color.values()) == {"blue"}
    c = color_nodes(td, {(2, 3)}, {1}, {3})
    assert c.color == {1: "blue", 2: "blue", 3: "red"}
    with pytest.raises(InvariantViolation, match="both home-node kinds"):
        color_nodes(td, set(), {1}, {3})
    c = color_nodes(td, {(1, 2)}, {1}, set())
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
    # the F edge (2, 3) is the remaining tree edge, renamed with node 2
    assert oc.f_edges == {(3, 4)}
    # alternating r/b/r keeps the shape
    c2 = color_nodes(td, {(1, 2), (2, 3)}, {2}, {1, 3})
    out2, _ = contract_blue(td, c2)
    assert len(out2.nodes) == 3


def test_contract_blue_numbers_two_blue_components():
    """Two blue components of several nodes each: every contraction of
    the lowest all-blue tree edge takes the next fresh id, so {6, 7, 8}
    becomes node 13 and {2, 3, 4, 5} node 14.  The written bytes are
    pinned: renumbered, the first component merged is written second."""
    edges = {(1, 9), (2, 4), (2, 5), (3, 5), (5, 9), (6, 8), (7, 8), (8, 9)}
    td = TreeDecomposition(edges, {v: frozenset({v}) for v in range(1, 10)})
    color = {v: "blue" for v in range(1, 9)}
    color[9] = "red"
    f = frozenset({(1, 9), (5, 9), (8, 9)})
    out, oc = contract_blue(td, Coloring(color, f))
    assert write_td(out, 9, oc.color) == (
        "s td 4 4 9\n"
        "b 1 1\n"
        "b 2 9\n"
        "b 3 6 7 8\n"
        "b 4 2 3 4 5\n"
        "1 2\n"
        "2 3\n"
        "2 4\n"
        "c color 1 blue\n"
        "c color 2 red\n"
        "c color 3 blue\n"
        "c color 4 blue\n"
    )
    assert oc.f_edges == {(1, 9), (9, 13), (9, 14)} == out.tree_edges


def test_contract_blue_matches_the_edge_by_edge_reference():
    """On seeded random trees of 2-14 nodes, with random node ids, bags,
    colourings and F sets, ``contract_blue`` writes the same bytes and
    keeps the same F edges as the reference that builds one
    decomposition per contracted edge; with no all-blue edge it returns
    its input itself."""
    rng = random.Random(32)
    contracted = untouched = 0
    for _ in range(2500):
        ids = rng.sample(range(1, 30), rng.randint(2, 14))
        edges = {
            tuple(sorted((u, rng.choice(ids[:i]))))
            for i, u in enumerate(ids) if i
        }
        n = rng.randint(1, 8)
        bags = {u: rng.sample(range(1, n + 1), rng.randint(0, n)) for u in ids}
        td = TreeDecomposition(edges, bags)
        blue = rng.random()
        color = {u: "blue" if rng.random() < blue else "red" for u in ids}
        f = frozenset(e for e in sorted(edges) if rng.random() < 0.3)
        coloring = Coloring(color, f)
        out, oc = contract_blue(td, coloring)
        want, want_c = reference_contract_blue(td, coloring)
        assert write_td(out, n, oc.color) == write_td(want, n, want_c.color)
        assert oc == want_c
        if want == td:
            assert out is td
            untouched += 1
        else:
            contracted += 1
    assert contracted >= 1465 and untouched >= 1035


# At (k, m) = (4, 4), lean node 19 is the home of the block
# {4, 6, 8, 9, 11} and of the model [[3, 4, 6, 8], [11], [9], [1]], and
# the two orient the order-3 separation ({1, 2, 3, 9, 11}, {3, ..., 11})
# apart: only the branch set [1] avoids its separator.
MISMATCH_GRAPH = Graph.from_edges(11, [
    (1, 2), (1, 3), (1, 9), (1, 11), (3, 4), (3, 8), (4, 6), (4, 8),
    (4, 11), (5, 6), (5, 10), (5, 11), (6, 8), (6, 9), (7, 8), (7, 9),
    (7, 10), (8, 9), (8, 11), (9, 11), (10, 11),
])


def test_subdivision_exit_orientation_mismatch():
    """The block and the model at the shared home orient an order-3
    separation apart, but the exit needs agreement only below order
    r(r−1) = 2, so the run ends in a subdivision."""
    params = Parameters.generalized_km(4, 4)
    res = run_structure(MISMATCH_GRAPH, params)
    assert res.variant == "subdivision"
    assert verify_subdivision(MISMATCH_GRAPH, params.r, res.subdivision)


SOAK_PAIRS = (
    (2, 3), (2, 5), (3, 4), (3, 5), (3, 6), (4, 4), (4, 5), (4, 6),
    (4, 7), (5, 5), (5, 6), (5, 9), (6, 11),
)


@pytest.fixture(scope="module")
def soak_runs():
    """(parameters, graph, result) of ``run_structure`` on 100 seeded
    graphs per (k, m) pair of SOAK_PAIRS, at a budget of 200,000; the
    result is None where the budget ran out."""
    runs = []
    for k, m in SOAK_PAIRS:
        params = Parameters.generalized_km(k, m)
        for g in small_corpus(100 * k + m, 100, 12):
            try:
                res = run_structure(g, params, budget=200_000)
            except BudgetExceeded:
                res = None
            runs.append((params, g, res))
    return tuple(runs)


def test_run_structure_soak_over_k_and_m(soak_runs):
    """Over the soak runs, every run ends in a subdivision that
    ``verify_subdivision`` accepts or a decomposition that
    ``verify_theorem`` passes, and none spends its budget.  The floors
    are those of a reading of 255 subdivisions and 1,045
    decompositions."""
    ends = {"subdivision": 0, "decomposition": 0, "budget": 0}
    for params, g, res in soak_runs:
        if res is None:
            ends["budget"] += 1
        elif res.variant == "subdivision":
            assert verify_subdivision(g, params.r, res.subdivision)
            ends["subdivision"] += 1
        else:
            rep = verify_theorem(g, params, res, budget=200_000)
            assert not rep.failures, (params, rep.failures)
            ends["budget" if rep.unverified else "decomposition"] += 1
    assert ends["subdivision"] >= 255 and ends["decomposition"] >= 1045
    assert ends["budget"] == 0


def test_model_homes_match_the_meet_search_reference(soak_runs):
    """Some m vertices of V_t seed a Z-based K_m model iff some K_m
    model has every branch set meeting V_t.  So the home sets of the
    soak runs, and of the benchmark's ``corpus`` graphs at seeds 1 and
    2, equal those of the meet search in ``tests/conftest.py``, which
    finishes within 2,000,000 units on each graph.  The floor is that
    of a reading of 412 graphs with a home."""
    params = Parameters.generalized_km(3, 6)
    runs = soak_runs + tuple(
        (params, g, run_structure(g, params))
        for seed in (1, 2)
        for g in perfbench_corpora(seed, "corpus")
    )
    with_home = 0
    for params, g, res in runs:
        want = meeting_homes(g, params.m, res.lean, Budget(2_000_000))
        assert res.model_nodes == want, (params, g.sorted_edges())
        with_home += bool(want)
    assert with_home >= 412


def test_shared_homes_agree_below_the_copy_set_order(soak_runs):
    """Wherever a k-block and a K_m model share a home node t, in the
    soak runs and on MISMATCH_GRAPH, the two orient every separation
    of order < r(r−1) alike, as the leanness argument in
    ``extract_subdivision`` says, and the extraction from the block's
    r smallest vertices returns a verified subdivision.  The floor is
    that of a reading of 291 shared homes.  Agreement over all of S_k
    fails at one of them, on MISMATCH_GRAPH, so an S_k-wide check would
    refuse an exit that exists."""
    params = Parameters.generalized_km(4, 4)
    runs = soak_runs + (
        (params, MISMATCH_GRAPH, run_structure(MISMATCH_GRAPH, params)),
    )
    shared = wider = 0
    for params, g, res in runs:
        if res is None:
            continue
        k, m, td = params.k, params.m, res.lean
        z = params.r * (params.r - 1)
        for b in res.blocks:
            (t,) = [t for t in td.nodes if b.vertices <= td.bags[t]]
            if t not in res.model_nodes:
                continue
            model = find_meeting_model(g, m, td.bags[t])
            seps = enumerate_separations(g, k)
            below = [s for s in seps if s.order < z]
            o_b, o_x = BlockOrientation(k, b), ModelOrientation(k, model)
            assert orientations_agree(g, k, o_b, o_x, seps=below)
            wider += not orientations_agree(g, k, o_b, o_x, seps=seps)
            b0 = tuple(sorted(b.vertices)[: params.r])
            emb = extract_subdivision(g, b0)
            assert emb is not None and emb.branch_vertices == b0
            assert verify_subdivision(g, params.r, emb)
            shared += 1
    assert shared >= 270 and wider >= 1


def test_check_join_lemma_simple():
    g = two_triangles_joined()
    td = TreeDecomposition(
        {(1, 2)},
        {1: frozenset({1, 2, 3}), 2: frozenset({3, 4, 5})},
    )
    assert verify_decomposition(g, td)
    assert check_join_lemma(g, td, 1, 2)
    assert check_join_lemma(g, td, 2, 1)


def test_check_join_lemma_adhesion_zero():
    g = Graph.from_edges(2, [])
    td = TreeDecomposition({(1, 2)}, {1: frozenset({1}), 2: frozenset({2})})
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
    """The lean builder and the k-block relation share one S_k(G), and
    the subdivision exit enumerates none: ``obstructions`` does not
    import the enumerator."""
    from topstruct import decomposition, lean, obstructions
    from topstruct.separations import enumerate_separations

    assert not hasattr(obstructions, "enumerate_separations")

    calls = []

    def counting(g, k, *args, **kwargs):
        calls.append(k)
        return enumerate_separations(g, k, *args, **kwargs)

    for module in (pipeline, lean, decomposition):
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


def test_run_structure_stages_share_one_budget():
    # on the Petersen graph at (3, 6) S_k costs 112 units, the k-block
    # relation 45 and its clique enumeration 11: each fits in 150, the
    # run does not, and the error carries the meter's total
    g, p = petersen_graph(), Parameters.generalized_km(3, 6)
    meter = Budget(150)
    with pytest.raises(BudgetExceeded, match="k-block relation") as exc:
        run_structure(g, p, budget=meter)
    assert exc.value.spent == meter.spent > meter.limit
    enumerate_separations(g, p.k, budget=150)
    find_k_blocks(g, p.k, budget=150)
    meter = Budget(168)
    assert run_structure(g, p, budget=meter).variant == "decomposition"
    assert meter.spent == 168


def test_run_structure_reads_the_block_relation_off_s_k(monkeypatch):
    # the run holds S_k already, so the k-block relation needs no flow
    def no_flow(*args):
        raise AssertionError("max-flow for the k-block relation")

    monkeypatch.setattr(obstructions, "min_vertex_cut", no_flow)
    for g in small_corpus(71, 12, 9, min_n=4):
        run_structure(g, Parameters.generalized_km(3, 6))


def test_run_structure_lemma_properties():
    """Coloring totality, join lemma on F edges, blue torsos minor-free."""
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
                torso = torso_at_subtree(g, res.decomposition, {t})
                assert not minor_oracle(torso, p.m)
    assert runs > 5


def _check_red_half_run(g, params, res, budget):
    """The checks of the red-half family test on one run at (4, 5).

    Returns whether the run was verified, and the numbers of F edges,
    join lemmas and red nodes checked.  ``budget`` bounds the
    verifier's run and each of this test's own K_5 checks; a check that
    runs out of it leaves the run unverified, and fails nothing.
    """
    k, m = params.k, params.m
    if res.variant == "subdivision":
        assert verify_subdivision(g, params.r, res.subdivision)
        return True, 0, 0, 0
    rep = verify_theorem(g, params, res, budget=budget)
    assert not rep.failures, rep.failures
    verified = not rep.unverified
    lean, lc = res.lean, res.lean_coloring
    block_homes = [
        t for t in lean.nodes if any(b.vertices <= lean.bags[t] for b in res.blocks)
    ]
    bichromatic = 0
    for a, b in sorted(lc.f_edges):
        assert any(
            {a, b} in map(set, lean.path_edges(tb, tx))
            and lean.edge_order(a, b) == lean.min_order_on_path(tb, tx)
            for tb in block_homes
            for tx in res.model_nodes
        )
        if lc.color[a] == lc.color[b]:
            continue
        s, t = (a, b) if lc.color[a] == "blue" else (b, a)
        assert check_join_lemma(g, lean, s, t)
        bichromatic += 1
    td, color = res.decomposition, res.coloring.color
    assert res.coloring.f_edges == {
        e for e in td.tree_edges if color[e[0]] != color[e[1]]
    }
    assert len(res.coloring.f_edges) == bichromatic
    red_checked = 0
    for t in sorted(td.nodes):
        torso = torso_at_subtree(g, td, {t})
        if color[t] == "blue":
            try:
                assert not minor_oracle(torso, m, budget)
            except BudgetExceeded:
                verified = False
        else:
            high = sum(torso.degree(v) >= 2 * k * k for v in torso.vertices)
            assert high < k
            red_checked += 1
    return verified, len(lc.f_edges), bichromatic, red_checked


def test_octahedron_petersen_family_reaches_the_red_half(
    octahedron_petersen_runs,
):
    """At (4, 5) each of the 30 seeded ``octahedron_petersen`` graphs
    ends, within 2,000,000 units, in a verified subdivision or a
    verified decomposition.  In each decomposition:

    - every F edge has the least order on the tree path between a
      block home and a model home, and one that joins a blue and a red
      node satisfies the join lemma toward its red end;
    - the contracted decomposition keeps those F edges, renamed: they
      are exactly its tree edges between the two colours;
    - no blue torso has a K_5 minor, and every red torso has fewer than
      k vertices of degree at least 2k².

    The floors are those of a reading of 10 subdivisions, 20
    decompositions, 21 F edges (20 of them between the colours) and
    117 red nodes.

    Random cubic graphs on 12 and 16 vertices, 20 seeds each, hold no
    4-block, so they end in decompositions without F edges: red-only
    where a K_5 model has a home, one blue bag where there is none.
    The verifier's oracle takes 18-28 s to refute K_5 on a 16-vertex
    cubic torso, so their K_5 checks run within 2,000 units each; a
    check that runs out leaves its run unverified (ROADMAP item 2).
    The floors are those of a reading of 20 and 18 verified runs and
    68 and 171 red nodes; the two runs left unverified are the
    16-vertex graphs with a blue bag.
    """
    params = Parameters.generalized_km(4, 5)
    ends = {"subdivision": 0, "decomposition": 0}
    f_checked = joins_checked = red_checked = 0
    for seed, (g, res) in enumerate(octahedron_petersen_runs):
        ends[res.variant] += 1
        verified, f, joins, red = _check_red_half_run(
            g, params, res, DEFAULT_BUDGET
        )
        assert verified, seed
        f_checked += f
        joins_checked += joins
        red_checked += red
    assert ends["subdivision"] >= 10 and ends["decomposition"] >= 20
    assert f_checked >= 21 and joins_checked >= 20 and red_checked >= 117
    cubic = {12: [0, 0], 16: [0, 0]}  # n -> [verified runs, red nodes]
    for n, counts in cubic.items():
        for seed in range(20):
            g = random_cubic(n, random.Random(seed))
            res = run_structure(g, params, budget=2_000_000)
            assert res.variant == "decomposition", (n, seed)
            verified, f, _, red = _check_red_half_run(g, params, res, 2_000)
            assert f == 0, (n, seed)
            counts[0] += verified
            counts[1] += red
    assert cubic[12][0] >= 20 and cubic[12][1] >= 68
    assert cubic[16][0] >= 18 and cubic[16][1] >= 171


def test_model_homes_match_unpruned_search():
    """The prunes in _model_home_nodes skip only searches that fail.

    Besides each lean result, every multi-bag decomposition the lean
    builder passes through is compared.  The planar 3-trees at (2, 7)
    are refuted by the width bound where the surplus rule cannot.  The
    lean decompositions of the 30 ``octahedron_petersen`` seeds at
    (4, 5), multi-bag with red homes, are compared with the bag-subset
    loop over the search without the cover bound; the floor is that of
    a reading of 40 homes.
    """
    rng = random.Random(11)
    corpus = small_corpus(29, 40, 10)
    cases = [(2, 4, corpus), (3, 6, corpus), (2, 5, corpus)]
    cases.append((2, 7, [planar_3_tree(n, rng) for n in (10, 11, 11, 12)]))
    homes_seen = empty_seen = width_only = 0
    for k, m, graphs in cases:
        for g in graphs:
            if refutes_clique_minor(g, m) and not surplus_refutes(g, m):
                width_only += 1
            tds = [td for _, td in lean_step_trace(g, k) if len(td.nodes) > 1]
            tds.append(build_k_lean(g, k))
            for td in tds:
                want = {
                    t
                    for t in sorted(td.nodes)
                    if find_meeting_model(g, m, td.bags[t]) is not None
                }
                got = pipeline._model_home_nodes(
                    g, m, td, budget=DEFAULT_BUDGET
                )
                assert got == want
                homes_seen += bool(want)
                empty_seen += not want
    assert homes_seen > 5 and empty_seen > 5 and width_only > 0
    family_homes = 0
    for seed in range(30):
        g = octahedron_petersen(seed)
        td = build_k_lean(g, 4)
        want = unpruned_homes(g, 5, td)
        assert len(td.nodes) > 1 and want, seed
        got = pipeline._model_home_nodes(g, 5, td, budget=DEFAULT_BUDGET)
        assert got == want, seed
        family_homes += len(want)
    assert family_homes >= 40


def test_model_homes_skip_search_below_edge_count(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return find_z_based_model(*args, **kwargs)

    monkeypatch.setattr(pipeline, "find_z_based_model", counting)
    g = cycle_graph(8)  # 8 vertices, but K_5 needs 10 edges
    td = TreeDecomposition.single_bag(g.vertices)
    assert pipeline._model_home_nodes(g, 5, td, budget=DEFAULT_BUDGET) == set()
    assert calls == []
    # K_5 has exactly as many edges as it needs, so the search runs
    k5 = complete_graph(5)
    td = TreeDecomposition.single_bag(k5.vertices)
    homes = pipeline._model_home_nodes(k5, 5, td, budget=DEFAULT_BUDGET)
    assert homes == {1}
    assert len(calls) == 1  # the bag's one 5-subset seeds the model


_SCALING_FIXTURES = {
    "3-5": lambda: grid_graph(3, 5),
    "4-4": lambda: grid_graph(4, 4),
    "4-5": lambda: grid_graph(4, 5),
    "rand16": lambda: random_graph(16, 0.25, random.Random(1)),
}


@pytest.mark.parametrize("name", sorted(_SCALING_FIXTURES))
def test_grids_refuted_without_model_search(monkeypatch, name):
    """Grids 3×5, 4×4 and 4×5 and rand16 at (3, 6) hold no K_6 minor.
    The edge-surplus rule proves it for the first two, the greedy
    elimination width for the other two, on the whole graph, so no
    model search runs at all."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return find_z_based_model(*args, **kwargs)

    monkeypatch.setattr(pipeline, "find_z_based_model", counting)
    g = _SCALING_FIXTURES[name]()
    params = Parameters.generalized_km(3, 6)
    result = run_structure(g, params)
    assert calls == []
    assert result.variant == "decomposition" and not result.model_nodes
    assert verify_theorem(g, params, result).passed


def _structure_outcome(g, params):
    """Report lines and output bytes of a run, or its exception type."""
    try:
        res = run_structure(g, params)
    except Exception as exc:
        return type(exc)
    if res.variant == "subdivision":
        out = serialize_subdivision(res.subdivision)
    else:
        out = write_td(res.decomposition, g.n, res.coloring.color)
    return res.variant, res.report, out


def test_run_structure_needs_no_degenerate_separation(monkeypatch):
    """Given all of S_k, degenerate (V, X) members included, the run
    gives the same report and bytes, or raises the same exception, as
    with the proper members alone."""
    seen = {"subdivision": 0, "decomposition": 0}
    graphs = small_corpus(101, 100, 9, min_n=2)
    for k, m in ((2, 4), (3, 5), (3, 6), (4, 4)):
        params = Parameters.generalized_km(k, m)
        for g in graphs:
            want = _structure_outcome(g, params)
            with monkeypatch.context() as patch:
                patch.setattr(pipeline, "enumerate_separations", full_s_k)
                assert _structure_outcome(g, params) == want
            if not isinstance(want, type):
                seen[want[0]] += 1
    assert seen["subdivision"] > 20 and seen["decomposition"] > 100
