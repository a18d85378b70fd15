import itertools
import random

import pytest

from conftest import (
    BlockOrientation,
    ModelOrientation,
    SeparationDoesNotDecide,
    UnprunedModelSearch,
    blocks_by_definition,
    check_rs_lemma,
    components,
    find_meeting_model,
    home_node,
    is_valid_model,
    min_degree_width,
    orientation_is_consistent,
    orientations_agree,
    overlay_clique,
    perfbench_corpora,
    planar_3_tree,
    random_cubic,
    small_corpus,
    surplus_refutes,
)

from topstruct.errors import (
    Budget,
    BudgetExceeded,
    InvariantViolation,
    PreconditionFailed,
)
from topstruct.graph import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    grid_graph,
    mask_of,
    path_graph,
    petersen_graph,
    random_graph,
)
from topstruct.obstructions import (
    Block,
    Model,
    _ModelSearch,
    extract_subdivision,
    find_clique_model,
    find_k_blocks,
    find_subdivision,
    find_z_based_model,
    refutes_clique_minor,
    serialize_model,
    serialize_subdivision,
)
from topstruct.separations import Separation, enumerate_separations
from topstruct.lean import build_k_lean
from topstruct.verifier import minor_oracle, verify_subdivision


# -- blocks --------------------------------------------------------------


def test_blocks_known_values():
    assert [sorted(b.vertices) for b in find_k_blocks(complete_graph(5), 4)] == [
        [1, 2, 3, 4, 5]
    ]
    assert find_k_blocks(cycle_graph(5), 3) == []
    assert [sorted(b.vertices) for b in find_k_blocks(cycle_graph(5), 2)] == [
        [1, 2, 3, 4, 5]
    ]


def test_blocks_match_definition():
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.choice([0.2, 0.5, 0.8]), rng)
        k = rng.randint(2, 3)
        got = sorted(
            tuple(sorted(b.vertices)) for b in find_k_blocks(g, k)
        )
        expected = sorted(
            tuple(sorted(b)) for b in blocks_by_definition(g, k)
        )
        assert got == expected, (n, k, g.sorted_edges())


def test_blocks_budget():
    with pytest.raises(BudgetExceeded):
        find_k_blocks(complete_graph(8), 2, budget=2)


def test_blocks_budget_bounds_the_relation():
    # P_30 has 435 vertex pairs, each a max-flow, but its relation graph
    # is a path that Bron–Kerbosch expands in well under 200 nodes
    g = path_graph(30)
    with pytest.raises(BudgetExceeded, match="k-block relation"):
        find_k_blocks(g, 2, budget=200)
    assert len(find_k_blocks(g, 2)) == 29


def test_blocks_from_separations_match_max_flow_relation():
    # the relation read off S_k against one max-flow per pair, on n <= 9
    rng = random.Random(67)
    disconnected = 0
    for i in range(200):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.choice([0.1, 0.25, 0.5, 0.8]), rng)
        if i % 4 == 0 and n > 1:  # a disjoint union of two random graphs
            cut = rng.randint(1, n - 1)
            h = random_graph(n - cut, rng.choice([0.5, 0.8]), rng)
            g = Graph.from_edges(
                n,
                [(u, v) for u, v in g.edges if v <= cut]
                + [(u + cut, v + cut) for u, v in h.edges],
            )
        disconnected += len(components(g)) > 1
        k = 1 + i % 4
        seps = enumerate_separations(g, k)
        assert find_k_blocks(g, k, seps=seps) == find_k_blocks(g, k), (
            k, g.sorted_edges()
        )
    assert disconnected >= 50


# -- clique models -------------------------------------------------------


def test_model_trivial_and_petersen():
    m = find_clique_model(complete_graph(4), 4)
    assert sorted(sorted(s) for s in m.branch_sets) == [[1], [2], [3], [4]]
    pet = petersen_graph()
    m5 = find_clique_model(pet, 5)
    assert m5 is not None and is_valid_model(pet, m5, 5)
    assert find_clique_model(pet, 6) is None


def test_model_results_always_valid():
    rng = random.Random(43)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.choice([0.3, 0.6]), rng)
        m = rng.randint(1, 5)
        model = find_clique_model(g, m)
        if model is not None:
            assert is_valid_model(g, model, m)


def test_model_require_meet():
    """A K_m model whose every branch set meets a set exists iff m
    vertices of that set seed a Z-based model."""
    g = path_graph(5)
    # a K_2 model with both sets meeting {1, 5} needs the whole path
    model = find_meeting_model(g, 2, {1, 5})
    assert model is not None
    assert all(set(s) & {1, 5} for s in model.branch_sets)
    assert find_z_based_model(g, [1, 5]) is not None
    # impossible constraint: one vertex cannot seed two sets
    g2 = Graph.from_edges(3, [(1, 2)])
    assert find_meeting_model(g2, 2, {3}) is None
    assert find_meeting_model(g2, 2, {1, 3}) is None
    assert find_z_based_model(g2, [1, 3]) is None


def test_model_budget():
    with pytest.raises(BudgetExceeded):
        find_clique_model(complete_graph(9), 5, budget=3)


def _search_state(g, m, sets, seeds=None):
    """A search on g whose open sets are ``sets``, with their
    neighbourhood masks."""
    search = _ModelSearch(g, m, Budget(0), seeds=seeds)
    search.sets = [mask_of(s) for s in sets]
    search.nbrs = []
    for s in sets:
        nbrs = 0
        for v in s:
            nbrs |= g.adj[v]
        search.nbrs.append(nbrs)
    return search


def test_feasibility_accepts_every_complete_model_state():
    """A complete model is ``_feasible(0)``, free and seeded, and stays
    feasible with vertices left: it has no unjoined pair, so the cover
    bound asks for no remaining vertex."""
    c6 = cycle_graph(6)
    model = [{1, 2}, {3, 4}, {5, 6}]
    assert _search_state(c6, 3, model)._feasible(0)
    assert _search_state(c6, 3, model, seeds=[1, 3, 5])._feasible(0)
    # K4 with a pendant vertex 5 left over, and a K_3 model of the wheel
    # (a 4-cycle 1-3-2-4 and hub 5) with the hub left over
    k4_pendant = Graph.from_edges(5, complete_graph(4).edges | {(1, 5)})
    singletons = [{1}, {2}, {3}, {4}]
    assert _search_state(k4_pendant, 4, singletons, [1, 2, 3, 4])._feasible(0)
    assert _search_state(k4_pendant, 4, singletons)._feasible(1 << 5)
    wheel = Graph.from_edges(
        5, [(1, 3), (3, 2), (2, 4), (4, 1)] + [(v, 5) for v in range(1, 5)]
    )
    assert _search_state(wheel, 3, [{1, 3}, {2}, {4}])._feasible(1 << 5)
    # unjoined sets with nothing left are no model
    assert not _search_state(wheel, 4, singletons, [1, 2, 3, 4])._feasible(0)


def test_cover_bound_cuts_only_states_without_a_model():
    """The bound refuses states whose sets all reach one another
    through the remaining vertices, but that need more of them than
    there are, and keeps a state that needs exactly as many."""
    # a star's three leaves all reach one another through the centre,
    # but each is forced to take it
    star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    leaves = _search_state(star, 3, [{2}, {3}, {4}], [2, 3, 4])
    assert not leaves._feasible(1 << 1)
    assert find_z_based_model(star, [2, 3, 4]) is None
    # the wheel's rim seeds two unjoined pairs, no set forced: a
    # matching of two pairs needs two vertices, and only the hub is left
    wheel = Graph.from_edges(
        5, [(1, 3), (3, 2), (2, 4), (4, 1)] + [(v, 5) for v in range(1, 5)]
    )
    rim = [{1}, {2}, {3}, {4}]
    assert not _search_state(wheel, 4, rim, [1, 2, 3, 4])._feasible(1 << 5)
    assert find_z_based_model(wheel, [1, 2, 3, 4]) is None
    # on the path 1-3-2 each seed has one unjoined partner and one
    # remaining neighbour, so neither is forced, and {1, 3}, {2} is a
    # model
    path = Graph.from_edges(3, [(1, 3), (3, 2)])
    assert _search_state(path, 2, [{1}, {2}], [1, 2])._feasible(1 << 3)
    assert find_z_based_model(path, [1, 2]) is not None


def _search_outcome(search, limit):
    """(model or None, units spent), or ("budget", units spent)."""
    meter = Budget(limit)
    try:
        return search(meter), meter.spent
    except BudgetExceeded:
        return "budget", meter.spent


def test_model_search_matches_the_completeness_test_reference():
    """The cover bound cuts only subtrees without a model.  On seeded
    graphs with n 1-11 and m 0-7, free and seeded, the search finds the
    model (or None) of ``UnprunedModelSearch`` wherever that reference
    finishes, and never spends more budget than it.  The floors are
    those of a reading of the reference's 356 models, 230 searches that
    find none and 14 spent budgets, and of 5 searches the bound cut
    short."""
    rng = random.Random(2500)
    limit = 2000
    outcomes = {"model": 0, None: 0, "budget": 0}
    cut_short = 0
    for _ in range(300):
        n = rng.randint(1, 11)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.8]), rng)
        m = rng.randint(0, 7)
        verts = sorted(g.vertices)
        rng.sample(verts, rng.randint(1, n))  # keeps the seeded corpus
        z = rng.sample(verts, min(m, n))
        pairs = [
            (
                lambda b: find_clique_model(g, m, b),
                lambda b: UnprunedModelSearch(g, m, b).run(),
            ),
            (
                lambda b: find_z_based_model(g, z, b),
                lambda b: UnprunedModelSearch(g, len(z), b, seeds=z).run(),
            ),
        ]
        for search, reference in pairs:
            got, spent = _search_outcome(search, limit)
            want, ref_spent = _search_outcome(reference, limit)
            case = (sorted(g.edges), n, m, z)
            assert spent <= ref_spent, case
            if want != "budget":
                assert got == want, case
            cut_short += spent < ref_spent
            outcomes["model" if isinstance(want, Model) else want] += 1
    assert outcomes["model"] > 300 and outcomes[None] > 190, outcomes
    assert outcomes["budget"] > 10, outcomes
    assert cut_short >= 5, cut_short


def test_refutation_agrees_with_minor_oracle():
    """Whenever refutes_clique_minor refutes K_m, the verifier's
    independent oracle finds no K_m minor either.  The refutation is
    exactly the union of the edge-surplus rule and the width bound of
    the greedy min-degree elimination."""
    graphs = (
        small_corpus(101, 500, 12)  # the acceptance corpus
        + perfbench_corpora()
        + [grid_graph(3, 4), grid_graph(3, 5), grid_graph(4, 4)]
        + [petersen_graph(), complete_graph(6), complete_graph(7)]
    )
    refuted = beyond_counting = width_only = kept = 0
    for g in graphs:
        width = min_degree_width(g)
        for m in range(4, 8):
            by_surplus = surplus_refutes(g, m)
            by_width = width < m - 1
            refutes = refutes_clique_minor(g, m)
            assert refutes == (by_surplus or by_width), (sorted(g.edges), m)
            if not refutes:
                kept += 1
                continue
            assert not minor_oracle(g, m), (sorted(g.edges), m)
            refuted += 1
            beyond_counting += g.n >= m and len(g.edges) >= m * (m - 1) // 2
            width_only += not by_surplus
    assert refuted > 4800 and beyond_counting > 800 and width_only > 200
    assert kept > 900
    # exact at the boundary: K_m itself survives, K_m minus an edge not
    for m in range(4, 8):
        km = complete_graph(m)
        assert not refutes_clique_minor(km, m)
        assert refutes_clique_minor(Graph(m, km.edges - {(1, 2)}), m)


def test_refutation_by_width_and_by_surplus():
    # treewidth 3 and 4, but too many edges for the surplus rule
    rng = random.Random(3)
    for n in range(8, 13):
        g = planar_3_tree(n, rng)
        for m in (6, 7):
            assert refutes_clique_minor(g, m)
        assert not surplus_refutes(g, 6)
    assert refutes_clique_minor(grid_graph(4, 5), 6)
    assert not surplus_refutes(grid_graph(4, 5), 6)
    # 16 vertices and 24 edges leave no room for K_6, but the greedy
    # elimination of this cubic graph reaches degree 5
    cubic = random_cubic(16, random.Random(8))
    assert surplus_refutes(cubic, 6) and min_degree_width(cubic) >= 5
    assert refutes_clique_minor(cubic, 6)


def test_refutation_counts_below_four():
    # m ≤ 3 is a vertex and edge count; the degree-2 contraction would
    # turn the triangle into an edge
    assert not refutes_clique_minor(cycle_graph(3), 3)
    assert refutes_clique_minor(path_graph(3), 3)
    assert refutes_clique_minor(Graph.from_edges(3, []), 2)
    assert not refutes_clique_minor(Graph.from_edges(1, []), 1)
    assert refutes_clique_minor(Graph.from_edges(0, []), 1)
    assert not refutes_clique_minor(Graph.from_edges(0, []), 0)


# -- z-based models ------------------------------------------------------


def test_z_based_examples():
    m = find_z_based_model(complete_graph(4), [1, 2, 3, 4])
    assert sorted(sorted(s) for s in m.branch_sets) == [[1], [2], [3], [4]]
    star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    assert find_z_based_model(star, [2, 3, 4]) is None
    c6 = cycle_graph(6)
    m = find_z_based_model(c6, [1, 3, 5])
    # alternate vertices of C6: each takes its clockwise neighbor, giving
    # {1,2}, {3,4}, {5,6}, which are pairwise adjacent around the cycle
    assert m is not None
    assert all(len(set(s) & {1, 3, 5}) == 1 for s in m.branch_sets)
    m = find_z_based_model(c6, [1, 4])
    assert m is not None
    assert all(len(set(s) & {1, 4}) == 1 for s in m.branch_sets)


def test_z_based_empty():
    m = find_z_based_model(path_graph(3), [])
    assert m is not None and m.branch_sets == ()


def test_z_based_rejects_vertices_outside_the_graph():
    c4 = cycle_graph(4)
    for z, bad in (([1, 99], 99), ([0, 1], 0), ([1, -2], -2), ([5, 0], 5)):
        message = r"z vertex %d outside 1\.\.4" % bad
        with pytest.raises(ValueError, match=message):
            find_z_based_model(c4, z)


# -- subdivisions --------------------------------------------------------


def test_subdivision_examples():
    g = complete_graph(5)
    s = find_subdivision(g, 4)
    assert s is not None
    assert all(len(p) == 2 for p in s.paths.values())
    assert verify_subdivision(g, 4, s)
    c6 = cycle_graph(6)
    s = find_subdivision(c6, 3)
    assert s is None or verify_subdivision(c6, 3, s)
    # C6 has max degree 2: no K3 subdivision needs degree 2... it does exist
    assert s is not None
    assert find_subdivision(complete_bipartite(3, 3), 5) is None
    pet = petersen_graph()
    s = find_subdivision(pet, 4)
    assert s is not None and verify_subdivision(pet, 4, s)


def test_subdivision_none_cases():
    assert find_subdivision(path_graph(5), 3) is None
    assert find_subdivision(Graph.from_edges(3, []), 2) is None
    s = find_subdivision(path_graph(2), 2)
    assert s is not None and list(s.paths.values()) == [(1, 2)]


# -- orientations --------------------------------------------------------


def test_block_orientation_directions():
    g = path_graph(3)
    blocks = find_k_blocks(g, 2)
    # the two edges are the 2-blocks; 1 and 3 are separated by vertex 2
    assert [sorted(b.vertices) for b in blocks] == [[1, 2], [2, 3]]
    b = blocks[0]
    o = BlockOrientation(2, b)
    s = Separation({1, 2}, {2, 3})
    assert o.w_side(s) == s.mask_a
    with pytest.raises(SeparationDoesNotDecide):
        o.w_side(Separation({1, 2, 3}, {2, 3}))
    split = Block(frozenset({1, 3}), 2)
    with pytest.raises(InvariantViolation):
        BlockOrientation(2, split).w_side(s)


def test_model_orientation_directions():
    g = path_graph(4)
    model = find_meeting_model(g, 2, {3, 4})
    o = ModelOrientation(2, model)
    s = Separation({1, 2}, {2, 3, 4})
    assert o.w_side(s) == s.mask_b
    with pytest.raises(SeparationDoesNotDecide):
        o.w_side(Separation({1, 2, 3, 4}, {3, 4}))  # order 2 >= k


def test_induced_orientations_consistent():
    rng = random.Random(47)
    for _ in range(20):
        n = rng.randint(2, 7)
        g = random_graph(n, rng.choice([0.4, 0.7]), rng)
        k = 2
        for b in find_k_blocks(g, k):
            assert orientation_is_consistent(g, BlockOrientation(k, b))
        model = find_clique_model(g, 2 * k)
        if model is not None:
            assert orientation_is_consistent(
                g, ModelOrientation(k, model)
            )


def test_s_k_consumers_read_only_masks(monkeypatch):
    """The lean builder's leanness checks and exchange steps and the
    k-block relation, and the reference orientations' homes and
    comparisons, read each separation's masks and order, and never
    build one of its vertex sets."""
    k = 3

    def built(self):
        raise AssertionError("vertex set built")

    for name in ("side_a", "side_b", "separator"):
        monkeypatch.setattr(Separation, name, property(built))
    cases = []
    for g in small_corpus(5, 60, 9):
        seps = enumerate_separations(g, k)
        cases.append((g, seps, build_k_lean(g, k, seps=seps)))
    checked = 0
    for g, seps, td in cases:
        orientations = [
            BlockOrientation(k, b) for b in find_k_blocks(g, k, seps=seps)
        ]
        for o in orientations:
            assert o.vertices <= td.bags[home_node(td, o)]
            # distinct k-blocks are split by a separation of order < k
            assert orientations_agree(
                g, k, orientations[0], o, seps=seps
            ) == (o is orientations[0])
            assert orientation_is_consistent(g, o)
            checked += 1
        assert td.check_k_lean(g, k, seps=seps) is None
    assert checked > 40


def test_block_home_is_the_node_whose_bag_holds_the_block():
    """On a k-lean decomposition every adhesion set has fewer than k
    vertices, so a k-block, of at least k, lies in exactly one bag, and
    that bag's node is the home of the block's orientation: the rule
    ``run_structure`` reads block homes by.  Besides the seeded graphs
    at k = 2, 3, 4, the benchmark's ``corpus`` graphs of seeds 1 and 2
    are checked at its k = 3: that rule's benchmark traffic."""
    cases = [(k, g) for k in (2, 3, 4) for g in small_corpus(90 + k, 60, 10)]
    small = len(cases)
    for seed in (1, 2):
        cases += [(3, g) for g in perfbench_corpora(seed, "corpus")]
    blocks = [0, 0]
    for i, (k, g) in enumerate(cases):
        seps = enumerate_separations(g, k)
        td = build_k_lean(g, k, seps=seps)
        for b in find_k_blocks(g, k, seps=seps):
            holders = [t for t in sorted(td.nodes) if b.vertices <= td.bags[t]]
            assert holders == [home_node(td, BlockOrientation(k, b))]
            blocks[i >= small] += 1
    assert blocks[0] > 150 and blocks[1] > 1300  # 152 and 1,390 read


# -- the pairwise-cut characterization ------------------------------------


def test_split_iff_pairwise_cut():
    from conftest import brute_set_split
    from topstruct.separations import min_vertex_cut

    rng = random.Random(53)
    for _ in range(15):
        n = rng.randint(2, 7)
        g = random_graph(n, rng.choice([0.3, 0.6]), rng)
        k = rng.randint(2, 3)
        verts = sorted(g.vertices)
        for size in (2, 3):
            if size > n:
                continue
            for combo in itertools.combinations(verts, size):
                bset = frozenset(combo)
                split = brute_set_split(g, bset, k)
                weak_pair = any(
                    not g.has_edge(u, v) and min_vertex_cut(g, u, v) < k
                    for u, v in itertools.combinations(combo, 2)
                )
                assert split == weak_pair, (g.sorted_edges(), combo, k)


# -- RS lemma ------------------------------------------------------------


def test_rs_lemma_trivial_cases():
    g = complete_graph(6)
    z = [1, 2, 3]
    x = find_clique_model(g, 5)
    assert check_rs_lemma(g, z, x) is True
    assert find_z_based_model(g, z) is not None
    assert check_rs_lemma(g, [], x) is True
    with pytest.raises(PreconditionFailed):
        small = find_clique_model(g, 2)
        check_rs_lemma(g, [1, 2, 3], small)


def test_rs_lemma_false_case():
    # two far-apart cliques: the model lives in one, z in the other
    edges = [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 7), (6, 8), (7, 8), (5, 8)]
    g = Graph.from_edges(8, edges)
    z = [1, 2]
    gz = overlay_clique(g, z)
    x = find_meeting_model(gz, 3, {5, 6, 7, 8})
    assert x is not None
    assert check_rs_lemma(g, z, x) is False


def test_rs_lemma_property_random():
    rng = random.Random(59)
    hits = 0
    for _ in range(80):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.7]), rng)
        p = rng.randint(1, 3)
        if n < p:
            continue
        z = rng.sample(sorted(g.vertices), p)
        gz = overlay_clique(g, z)
        x = find_clique_model(gz, 2 * p - 1)
        if x is None:
            continue
        if check_rs_lemma(g, z, x):
            hits += 1
            assert find_z_based_model(g, z) is not None
    assert hits > 5


# -- extraction ----------------------------------------------------------


def test_extract_on_k6():
    g = complete_graph(6)
    emb = extract_subdivision(g, (1, 2))
    assert emb.branch_vertices == (1, 2)
    assert verify_subdivision(g, 2, emb)


def test_extract_prescribes_branch_vertices():
    g = complete_graph(7)
    emb = extract_subdivision(g, (5, 3))
    assert emb.branch_vertices == (3, 5)
    assert verify_subdivision(g, 2, emb)


def test_extract_three_branch_vertices():
    # the copy graph of K_12 replaces 1, 5 and 9 by two copies each
    g = complete_graph(12)
    emb = extract_subdivision(g, (1, 5, 9))
    assert emb.branch_vertices == (1, 5, 9)
    assert verify_subdivision(g, 3, emb)


def test_extract_orientation_mismatch():
    """Two K4 blobs joined by one edge: the block {1, 2, 3, 4} and a K_3
    model on the right orient the cut vertex 4's separation apart, and
    the extraction, which reads neither, still joins 1 and 2."""
    edges = list(itertools.combinations([1, 2, 3, 4], 2))
    edges += list(itertools.combinations([5, 6, 7, 8], 2))
    edges.append((4, 5))
    g = Graph.from_edges(8, edges)
    blk = Block(frozenset({1, 2, 3, 4}), 2)
    mod = find_meeting_model(g, 3, {5, 6, 7, 8})
    assert not orientations_agree(
        g, 2, BlockOrientation(2, blk), ModelOrientation(2, mod)
    )
    emb = extract_subdivision(g, (1, 2))
    assert emb.paths == {(1, 2): (1, 2)}
    assert verify_subdivision(g, 2, emb)


def test_extract_precondition_errors():
    g = complete_graph(6)
    with pytest.raises(PreconditionFailed):
        extract_subdivision(g, (1,))
    with pytest.raises(PreconditionFailed):
        extract_subdivision(g, (1, 1))
    with pytest.raises(PreconditionFailed):
        extract_subdivision(g, (0, 1))
    with pytest.raises(PreconditionFailed):
        extract_subdivision(g, (1, 2, 7))
    # no path joins two isolated vertices: no copy-based model, no error
    assert extract_subdivision(Graph.from_edges(2, []), (1, 2)) is None


def test_extract_agreement_dichotomy():
    """Where a block and a model orient S_k alike, extraction from the
    block returns a verified subdivision (the RS lemma); where they do
    not, it still does, since it compares no orientations: a 2-block is
    connected, so its two smallest vertices are joined by a path."""
    rng = random.Random(61)
    agreed = disagreed = 0
    for _ in range(40):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.choice([0.3, 0.5]), rng)
        k = 2
        blocks = find_k_blocks(g, k)
        model = find_clique_model(g, 3)
        if model is None or not blocks:
            continue
        for b in blocks:
            o_b = BlockOrientation(k, b)
            o_x = ModelOrientation(k, model)
            b0 = tuple(sorted(b.vertices)[:2])
            emb = extract_subdivision(g, b0)
            assert verify_subdivision(g, 2, emb)
            assert emb.branch_vertices == b0
            if orientations_agree(g, k, o_b, o_x):
                agreed += 1
            else:
                disagreed += 1
    assert agreed > 0 and disagreed > 0


# -- serialization -------------------------------------------------------


def test_serialize_model():
    m = find_clique_model(complete_graph(3), 3)
    assert serialize_model(m) == "x 1: 1\nx 2: 2\nx 3: 3\n"


def test_serialize_subdivision():
    s = find_subdivision(complete_graph(3), 3)
    text = serialize_subdivision(s)
    assert text.splitlines()[0] == "bv 1 2 3"
    assert "path 1 2: 1 2" in text
