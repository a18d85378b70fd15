import hashlib
import itertools
import random

import pytest

from conftest import (
    brute_menger,
    build_k_atomic_exact,
    canonical,
    contract_tree_edge,
    full_s_k,
    is_separation,
    small_corpus,
    sort_key,
)

from topstruct.decomposition import (
    LeannessViolation,
    TreeDecomposition,
    parse_td,
    write_td,
)
from topstruct.errors import Budget, BudgetExceeded, InvariantViolation
from topstruct.graph import (
    Graph,
    bits,
    complete_graph,
    cycle_graph,
    grid_graph,
    mask_of,
    path_graph,
    petersen_graph,
    random_graph,
)
from topstruct.flows import disjoint_path_system
from topstruct.lean import (
    _prune,
    build_k_lean,
    improvement_step,
    lean_step_trace,
)
from topstruct.pipeline import Coloring, contract_blue
from topstruct.separations import Separation, enumerate_separations
from topstruct.verifier import verify_decomposition


def test_build_on_named_graphs():
    for g, k in [
        (path_graph(4), 2),
        (cycle_graph(5), 2),
        (complete_graph(4), 3),
        (grid_graph(3, 3), 3),
        (petersen_graph(), 4),
    ]:
        td = build_k_lean(g, k)
        assert verify_decomposition(g, td)
        assert td.check_k_lean(g, k) is None
        assert len(td.nodes) == 1 or td.adhesion() < k


def test_path_decomposes_fully():
    td = build_k_lean(path_graph(4), 2)
    assert sorted(len(b) for b in td.bags.values()) == [2, 2, 2]


def test_trace_shows_strict_fatness_descent():
    g = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    last = TreeDecomposition.single_bag(range(1, 7)).fatness(6)
    steps = 0
    for viol, td in lean_step_trace(g, 2):
        assert td.fatness(6) < last
        last = td.fatness(6)
        steps += 1
    assert steps >= 1


def test_improvement_step_rejects_non_violation():
    from topstruct.separations import Separation

    g = path_graph(3)
    td = TreeDecomposition.single_bag([1, 2, 3])
    # p larger than what the sides hold
    bogus = LeannessViolation(1, 1, 4, Separation({1, 2}, {2, 3}))
    with pytest.raises(InvariantViolation, match="not a leanness violation"):
        improvement_step(g, td, bogus)
    wrong_node = LeannessViolation(5, 5, 2, Separation({1, 2}, {2, 3}))
    with pytest.raises(InvariantViolation, match="not a leanness violation"):
        improvement_step(g, td, wrong_node)


def test_improvement_step_rejects_thin_sides_and_non_separations():
    # bag 1 = {1, 2, 3} holds three vertices of A = {1, 2, 3} but only
    # one of B = {3, 4, 5}; at p = 2 each direction fails on one side
    g = path_graph(5)
    td = TreeDecomposition({(1, 2)}, {1: {1, 2, 3}, 2: {3, 4, 5}})
    left, right = {1, 2, 3}, {3, 4, 5}
    for node, a, b in [(1, left, right), (1, right, left), (2, left, right)]:
        viol = LeannessViolation(node, node, 2, Separation(a, b))
        with pytest.raises(InvariantViolation, match="not a leanness violation"):
            improvement_step(g, td, viol)
    # on the single bag the sides are thick enough; the first pair is
    # crossed by the edge 34, the second leaves vertex 5 uncovered
    whole = TreeDecomposition.single_bag(range(1, 6))
    for p, a, b in [(1, {1, 2, 3}, {4, 5}), (2, {1, 2, 3}, {3, 4})]:
        viol = LeannessViolation(1, 1, p, Separation(a, b))
        with pytest.raises(InvariantViolation, match="not a leanness violation"):
            improvement_step(g, whole, viol)
    viol = LeannessViolation(1, 1, 2, Separation(left, right))
    assert verify_decomposition(g, improvement_step(g, whole, viol))


def test_improvement_step_applies_real_violation():
    g = Graph.from_edges(6, [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)])
    td = TreeDecomposition.single_bag(range(1, 7))
    viol = td.check_k_lean(g, 2)
    out = improvement_step(g, td, viol)
    assert verify_decomposition(g, out)
    assert out.fatness(6) < td.fatness(6)


def test_improvement_step_rejects_a_non_minimum_witness():
    """A witness whose separator lies outside the bag is not of minimum
    order, and the exchange step refuses it.

    Two K_4s, {1..4} and {7..10}, hang on the middle vertices 5 and 6;
    on the left only vertex 4 reaches them.  Node 1's bag holds both
    K_4s, node 2's the middle.  The order-2 witness through {5, 6}
    covers 4 vertices of bag 1 on each side, but the left K_4 sends only
    one path to {5, 6}: in one direction on the A side, in the other on
    the B side.  The leanness check returns the order-1 witness through
    {4} instead, which the step takes.
    """
    left, right = [1, 2, 3, 4], [7, 8, 9, 10]
    g = Graph.from_edges(
        10,
        list(itertools.combinations(left, 2))
        + list(itertools.combinations(right, 2))
        + [(4, 5), (4, 6), (5, 7), (6, 8)],
    )
    bags = {1: frozenset(left + right), 2: frozenset({4, 5, 6, 7, 8})}
    td = TreeDecomposition({(1, 2)}, bags)
    assert verify_decomposition(g, td) and td.adhesion() == 3
    for witness in (
        Separation({1, 2, 3, 4, 5, 6}, {5, 6, 7, 8, 9, 10}),
        Separation({5, 6, 7, 8, 9, 10}, {1, 2, 3, 4, 5, 6}),
    ):
        assert is_separation(g, witness.side_a, witness.side_b)
        viol = LeannessViolation(1, 1, 3, witness)
        with pytest.raises(InvariantViolation, match="minimum order"):
            improvement_step(g, td, viol)
    viol = td.check_k_lean(g, 4)
    assert (viol.s, viol.t, viol.p) == (1, 1, 2)
    assert viol.witness.separator == {4}
    out = improvement_step(g, td, viol)
    assert verify_decomposition(g, out)
    assert out.fatness(g.n) < td.fatness(g.n)


def test_exchange_along_longer_paths(monkeypatch):
    """The exchange routes a separator vertex along a path of several
    vertices; no benchmark workload takes such a step."""
    g = Graph.from_edges(12, [
        (1, 2), (1, 4), (1, 5), (2, 4), (2, 6), (3, 4), (3, 8), (3, 12),
        (4, 5), (4, 10), (4, 11), (5, 11), (6, 7), (6, 8), (7, 11),
        (8, 12), (9, 10), (10, 12), (11, 12),
    ])
    systems = []

    def recording(g, src, dst, allowed):
        paths, separator = disjoint_path_system(g, src, dst, allowed)
        systems.append(paths)
        return paths, separator

    monkeypatch.setattr("topstruct.lean.disjoint_path_system", recording)
    td = build_k_lean(g, 4)
    assert sum(any(len(p) > 1 for p in paths) for paths in systems) == 4
    assert write_td(td, 12) == (
        "s td 9 4 12\n"
        "b 1 1 2 4 5\n"
        "b 2 2 4 5 6\n"
        "b 3 4 5 6 11\n"
        "b 4 6 7 11\n"
        "b 5 4 6 8 11\n"
        "b 6 4 8 11 12\n"
        "b 7 4 10 12\n"
        "b 8 9 10\n"
        "b 9 3 4 8 12\n"
        "1 2\n2 3\n3 4\n3 5\n5 6\n6 7\n6 9\n7 8\n"
    )


def _chain_of_blobs(blobs, size, rng):
    """``blobs`` random blobs of ``size`` vertices in a row: each blob is
    a path plus random chords, and consecutive blobs are joined by two
    random edges."""
    edges = set()
    prev = None
    for b in range(blobs):
        vs = range(b * size + 1, (b + 1) * size + 1)
        edges |= set(zip(vs, vs[1:]))
        chords = [(u, w) for i, u in enumerate(vs) for w in vs[i + 2:]]
        edges |= set(rng.sample(chords, rng.randint(0, len(chords))))
        if prev is not None:
            edges |= set(rng.sample([(u, w) for u in prev for w in vs], 2))
        prev = vs
    return Graph.from_edges(blobs * size, sorted(edges))


# The bytes below were read from the exchange step that built its bags
# from frozensets and ran the flow network for every path system.
LEAN_BYTES_SHA256 = (
    "3bcedabd1f86ca66e145dd6da268685ba6ce971534b5fa278d9d0ec01f2a9292"
)


def test_lean_builder_bytes_are_pinned(monkeypatch):
    """The .td bytes of build_k_lean over a seeded corpus, as one digest.

    The benchmark's ``lean`` workload cannot see the exchange step: every
    one of its outputs contracts to a single all-blue bag.  Here the
    lean decompositions themselves are hashed, on random graphs at
    k = 2-4 and on chains of random blobs, which take several exchange
    steps each.  Nearly every path system is the separator itself; the
    last three graphs were drawn from seeds whose exchange steps route
    separator vertices along longer paths."""
    rng = random.Random(24)
    cases = [(g, k) for k in (2, 3, 4) for g in small_corpus(240 + k, 40, 10)]
    cases += [
        (_chain_of_blobs(rng.randint(2, 4), rng.randint(3, 5), rng), k)
        for k in (3, 4)
        for _ in range(15)
    ]
    for seed in (150, 166, 175):
        draw = random.Random(seed)
        g = random_graph(draw.randint(9, 12), draw.choice([0.2, 0.3, 0.4]), draw)
        cases += [(g, 3), (g, 4)]
    longer = []

    def recording(g, src, dst, allowed):
        paths, separator = disjoint_path_system(g, src, dst, allowed)
        longer.append(any(len(p) > 1 for p in paths))
        return paths, separator

    monkeypatch.setattr("topstruct.lean.disjoint_path_system", recording)
    digest = hashlib.sha256()
    steps = nodes = 0
    for g, k in cases:
        td = TreeDecomposition.single_bag(g.vertices)
        for _, td in lean_step_trace(g, k):
            steps += 1
        nodes += len(td.nodes)
        digest.update(write_td(td, g.n).encode())
    assert steps > 500 and nodes > 600 and sum(longer) == 8
    assert digest.hexdigest() == LEAN_BYTES_SHA256


def _reference_prune(bags, neigh):
    """_prune as first written: rescan ``sorted(nodes)`` after each merge,
    an empty bag merging into its smallest neighbor and a non-empty one
    into the first neighbor, ascending, whose bag holds it."""
    nodes = set(bags)
    changed = True
    while changed:
        changed = False
        for u in sorted(nodes):
            others = neigh[u]
            target = None
            if not bags[u]:
                target = min(others) if others else None
            else:
                for w in sorted(others):
                    if not bags[u] & ~bags[w]:
                        target = w
                        break
            if target is None:
                continue
            for w in others:
                if w != target:
                    neigh[w].discard(u)
                    neigh[w].add(target)
                    neigh[target].add(w)
            neigh[target].discard(u)
            nodes.discard(u)
            del bags[u]
            del neigh[u]
            changed = True
            break
    edges = set()
    for u in nodes:
        for w in neigh[u]:
            edges.add((min(u, w), max(u, w)))
    return TreeDecomposition(edges, {u: set(bits(bags[u])) for u in nodes})


def test_prune_matches_the_rescanning_reference():
    """On random trees whose bags are random masks, often empty or nested
    in a neighbor's, _prune keeps the same node ids, tree edges and bags
    as the reference."""
    rng = random.Random(25)
    merged = 0
    for _ in range(3000):
        ids = rng.sample(range(1, 40), rng.randint(1, 12))
        bags = {}
        neigh = {u: set() for u in ids}
        for i, u in enumerate(ids):
            other = None
            if i:
                other = rng.choice(ids[:i])
                neigh[u].add(other)
                neigh[other].add(u)
            roll = rng.random()
            if roll < 0.15:
                bags[u] = 0
            elif other is not None and roll < 0.55:
                bags[u] = bags[other] & rng.getrandbits(9)
            elif other is not None and roll < 0.7:
                bags[u] = bags[other] | rng.getrandbits(9) & ~1
            else:
                bags[u] = rng.getrandbits(9) & ~1
        want = _reference_prune(
            dict(bags), {u: set(ws) for u, ws in neigh.items()}
        )
        got = _prune(bags, neigh)
        assert got.nodes == want.nodes
        assert got.tree_edges == want.tree_edges
        assert got.bags == want.bags
        merged += len(ids) - len(got.nodes)
    assert merged > 5000


def test_mask_built_decompositions_match_their_bags():
    """Every decomposition the lean builder steps through, that
    ``contract_blue`` returns and that ``parse_td`` reads has
    ``masks[t] == mask_of(bags[t])`` at each node t.  The leanness check
    and the exchange step give equal results on a step's decomposition,
    built from the masks the step handed over, and on the same tree
    built from its frozenset bags."""
    rng = random.Random(32)
    steps = contracted = 0

    def assert_masks(td):
        assert td.masks == {t: mask_of(bag) for t, bag in td.bags.items()}

    for k in (2, 3, 4):
        for g in small_corpus(90 + k, 30, 9):
            seps = enumerate_separations(g, k)
            for _, td in lean_step_trace(g, k, seps=seps):
                assert_masks(td)
                rebuilt = TreeDecomposition(td.tree_edges, td.bags)
                assert rebuilt == td
                viol = td.check_k_lean(g, k, seps=seps)
                assert rebuilt.check_k_lean(g, k, seps=seps) == viol
                if viol is not None:
                    out = improvement_step(g, td, viol)
                    assert improvement_step(g, rebuilt, viol) == out
                    assert_masks(out)
                    steps += 1
                color = {t: rng.choice(("red", "blue")) for t in td.nodes}
                f = frozenset(e for e in td.tree_edges if rng.random() < 0.3)
                out, _ = contract_blue(td, Coloring(color, f))
                assert_masks(out)
                contracted += out is not td
                parsed, _, _ = parse_td(write_td(td, g.n))
                assert_masks(parsed)
    assert steps >= 110 and contracted >= 60


def test_leanness_witnesses_have_full_path_systems():
    """Every witness the lean builder exchanges along has minimum order:
    by subset enumeration, no fewer than |X| vertices of A meet every
    path from X to V_s ∩ A in G[A], and likewise in G[B] towards
    V_t ∩ B.  This is the argument in ``improvement_step``'s docstring,
    checked without the flow."""
    steps = wide = 0
    for k in (2, 3, 4):
        for g in small_corpus(70 + k, 30, 9):
            td = TreeDecomposition.single_bag(g.vertices)
            for viol, after in lean_step_trace(g, k):
                a, b = viol.witness.side_a, viol.witness.side_b
                x = a & b
                assert brute_menger(g, x, td.bags[viol.s] & a, a) == len(x)
                assert brute_menger(g, x, td.bags[viol.t] & b, b) == len(x)
                steps += 1
                wide += len(x) >= 2
                td = after
    assert steps > 100 and wide > 20


def test_budget_exceeded():
    # without S_k given, the builder enumerates it first, under the same
    # meter; test_lean_steps_charge_the_budget pins the step charge
    with pytest.raises(BudgetExceeded, match="separation enumeration"):
        build_k_lean(grid_graph(3, 3), 3, budget=0)


def test_lean_steps_charge_the_budget():
    # the 3x3 grid takes four exchange steps at k = 3, one unit each
    g = grid_graph(3, 3)
    seps = enumerate_separations(g, 3)
    with pytest.raises(BudgetExceeded, match="lean builder"):
        build_k_lean(g, 3, budget=3, seps=seps)
    meter = Budget(4)
    build_k_lean(g, 3, budget=meter, seps=seps)
    assert meter.spent == 4


def test_random_corpus_is_lean():
    rng = random.Random(3)
    for g in small_corpus(3, 60, 10):
        k = rng.randint(1, 4)
        td = build_k_lean(g, k)
        assert verify_decomposition(g, td)
        assert td.check_k_lean(g, k) is None


def test_exact_builder_minimal_and_lean():
    """The exact minimum-fatness output is k-lean (the classical lemma),
    and the iterative builder never beats it."""
    rng = random.Random(4)
    for _ in range(40):
        n = rng.randint(1, 7)
        g = random_graph(n, rng.choice([0.3, 0.5, 0.8]), rng)
        k = rng.randint(1, 3)
        exact = build_k_atomic_exact(g, k)
        assert verify_decomposition(g, exact)
        assert exact.check_k_lean(g, k) is None
        lean = build_k_lean(g, k)
        assert exact.fatness(n) <= lean.fatness(n)


def test_exact_builder_known_shapes():
    td = build_k_atomic_exact(path_graph(4), 2)
    assert sorted(len(b) for b in td.bags.values()) == [2, 2, 2]
    td = build_k_atomic_exact(complete_graph(4), 2)
    assert sorted(len(b) for b in td.bags.values()) == [4]
    td = build_k_atomic_exact(Graph.from_edges(2, []), 1)
    assert sorted(len(b) for b in td.bags.values()) == [1, 1]


def test_cached_separations_match_per_step_enumeration():
    """build_k_lean enumerates S_k once; the reference loop lets
    check_k_lean enumerate it afresh on every step."""
    for k in (2, 3, 4):
        for g in small_corpus(17 + k, 25, 9):
            steps = []
            td = TreeDecomposition.single_bag(g.vertices)
            while True:
                viol = td.check_k_lean(g, k)
                if viol is None:
                    break
                td = improvement_step(g, td, viol)
                steps.append((viol, td))
            assert list(lean_step_trace(g, k)) == steps
            assert build_k_lean(g, k) == td


def _reference_violation(g, td, k):
    """The leanness check read off its definition: for every (p, s, t)
    whose tree path has no edge of order < p, scan both directions of
    every separation of order < p in all of S_k and keep the least
    (order, sort_key) witness; the first (p, s, t) with a witness wins."""
    directed = []
    for sep in full_s_k(g, k):
        directed.append(sep)
        if sep.side_a != sep.side_b:
            directed.append(sep.flip())
    nodes = sorted(td.nodes)
    for p in range(1, k + 1):
        for s in nodes:
            for t in nodes:
                if s != t and td.min_order_on_path(s, t) < p:
                    continue
                best = None
                for sep in directed:
                    if (
                        sep.order < p
                        and len(sep.side_a & td.bags[s]) >= p
                        and len(sep.side_b & td.bags[t]) >= p
                    ):
                        key = (sep.order,) + sort_key(sep)
                        if best is None or key < best[0]:
                            best = (key, sep)
                if best is not None:
                    return LeannessViolation(s, t, p, best[1])
    return None


def test_check_k_lean_matches_definition():
    """The indexed first-match scan returns exactly the violation of the
    definition on every decomposition the lean builder visits, on exact
    decompositions of smaller adhesion, and on the lean result with one
    tree edge contracted: only these last give witnesses whose s and t
    differ, which is where the parts of the tree and flipped sides come
    in."""
    violations = across_nodes = flipped = 0
    for k in (2, 3, 4):
        for g in small_corpus(40 + k, 25, 9):
            tds = [TreeDecomposition.single_bag(g.vertices)]
            tds += [td for _, td in lean_step_trace(g, k)]
            lean = tds[-1]
            tds += [
                contract_tree_edge(lean, *e) for e in sorted(lean.tree_edges)
            ]
            tds += [build_k_atomic_exact(g, low) for low in range(1, k)]
            for td in tds:
                want = _reference_violation(g, td, k)
                assert td.check_k_lean(g, k) == want
                if want is not None:
                    violations += 1
                    across_nodes += want.s != want.t
                    flipped += canonical(want.witness) != want.witness
    assert violations > 100 and across_nodes > 10 and flipped > 3


def _prefix_scan(td, k, seps):
    """The leanness check scanning, at level p, both directions of every
    separation of order < p, each in its own direction first."""
    bags = {node: sum(1 << v for v in bag) for node, bag in td.bags.items()}
    nodes = sorted(td.nodes)
    for p in range(1, k + 1):
        for s in nodes:
            for t in nodes:
                if s != t and td.min_order_on_path(s, t) < p:
                    continue
                for sep in seps:
                    if sep.order >= p:
                        continue
                    for directed in (sep, sep.flip()):
                        if (
                            (directed.mask_a & bags[s]).bit_count() >= p
                            and (directed.mask_b & bags[t]).bit_count() >= p
                        ):
                            return LeannessViolation(s, t, p, directed)
    return None


def test_check_k_lean_needs_no_degenerate_row_and_no_lower_order():
    """The proper separations and the order-(p - 1) slice give the
    violation of a scan over both directions of every separation of
    order < p in all of S_k, on every decomposition the lean builder
    visits and on the lean result with one tree edge contracted.
    Violations at levels above the adhesion, where every part of the
    tree is a single node and s = t, and at levels up to it, where s
    and t can differ, are both covered."""
    diagonal = across_nodes = 0
    for k in (2, 3, 4, 5):
        for g in small_corpus(80 + k, 25, 9):
            seps = enumerate_separations(g, k)
            every = full_s_k(g, k)
            tds = [TreeDecomposition.single_bag(g.vertices)]
            tds += [td for _, td in lean_step_trace(g, k, seps=seps)]
            lean = tds[-1]
            tds += [
                contract_tree_edge(lean, *e) for e in sorted(lean.tree_edges)
            ]
            for td in tds:
                want = _prefix_scan(td, k, every)
                assert td.check_k_lean(g, k, seps=every) == want
                assert td.check_k_lean(g, k, seps=seps) == want
                if want is None:
                    continue
                if want.p > td.adhesion():
                    assert want.s == want.t
                    diagonal += 1
                else:
                    across_nodes += want.s != want.t
    assert diagonal > 200 and across_nodes > 30


def _rearranged_levels(seps, arrange):
    """``seps`` with each order's members rearranged in place by
    ``arrange``, the orders still ascending."""
    levels = {}
    for sep in seps:
        levels.setdefault(sep.order, []).append(sep)
    out = []
    for order in sorted(levels):
        arrange(levels[order])
        out += levels[order]
    return out


def test_check_k_lean_ignores_order_within_a_level():
    """The enumerator leaves each order's separations unsorted, so the
    check picks the least witness itself: the same violation comes back
    with each level as enumerated, reversed, or shuffled.  Checked on
    every decomposition the lean builder visits and on the lean result
    with each tree edge contracted, which give the witnesses whose s
    and t differ and the flipped ones; disconnected graphs give levels
    of order 0.  The floors are those of a reading of 602 violations,
    80 across nodes, 17 flipped and 74 disconnected graphs."""
    rng = random.Random(67)
    violations = across_nodes = flipped = disconnected = 0
    for k in (2, 3, 4):
        for g in small_corpus(70 + k, 60, 9):
            disconnected += not g.is_connected_set(g.vertices)
            seps = enumerate_separations(g, k)
            arrangements = [
                _rearranged_levels(seps, list.reverse),
                _rearranged_levels(seps, rng.shuffle),
            ]
            tds = [TreeDecomposition.single_bag(g.vertices)]
            tds += [td for _, td in lean_step_trace(g, k, seps=seps)]
            lean = tds[-1]
            tds += [
                contract_tree_edge(lean, *e) for e in sorted(lean.tree_edges)
            ]
            for td in tds:
                want = td.check_k_lean(g, k, seps=seps)
                for other in arrangements:
                    assert td.check_k_lean(g, k, seps=other) == want
                if want is not None:
                    violations += 1
                    across_nodes += want.s != want.t
                    flipped += canonical(want.witness) != want.witness
    assert violations >= 602 and across_nodes >= 80 and flipped >= 17
    assert disconnected >= 74


def test_check_k_lean_rejects_a_forest():
    # at k = 1 the connected P4 has no separation of order 0, so no
    # level has a separation to test; at k = 2 ({1, 2}, {2, 3, 4}) starts a
    # witness at node 1, whose part the forest would cut short
    g = path_graph(4)
    forest = TreeDecomposition(set(), {1: {1, 2}, 2: {3, 4}})
    for k in (1, 2):
        with pytest.raises(ValueError, match="different trees"):
            forest.check_k_lean(g, k)


def test_check_k_lean_rejects_a_forest_with_a_violation_above_its_adhesion():
    # the big bag of C6 holds a witness at level 3, above the adhesion,
    # where every part is a single node; the forest is rejected first
    g = cycle_graph(6)
    bags = {1: set(range(1, 7)), 2: {1}}
    tree = TreeDecomposition({(1, 2)}, bags)
    viol = tree.check_k_lean(g, 3)
    assert (viol.s, viol.t, viol.p) == (1, 1, 3)
    forest = TreeDecomposition(set(), bags)
    with pytest.raises(ValueError, match="different trees"):
        forest.check_k_lean(g, 3)


def test_check_k_lean_skips_only_bags_too_small_to_qualify():
    """A source or a target t != s with exactly p vertices can still
    hold a witness at level p; only t = s needs p + 1.  On each
    decomposition below, the first violation starts or ends at a bag of
    p = 1 vertex, so skipping such a bag returns a later pair."""
    g = Graph.from_edges(4, [(1, 2), (1, 4)])
    witness = Separation({1, 2, 4}, {3})
    # target t = 2 has the one vertex 3
    target = TreeDecomposition(
        {(1, 3), (2, 3)}, {1: {1, 2}, 2: {3}, 3: {1, 3, 4}}
    )
    # source s = 1 has the one vertex 1
    source = TreeDecomposition(
        {(1, 2), (2, 3)}, {1: {1}, 2: {1, 2}, 3: {1, 3, 4}}
    )
    for td, pair in [(target, (1, 2)), (source, (1, 3))]:
        assert td.check_k_lean(g, 2) == LeannessViolation(*pair, 1, witness)
