import itertools
import random

import pytest

from conftest import (
    ExplicitOrientation,
    SeparationDoesNotDecide,
    brute_min_vertex_cut,
    components,
    degenerate_members,
    full_s_k,
    is_separation,
    orientation_is_consistent,
    small_corpus,
)

from topstruct.errors import (
    AdjacentPair,
    Budget,
    BudgetExceeded,
)
from topstruct.graph import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    path_graph,
    petersen_graph,
    random_graph,
)
from topstruct.separations import (
    Separation,
    enumerate_separations,
    is_tight,
    min_vertex_cut,
)
from topstruct.separations import _mask_key


def test_separation_basics():
    s = Separation({1, 2, 3}, {3, 4})
    assert s.separator == {3}
    assert s.order == 1
    assert s.flip().side_a == s.side_b
    assert s.canonical() == s.flip().canonical()


def test_is_separation():
    g = path_graph(4)
    assert is_separation(g, {1, 2}, {2, 3, 4})
    assert not is_separation(g, {1, 2}, {3, 4})  # edge 2-3 crosses
    assert not is_separation(g, {1, 2}, {2, 3})  # does not cover 4
    assert is_separation(g, set(g.vertices), {2})


def test_min_vertex_cut_known_values():
    assert min_vertex_cut(cycle_graph(5), 1, 3) == 2
    assert min_vertex_cut(complete_bipartite(3, 3), 1, 2) == 3
    assert min_vertex_cut(petersen_graph(), 1, 8) == 3
    with pytest.raises(AdjacentPair):
        min_vertex_cut(path_graph(2), 1, 2)


def test_min_vertex_cut_matches_brute_force():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(2, 8)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.6]), rng)
        pairs = [
            (u, v)
            for u, v in itertools.combinations(sorted(g.vertices), 2)
            if not g.has_edge(u, v)
        ]
        if not pairs:
            continue
        u, v = rng.choice(pairs)
        assert min_vertex_cut(g, u, v) == brute_min_vertex_cut(g, u, v)


def test_enumerate_separations_definition():
    g = path_graph(3)
    seps = enumerate_separations(g, 2)
    # every returned object is a separation of order < 2, no duplicates
    seen = set()
    for s in seps:
        assert is_separation(g, s.side_a, s.side_b)
        assert s.order < 2
        key = (s.side_a, s.side_b)
        assert key not in seen
        seen.add(key)
        assert (s.side_b, s.side_a) not in seen
    # the classic middle-vertex split is present
    assert any(
        s.separator == {2} and {1} <= s.side_a - s.side_b for s in seps
    )


def _brute_separations(g, k):
    """Canonical (A, B) pairs of every separation of order < k, by
    trying every side A and every overlap."""
    n = g.n
    verts = sorted(g.vertices)
    expected = set()
    for bits_a in range(1 << n):
        a = frozenset(verts[i] for i in range(n) if (bits_a >> i) & 1)
        b = frozenset(set(verts) - a)
        # side_b = complement ∪ (any subset of a) covers all overlaps
        for sub in range(1 << len(a)):
            al = sorted(a)
            overlap = frozenset(
                al[i] for i in range(len(al)) if (sub >> i) & 1
            )
            bb = b | overlap
            s = Separation(a, bb)
            if s.order < k and is_separation(g, a, bb):
                c = s.canonical()
                expected.add((c.side_a, c.side_b))
    return expected


def _has_empty_exclusive_side(s):
    return s.side_a <= s.side_b or s.side_b <= s.side_a


def test_enumerate_separations_complete_against_brute_force():
    # the returned members and the degenerate ones make up S_k
    rng = random.Random(23)
    for _ in range(25):
        n = rng.randint(1, 6)
        g = random_graph(n, rng.choice([0.3, 0.6]), rng)
        k = rng.randint(1, 3)
        seps = enumerate_separations(g, k)
        assert not any(_has_empty_exclusive_side(s) for s in seps)
        got = {
            (s.side_a, s.side_b)
            for s in seps + degenerate_members(g, k)
        }
        assert got == _brute_separations(g, k)


def test_enumeration_contract():
    """What the leanness check relies on: canonical elements, each once,
    in sort_key order (so ascending by order), none with an empty
    exclusive side; and, with the degenerate members added, exactly
    S_k."""
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(0, 7)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.6]), rng)
        k = rng.randint(1, 4)
        seps = enumerate_separations(g, k)
        assert all(s.canonical() == s for s in seps)
        assert len(set(seps)) == len(seps)
        assert seps == sorted(seps, key=Separation.sort_key)
        assert not any(_has_empty_exclusive_side(s) for s in seps)
        every = seps + degenerate_members(g, k)
        assert {(s.side_a, s.side_b) for s in every} == _brute_separations(g, k)


def test_enumeration_charges_every_candidate_separator():
    # 2^(components of G - X) per separator X, degenerate or not
    for g in small_corpus(39, 20, 7, min_n=0):
        for k in range(1, 5):
            want = 0
            for size in range(min(k, g.n + 1)):
                for x in itertools.combinations(sorted(g.vertices), size):
                    rest = set(g.vertices) - set(x)
                    want += 1 << len(components(g, rest))
            meter = Budget(want)
            enumerate_separations(g, k, budget=meter)
            assert meter.spent == want


def _vertex_tuple(mask):
    return tuple(v for v in range(mask.bit_length()) if mask >> v & 1)


def test_mask_key_sorts_like_vertex_tuples():
    rng = random.Random(59)
    masks = [0]
    for _ in range(400):
        width = rng.randint(1, 130)
        m = rng.getrandbits(width) << 1  # vertices are 1..130
        masks.append(m)
        # every prefix of its vertex tuple, and the set grown past its end
        for cut in range(1, m.bit_length()):
            if m >> cut & 1 and rng.random() < 0.3:
                masks.append(m & ((1 << cut) - 1))
        masks.append(m | 1 << rng.randint(m.bit_length() + 1, 140))
    assert sorted(masks, key=_mask_key) == sorted(masks, key=_vertex_tuple)
    for _ in range(20_000):
        x, y = rng.choice(masks), rng.choice(masks)
        assert (_mask_key(x) < _mask_key(y)) == (
            _vertex_tuple(x) < _vertex_tuple(y)
        )


def _reference_canonical(a, b):
    """The canonical (A, B) pair from the vertex sets alone: the side
    with the smaller least exclusive vertex first, then the smaller
    sorted tuple."""

    def key(side, other):
        exclusive = side - other
        return (min(exclusive) if exclusive else float("inf"), sorted(side))

    return (a, b) if key(a, b) <= key(b, a) else (b, a)


def test_mask_built_separation_matches_set_built():
    for i, g in enumerate(small_corpus(61, 40, 8, min_n=0)):
        for s in enumerate_separations(g, 1 + i % 4):
            for m in (s, s.flip()):
                a = frozenset(_vertex_tuple(m.mask_a))
                b = frozenset(_vertex_tuple(m.mask_b))
                f = Separation(a, b)
                assert (m.mask_a, m.mask_b) == (f.mask_a, f.mask_b)
                assert m == f and hash(m) == hash(f)
                assert (m.side_a, m.side_b) == (a, b)
                assert m.separator == f.separator == a & b
                assert m.order == f.order == len(a & b)
                assert m.flip() == f.flip() == Separation(b, a)
                ca, cb = _reference_canonical(a, b)
                assert m.canonical() == f.canonical() == Separation(ca, cb)
                assert m.sort_key() == f.sort_key() == (
                    len(a & b), tuple(sorted(ca)), tuple(sorted(cb))
                )
            assert s.canonical() is s


def test_is_tight():
    g = path_graph(3)
    # ({1,2},{2,3}): lone separator vertex, no pairs -> tight
    assert is_tight(g, Separation({1, 2}, {2, 3}))
    g2 = path_graph(4)
    s = Separation({1, 2, 3}, {3, 4})
    assert is_tight(g2, s)
    # a lone separator vertex needs no neighbor on either side
    s2 = Separation({1, 2, 3, 4}, {4})
    assert is_tight(g2, s2)
    # two-vertex separator with no second connection on one side
    c4 = cycle_graph(4)
    assert is_tight(c4, Separation({1, 2, 3}, {3, 4, 1}))
    g3 = path_graph(5)
    assert not is_tight(g3, Separation({1, 2, 3, 4}, {2, 4, 5}))


def test_budget_exceeded():
    g = complete_bipartite(4, 4)
    with pytest.raises(BudgetExceeded):
        enumerate_separations(g, 4, budget=3)


def test_explicit_orientation():
    g = path_graph(3)
    s = Separation({1, 2}, {2, 3})
    o = ExplicitOrientation.from_w_sides(2, [(s, s.side_b)])
    assert o.w_side(s) == s.mask_b
    assert o.w_side(s.flip()) == s.mask_b
    with pytest.raises(SeparationDoesNotDecide):
        o.w_side(Separation({1, 2, 3}, {2, 3}))  # order 2 >= k
    with pytest.raises(SeparationDoesNotDecide):
        o.w_side(Separation(set(g.vertices), {2}))  # not in table


def test_orientation_consistency():
    # triangle, k=2: always choosing the full side is consistent
    g = complete_graph(3)
    seps = full_s_k(g, 2)
    full = ExplicitOrientation.from_w_sides(
        2, [(s, max((s.side_a, s.side_b), key=len)) for s in seps]
    )
    assert orientation_is_consistent(g, full)

    # P3: pointing one separation left and a nested one right crosses
    g = path_graph(3)
    seps = full_s_k(g, 2)
    pairs = []
    for s in seps:
        c = s.canonical()
        if c.separator == {2} and 1 in c.side_a:
            pairs.append((s, c.side_a))  # W = {1,2}
        elif c.side_a == {1, 2, 3} and c.side_b == {3}:
            pairs.append((s, c.side_b))  # W = {3}
        else:
            pairs.append((s, max((c.side_a, c.side_b), key=len)))
    bad = ExplicitOrientation.from_w_sides(2, pairs)
    assert not orientation_is_consistent(g, bad)
