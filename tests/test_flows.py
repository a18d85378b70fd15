import random

import pytest

from conftest import brute_menger, brute_reachable, small_corpus

from topstruct import _kernels, lean
from topstruct.errors import InvariantViolation
from topstruct.flows import disjoint_path_system
from topstruct.graph import (
    Graph,
    bits,
    complete_bipartite,
    cycle_graph,
    mask_of,
    path_graph,
    petersen_graph,
    random_graph,
    set_of,
)


def _check_system(g, src, dst, allowed, paths, separator):
    # every vertex set comes as a mask, as disjoint_path_system takes
    # and returns them
    allowed = set_of(allowed)
    src, dst = set_of(src) & allowed, set_of(dst) & allowed
    separator = set_of(separator)
    used = set()
    for p in paths:
        assert p[0] in src and p[-1] in dst
        assert set(p) <= allowed
        for x, y in zip(p, p[1:]):
            assert g.has_edge(x, y)
        assert len(set(p)) == len(p)
        assert not (set(p) & used)
        used |= set(p)
    # the separator really separates src from dst in G[allowed]
    assert separator <= allowed
    remaining = allowed - separator
    reach = brute_reachable(
        g, [v for v in src if v in remaining], set(g.vertices) - remaining
    )
    assert not (reach & (dst - separator))
    assert (src & dst) <= separator
    assert len(paths) == len(separator)


def test_c5_single_path():
    g = cycle_graph(5)
    paths, sep = disjoint_path_system(g, 1 << 1, 1 << 3, g.vertex_mask)
    assert paths == [(1, 2, 3)] and sep == 1 << 1


def test_petersen_neighborhood_menger():
    g = petersen_graph()
    allowed = g.vertex_mask & ~mask_of([1, 3])
    paths, sep = disjoint_path_system(g, g.adj[1], g.adj[3], allowed)
    assert len(paths) == 3
    assert sep == mask_of([2, 5, 6])
    _check_system(g, g.adj[1], g.adj[3], allowed, paths, sep)


def test_overlapping_endpoints_give_trivial_paths():
    g = path_graph(4)
    paths, sep = disjoint_path_system(
        g, mask_of([1, 2]), mask_of([1, 4]), g.vertex_mask
    )
    assert sorted(paths) == [(1,), (2, 3, 4)]
    assert sep == mask_of([1, 2])


def test_k33_full_flow():
    g = complete_bipartite(3, 3)
    src, dst = mask_of([1, 2, 3]), mask_of([4, 5, 6])
    paths, sep = disjoint_path_system(g, src, dst, g.vertex_mask)
    assert len(paths) == 3
    _check_system(g, src, dst, g.vertex_mask, paths, sep)


def test_empty_graph():
    g = path_graph(0)
    assert disjoint_path_system(g, 0, 0, 0) == ([], 0)


def test_a_short_separator_breaks_the_menger_check(monkeypatch):
    # the check is a raise, not an assert, so it holds under python -O
    g = cycle_graph(5)
    kernel = _kernels._path_system

    def short(*args):
        paths, separator = kernel(*args)
        return paths, separator & (separator - 1)

    monkeypatch.setattr(_kernels, "_path_system", short)
    with pytest.raises(InvariantViolation, match="2 disjoint paths"):
        disjoint_path_system(g, mask_of([1, 3]), mask_of([2, 4]), g.vertex_mask)


def test_a_flow_that_stops_breaks_the_path_decoding(monkeypatch):
    # one unit of flow leaves the source through vertex 1, crosses to 2
    # and stops there: the paths cannot be decoded, and that is an
    # internal failure, raised, not asserted
    g = path_graph(3)

    def stopped(adj, n, src, dst, allowed):
        size = 2 * n + 2
        cap = [[0] * size for _ in range(size)]
        # reverse residuals of the arcs source -> in(1) -> out(1) -> in(2)
        cap[2][0] = cap[3][2] = cap[4][3] = 1
        return 1, 0, cap, [-1] * size

    monkeypatch.setattr(_kernels, "_max_flow", stopped)
    with pytest.raises(InvariantViolation, match="broken flow decomposition"):
        disjoint_path_system(g, mask_of([1]), mask_of([3]), g.vertex_mask)


def test_random_systems_validate():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 10)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.7]), rng)
        verts = sorted(g.vertices)
        allowed = mask_of(rng.sample(verts, rng.randint(1, n)))
        src = mask_of(rng.sample(verts, rng.randint(0, n))) & allowed
        dst = mask_of(rng.sample(verts, rng.randint(0, n))) & allowed
        paths, sep = disjoint_path_system(g, src, dst, allowed)
        _check_system(g, src, dst, allowed, paths, sep)


def test_count_is_maximum_by_brute_force():
    """Menger: flow count equals the smallest separating set, enumerated."""
    rng = random.Random(32)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_graph(n, rng.choice([0.3, 0.6]), rng)
        verts = sorted(g.vertices)
        src = set(rng.sample(verts, rng.randint(1, n)))
        dst = set(rng.sample(verts, rng.randint(1, n)))
        paths, sep = disjoint_path_system(
            g, mask_of(src), mask_of(dst), g.vertex_mask
        )
        assert len(paths) == brute_menger(g, src, dst, verts)


def _dict_flow_reference(g, src_m, dst_m, allowed_m):
    """Edmonds-Karp on a dict-of-dicts split-vertex network.

    An independent implementation with the same contract as
    disjoint_path_system, masks in and masks out: each node scans its
    arcs in insertion order, source and sink arcs carry n + 1, and the
    separator is read from residual reachability.  It always builds the
    whole network.  The lean builder's exchange step consumes these
    exact witnesses, so the two must agree path for path.
    """
    src_m &= allowed_m
    dst_m &= allowed_m
    n = g.n
    adj = g.adj
    size = 2 * n + 2
    inf = n + 1
    cap = [dict() for _ in range(size)]

    def add_arc(x, y, c):
        cap[x][y] = cap[x].get(y, 0) + c
        cap[y].setdefault(x, 0)

    for v in bits(allowed_m):
        add_arc(2 * v, 2 * v + 1, 1)
        for w in bits(adj[v] & allowed_m):
            add_arc(2 * v + 1, 2 * w, inf)
    for v in bits(src_m):
        add_arc(0, 2 * v, inf)
    for v in bits(dst_m):
        add_arc(2 * v + 1, 1, inf)
    orig = [dict(row) for row in cap]

    while True:
        prev = {0: 0}
        queue = [0]
        qi = 0
        while qi < len(queue) and 1 not in prev:
            x = queue[qi]
            qi += 1
            for y, c in cap[x].items():
                if c > 0 and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if 1 not in prev:
            break
        y = 1
        while y != 0:
            x = prev[y]
            cap[x][y] -= 1
            cap[y][x] = cap[y].get(x, 0) + 1
            y = x

    def flow_on(x, y):
        return orig[x].get(y, 0) - cap[x].get(y, 0)

    paths = []
    for v in bits(src_m):
        if flow_on(0, 2 * v) <= 0:
            continue
        path = [v]
        node = 2 * v + 1
        while flow_on(node, 1) <= 0:
            for y in cap[node]:
                if y >= 2 and flow_on(node, y) > 0:
                    w = y // 2
                    path.append(w)
                    node = 2 * w + 1
                    break
            else:
                raise AssertionError("broken flow decomposition")
        paths.append(tuple(path))
    reach = set(prev)
    separator = sum(
        1 << v for v in bits(allowed_m) if 2 * v in reach and 2 * v + 1 not in reach
    )
    return paths, separator


def _takes_early_return(src, dst, allowed):
    # the kernel answers these with the shared vertices, no network
    return not src & allowed & ~dst or not dst & allowed & ~src


def test_matches_dict_flow_reference(monkeypatch):
    # An out-node that scans its neighbours before its own in-node finds
    # the path 4-7-6-15-9 instead of 4-10-11 here; no random case below
    # tells the two scan orders apart.
    g = Graph.from_edges(16, [
        (1, 11), (2, 5), (2, 7), (3, 8), (3, 12), (4, 6), (4, 7), (4, 10),
        (4, 15), (4, 16), (5, 13), (5, 14), (6, 7), (6, 15), (8, 10),
        (8, 12), (8, 16), (9, 15), (10, 11), (12, 15),
    ])
    cases = [(g, mask_of([4, 13]), mask_of([2, 9, 11]), g.vertex_mask)]
    assert disjoint_path_system(*cases[0])[0] == [(4, 10, 11), (13, 5, 2)]
    rng = random.Random(33)
    for _ in range(600):
        n = rng.randint(1, 16)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
        verts = sorted(g.vertices)
        allowed = mask_of(rng.sample(verts, rng.randint(n // 2, n)))
        src = mask_of(rng.sample(verts, rng.randint(0, n)))
        dst = mask_of(rng.sample(verts, rng.randint(0, n)))
        cases.append((g, src, dst, allowed))
    # one side inside the other within allowed, plus vertices outside
    # allowed, which the flow ignores: no path can be augmented
    rng = random.Random(35)
    for _ in range(300):
        n = rng.randint(1, 16)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
        verts = sorted(g.vertices)
        allowed = mask_of(rng.sample(verts, rng.randint(n // 2, n)))
        dst = mask_of(rng.sample(verts, rng.randint(0, n)))
        inside = mask_of(rng.sample(verts, rng.randint(0, n))) & dst
        outside = mask_of(rng.sample(verts, rng.randint(0, n))) & ~allowed
        src = inside | outside
        cases.append((g, dst, src, allowed) if rng.random() < 0.5 else
                     (g, src, dst, allowed))
    early = sum(_takes_early_return(*case[1:]) for case in cases)
    assert early >= 300

    def recording(g, src, dst, allowed):
        cases.append((g, src, dst, allowed))
        return disjoint_path_system(g, src, dst, allowed)

    # every call the lean builder's exchange step makes
    monkeypatch.setattr(lean, "disjoint_path_system", recording)
    for k in (2, 3):
        for g in small_corpus(34, 30, 9, min_n=4):
            for _ in lean.lean_step_trace(g, k):
                pass
    assert len(cases) > 1000
    for g, src, dst, allowed in cases:
        assert disjoint_path_system(g, src, dst, allowed) == (
            _dict_flow_reference(g, src, dst, allowed)
        ), (g.sorted_edges(), set_of(src), set_of(dst), set_of(allowed))
    shared = sum(
        _takes_early_return(*case[1:]) and bool(case[1] & case[2] & case[3])
        for case in cases
    )
    assert shared > 200
