import random

from conftest import brute_menger, brute_reachable, small_corpus

from topstruct import lean
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
)


def _check_system(g, src, dst, allowed, paths, separator):
    allowed = set(allowed)
    src, dst = set(src) & allowed, set(dst) & allowed
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
    paths, sep = disjoint_path_system(g, {1}, {3}, set(g.vertices))
    assert paths == [(1, 2, 3)] and sep == {1}


def test_petersen_neighborhood_menger():
    g = petersen_graph()
    allowed = set(g.vertices) - {1, 3}
    paths, sep = disjoint_path_system(g, g.neighbors(1), g.neighbors(3), allowed)
    assert len(paths) == 3
    assert sep == {2, 5, 6}
    _check_system(g, g.neighbors(1), g.neighbors(3), allowed, paths, sep)


def test_overlapping_endpoints_give_trivial_paths():
    g = path_graph(4)
    paths, sep = disjoint_path_system(g, {1, 2}, {1, 4}, set(g.vertices))
    assert sorted(paths) == [(1,), (2, 3, 4)]
    assert sep == {1, 2}


def test_k33_full_flow():
    g = complete_bipartite(3, 3)
    paths, sep = disjoint_path_system(g, {1, 2, 3}, {4, 5, 6}, set(g.vertices))
    assert len(paths) == 3
    _check_system(g, {1, 2, 3}, {4, 5, 6}, set(g.vertices), paths, sep)


def test_empty_graph():
    g = path_graph(0)
    assert disjoint_path_system(g, set(), set(), set()) == ([], set())


def test_random_systems_validate():
    rng = random.Random(31)
    for _ in range(120):
        n = rng.randint(1, 10)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.7]), rng)
        verts = sorted(g.vertices)
        allowed = set(rng.sample(verts, rng.randint(1, n)))
        src = set(rng.sample(verts, rng.randint(0, n))) & allowed
        dst = set(rng.sample(verts, rng.randint(0, n))) & allowed
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
        paths, sep = disjoint_path_system(g, src, dst, set(verts))
        assert len(paths) == brute_menger(g, src, dst, verts)


def _dict_flow_reference(g, src, dst, allowed):
    """Edmonds-Karp on a dict-of-dicts split-vertex network.

    An independent implementation with the same contract as
    disjoint_path_system: each node scans its arcs in insertion order,
    source and sink arcs carry n + 1, and the separator is read from
    residual reachability.  The lean builder's exchange step consumes
    these exact witnesses, so the two must agree path for path.
    """
    allowed_m = mask_of(allowed)
    src_m = mask_of(src) & allowed_m
    dst_m = mask_of(dst) & allowed_m
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
    separator = {
        v for v in bits(allowed_m) if 2 * v in reach and 2 * v + 1 not in reach
    }
    return paths, separator


def test_matches_dict_flow_reference(monkeypatch):
    # An out-node that scans its neighbours before its own in-node finds
    # the path 4-7-6-15-9 instead of 4-10-11 here; no random case below
    # tells the two scan orders apart.
    g = Graph.from_edges(16, [
        (1, 11), (2, 5), (2, 7), (3, 8), (3, 12), (4, 6), (4, 7), (4, 10),
        (4, 15), (4, 16), (5, 13), (5, 14), (6, 7), (6, 15), (8, 10),
        (8, 12), (8, 16), (9, 15), (10, 11), (12, 15),
    ])
    cases = [(g, {4, 13}, {2, 9, 11}, set(g.vertices))]
    assert disjoint_path_system(*cases[0])[0] == [(4, 10, 11), (13, 5, 2)]
    rng = random.Random(33)
    for _ in range(600):
        n = rng.randint(1, 16)
        g = random_graph(n, rng.choice([0.15, 0.3, 0.5, 0.8]), rng)
        verts = sorted(g.vertices)
        allowed = set(rng.sample(verts, rng.randint(n // 2, n)))
        src = set(rng.sample(verts, rng.randint(0, n)))
        dst = set(rng.sample(verts, rng.randint(0, n)))
        cases.append((g, src, dst, allowed))

    def recording(g, src, dst, allowed):
        cases.append((g, set(src), set(dst), set(allowed)))
        return disjoint_path_system(g, src, dst, allowed)

    # every call the lean builder's exchange step makes
    monkeypatch.setattr(lean, "disjoint_path_system", recording)
    for k in (2, 3):
        for g in small_corpus(34, 30, 9, min_n=4):
            for _ in lean.lean_step_trace(g, k):
                pass
    assert len(cases) > 700
    for g, src, dst, allowed in cases:
        assert disjoint_path_system(g, src, dst, allowed) == (
            _dict_flow_reference(g, src, dst, allowed)
        ), (g.sorted_edges(), src, dst, allowed)
