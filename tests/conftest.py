"""Shared brute-force oracles and corpus helpers for the test suite.

The oracles here deliberately share no code with the library internals
they check: cuts by subset enumeration, blocks straight from the
definition, models by validation of explicit candidates.
"""

import itertools
import random

import pytest

from topstruct.errors import DEFAULT_BUDGET
from topstruct.graph import Graph, random_graph
from topstruct.separations import Separation, enumerate_separations

_acceptance_lines = []


def record_acceptance(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


# -- independent oracles -------------------------------------------------


def brute_reachable(g, start, removed):
    seen = set()
    stack = [v for v in start if v not in removed]
    while stack:
        v = stack.pop()
        if v in seen or v in removed:
            continue
        seen.add(v)
        for w in g.neighbors(v):
            if w not in seen and w not in removed:
                stack.append(w)
    return seen


def brute_min_vertex_cut(g, u, v):
    """Smallest S ⊆ V∖{u,v} separating u from v, by subset enumeration."""
    assert not g.has_edge(u, v)
    others = [x for x in sorted(g.vertices) if x not in (u, v)]
    for size in range(len(others) + 1):
        for s in itertools.combinations(others, size):
            if v not in brute_reachable(g, [u], set(s)):
                return size
    raise AssertionError("unreachable")


def brute_menger(g, src, dst, allowed):
    """Smallest S ⊆ allowed meeting every src–dst path in G[allowed], by
    subset enumeration; a vertex in src ∩ dst is such a path itself."""
    allowed = sorted(allowed)
    outside = set(g.vertices) - set(allowed)
    dst = set(dst) & set(allowed)
    for size in range(len(allowed) + 1):
        for s in itertools.combinations(allowed, size):
            if not brute_reachable(g, src, outside | set(s)) & dst:
                return size
    raise AssertionError("unreachable")


def degenerate_members(g, k):
    """The members of S_k with an empty exclusive side: (V, X) for every
    X ⊆ V of fewer than k vertices, X = V included when n < k; by subset
    enumeration, ascending by sort_key."""
    verts = sorted(g.vertices)
    return [
        Separation(verts, x)
        for size in range(min(k, len(verts) + 1))
        for x in itertools.combinations(verts, size)
    ]


def full_s_k(g, k, budget=DEFAULT_BUDGET):
    """All of S_k: the proper members ``enumerate_separations`` returns
    and the degenerate ones, ascending by sort_key."""
    return sorted(
        enumerate_separations(g, k, budget=budget) + degenerate_members(g, k),
        key=Separation.sort_key,
    )


def brute_set_split(g, bset, k):
    """True iff some separation of order < k has bset on neither side."""
    for s in enumerate_separations(g, k):
        if not bset <= s.side_a and not bset <= s.side_b:
            return True
    return False


def blocks_by_definition(g, k):
    """k-blocks straight from the definition (maximal unsplit ≥ k sets)."""
    verts = sorted(g.vertices)
    unsplit = []
    for size in range(k, len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            if not brute_set_split(g, frozenset(combo), k):
                unsplit.append(frozenset(combo))
    maximal = [
        b for b in unsplit if not any(b < other for other in unsplit)
    ]
    return sorted(maximal, key=lambda b: tuple(sorted(b)))


def is_valid_model(g, model, m):
    sets = [set(s) for s in model.branch_sets]
    if len(sets) != m:
        return False
    for a, b in itertools.combinations(range(len(sets)), 2):
        if sets[a] & sets[b]:
            return False
    for s in sets:
        if not s or not g.is_connected_set(s):
            return False
    for a, b in itertools.combinations(sets, 2):
        if not any(g.has_edge(x, y) for x in a for y in b):
            return False
    return True


def surplus_refutes(g, m):
    """The edge-surplus rule for K_m, m ≥ 4, on vertex sets.

    Delete isolated and degree-1 vertices and suppress degree-2 ones
    (joining their two neighbours) until none is left; then K_m is
    refuted when fewer than m vertices remain or |E| − (|V| − m) falls
    below m(m−1)/2.
    """
    nbrs = {v: set(g.neighbors(v)) for v in g.vertices}
    low = [v for v in nbrs if len(nbrs[v]) <= 2]
    while low:
        v = low.pop()
        if v not in nbrs or len(nbrs[v]) > 2:
            continue
        around = nbrs.pop(v)
        for w in around:
            nbrs[w] = (nbrs[w] | around) - {v, w}
            low.append(w)
    edges = sum(len(s) for s in nbrs.values()) // 2
    return len(nbrs) < m or edges - (len(nbrs) - m) < m * (m - 1) // 2


def min_degree_width(g):
    """Width of the greedy elimination ordering that always removes a
    vertex of least degree, lowest label first, after joining its
    neighbours into a clique: an upper bound on the treewidth."""
    nbrs = {v: set(g.neighbors(v)) for v in g.vertices}
    width = 0
    while nbrs:
        v = min(nbrs, key=lambda u: (len(nbrs[u]), u))
        around = nbrs.pop(v)
        width = max(width, len(around))
        for w in around:
            nbrs[w] = (nbrs[w] | around) - {v, w}
    return width


def brute_closure(start, edges, within, cut=()):
    """Nodes joined to ``start`` inside ``within`` by edges not in
    ``cut``, grown by one round over the edge list per node."""
    within = set(within)
    cut = {frozenset(e) for e in cut}
    pairs = [
        frozenset(e) for e in edges
        if set(e) <= within and frozenset(e) not in cut
    ]
    reached = {start}
    for _ in range(len(within)):
        reached |= {v for p in pairs if p & reached for v in p}
    return reached


def brute_is_tree(nodes, edges):
    """True iff ``edges`` form a tree on ``nodes``: no loop, one distinct
    edge fewer than nodes, and every node reached from the smallest."""
    nodes = set(nodes)
    pairs = {frozenset(e) for e in edges}
    if not nodes or any(len(p) == 1 for p in pairs):
        return False
    if len(pairs) != len(nodes) - 1:
        return False
    return brute_closure(min(nodes), edges, nodes) == nodes


def planar_3_tree(n, rng):
    """A random planar 3-tree on n ≥ 4 vertices: K_4, then each new
    vertex is stacked into a random triangular face."""
    edges = set(itertools.combinations(range(1, 5), 2))
    faces = list(itertools.combinations(range(1, 5), 3))
    for v in range(5, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return Graph.from_edges(n, edges)


def small_corpus(seed, count, max_n, probs=(0.2, 0.4, 0.7), min_n=1):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        out.append(random_graph(n, rng.choice(probs), rng))
    return out


@pytest.fixture
def rng():
    return random.Random(12345)
