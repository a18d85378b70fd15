"""Shared brute-force oracles and corpus helpers for the test suite.

The oracles here deliberately share no code with the library internals
they check: cuts by subset enumeration, blocks straight from the
definition, models by validation of explicit candidates.
"""

import itertools
import random

import pytest

from topstruct.graph import Graph, random_graph
from topstruct.separations import enumerate_separations

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
