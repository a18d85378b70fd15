"""Every walk of a decomposition tree is ``TreeDecomposition.reach``.

Each query built on it, and the verifier's own tree and subtree checks,
are checked against the brute-force references of ``conftest`` on
seeded random trees, forests and edge sets with a cycle: the references
grow reached sets round by round over the edge list and enumerate simple
paths, sharing no code with the walk or the verifier.
"""

import random
from types import SimpleNamespace

import pytest

from conftest import brute_closure, brute_is_tree

from topstruct.decomposition import TreeDecomposition
from topstruct.errors import InvariantViolation
from topstruct.graph import Graph
from topstruct.pipeline import color_nodes
from topstruct.verifier import verify_decomposition

KINDS = ("tree", "forest", "cycle")
VERTICES = 6


def _edge_set(rng, kind):
    """(node ids, edges): a random tree on scattered ids; for a forest
    one edge dropped; for a cycle one chord added, and half the time one
    edge dropped as well."""
    ids = rng.sample(range(1, 30), rng.randint(1, 8))
    edges = [
        (min(x, y), max(x, y))
        for i, x in enumerate(ids[1:], start=1)
        for y in [rng.choice(ids[:i])]
    ]
    if kind == "forest" and edges:
        edges.pop(rng.randrange(len(edges)))
    if kind == "cycle":
        chords = [
            (x, y) for x in ids for y in ids
            if x < y and (x, y) not in edges
        ]
        if chords:
            edges.append(rng.choice(chords))
            if rng.random() < 0.5:
                edges.pop(rng.randrange(len(edges)))
    return ids, edges


def _decomposition(rng, ids, edges):
    bags = {
        x: frozenset(rng.sample(range(1, VERTICES + 1), rng.randint(1, 3)))
        for x in ids
    }
    return TreeDecomposition(edges, bags)


def _cases(seed, count, kinds=KINDS):
    rng = random.Random(seed)
    for i in range(count):
        kind = kinds[i % len(kinds)]
        ids, edges = _edge_set(rng, kind)
        yield rng, ids, edges, _decomposition(rng, ids, edges)


def _simple_paths(edges, s, t):
    nbrs = {}
    for x, y in edges:
        nbrs.setdefault(x, set()).add(y)
        nbrs.setdefault(y, set()).add(x)
    out = []

    def grow(path):
        if path[-1] == t:
            out.append(path)
            return
        for y in nbrs.get(path[-1], ()):
            if y not in path:
                grow(path + [y])

    grow([s])
    return out


def _order(td):
    return {(s, t): len(td.bags[s] & td.bags[t]) for s, t in td.tree_edges}


def _orders_along(order, path):
    return [order[min(a, b), max(a, b)] for a, b in zip(path, path[1:])]


def test_reach_matches_closure_and_walks_breadth_first():
    for rng, ids, edges, td in _cases(1, 300):
        start = rng.choice(ids)
        within = set(rng.sample(ids, rng.randint(1, len(ids)))) | {start}
        cut = set(rng.sample(edges, rng.randint(0, len(edges))))
        parent = td.reach(start, within=within, cut=cut)
        assert set(parent) == brute_closure(start, edges, within, cut)
        assert set(td.reach(start)) == brute_closure(start, edges, ids)
        assert parent[start] is None
        depth = {start: 0}
        for y, x in list(parent.items())[1:]:
            assert x in depth  # parents are visited first
            assert (min(x, y), max(x, y)) in set(edges) - cut
            depth[y] = depth[x] + 1
        assert list(depth.values()) == sorted(depth.values())


def test_is_tree_matches_brute_force():
    # one vertex of its own per node: the axioms hold, and only the
    # tree is left to check
    seen = set()
    for _, ids, edges, _ in _cases(2, 300):
        g = Graph.from_edges(len(ids), [])
        td = TreeDecomposition(edges, {x: {i + 1} for i, x in enumerate(ids)})
        expected = brute_is_tree(ids, edges)
        assert verify_decomposition(g, td) == expected
        seen.add(expected)
    assert seen == {True, False}
    empty = TreeDecomposition(set(), {})
    assert not verify_decomposition(Graph.from_edges(0, []), empty)
    # a loop, or an edge to a node with no bag, is no tree, and no error
    g = Graph.from_edges(3, [])
    bags = {1: {1}, 2: {2}, 3: {3}}
    for tree_edges in ({(1, 2), (3, 3)}, {(1, 2), (2, 4)}):
        plain = SimpleNamespace(bags=bags, tree_edges=tree_edges)
        assert brute_is_tree(bags, tree_edges) is False
        assert verify_decomposition(g, plain) is False


def test_side_nodes_on_any_edge_set():
    for _, ids, edges, td in _cases(3, 200):
        for s, t in edges:
            for a, b in ((s, t), (t, s)):
                expected = brute_closure(a, edges, set(ids) - {b})
                assert td.side_nodes(a, b) == expected


def test_tree_path_is_a_shortest_simple_path():
    for _, ids, edges, td in _cases(4, 150):
        order = _order(td)
        for s in ids:
            for t in ids:
                paths = _simple_paths(edges, s, t)
                if not paths:
                    with pytest.raises(ValueError):
                        td.tree_path(s, t)
                    continue
                path = td.tree_path(s, t)
                assert path in paths
                assert len(path) == min(len(p) for p in paths)
                if len(paths) > 1:
                    continue  # a cycle: any shortest path will do
                low = min(_orders_along(order, path), default=None)
                assert td.min_order_on_path(s, t) == low


def test_validate_subtree_condition():
    seen = set()
    for rng, ids, edges, td in _cases(6, 300):
        bags = dict(td.bags)
        for v in range(1, VERTICES + 1):  # cover every vertex
            if not any(v in bag for bag in bags.values()):
                x = rng.choice(ids)
                bags[x] = bags[x] | {v}
        td = TreeDecomposition(edges, bags)
        g = Graph.from_edges(VERTICES, {
            (u, v) for bag in bags.values() for u in bag for v in bag if u < v
        })
        connected = all(
            brute_closure(min(holders), edges, holders) == holders
            for holders in (
                {x for x in ids if v in bags[x]} for v in g.vertices
            )
        )
        expected = brute_is_tree(ids, edges) and connected
        assert verify_decomposition(g, td) == expected
        seen.add((brute_is_tree(ids, edges), connected))
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_color_nodes_components_of_t_minus_f():
    for rng, ids, edges, td in _cases(8, 300, kinds=("tree",)):
        f = set(rng.sample(edges, rng.randint(0, len(edges))))
        comps = []
        for x in sorted(ids):
            if not any(x in c for c in comps):
                comps.append(brute_closure(x, edges, ids, cut=f))
        kind = {min(c): rng.choice(("blue", "red", None)) for c in comps}
        block_homes = {
            rng.choice(sorted(c)) for c in comps if kind[min(c)] == "blue"
        }
        model_homes = {
            rng.choice(sorted(c)) for c in comps if kind[min(c)] == "red"
        }
        homeless = set().union(*(c for c in comps if kind[min(c)] is None))
        coloring = color_nodes(td, f, block_homes, model_homes)
        assert coloring.defaulted == homeless
        for c in comps:
            for x in c:
                assert coloring.color[x] == (kind[min(c)] or "blue")
        if block_homes:
            c = next(c for c in comps if c & block_homes)
            with pytest.raises(InvariantViolation, match="both home-node kinds"):
                color_nodes(
                    td, f, block_homes, model_homes | {rng.choice(sorted(c))}
                )
