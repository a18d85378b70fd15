import ast
import random
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from conftest import small_corpus, torso_at_subtree

from topstruct import verifier
from topstruct.decomposition import TreeDecomposition
from topstruct.errors import BudgetExceeded
from topstruct.graph import (
    Graph,
    complete_graph,
    cycle_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    random_graph,
)
from topstruct.obstructions import find_clique_model, find_subdivision
from topstruct.pipeline import Coloring, Parameters, StructureResult, run_structure
from topstruct.verifier import (
    _has_clique,
    _reduce_for_minor,
    _torso,
    canonical_key,
    minor_oracle,
    verify_subdivision,
    verify_theorem,
)


def _imported_modules(path):
    """Every module a source file imports, at any depth of its AST, by
    full name; a relative import is read inside the package."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if not node.level:
                found.add(node.module)
            elif node.module:
                found.add("topstruct." + node.module)
            else:
                found.update("topstruct." + alias.name for alias in node.names)
    return found


def _corrupted(td):
    """(bags, tree_edges) of three broken copies of td, where it has
    room for them: one vertex dropped from a largest bag, one tree edge
    removed, and one edge added that closes a cycle."""
    nodes = sorted(td.bags)
    victim = max(nodes, key=lambda t: len(td.bags[t]))
    bags = dict(td.bags)
    bags[victim] = frozenset(sorted(bags[victim])[1:])
    yield bags, set(td.tree_edges)
    edges = sorted(td.tree_edges)
    if edges:
        yield dict(td.bags), set(edges[1:])
    chords = [
        (s, t) for i, s in enumerate(nodes) for t in nodes[i + 1:]
        if (s, t) not in td.tree_edges
    ]
    if chords:
        yield dict(td.bags), set(td.tree_edges) | {chords[0]}


def test_verifier_shares_no_code_with_the_search(octahedron_petersen_runs):
    # the verifier re-checks what the search found, so it may reach the
    # package only through the error types and the graph; and no module
    # may lean on the test suite's references
    package = Path(verifier.__file__).parent
    imports = {p.stem: _imported_modules(p) for p in package.glob("*.py")}
    ours = {m for m in imports["verifier"] if m.startswith("topstruct.")}
    assert ours <= {"topstruct.errors", "topstruct.graph"}, ours
    for name, modules in sorted(imports.items()):
        assert not any(m.split(".")[0] == "conftest" for m in modules), name
    # nor may it read a decomposition through anything but its bags and
    # tree edges: on those alone, as plain data, every report is the
    # same, for the pipeline's results (the octahedron + Petersen seeds
    # reach red torsos) and for broken copies of them
    corpus_params = Parameters.generalized_km(3, 6)
    runs = [
        (g, corpus_params, run_structure(g, corpus_params))
        for g in small_corpus(53, 60, 10, min_n=4)
    ]
    runs += [
        (g, Parameters.generalized_km(4, 5), res)
        for g, res in octahedron_petersen_runs
    ]
    checked = broken = red = torsos = 0
    for g, p, res in runs:
        if res.variant != "decomposition":
            continue
        td = res.decomposition
        for t in sorted(td.bags):
            assert _torso(g, td, t) == torso_at_subtree(g, td, {t})
            torsos += 1
        red += "red" in res.coloring.color.values()
        copies = [(dict(td.bags), set(td.tree_edges))]
        copies += _corrupted(td)
        for bags, tree_edges in copies:
            typed = TreeDecomposition(tree_edges, bags)
            plain = SimpleNamespace(bags=bags, tree_edges=tree_edges)
            want = verify_theorem(g, p, replace(res, decomposition=typed))
            got = verify_theorem(g, p, replace(res, decomposition=plain))
            assert got.render() == want.render()
            checked += 1
            broken += want.exit_code == 1
    # floors from a reading: 182 reports, 111 of them failing, 20 runs
    # with a red node and 188 node torsos
    assert checked >= 182 and broken >= 111 and red >= 20 and torsos >= 188


def test_verify_subdivision_good_and_bad():
    g = complete_graph(5)
    s = find_subdivision(g, 4)
    assert verify_subdivision(g, 4, s)
    # two paths sharing an internal vertex must fail
    from topstruct.obstructions import SubdivisionEmbedding

    g2 = Graph.from_edges(
        5, [(1, 5), (5, 2), (1, 3), (3, 2), (1, 2), (3, 5)]
    )
    bad = SubdivisionEmbedding(
        (1, 2, 3),
        {
            (1, 2): (1, 5, 2),
            (1, 3): (1, 3),
            (2, 3): (2, 5, 3),  # reuses interior vertex 5
        },
    )
    assert not verify_subdivision(g2, 3, bad)
    # wrong branch count
    assert not verify_subdivision(g, 3, s)


def test_minor_oracle_small_m():
    g = path_graph(3)
    assert minor_oracle(g, 1)
    assert minor_oracle(g, 2)
    assert not minor_oracle(g, 3)
    assert minor_oracle(cycle_graph(4), 3)
    assert not minor_oracle(Graph.from_edges(0, []), 1)
    assert minor_oracle(Graph.from_edges(1, []), 1)
    assert not minor_oracle(Graph.from_edges(2, []), 2)


def test_minor_oracle_pins():
    pet = petersen_graph()
    assert minor_oracle(pet, 5)
    assert not minor_oracle(pet, 6)
    assert not minor_oracle(grid_graph(4, 4), 5)
    assert minor_oracle(grid_graph(3, 3), 4)
    assert minor_oracle(complete_graph(6), 6)
    assert not minor_oracle(complete_graph(5), 6)


def test_minor_oracle_budget():
    with pytest.raises(BudgetExceeded):
        minor_oracle(grid_graph(4, 4), 5, budget=5)


def test_verify_theorem_torsos_share_one_budget():
    # two grids 3x4 glued at vertex 12: two blue torsos, whose K_5
    # refutations cost 5 oracle units each
    grid = grid_graph(3, 4)
    g = Graph.from_edges(
        23,
        grid.sorted_edges()
        + [(u + 11, v + 11) for u, v in grid.sorted_edges()],
    )
    td = TreeDecomposition(
        {(1, 2)},
        {1: frozenset(range(1, 13)), 2: frozenset(range(12, 24))},
    )
    p = Parameters.generalized_km(3, 5)
    blue = Coloring({1: "blue", 2: "blue"}, frozenset())
    res = StructureResult(p, decomposition=td, coloring=blue)
    assert not minor_oracle(grid, 5, budget=8)
    rep = verify_theorem(g, p, res, budget=8)
    assert rep.exit_code == 2
    assert rep.unverified == ["torso 2 (blue, 12 vertices): K_5 minor check"]
    assert verify_theorem(g, p, res, budget=10).exit_code == 0


def test_minor_agrees_with_model_search():
    rng = random.Random(83)
    for _ in range(60):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.choice([0.25, 0.5, 0.75]), rng)
        m = rng.randint(1, 5)
        assert (find_clique_model(g, m) is not None) == minor_oracle(g, m)


def _unpruned_minor_oracle(g, m):
    """The minor oracle's recursion without its surplus prunes (m >= 4):
    it contracts every edge of every reduced graph that has m vertices
    and m(m-1)/2 edges."""
    memo = {}
    need_edges = m * (m - 1) // 2

    def solve(g):
        g = _reduce_for_minor(g, m)
        if len(g.vertices) < m or len(g.edges) < need_edges:
            return False
        if _has_clique(g, m):
            return True
        key = canonical_key(g)
        if key in memo:
            return memo[key]
        memo[key] = False
        ans = any(solve(g.contract_edge(u, v)) for u, v in g.sorted_edges())
        memo[key] = ans
        return ans

    return solve(g)


def _planar_3_tree(n, rng):
    """Random planar 3-tree: stack each new vertex into a random face of
    a triangulation grown from a triangle, then shuffle the labels."""
    edges = {(1, 2), (1, 3), (2, 3)}
    faces = [(1, 2, 3), (1, 2, 3)]
    for v in range(4, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])


def _gnm(n, edge_count, rng):
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    return Graph.from_edges(n, rng.sample(pairs, edge_count))


def _oracle_graphs():
    rng = random.Random(97)
    graphs = [_planar_3_tree(n, rng) for n in range(8, 13)]
    for _ in range(30):
        n = rng.randint(4, 10)
        graphs.append(_gnm(n, rng.randint(n, n * (n - 1) // 2), rng))
    return graphs + [petersen_graph(), grid_graph(3, 4), complete_graph(6)]


def test_minor_oracle_matches_unpruned_reference():
    answers = set()
    for g in _oracle_graphs():
        for m in range(4, 8):
            ans = minor_oracle(g, m)
            assert ans == _unpruned_minor_oracle(g, m), (sorted(g.edges), m)
            answers.add(ans)
    assert answers == {True, False}


def test_minor_oracle_agrees_on_labeled_keys(monkeypatch):
    # every benchmark workload keys its graphs canonically (CI pins 0
    # fallbacks), so only here does the labeled fallback key memo
    # entries: with a cap of a few nodes, many keys fall back, and the
    # oracle must still answer as the reference does
    monkeypatch.setattr(verifier, "_CANONICAL_CAP", 3)
    keys = []

    def counting_key(g):
        keys.append(canonical_key(g))
        return keys[-1]

    monkeypatch.setattr(verifier, "canonical_key", counting_key)
    for g in _oracle_graphs():
        for m in range(4, 8):
            assert minor_oracle(g, m) == _unpruned_minor_oracle(g, m), (
                sorted(g.edges),
                m,
            )
    # a reading keyed 1525 of 3329 graphs labeled: both forms share
    # the memo
    labeled = sum(key[1] == "labeled" for key in keys)
    assert 1525 <= labeled < len(keys)


def test_minor_oracle_keys_planar_3_tree_once(monkeypatch):
    # 3n - 6 = 27 edges on 11 vertices leave a surplus of 2 for K_7.
    # Every edge of a triangulation has at least two common neighbours,
    # so every child keeps a surplus of at most 0 and is refuted before
    # it is keyed: only the root is.
    calls = []

    def counting_key(g, *args, **kwargs):
        calls.append(g)
        return canonical_key(g, *args, **kwargs)

    monkeypatch.setattr(verifier, "canonical_key", counting_key)
    g = _planar_3_tree(11, random.Random(101))
    assert not minor_oracle(g, 7)
    assert len(calls) <= 1


def test_canonical_key_isomorphism_invariant():
    rng = random.Random(89)
    for _ in range(40):
        n = rng.randint(1, 8)
        g = random_graph(n, rng.choice([0.3, 0.6]), rng)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        h = Graph.from_edges(
            n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges]
        )
        assert canonical_key(g) == canonical_key(h)
    # different graphs, different keys
    assert canonical_key(path_graph(4)) != canonical_key(cycle_graph(4))
    assert canonical_key(path_graph(4)) != canonical_key(path_graph(5))


def test_verify_theorem_passes_on_pipeline_output():
    p = Parameters.generalized_km(3, 6)
    g = grid_graph(3, 3)
    res = run_structure(g, p)
    assert res.variant == "decomposition"
    rep = verify_theorem(g, p, res)
    assert rep.passed and rep.exit_code == 0
    assert "pass: decomposition axioms" in rep.render()


def test_verify_theorem_catches_corruption():
    p = Parameters.generalized_km(3, 6)
    g = grid_graph(3, 3)
    res = run_structure(g, p)
    td = res.decomposition
    victim = max(td.nodes, key=lambda t: len(td.bags[t]))
    bags = dict(td.bags)
    bags[victim] = frozenset(sorted(bags[victim])[1:])  # drop a vertex
    broken = StructureResult(
        p,
        decomposition=TreeDecomposition(td.tree_edges, bags),
        coloring=res.coloring,
    )
    rep = verify_theorem(g, p, broken)
    assert not rep.passed and rep.exit_code == 1


def test_verify_theorem_standard_mode():
    p = Parameters.from_r(4)
    g = path_graph(6)
    res = run_structure(g, p)
    rep = verify_theorem(g, p, res)
    assert rep.passed
    text = rep.render()
    assert "adhesion" in text and "torso" in text


def _plain_result(bags, tree_edges=(), color=None):
    """A decomposition result as plain data: the bags, the tree edges
    and, when given, the node colours."""
    return SimpleNamespace(
        decomposition=SimpleNamespace(bags=bags, tree_edges=set(tree_edges)),
        coloring=None if color is None else SimpleNamespace(color=color),
    )


def _two_bags_sharing(shared):
    """Two bags of shared + 1 vertices meeting in ``shared`` vertices,
    on a path through them, as a graph and its plain bags."""
    n = shared + 2
    g = path_graph(n)
    return g, {1: frozenset(range(1, n)), 2: frozenset(range(2, n + 1))}


def _complete_bipartite(a, b):
    return Graph.from_edges(
        a + b, [(u, a + v) for u in range(1, a + 1) for v in range(1, b + 1)]
    )


def test_verify_theorem_generalized_bounds_bite():
    """At (4, 5) an adhesion of 3 passes and of 4 fails; a red torso
    passes with 3 vertices of degree at least 2k² = 32 and fails with
    k = 4 of them, and 4 vertices of degree 31 do not count."""
    p = Parameters.generalized_km(4, 5)
    red = {1: "red", 2: "red"}
    g, bags = _two_bags_sharing(3)
    assert verify_theorem(g, p, _plain_result(bags, {(1, 2)}, red)).passed
    g, bags = _two_bags_sharing(4)
    rep = verify_theorem(g, p, _plain_result(bags, {(1, 2)}, red))
    assert rep.failures == ["adhesion 4 < k=4"]
    for a, b, passed in ((3, 32, True), (4, 32, False), (4, 31, True)):
        g = _complete_bipartite(a, b)
        res = _plain_result({1: frozenset(g.vertices)}, color={1: "red"})
        rep = verify_theorem(g, p, res)
        assert rep.passed == passed, (a, b)
    assert rep.render() == (
        "pass: decomposition axioms\n"
        "pass: adhesion 0 < k=4\n"
        "pass: torso 1 (red, 35 vertices): 0 vertices of degree >= 32"
        " (< 4 required)\n"
    )


def test_verify_theorem_standard_bounds_bite():
    """At r = 2 an adhesion of 3 passes and of r² = 4 fails.  K_8 passes
    by degree, with no vertex of degree 2r⁴ = 32; with 30 leaves on each
    of four of its vertices it has r² = 4 such vertices and a K_8
    minor, so it fails both conditions."""
    p = Parameters.from_r(2)
    g, bags = _two_bags_sharing(3)
    assert verify_theorem(g, p, _plain_result(bags, {(1, 2)})).passed
    g, bags = _two_bags_sharing(4)
    rep = verify_theorem(g, p, _plain_result(bags, {(1, 2)}))
    assert rep.failures == ["adhesion 4 < r^2=4"]
    k8 = complete_graph(8)
    rep = verify_theorem(k8, p, _plain_result({1: frozenset(k8.vertices)}))
    assert rep.passed
    assert "pass: torso 1 (uncolored, 8 vertices): degree condition" in (
        rep.render()
    )
    leaves = [(1 + i // 30, 9 + i) for i in range(120)]
    g = Graph.from_edges(128, k8.sorted_edges() + leaves)
    rep = verify_theorem(g, p, _plain_result({1: frozenset(g.vertices)}))
    assert rep.failures == [
        "torso 1 (uncolored, 128 vertices): degree condition failed,"
        " minor condition fails too"
    ]
