"""Highly connected substructures and the searches that find them.

k-blocks, clique models, subdivisions, Z-based models, and the
subdivision extraction that finds a K_r subdivision with prescribed
branch vertices through a Z-based model of a copy graph.
"""

import itertools
from dataclasses import dataclass

from .errors import (
    DEFAULT_BUDGET,
    Budget,
    InvariantViolation,
    PreconditionFailed,
)
from .graph import Graph, bits, mask_of, set_of
from .separations import min_vertex_cut


@dataclass(frozen=True)
class Block:
    """An inclusion-maximal set of ≥ k vertices no order-< k separation splits."""

    vertices: frozenset
    k: int


@dataclass(frozen=True)
class Model:
    """Branch sets of a K_m minor: disjoint, connected, pairwise joined."""

    branch_sets: tuple
    target: int


@dataclass(frozen=True)
class SubdivisionEmbedding:
    """A subdivision of a clique: branch vertices plus one path per pair.

    ``paths`` maps the sorted pair (u, w) of branch vertices to the full
    vertex sequence of the connecting path, endpoints included.
    """

    branch_vertices: tuple
    paths: dict  # (u, w) with u < w -> tuple of vertices


# -- k-blocks ----------------------------------------------------------


def _inseparable_relation(g, k, budget):
    """Adjacency of the auxiliary graph: uv related iff edge or cut ≥ k.

    Each pair costs one unit of ``budget``: a pair's cut is a max-flow.
    """
    rel = [0] * (g.n + 1)
    for u, v in itertools.combinations(sorted(g.vertices), 2):
        budget.charge("k-block relation")
        if g.has_edge(u, v) or min_vertex_cut(g, u, v) >= k:
            rel[u] |= 1 << v
            rel[v] |= 1 << u
    return rel


def _relation_from_separations(g, seps, budget):
    """The same relation read off S_k: uv unrelated iff some separation
    of order < k puts u and v on opposite exclusive sides.

    A non-adjacent pair with a cut X of fewer than k vertices is split
    by (C ∪ X, V ∖ C), C the component of u in G - X; an adjacent pair
    is never split.  Charged like the max-flow relation, one unit per
    vertex pair.
    """
    n = g.n
    budget.charge("k-block relation", n * (n - 1) // 2)
    split = [0] * (n + 1)
    for s in seps:
        only_a = s.mask_a & ~s.mask_b
        only_b = s.mask_b & ~s.mask_a
        if only_a.bit_count() > only_b.bit_count():
            only_a, only_b = only_b, only_a
        for u in bits(only_a):
            split[u] |= only_b
    for u in range(1, n + 1):  # make the relation symmetric
        for v in bits(split[u]):
            split[v] |= 1 << u
    full = g.vertex_mask
    return [0] + [full & ~split[u] & ~(1 << u) for u in range(1, n + 1)]


def _bron_kerbosch(rel, verts_mask, budget):
    """Maximal cliques of the relation graph, with pivoting."""
    out = []

    def expand(r, p, x):
        budget.charge("clique enumeration")
        if p == 0 and x == 0:
            out.append(r)
            return
        # pivot: vertex of p|x with most neighbors in p
        pivot, best = -1, -1
        for u in bits(p | x):
            cnt = (rel[u] & p).bit_count()
            if cnt > best:
                pivot, best = u, cnt
        for v in bits(p & ~rel[pivot]):
            expand(r | (1 << v), p & rel[v], x & rel[v])
            p &= ~(1 << v)
            x |= 1 << v

    expand(0, verts_mask, 0)
    return out


def find_k_blocks(g, k, budget=DEFAULT_BUDGET, *, seps=None):
    """All k-blocks of g, sorted by vertex set.

    A set is a k-block iff it has ≥ k vertices, no two of its vertices
    are separated by fewer than k other vertices, and it is maximal so;
    pairwise inseparability of the members is equivalent to the
    definition's set-level condition.

    ``seps`` is S_k(g) as ``enumerate_separations(g, k)`` returns it, for
    a caller that holds it already; the relation is then read off it.
    Without it, each non-adjacent pair's cut is a max-flow: enumerating
    S_k is exponential in k, the flows are polynomial.
    """
    if k < 1:
        raise ValueError("k must be positive")
    budget = Budget.of(budget)
    if seps is None:
        rel = _inseparable_relation(g, k, budget)
    else:
        rel = _relation_from_separations(g, seps, budget)
    cliques = _bron_kerbosch(rel, g.vertex_mask, budget)
    blocks = [
        Block(frozenset(set_of(c)), k) for c in cliques if c.bit_count() >= k
    ]
    blocks.sort(key=lambda b: tuple(sorted(b.vertices)))
    return blocks


# -- clique-model search -----------------------------------------------


class _ModelSearch:
    """Backtracking branch-set assignment.

    Vertices are processed in a fixed order (descending degree, then
    label); each opens the next set, is joined to an existing set, or is
    skipped, in that order.  Trying to open first reaches a model in a
    dense graph long before growing one huge set and backtracking out of
    it would.  Sets are opened in processing order, which breaks the
    set-permutation symmetry.  The search has two modes: free, and
    seeded (Z-based), where every set is pre-opened with its seed
    vertex and no further sets may open.  Beside each open set it keeps
    the set's neighbourhood mask, the union of ``adj[v]`` over its
    vertices, so two sets are joined by an edge iff one's mask meets
    the other set.  ``_feasible`` reads the unjoined pairs off these
    masks before it runs any closure, and runs none for a one-vertex
    set, which is connected.

    ``_feasible(remaining)`` asks whether the open sets can still grow,
    from the vertices of ``remaining``, into a model.  A complete model
    is a feasible state with no vertex left: with ``remaining`` empty,
    each set (never empty: it opens with a vertex) must already be
    connected, and each pair joined by an edge.  So one predicate
    decides both completeness and pruning, and a prune added to it must
    accept every complete assignment.

    The cover bound is such a prune.  It runs only when all m sets are
    open and ``remaining`` is not empty; each set then ends as itself
    plus some vertices of ``remaining``, the sets staying disjoint.
    Call a pair of sets unjoined when no edge joins them yet.

    - A set S with more unjoined partners than remaining neighbours
      (vertices of ``remaining`` adjacent to S) must take a remaining
      vertex.  If S took none, each unjoined partner T would have to
      take a remaining neighbour of S to be joined to S, and disjoint
      partners take distinct ones.  Call such an S forced.
    - Of two unjoined sets, at least one must take a remaining vertex,
      or they stay unjoined.  So in a matching of unjoined pairs among
      the sets that are not forced, each pair has its own set that must
      grow, apart from every forced set.

    Every set that grows takes a remaining vertex of its own, so a
    model below the current state needs at least (forced sets) +
    (matched pairs) remaining vertices, whichever maximal matching is
    taken; a greedy one is.  The bound prunes only when fewer remain.
    It never refuses a state that is a complete model already, with or
    without vertices left: there no pair is unjoined, so it asks for
    none.  So it cuts only subtrees that hold no model, and the first
    model found is the one the unpruned search finds.
    """

    def __init__(self, g, m, budget, seeds=None):
        self.g = g
        self.m = m
        self.budget = Budget.of(budget)
        if seeds is None:
            self.sets = []
            excluded = 0
        else:
            self.sets = [1 << v for v in sorted(seeds)]
            excluded = mask_of(seeds)
        self.nbrs = [g.adj[s.bit_length() - 1] for s in self.sets]
        self.order = sorted(
            (v for v in g.vertices if not (excluded >> v) & 1),
            key=lambda v: (-g.degree(v), v),
        )
        self.can_open = seeds is None

    def run(self):
        if self.m == 0:
            return Model((), 0)
        suffix = 0
        suffixes = [0] * (len(self.order) + 1)
        for i in range(len(self.order) - 1, -1, -1):
            suffix |= 1 << self.order[i]
            suffixes[i] = suffix
        self.suffixes = suffixes
        return self._rec(0)

    def _rec(self, i):
        self.budget.charge("model search")
        sets, nbrs = self.sets, self.nbrs
        if len(sets) == self.m and self._feasible(0):
            return Model(tuple(frozenset(set_of(s)) for s in sets), self.m)
        if i == len(self.order) or not self._feasible(self.suffixes[i]):
            return None
        v = self.order[i]
        vm = 1 << v
        nv = self.g.adj[v]
        if self.can_open and len(sets) < self.m:
            sets.append(vm)
            nbrs.append(nv)
            found = self._rec(i + 1)
            sets.pop()
            nbrs.pop()
            if found is not None:
                return found
        for j in range(len(sets)):
            old = nbrs[j]
            sets[j] |= vm
            nbrs[j] = old | nv
            found = self._rec(i + 1)
            sets[j] &= ~vm
            nbrs[j] = old
            if found is not None:
                return found
        return self._rec(i + 1)  # skip v

    def _feasible(self, remaining):
        sets, nbrs, m = self.sets, self.nbrs, self.m
        opened = len(sets)
        if self.can_open and opened < m:
            if remaining.bit_count() < m - opened:
                return False
        unjoined = [
            (i, j)
            for i, j in itertools.combinations(range(opened), 2)
            if not nbrs[i] & sets[j]
        ]
        if unjoined:
            if not remaining:
                return False
            if opened == m and self._cover_exceeds(remaining, unjoined):
                return False
        reach = self.g.reachable_mask
        for s in sets:
            if s & (s - 1) and reach(s & -s, s | remaining) & s != s:
                return False
        for i, j in unjoined:
            a, b = sets[i], sets[j]
            if not reach(a, a | b | remaining) & b:
                return False
        return True

    def _cover_exceeds(self, remaining, unjoined):
        """True when the unjoined pairs need more remaining vertices
        than there are: the cover bound of the class docstring.  Each
        vertex needed is that of a distinct set, so m or more remaining
        vertices always suffice."""
        left = remaining.bit_count()
        if left >= self.m:
            return False
        partners = [0] * self.m
        for i, j in unjoined:
            partners[i] += 1
            partners[j] += 1
        need = 0
        taken = 0  # sets already counted as growing
        for i, count in enumerate(partners):
            if count > (self.nbrs[i] & remaining).bit_count():
                need += 1
                taken |= 1 << i
        for i, j in unjoined:
            if not (taken >> i) & 1 and not (taken >> j) & 1:
                need += 1
                taken |= (1 << i) | (1 << j)
        return need > left


def refutes_clique_minor(g, m):
    """True only when g has no K_m minor: a polynomial refutation that
    is exact when it answers True; False decides nothing.

    For m ≤ 3 the rule is a count: K_m needs m vertices and
    m(m−1)/2 edges.  For m ≥ 4 the graph is first reduced without
    changing whether K_m is a minor.  Isolated vertices go.  A vertex v
    of degree 1 or 2 is contracted into a neighbour a: a singleton
    branch set needs m − 1 ≥ 3 neighbours, so v is unused or shares a
    connected branch set with a neighbour; if that neighbour is the
    other one, b, then v is a leaf of its set, and after the
    contraction a is adjacent to b, so the model survives without v.
    (For m = 3 this step is wrong: it turns a triangle into an edge.)

    The reduced graph, reached when the least degree is first ≥ 3, has
    minimum degree ≥ 3.  Take a K_m model with union U: its connected
    branch sets hold at least |U| − m edges, at least m(m−1)/2 more join
    them, and every vertex outside U has degree ≥ 3, so at least
    3|V − U|/2 ≥ |V − U| further edges touch V − U.  Hence a K_m minor
    needs |E| − (|V| − m) ≥ m(m−1)/2, and the test refutes when this
    fails or fewer than m vertices remain.

    Past that test the elimination goes on: the vertex of least degree,
    lowest label first, has its neighbours joined into a clique and is
    removed; the degree-≤ 2 steps above are the start of this same
    ordering.  Every elimination ordering is a tree decomposition of
    its width, the largest degree met: its bags are {v} ∪ N(v), with
    N(v) taken when v is removed.  Treewidth does not grow under taking
    minors and tw(K_m) = m − 1, so an ordering of width below m − 1
    refutes K_m; the loop gives up at the first vertex of degree
    ≥ m − 1.  The surplus rule stays: sparse graphs of large treewidth,
    such as many random cubic graphs, fail the count but not the width
    bound.

    The elimination runs on adjacency masks and is written here
    independently of the verifier's, so that the search and the check
    that certifies its blue torsos share no code.
    """
    need = m * (m - 1) // 2
    if m <= 3:
        return g.n < m or len(g.edges) < need
    adj = list(g.adj)
    alive = g.vertex_mask
    surplus_checked = False
    while alive:
        v = min(bits(alive), key=lambda u: adj[u].bit_count())
        nbrs = adj[v]
        degree = nbrs.bit_count()
        if degree >= 3 and not surplus_checked:
            verts = alive.bit_count()
            edges = sum(adj[u].bit_count() for u in bits(alive)) // 2
            if verts < m or edges - (verts - m) < need:
                return True
            surplus_checked = True
        if degree >= m - 1:
            return False
        alive &= ~(1 << v)
        for w in bits(nbrs):
            adj[w] = (adj[w] | nbrs) & ~((1 << w) | (1 << v))
    return True


def find_clique_model(g, m, budget=DEFAULT_BUDGET):
    """A model of K_m in g, or None; exact backtracking search."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _ModelSearch(g, m, budget).run()


def find_z_based_model(g, z, budget=DEFAULT_BUDGET):
    """A K_{|z|} model with exactly one z-vertex per branch set, or None.

    Raises ``ValueError`` naming the first vertex of z outside 1..n.
    """
    for v in z:
        if not 1 <= v <= g.n:
            raise ValueError("z vertex %d outside 1..%d" % (v, g.n))
    z = sorted(set(z))
    return _ModelSearch(g, len(z), budget, seeds=z).run()


# -- subdivisions ------------------------------------------------------


def _simple_paths(g, start, goal_m, allowed_m, budget):
    """Yield simple paths from start into goal_m inside allowed_m, lex order."""
    path = [start]
    used = 1 << start

    def rec():
        nonlocal used
        budget.charge("path enumeration")
        v = path[-1]
        if (goal_m >> v) & 1 and len(path) > 1:
            yield tuple(path)
            return
        for w in bits(g.adj[v] & allowed_m & ~used):
            path.append(w)
            used |= 1 << w
            yield from rec()
            used &= ~(1 << w)
            path.pop()

    yield from rec()


def find_subdivision(g, r, budget=DEFAULT_BUDGET):
    """A K_r subdivision in g, or None; exact backtracking.

    Branch vertices are tried in sorted combinations; pair paths are
    assigned one at a time with full backtracking, so the search is
    exact at oracle scale.
    """
    if r < 0:
        raise ValueError("r must be nonnegative")
    if r == 0:
        return SubdivisionEmbedding((), {})
    candidates = sorted(v for v in g.vertices if g.degree(v) >= r - 1)
    if len(candidates) < r:
        return None
    budget = Budget.of(budget)
    for combo in itertools.combinations(candidates, r):
        emb = _embed_pairs(g, combo, budget)
        if emb is not None:
            return emb
    return None


def _embed_pairs(g, branch, budget):
    pairs = list(itertools.combinations(branch, 2))
    branch_m = mask_of(branch)
    paths = {}
    used_interior = 0

    def rec(idx):
        nonlocal used_interior
        budget.charge("subdivision search")
        if idx == len(pairs):
            return True
        u, w = pairs[idx]
        goal = 1 << w
        allowed = (g.vertex_mask & ~branch_m & ~used_interior) | (1 << u) | goal
        for path in _simple_paths(g, u, goal, allowed, budget):
            interior = mask_of(path[1:-1])
            paths[(u, w)] = path
            used_interior |= interior
            if rec(idx + 1):
                return True
            used_interior &= ~interior
            del paths[(u, w)]
        return False

    if rec(0):
        return SubdivisionEmbedding(tuple(branch), dict(paths))
    return None


# -- subdivision extraction --------------------------------------------


def branch_count_fits(r, k, m):
    """True iff (k, m) is large enough to extract a K_r subdivision:
    r(r−1) ≤ k and 2r(r−1) − 1 ≤ m."""
    return r * (r - 1) <= k and 2 * r * (r - 1) - 1 <= m


def extract_subdivision(g, b0, budget=DEFAULT_BUDGET):
    """A K_r subdivision with branch vertices exactly b0, r = |b0| ≥ 2,
    or None when the copy graph has no copy-based model.

    Each vertex of b0 is replaced by an independent set of r − 1
    copies; a K_{r(r−1)} model of that copy graph with one copy in each
    branch set (a Z-based model, Z the r(r−1) copies) gives one path per
    pair of b0, each copy identified back with its branch vertex.  The
    model search is exact, and the embedding must pass
    ``verifier.verify_subdivision`` before it is returned.

    ``run_structure`` calls this at a node t that is the home of a
    k-block and of a K_m model, with b0 in the block and
    ``branch_count_fits(r, k, m)``, and treats None there as a bug.
    The RS lemma, whose hypothesis ``check_rs_lemma`` in
    ``tests/conftest.py`` tests, asks of a K_q model with
    q ≥ 2|Z| − 1 that it direct the separations of order < |Z| as Z
    does; here |Z| = r(r−1) ≤ k and q = m ≥ 2r(r−1) − 1.  At a shared
    home the block and the model agree on every such separation.  Let
    (A, B) have order p − 1, p ≤ r(r−1), with the block in B:

    - the block lies in V_t ∩ B, so |V_t ∩ B| ≥ k ≥ p;
    - at most p − 1 branch sets meet A ∩ B.  The other m − p + 1 ≥ p
      (as m ≥ 2r(r−1) − 1 ≥ 2p − 1) are pairwise adjacent, so they lie
      on one exclusive side; if it is A ∖ B, each meets V_t there, and
      |V_t ∩ A| ≥ p;
    - k-leanness at (t, t) then asks for p disjoint paths between p
      vertices of V_t ∩ A and p of V_t ∩ B, but each such path meets
      the p − 1 vertices of A ∩ B.

    So the model lies on the block's side of every such separation,
    and this function computes no orientation.
    """
    b0 = tuple(sorted(set(b0)))
    r = len(b0)
    if r < 2:
        raise PreconditionFailed("need at least two branch vertices")
    if b0[0] < 1 or b0[-1] > g.n:
        raise PreconditionFailed("branch vertices must be vertices of g")
    budget = Budget.of(budget)
    h, copies = _copy_graph(g, b0, r - 1)
    j_all = sorted(v for vs in copies.values() for v in vs)
    model = find_z_based_model(h, j_all, budget=budget)
    if model is None:
        return None
    branch_set_of = {}
    for s in model.branch_sets:
        for v in j_all:
            if v in s:
                branch_set_of[v] = s
                break
    # name each copy of b after the branch vertex it will route toward
    role = {}
    for bb in b0:
        others = [c for c in b0 if c != bb]
        for copy, c in zip(sorted(copies[bb]), others):
            role[(bb, c)] = copy

    paths = {}
    for bb, c in itertools.combinations(b0, 2):
        v1, v2 = role[(bb, c)], role[(c, bb)]
        allowed = mask_of(branch_set_of[v1] | branch_set_of[v2])
        hp = _shortest_path(h, v1, v2, allowed)
        back = [bb] + [w for w in hp[1:-1]] + [c]
        paths[(bb, c)] = tuple(back)
    emb = SubdivisionEmbedding(b0, paths)
    _assert_embedding(g, emb)
    return emb


def _copy_graph(g, b0, copies_each):
    """Replace each vertex of b0 by an independent set of copies.

    The first copy reuses the original label (and is the one the paths
    are later identified back to); extras get fresh labels past n.
    """
    next_label = g.n + 1
    copies = {}
    for bb in b0:
        mine = [bb]
        for _ in range(copies_each - 1):
            mine.append(next_label)
            next_label += 1
        copies[bb] = mine
    n_h = next_label - 1
    edges = [
        (cu, cv)
        for u, v in g.sorted_edges()
        for cu in copies.get(u, (u,))
        for cv in copies.get(v, (v,))
    ]
    return Graph.from_edges(n_h, edges), copies


def _shortest_path(g, src, dst, allowed_m):
    prev = {src: None}
    queue = [src]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        if v == dst:
            path = []
            while v is not None:
                path.append(v)
                v = prev[v]
            return tuple(reversed(path))
        for w in bits(g.adj[v] & allowed_m):
            if w not in prev:
                prev[w] = v
                queue.append(w)
    raise InvariantViolation("adjacent branch sets admit no connecting path")


def _assert_embedding(g, emb):
    from .verifier import verify_subdivision

    if not verify_subdivision(g, len(emb.branch_vertices), emb):
        raise InvariantViolation("extracted subdivision fails verification")


# -- witness serialization ---------------------------------------------


def serialize_model(x):
    lines = []
    for i, s in enumerate(x.branch_sets, start=1):
        lines.append("x %d: %s" % (i, " ".join(str(v) for v in sorted(s))))
    return "\n".join(lines) + ("\n" if lines else "")


def serialize_subdivision(s):
    lines = ["bv %s" % " ".join(str(v) for v in s.branch_vertices)]
    for (u, w) in sorted(s.paths):
        path = s.paths[(u, w)]
        lines.append(
            "path %d %d: %s" % (u, w, " ".join(str(v) for v in path))
        )
    return "\n".join(lines) + "\n"
