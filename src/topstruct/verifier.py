"""Independent certification of pipeline outputs.

Everything here is brute force on purpose: the minor oracle is a second
implementation that shares no search code with obstructions, and the
theorem verifier reads a decomposition only through its ``bags`` and
``tree_edges``, checking the axioms, the adhesion and every torso itself.
"""

import itertools
from collections import Counter

from .errors import DEFAULT_BUDGET, Budget, BudgetExceeded
from .graph import Graph, bits

_CANONICAL_CAP = 200_000


# -- subdivision verification ------------------------------------------


def verify_subdivision(g, r, s):
    """True iff s is a valid K_r subdivision embedded in g."""
    bv = s.branch_vertices
    if len(bv) != r or len(set(bv)) != r:
        return False
    if not set(bv) <= set(g.vertices):
        return False
    expected_pairs = {
        (min(u, w), max(u, w)) for u, w in itertools.combinations(bv, 2)
    }
    if set(s.paths) != expected_pairs:
        return False
    seen_interior = set()
    for (u, w), path in s.paths.items():
        if len(path) < 2 or path[0] != u or path[-1] != w:
            return False
        if len(set(path)) != len(path):
            return False
        for x, y in zip(path, path[1:]):
            if not g.has_edge(x, y):
                return False
        interior = set(path[1:-1])
        if interior & set(bv):
            return False
        if interior & seen_interior:
            return False
        seen_interior |= interior
    return True


# -- decomposition verification ----------------------------------------


def verify_decomposition(g, td):
    """True iff ``td`` is a tree-decomposition of g.

    Reads only ``td.bags`` (node -> vertex set) and ``td.tree_edges``
    (node pairs), and never raises on either.  The tree: at least one
    node, |N| - 1 edges, each joining two distinct nodes that have
    bags, and union-find meets no cycle among them.  The bags cover
    V(G) and every edge of G.  The subtree condition: in a tree, the
    nodes whose bags hold v are connected exactly when |holders| - 1
    tree edges join two of them, since they span a forest with one
    component per holder less one per joining edge; so it is a count,
    not a walk.
    """
    bags = td.bags
    if not bags or len(td.tree_edges) != len(bags) - 1:
        return False
    # per vertex: its holders, less the tree edges joining two of them
    excess = Counter(v for bag in bags.values() for v in bag)
    if excess.keys() != set(g.vertices):
        return False
    root = {node: node for node in bags}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for s, t in td.tree_edges:
        if s not in bags or t not in bags:
            return False
        rs, rt = find(s), find(t)
        if rs == rt:  # a loop, or an edge closing a cycle
            return False
        root[rs] = rt
        excess.subtract(bags[s] & bags[t])
    if any(c != 1 for c in excess.values()):
        return False
    return all(
        any(u in bag and v in bag for bag in bags.values()) for u, v in g.edges
    )


def _torso(g, td, t):
    """Torso of node t: G[V_t] plus a clique on V_s ∩ V_t for each tree
    edge st, relabelled to 1..|V_t| in increasing vertex order."""
    extra = set()
    for a, b in td.tree_edges:
        if t in (a, b):
            adhesion_set = sorted(td.bags[a] & td.bags[b])
            extra.update(itertools.combinations(adhesion_set, 2))
    return Graph(g.n, g.edges | extra).induced(td.bags[t])


# -- canonical forms ----------------------------------------------------


def canonical_key(g):
    """A canonical, label-independent key for g.

    Iterative refinement plus individualization; exact (two graphs get
    the same key iff isomorphic).  On pathological inputs its own work
    cap, ``_CANONICAL_CAP``, apart from any run's budget, trips and we
    fall back to a sound non-canonical labeled key, which only costs
    memoization hits, never correctness.
    """
    n = g.n
    verts = sorted(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    adj_rows = [
        [index[w] for w in bits(g.adj[v]) if w in index] for v in verts
    ]
    budget = Budget(_CANONICAL_CAP)

    def refine(colors):
        while True:
            sigs = [
                (colors[i], tuple(sorted(colors[j] for j in adj_rows[i])))
                for i in range(n)
            ]
            palette = {s: c for c, s in enumerate(sorted(set(sigs)))}
            new = [palette[s] for s in sigs]
            if new == colors:
                return colors
            colors = new

    def key_of(order):
        pos = {v: i for i, v in enumerate(order)}
        return tuple(
            sorted(
                (min(pos[a], pos[b]), max(pos[a], pos[b]))
                for a in range(n)
                for b in adj_rows[a]
                if a < b
            )
        )

    def search(colors):
        budget.charge("canonical labeling")
        colors = refine(colors)
        classes = {}
        for i, c in enumerate(colors):
            classes.setdefault(c, []).append(i)
        target = None
        for c in sorted(classes):
            if len(classes[c]) > 1:
                target = c
                break
        if target is None:
            order = sorted(range(n), key=lambda i: colors[i])
            return key_of(order)
        best = None
        for i in classes[target]:
            branched = list(colors)
            branched[i] = -1  # individualize below every existing color
            cand = search(branched)
            if best is None or cand < best:
                best = cand
        return best

    try:
        return (n, search([0] * n))
    except BudgetExceeded:
        # sound fallback: labeled key after degree-sorting
        order = sorted(range(n), key=lambda i: (len(adj_rows[i]), i))
        return (n, "labeled", key_of(order))


# -- the exact minor oracle --------------------------------------------


def _has_cycle(g):
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for u, v in g.sorted_edges():
        ru, rv = find(u), find(v)
        if ru == rv:
            return True
        parent[ru] = rv
    return False


def _has_clique(g, m):
    cands = sorted(
        (v for v in g.vertices if g.degree(v) >= m - 1),
        key=lambda v: -g.degree(v),
    )
    for combo in itertools.combinations(cands, m):
        if all(
            g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)
        ):
            return True
    return False


def _reduce_for_minor(g, m):
    """Shrink g without changing whether K_m (m ≥ 4) is a minor.

    Isolated vertices go; a degree-1 vertex is contracted into its
    neighbor (its branch set cannot be a singleton when m ≥ 3); a
    degree-2 vertex is contracted into a neighbor (singleton branch set
    impossible when m ≥ 4, and the merged vertex keeps the adjacency its
    other neighbor provided).
    """
    while True:
        low = None
        for v in sorted(g.vertices):
            d = g.degree(v)
            if d == 0:
                low = (v, None)
                break
            if d <= 2 and low is None:
                low = (v, min(bits(g.adj[v])))
        if low is None:
            return g
        v, nb = low
        if nb is None:
            keep = [u for u in sorted(g.vertices) if u != v]
            g = g.induced(keep)
        else:
            g = g.contract_edge(nb, v)


def minor_oracle(g, m, budget=DEFAULT_BUDGET):
    """True iff g has a K_m minor; exact recursive contraction search.

    A minor model, contracted branch set by branch set, leaves a K_m
    subgraph, so g has the minor iff some contraction sequence produces
    an m-clique.  The recursion contracts edges of the reduced graph,
    memoized on canonical forms, and prunes by edge surplus:

    (a) After ``_reduce_for_minor`` every vertex has degree >= 3.  Take
    a model with union U: its branch sets are connected, so they span
    |U| - m tree edges, and it needs m(m-1)/2 more edges between sets.
    Every vertex outside U has degree >= 2, so at least |V - U| further
    edges touch V - U.  Hence a K_m minor needs
    |E| >= |V| - m + m(m-1)/2; ``surplus`` is the slack in this bound.

    (b) Contracting uv removes one vertex and 1 + |N(u) & N(v)| edges,
    so it lowers |E| - |V| by |N(u) & N(v)|.  The child's reduction
    cannot raise |E| - |V| again: every component of the reduced g has
    minimum degree >= 3, so after one contraction each component still
    has a cycle (if g - u - v is a forest, each of its leaves is
    adjacent to both u and v, and two leaves of one tree close a cycle
    through the merged vertex; an isolated vertex of g - u - v would
    have degree <= 2 in g).  A component of cycle rank c adds c - 1 to
    |E| - |V|.  The reduction's contractions keep each component
    connected and never raise c; deleting an isolated vertex raises
    |E| - |V| by one, but only ends a component whose c has fallen from
    at least 1 to 0, so that component's share ends at 0, no more than
    it started with.  So an edge whose ends share more than ``surplus``
    neighbours leads only to children that fail (a); such edges are
    never contracted, and a graph with no other edge is refuted before
    it is keyed or memoized.  ``budget`` is charged one unit per
    ``solve`` call, so these pruned children cost nothing.
    """
    if m <= 0:
        return True
    if m == 1:
        return g.n >= 1
    if m == 2:
        return bool(g.edges)
    if m == 3:
        return _has_cycle(g)
    memo = {}
    budget = Budget.of(budget)
    need_edges = m * (m - 1) // 2

    def solve(g):
        budget.charge("minor oracle")
        g = _reduce_for_minor(g, m)
        surplus = len(g.edges) - (len(g.vertices) - m) - need_edges
        if len(g.vertices) < m or surplus < 0:
            return False
        if _has_clique(g, m):
            return True
        adj = g.adj
        edges = [
            (u, v)
            for u, v in g.sorted_edges()
            if (adj[u] & adj[v]).bit_count() <= surplus
        ]
        if not edges:
            return False
        key = canonical_key(g)
        if key in memo:
            return memo[key]
        memo[key] = False  # cycle-safe placeholder; contractions shrink
        ans = False
        for u, v in edges:
            if solve(g.contract_edge(u, v)):
                ans = True
                break
        memo[key] = ans
        return ans

    return solve(g)


# -- theorem verification ----------------------------------------------


class Report:
    """Outcome of a verification run, printable and exit-code-aware."""

    def __init__(self):
        self.lines = []
        self.failures = []
        self.unverified = []

    def check(self, ok, line):
        self.lines.append(("pass: " if ok else "FAIL: ") + line)
        if not ok:
            self.failures.append(line)
        return ok

    def budget(self, line):
        self.lines.append("unverified: " + line)
        self.unverified.append(line)

    @property
    def passed(self):
        return not self.failures and not self.unverified

    @property
    def exit_code(self):
        if self.failures:
            return 1
        if self.unverified:
            return 2
        return 0

    def render(self):
        return "\n".join(self.lines) + "\n"


def _torso_degree_count(torso, threshold):
    return sum(1 for v in torso.vertices if torso.degree(v) >= threshold)


def verify_theorem(g, params, result, budget=DEFAULT_BUDGET):
    """Check a decomposition result against the structure theorem.

    Standard mode (params derived from r): adhesion < r² and every torso
    either has fewer than r² vertices of degree ≥ 2r⁴ or no K_{2r²}
    minor.  Generalized mode checks the sharper internal bounds instead:
    adhesion < k, red torsos with fewer than k vertices of degree ≥ 2k²,
    blue torsos with no K_m minor.  Every minor check charges the one
    ``budget``; a check that runs out of it is reported unverified.
    """
    budget = Budget.of(budget)
    report = Report()
    td = result.decomposition
    if td is None:
        report.check(False, "result has no decomposition variant")
        return report
    if not report.check(verify_decomposition(g, td), "decomposition axioms"):
        return report

    adhesion = max(
        (len(td.bags[s] & td.bags[t]) for s, t in td.tree_edges), default=0
    )
    k, m = params.k, params.m
    if params.generalized:
        report.check(adhesion < k, "adhesion %d < k=%d" % (adhesion, k))
        deg_threshold = 2 * k * k
        deg_bound = k
        minor_m = m
    else:
        r = params.r
        report.check(
            adhesion < r * r, "adhesion %d < r^2=%d" % (adhesion, r * r)
        )
        deg_threshold = 2 * r ** 4
        deg_bound = r * r
        minor_m = 2 * r * r

    colors = result.coloring.color if result.coloring is not None else {}
    for t in sorted(td.bags):
        torso = _torso(g, td, t)
        color = colors.get(t)
        high = _torso_degree_count(torso, deg_threshold)
        degree_ok = high < deg_bound
        label = "torso %d (%s, %d vertices)" % (
            t,
            color or "uncolored",
            len(torso.vertices),
        )
        if params.generalized and color == "red":
            report.check(
                degree_ok,
                "%s: %d vertices of degree >= %d (< %d required)"
                % (label, high, deg_threshold, deg_bound),
            )
            continue
        blue = params.generalized and color == "blue"
        # a blue torso needs the minor check; any other torso gets the
        # either/or of the theorem, degree condition first
        if degree_ok and not blue:
            report.check(
                True,
                "%s: degree condition (%d high-degree vertices)"
                % (label, high),
            )
            continue
        try:
            has = minor_oracle(torso, minor_m, budget=budget)
        except BudgetExceeded:
            report.budget("%s: K_%d minor check" % (label, minor_m))
            continue
        if blue:
            report.check(not has, "%s: no K_%d minor" % (label, minor_m))
        else:
            report.check(
                not has,
                "%s: degree condition failed, minor condition %s"
                % (label, "holds" if not has else "fails too"),
            )
    return report
