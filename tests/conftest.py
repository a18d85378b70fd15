"""Shared brute-force oracles, reference checks and corpus helpers for
the test suite.

The oracles here deliberately share no code with the library internals
they check: cuts by subset enumeration, blocks straight from the
definition, models by validation of explicit candidates.  The reference
checks of the theory (the exact minimum-fatness builder, the
orientations of blocks and models and the home node of an orientation,
the torso of a subtree, the join and RS lemma checks, the meet search
that model homes are compared with) are test code as well: no module of
the package imports this file.
"""

import importlib.util
import itertools
import random
from pathlib import Path

import pytest

from topstruct.decomposition import TreeDecomposition
from topstruct.errors import (
    DEFAULT_BUDGET,
    Budget,
    InvariantViolation,
    PreconditionFailed,
)
from topstruct.graph import (
    Graph,
    bits,
    mask_of,
    petersen_graph,
    random_graph,
    set_of,
)
from topstruct.obstructions import Block, Model, find_z_based_model
from topstruct.separations import (
    Separation,
    enumerate_separations,
    is_mask_separation,
)

_acceptance_lines = []


def record_acceptance(line):
    _acceptance_lines.append(line)


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)


# -- graph helpers -------------------------------------------------------


def neighbors(g, v):
    """The neighbours of v in g, as a set."""
    return set_of(g.adj[v])


def components(g, within=None):
    """Vertex sets of the components of g, or of g[within]."""
    mask = g.vertex_mask if within is None else mask_of(within)
    return [set_of(c) for c in g.component_masks(mask)]


# -- independent oracles -------------------------------------------------


def brute_reachable(g, start, removed):
    seen = set()
    stack = [v for v in start if v not in removed]
    while stack:
        v = stack.pop()
        if v in seen or v in removed:
            continue
        seen.add(v)
        for w in neighbors(g, v):
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
    """k-blocks straight from the definition (maximal unsplit ≥ k sets),
    against one enumeration of S_k."""
    seps = enumerate_separations(g, k)
    verts = sorted(g.vertices)
    unsplit = []
    for size in range(k, len(verts) + 1):
        for combo in itertools.combinations(verts, size):
            bset = frozenset(combo)
            if not any(
                not bset <= s.side_a and not bset <= s.side_b for s in seps
            ):
                unsplit.append(bset)
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
    nbrs = {v: neighbors(g, v) for v in g.vertices}
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
    nbrs = {v: neighbors(g, v) for v in g.vertices}
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


# -- reference checks of the theory, at oracle scale ---------------------


def is_separation(g, a, b):
    """True iff a ∪ b = V and no edge joins a∖b to b∖a."""
    return is_mask_separation(g, mask_of(a), mask_of(b))


class SeparationDoesNotDecide(Exception):
    """A lazy orientation was queried with a separation it cannot orient."""


class InconsistentOrientation(Exception):
    """An orientation did not direct all tree edges towards a unique node."""


class Orientation:
    """One direction per separation pair of S_k(G).

    Concrete classes answer ``w_side(separation)``: the vertex mask of
    the side W such that (U, W) is the member of the orientation, for
    any separation of order below k.  W is one of the separation's own
    sides, so an answer is ``mask_a`` or ``mask_b`` and compares as an
    int.
    """

    def __init__(self, k):
        self.k = k

    def w_side(self, s):
        raise NotImplementedError


class BlockOrientation(Orientation):
    """O_B: a separation is directed toward the side containing the block."""

    def __init__(self, k, block):
        super().__init__(k)
        self.vertices = frozenset(
            block.vertices if isinstance(block, Block) else block
        )
        self._mask = mask_of(self.vertices)

    def w_side(self, s):
        if s.order >= self.k:
            raise SeparationDoesNotDecide(
                "order %d >= k=%d" % (s.order, self.k)
            )
        in_a = not self._mask & ~s.mask_a
        in_b = not self._mask & ~s.mask_b
        if in_a and in_b:
            raise InvariantViolation("block inside a separator smaller than k")
        if in_b:
            return s.mask_b
        if in_a:
            return s.mask_a
        raise InvariantViolation("block split by a separation of order < k")


class ModelOrientation(Orientation):
    """O_X: directed toward the side fully containing some branch set."""

    def __init__(self, k, model):
        super().__init__(k)
        self._masks = [mask_of(s) for s in model.branch_sets]

    def w_side(self, s):
        if s.order >= self.k:
            raise SeparationDoesNotDecide(
                "order %d >= k=%d" % (s.order, self.k)
            )
        sep_m = s.mask_a & s.mask_b
        only_a = s.mask_a & ~s.mask_b
        only_b = s.mask_b & ~s.mask_a
        side = None
        for x in self._masks:
            if x & sep_m:
                continue
            if x & only_a and x & only_b:
                raise InvariantViolation("untouched branch set crosses sides")
            here = s.mask_a if x & only_a else s.mask_b
            if side is None:
                side = here
            elif side != here:
                raise InvariantViolation(
                    "untouched branch sets on opposite sides"
                )
        if side is None:
            raise SeparationDoesNotDecide(
                "every branch set meets the separator"
            )
        return side


def orientations_agree(g, k, o1, o2, budget=DEFAULT_BUDGET, *, seps=None):
    """True iff o1 and o2 direct every proper separation of order < k
    the same way.

    ``seps`` is ``enumerate_separations(g, k)`` from a caller that
    already holds it.  The degenerate members of S_k, (V, X) with
    |X| < k, are left out: a block orientation (the block has at least
    k vertices, so one lies outside X) and the orientation of a K_m
    model with m >= k (at least k disjoint branch sets, so one avoids
    X) both answer V on each of them.  For such a pair the answer holds
    over all of S_k.
    """
    if seps is None:
        seps = enumerate_separations(g, k, budget=budget)
    for s in seps:
        if o1.w_side(s) != o2.w_side(s):
            return False
    return True


def home_node(td, orientation):
    """Unique sink of the edge orientation ``orientation`` induces on
    the tree of ``td``."""
    outdeg = {node: 0 for node in td.nodes}
    for s, t in td.tree_edges:
        sep = td.induced_separation(s, t)
        w = orientation.w_side(sep)
        if sep.mask_a == sep.mask_b:
            # degenerate (B, B) edge carries no information
            outdeg[s] += 1
            continue
        if w == sep.mask_b:
            outdeg[s] += 1
        elif w == sep.mask_a:
            outdeg[t] += 1
        else:
            raise InconsistentOrientation("w_side returned a foreign side")
    sinks = [node for node, d in outdeg.items() if d == 0]
    if len(sinks) != 1:
        raise InconsistentOrientation("no unique sink: %r" % (sorted(sinks),))
    return sinks[0]


class ExplicitOrientation(Orientation):
    """Orientation materialized as a map canonical separation -> W mask."""

    def __init__(self, k, choices):
        super().__init__(k)
        self.choices = dict(choices)

    @staticmethod
    def from_w_sides(k, pairs):
        """From (separation, W) pairs, W given as a vertex collection."""
        return ExplicitOrientation(
            k, {s.canonical(): mask_of(w) for s, w in pairs}
        )

    def w_side(self, s):
        if s.order >= self.k:
            raise SeparationDoesNotDecide("order %d >= k=%d" % (s.order, self.k))
        try:
            return self.choices[s.canonical()]
        except KeyError:
            raise SeparationDoesNotDecide("separation not in explicit table")


def orientation_is_consistent(g, orientation, budget=DEFAULT_BUDGET):
    """Exhaustive consistency check at oracle scale.

    Inconsistent means: two members (A,B), (C,D) with B ⊆ C and D ⊆ A.
    Runs over all of S_k: the proper members and the degenerate ones.
    """
    members = []
    for s in full_s_k(g, orientation.k, budget=budget):
        w = orientation.w_side(s)
        members.append((s.mask_a if w == s.mask_b else s.mask_b, w))
    for i, (a, b) in enumerate(members):
        for j, (c, d) in enumerate(members):
            if i == j:
                continue
            if b | c == c and d | a == a:  # B ⊆ C and D ⊆ A
                return False
    return True


def distinguishing_order(g, o1, o2, budget=DEFAULT_BUDGET):
    """Minimum order of a separation the two orientations direct apart,
    over all of S_k: the proper members and the degenerate ones; None
    when they agree on every one."""
    if o1.k != o2.k:
        raise ValueError("orientations live on different S_k")
    best = None
    for s in full_s_k(g, o1.k, budget=budget):
        if o1.w_side(s) != o2.w_side(s):
            if best is None or s.order < best:
                best = s.order
    return best


def torso_at_subtree(g, td, node_set):
    """Torso of a connected set of tree nodes: G on the union of their
    bags, plus a clique on V_s ∩ V_t for each tree edge st with one end
    in the set, relabelled to 1..N in increasing vertex order."""
    verts = frozenset().union(*(td.bags[x] for x in node_set))
    extra = set()
    for s, t in td.tree_edges:
        if (s in node_set) != (t in node_set):
            adhesion_set = sorted(td.bags[s] & td.bags[t])
            extra.update(itertools.combinations(adhesion_set, 2))
    return Graph(g.n, g.edges | extra).induced(verts)


def check_join_lemma(g, td, s, t, budget=DEFAULT_BUDGET):
    """True iff the far side of the edge s→t has a model based on the
    adhesion set: G[W_t] must contain a (V_s ∩ V_t)-based clique model."""
    sep = td.induced_separation(s, t)
    w_t = sep.side_b  # the t-side
    z = td.bags[s] & td.bags[t]
    sub = g.induced(w_t)
    back = {old: i + 1 for i, old in enumerate(sorted(w_t))}
    model = find_z_based_model(sub, [back[v] for v in sorted(z)], budget=budget)
    return model is not None


class UnprunedModelSearch:
    """The clique-model search without the cover bound, written with a
    completeness test of its own beside ``_feasible``: the reference for
    ``obstructions._ModelSearch``.  Both visit their nodes in the same
    order, and the cover bound cuts only subtrees that hold no model,
    so both return the same model and the pruned search spends no more
    of its budget."""

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
        done = self._complete()
        if done is not None:
            return done
        remaining = self.suffixes[i] if i < len(self.order) else 0
        if not self._feasible(remaining):
            return None
        if i >= len(self.order):
            return None
        vm = 1 << self.order[i]
        if self.can_open and len(self.sets) < self.m:
            self.sets.append(vm)
            found = self._rec(i + 1)
            self.sets.pop()
            if found is not None:
                return found
        for j in range(len(self.sets)):
            self.sets[j] |= vm
            found = self._rec(i + 1)
            self.sets[j] &= ~vm
            if found is not None:
                return found
        return self._rec(i + 1)

    def _complete(self):
        g = self.g
        if len(self.sets) < self.m:
            return None
        for s in self.sets:
            if s == 0 or g.reachable_mask(s & -s, s) != s:
                return None
        for a, b in itertools.combinations(self.sets, 2):
            if not self._joined(a, b):
                return None
        return Model(tuple(frozenset(set_of(s)) for s in self.sets), self.m)

    def _joined(self, a, b):
        return any(self.g.adj[v] & b for v in bits(a))

    def _feasible(self, remaining):
        g = self.g
        opened = len(self.sets)
        if self.can_open and opened < self.m:
            if remaining.bit_count() < self.m - opened:
                return False
        for s in self.sets:
            if s == 0:
                return False
            if g.reachable_mask(s & -s, s | remaining) & s != s:
                return False
        for a, b in itertools.combinations(self.sets, 2):
            if self._joined(a, b):
                continue
            if not (g.reachable_mask(a, a | b | remaining) & b):
                return False
        return True



def unpruned_homes(g, m, td, budget=DEFAULT_BUDGET):
    """The nodes t of td some m-subset of whose bag, tried in
    lexicographic order, seeds an ``UnprunedModelSearch`` model: the
    home test of ``pipeline._model_home_nodes`` without its refutation
    and without the cover bound."""
    return {
        t
        for t in sorted(td.nodes)
        if any(
            UnprunedModelSearch(g, m, budget, seeds=z).run() is not None
            for z in itertools.combinations(sorted(td.bags[t]), m)
        )
    }


class _MeetingModelSearch:
    """The clique-model search with every branch set required to meet
    the vertex set ``meet``: the search that decided model homes before
    they were read off Z-based models.  Its search order is the free
    search's, and ``_feasible`` also fails a set that can no longer
    meet ``meet``."""

    def __init__(self, g, m, meet, budget):
        self.g = g
        self.m = m
        self.meet = mask_of(meet)
        self.budget = budget
        self.sets = []
        self.order = sorted(g.vertices, key=lambda v: (-g.degree(v), v))
        self.suffixes = [0] * (len(self.order) + 1)
        for i in range(len(self.order) - 1, -1, -1):
            self.suffixes[i] = self.suffixes[i + 1] | 1 << self.order[i]

    def _rec(self, i):
        self.budget.charge("model search")
        if len(self.sets) == self.m and self._feasible(0):
            return Model(tuple(frozenset(set_of(s)) for s in self.sets), self.m)
        if i == len(self.order) or not self._feasible(self.suffixes[i]):
            return None
        vm = 1 << self.order[i]
        if len(self.sets) < self.m:
            self.sets.append(vm)
            found = self._rec(i + 1)
            self.sets.pop()
            if found is not None:
                return found
        for j in range(len(self.sets)):
            self.sets[j] |= vm
            found = self._rec(i + 1)
            self.sets[j] &= ~vm
            if found is not None:
                return found
        return self._rec(i + 1)

    def _feasible(self, remaining):
        g = self.g
        if len(self.sets) < self.m and remaining.bit_count() < self.m - len(
            self.sets
        ):
            return False
        for s in self.sets:
            avail = s | remaining
            if g.reachable_mask(s & -s, avail) & s != s:
                return False
            if not avail & self.meet:
                return False
        for a, b in itertools.combinations(self.sets, 2):
            if any(g.adj[v] & b for v in bits(a)):
                continue
            if not remaining or not g.reachable_mask(a, a | b | remaining) & b:
                return False
        return True


def find_meeting_model(g, m, meet, budget=DEFAULT_BUDGET):
    """A K_m model of g whose every branch set meets ``meet``, or None;
    exact backtracking, the reference for model homes."""
    if m == 0:
        return Model((), 0)
    return _MeetingModelSearch(g, m, meet, Budget.of(budget))._rec(0)


def meeting_homes(g, m, td, budget=DEFAULT_BUDGET):
    """The nodes t of td with a K_m model whose every branch set meets
    V_t, by the meet search on each bag of at least m vertices."""
    return {
        t
        for t in sorted(td.nodes)
        if len(td.bags[t]) >= m
        and find_meeting_model(g, m, td.bags[t], budget) is not None
    }


def overlay_clique(g, z):
    """G^Z: make the vertices of z pairwise adjacent."""
    zs = sorted(z)
    extra = {(zs[i], zs[j]) for i in range(len(zs)) for j in range(i + 1, len(zs))}
    return Graph(g.n, g.edges | frozenset(extra))


def check_rs_lemma(g, z, x, budget=DEFAULT_BUDGET):
    """Hypothesis test: does the model x orient S_{|z|}(G^Z) like Z does?

    x must be a model of K_q in the overlay graph with q ≥ 2|z| − 1;
    when this returns True, a Z-based model must exist (the lemma), which
    the test suite asserts via find_z_based_model.
    """
    z = frozenset(z)
    p = len(z)
    if x.target < 2 * p - 1:
        raise PreconditionFailed(
            "model size %d < 2*%d - 1" % (x.target, p)
        )
    if p == 0:
        return True
    gz = overlay_clique(g, z)
    o_z = BlockOrientation(p, z)
    o_x = ModelOrientation(p, x)
    return orientations_agree(gz, p, o_z, o_x, budget=budget)


def _merge_sizes(*size_tuples):
    out = []
    for sizes in size_tuples:
        out.extend(sizes)
    out.sort(reverse=True)
    return tuple(out)


def build_k_atomic_exact(g, k, budget=DEFAULT_BUDGET):
    """Minimum-fatness decomposition of adhesion < k (exhaustive).

    Fatness is compared via descending bag-size multisets, which matches
    the lexicographic order on (a_0, ..., a_n).  Intended for |V| <= 9.
    Rooted dynamic programming: a state asks for the best decomposition
    of G[S] whose root bag contains R; the root bag W is enumerated, and
    each component of G[S] - W becomes its own child.
    """
    if k < 1:
        raise ValueError("k must be positive")
    n = g.n
    if n == 0:
        return TreeDecomposition.single_bag(())
    full = g.vertex_mask
    memo = {}
    budget = Budget.of(budget)

    def best(smask, rmask):
        key = (smask, rmask)
        if key in memo:
            return memo[key]
        best_sizes = None
        best_plan = None
        free = smask & ~rmask
        # enumerate W = R | (submask of S \ R), ascending numeric order
        sub = 0
        while True:
            wmask = rmask | sub
            budget.charge("exact builder")
            candidate = _evaluate_root(smask, wmask)
            if candidate is not None:
                sizes, plan = candidate
                if best_sizes is None or sizes < best_sizes:
                    best_sizes, best_plan = sizes, plan
            if sub == free:
                break
            sub = (sub - free) & free
        memo[key] = (best_sizes, best_plan)
        return memo[key]

    def _evaluate_root(smask, wmask):
        if wmask == 0 and smask != 0:
            return None
        if wmask == smask:
            bag = frozenset(set_of(wmask))
            return ((len(bag),), (bag, ()))
        children = []
        child_sizes = []
        for comp in g.component_masks(smask & ~wmask):
            boundary = 0
            for v in bits(comp):
                boundary |= g.adj[v]
            boundary &= wmask
            if boundary.bit_count() >= k:
                return None
            child_set = comp | boundary
            if child_set == smask:
                # parent bag would sit inside the child's root bag
                return None
            sizes, plan = best(child_set, boundary)
            if sizes is None:
                return None
            children.append(plan)
            child_sizes.append(sizes)
        bag = frozenset(set_of(wmask))
        return (
            _merge_sizes((len(bag),), *child_sizes),
            (bag, tuple(children)),
        )

    sizes, plan = best(full, 0)
    if plan is None:
        raise InvariantViolation("no decomposition found")  # cannot happen
    nodes = {}
    edges = set()
    counter = [0]

    def realize(plan, parent):
        counter[0] += 1
        me = counter[0]
        nodes[me] = plan[0]
        if parent is not None:
            edges.add((min(parent, me), max(parent, me)))
        for child in plan[1]:
            realize(child, me)

    realize(plan, None)
    return TreeDecomposition(edges, nodes)


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


def octahedron_petersen(seed):
    """The octahedron K_{2,2,2} on 1..6 (parts {1, 4}, {2, 5}, {3, 6})
    and the Petersen graph on 7..16, joined by 1–3 random edges.

    The octahedron is planar and 4-connected: a 4-block with no K_5
    minor.  The Petersen graph is cubic, so it holds no 4-block, but it
    has a K_5 minor.  At (k, m) = (4, 5) the runs reach both colours
    and the F edges between them.
    """
    rng = random.Random(seed)
    octahedron = [
        (u, v) for u, v in itertools.combinations(range(1, 7), 2) if v != u + 3
    ]
    petersen = [(u + 6, v + 6) for u, v in petersen_graph().edges]
    cross = list(itertools.product(range(1, 7), range(7, 17)))
    joins = rng.sample(cross, rng.randint(1, 3))
    return Graph.from_edges(16, octahedron + petersen + joins)


def random_cubic(n, rng):
    """A random 3-regular graph on n vertices: a uniform pairing of
    three points per vertex, redrawn until it has no loop or repeated
    edge."""
    while True:
        points = [v for v in range(1, n + 1) for _ in range(3)]
        rng.shuffle(points)
        edges = {tuple(sorted(points[i:i + 2])) for i in range(0, 3 * n, 2)}
        if len(edges) == 3 * n // 2 and all(a != b for a, b in edges):
            return Graph.from_edges(n, edges)


def small_corpus(seed, count, max_n, probs=(0.2, 0.4, 0.7), min_n=1):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(min_n, max_n)
        out.append(random_graph(n, rng.choice(probs), rng))
    return out


def perfbench_corpora(seed=1, *names):
    """The graphs of the named benchmark workloads, or of all three, at
    ``seed``."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [
        g
        for name in names or workloads.WORKLOADS
        for g in workloads.make_graphs(workloads.WORKLOADS[name], seed, Graph)
    ]


@pytest.fixture
def rng():
    return random.Random(12345)
