"""Highly connected substructures and the orientations they induce.

k-blocks, clique models, subdivisions, Z-based models, and the
subdivision extraction that turns a same-orientation block/model pair
into a K_r subdivision with prescribed branch vertices.
"""

import itertools
from dataclasses import dataclass

from .errors import (
    BudgetExceeded,
    InvariantViolation,
    OrientationMismatch,
    PreconditionFailed,
    SeparationDoesNotDecide,
)
from .graph import Graph, bits, mask_of, set_of
from .separations import (
    Orientation,
    enumerate_separations,
    min_vertex_cut,
)

DEFAULT_BUDGET = 10_000_000


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


def _inseparable_relation(g, k):
    """Adjacency of the auxiliary graph: uv related iff edge or cut ≥ k."""
    rel = [0] * (g.n + 1)
    for u, v in itertools.combinations(sorted(g.vertices), 2):
        if g.has_edge(u, v) or min_vertex_cut(g, u, v) >= k:
            rel[u] |= 1 << v
            rel[v] |= 1 << u
    return rel


def _bron_kerbosch(rel, verts_mask, budget):
    """Maximal cliques of the relation graph, with pivoting."""
    out = []
    work = [0]

    def expand(r, p, x):
        work[0] += 1
        if work[0] > budget:
            raise BudgetExceeded("clique enumeration budget", spent=work[0])
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


def find_k_blocks(g, k, budget=DEFAULT_BUDGET):
    """All k-blocks of g, sorted by vertex set.

    A set is a k-block iff it has ≥ k vertices, no two of its vertices
    are separated by fewer than k other vertices, and it is maximal so;
    pairwise inseparability of the members is equivalent to the
    definition's set-level condition.
    """
    if k < 1:
        raise ValueError("k must be positive")
    rel = _inseparable_relation(g, k)
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
    set-permutation symmetry.  With ``seeds``, every set is pre-opened
    with its seed vertex and no further sets may open (Z-based mode).
    ``require_meet`` restricts to models whose every branch set meets
    the given vertex set.
    """

    def __init__(self, g, m, budget, require_meet=None, seeds=None):
        self.g = g
        self.m = m
        self.budget = budget
        self.work = 0
        self.meet = mask_of(require_meet) if require_meet is not None else None
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
        self.work += 1
        if self.work > self.budget:
            raise BudgetExceeded("model search budget", spent=self.work)
        done = self._complete()
        if done is not None:
            return done
        remaining = self.suffixes[i] if i < len(self.order) else 0
        if not self._feasible(remaining):
            return None
        if i >= len(self.order):
            return None
        v = self.order[i]
        vm = 1 << v
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
        return self._rec(i + 1)  # skip v

    def _complete(self):
        g = self.g
        if len(self.sets) < self.m:
            return None
        for s in self.sets:
            if s == 0 or g.reachable_mask(s & -s, s) != s:
                return None
            if self.meet is not None and not (s & self.meet):
                return None
        for a, b in itertools.combinations(self.sets, 2):
            if not self._joined(a, b):
                return None
        return Model(
            tuple(frozenset(set_of(s)) for s in self.sets), self.m
        )

    def _joined(self, a, b):
        for v in bits(a):
            if self.g.adj[v] & b:
                return True
        return False

    def _feasible(self, remaining):
        g = self.g
        opened = len(self.sets)
        if self.can_open and opened < self.m:
            if remaining.bit_count() < self.m - opened:
                return False
        for s in self.sets:
            if s == 0:
                return False
            avail = s | remaining
            if g.reachable_mask(s & -s, avail) & s != s:
                return False
            if self.meet is not None and not (s & self.meet) and not (
                remaining & self.meet
            ):
                return False
        for a, b in itertools.combinations(self.sets, 2):
            if self._joined(a, b):
                continue
            if not (g.reachable_mask(a, a | b | remaining) & b):
                return False
        return True


def find_clique_model(g, m, budget=DEFAULT_BUDGET, require_meet=None):
    """A model of K_m in g, or None; exact backtracking search."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return _ModelSearch(g, m, budget, require_meet=require_meet).run()


def find_z_based_model(g, z, budget=DEFAULT_BUDGET, require_meet=None):
    """A K_{|z|} model with exactly one z-vertex per branch set, or None."""
    z = sorted(set(z))
    return _ModelSearch(
        g, len(z), budget, require_meet=require_meet, seeds=z
    ).run()


# -- subdivisions ------------------------------------------------------


def _simple_paths(g, start, goal_m, allowed_m, budget, work):
    """Yield simple paths from start into goal_m inside allowed_m, lex order."""
    path = [start]
    used = 1 << start

    def rec():
        work[0] += 1
        if work[0] > budget[0]:
            raise BudgetExceeded("path enumeration budget", spent=work[0])
        v = path[-1]
        if (goal_m >> v) & 1 and len(path) > 1:
            yield tuple(path)
            return
        for w in bits(g.adj[v] & allowed_m & ~used_ref[0]):
            path.append(w)
            used_ref[0] |= 1 << w
            yield from rec()
            used_ref[0] &= ~(1 << w)
            path.pop()

    used_ref = [used]
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
    budget_ref = [budget]
    work = [0]
    for combo in itertools.combinations(candidates, r):
        emb = _embed_pairs(g, combo, budget_ref, work)
        if emb is not None:
            return emb
    return None


def _embed_pairs(g, branch, budget_ref, work):
    pairs = list(itertools.combinations(branch, 2))
    branch_m = mask_of(branch)
    paths = {}
    used_interior = [0]

    def rec(idx):
        work[0] += 1
        if work[0] > budget_ref[0]:
            raise BudgetExceeded("subdivision search budget", spent=work[0])
        if idx == len(pairs):
            return True
        u, w = pairs[idx]
        goal = 1 << w
        allowed = (g.vertex_mask & ~branch_m & ~used_interior[0]) | (1 << u) | goal
        for path in _simple_paths(g, u, goal, allowed, budget_ref, work):
            interior = mask_of(path[1:-1])
            paths[(u, w)] = path
            used_interior[0] |= interior
            if rec(idx + 1):
                return True
            used_interior[0] &= ~interior
            del paths[(u, w)]
        return False

    if rec(0):
        return SubdivisionEmbedding(tuple(branch), dict(paths))
    return None


# -- induced orientations ----------------------------------------------


class BlockOrientation(Orientation):
    """O_B: a separation is directed toward the side containing the block."""

    def __init__(self, g, k, block):
        super().__init__(k)
        self.g = g
        self.vertices = frozenset(
            block.vertices if isinstance(block, Block) else block
        )

    def w_side(self, s):
        if s.order >= self.k:
            raise SeparationDoesNotDecide(
                "order %d >= k=%d" % (s.order, self.k)
            )
        in_a = self.vertices <= s.side_a
        in_b = self.vertices <= s.side_b
        if in_a and in_b:
            raise InvariantViolation("block inside a separator smaller than k")
        if in_b:
            return s.side_b
        if in_a:
            return s.side_a
        raise InvariantViolation("block split by a separation of order < k")


class ModelOrientation(Orientation):
    """O_X: directed toward the side fully containing some branch set."""

    def __init__(self, g, k, model):
        super().__init__(k)
        self.g = g
        self.model = model
        self._masks = [mask_of(s) for s in model.branch_sets]

    def w_side(self, s):
        if s.order >= self.k:
            raise SeparationDoesNotDecide(
                "order %d >= k=%d" % (s.order, self.k)
            )
        sep_m = mask_of(s.separator)
        only_a = mask_of(s.side_a) & ~mask_of(s.side_b)
        only_b = mask_of(s.side_b) & ~mask_of(s.side_a)
        side = None
        for x in self._masks:
            if x & sep_m:
                continue
            if x & only_a and x & only_b:
                raise InvariantViolation("untouched branch set crosses sides")
            here = s.side_a if x & only_a else s.side_b
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


def block_orientation(g, k, b):
    return BlockOrientation(g, k, b)


def model_orientation(g, k, x):
    return ModelOrientation(g, k, x)


def orientations_agree(g, k, o1, o2, budget=2_000_000, *, seps=None):
    """True iff o1 and o2 direct every order-< k separation the same way.

    ``seps`` is S_k(g) from a caller that already enumerated it.
    """
    if seps is None:
        seps = enumerate_separations(g, k, budget=budget)
    for s in seps:
        if o1.w_side(s) != o2.w_side(s):
            return False
    return True


# -- the Z-based-model lemma -------------------------------------------


def check_rs_lemma(g, z, x, budget=2_000_000):
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
    gz = g.overlay_clique(z)
    o_z = BlockOrientation(gz, p, z)
    o_x = ModelOrientation(gz, p, x)
    return orientations_agree(gz, p, o_z, o_x, budget=budget)


# -- subdivision extraction --------------------------------------------


def branch_count_fits(r, k, m):
    """True iff (k, m) is large enough to extract a K_r subdivision:
    r(r−1) ≤ k and 2r(r−1) − 1 ≤ m."""
    return r * (r - 1) <= k and 2 * r * (r - 1) - 1 <= m


def extract_subdivision(g, k, m, b, x, b0, budget=DEFAULT_BUDGET, *, seps=None):
    """K_r subdivision with branch vertices exactly b0, from a block and
    a clique model inducing the same orientation.

    Checks the same-orientation hypothesis first (OrientationMismatch on
    failure), then builds the auxiliary graph in which every prescribed
    branch vertex is replaced by an independent set of r−1 copies, finds
    a model based on the copy set, and converts its connecting paths back
    by identifying each branch vertex with its lowest-labeled copy.
    """
    b0 = tuple(sorted(set(b0)))
    r = len(b0)
    if r < 2:
        raise PreconditionFailed("need at least two branch vertices")
    if not set(b0) <= set(b.vertices):
        raise PreconditionFailed("branch vertices must lie in the block")
    if not branch_count_fits(r, k, m):
        raise PreconditionFailed(
            "parameters too small for %d branch vertices" % r
        )
    o_b = BlockOrientation(g, k, b)
    o_x = ModelOrientation(g, k, x)
    if not orientations_agree(g, k, o_b, o_x, budget=budget, seps=seps):
        raise OrientationMismatch("block and model orient S_k differently")

    h, copies = _copy_graph(g, b0, r - 1)
    j_all = sorted(v for vs in copies.values() for v in vs)
    model = find_z_based_model(h, j_all, budget=budget)
    if model is None:
        raise InvariantViolation(
            "no copy-based model despite matching orientations"
        )
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
    b0_set = set(b0)
    next_label = g.n + 1
    copies = {}
    for bb in b0:
        mine = [bb]
        for _ in range(copies_each - 1):
            mine.append(next_label)
            next_label += 1
        copies[bb] = mine
    n_h = next_label - 1
    edges = []
    for u, v in g.sorted_edges():
        if u in b0_set and v in b0_set:
            for cu in copies[u]:
                for cv in copies[v]:
                    edges.append((cu, cv))
        elif u in b0_set:
            for cu in copies[u]:
                edges.append((cu, v))
        elif v in b0_set:
            for cv in copies[v]:
                edges.append((u, cv))
        else:
            edges.append((u, v))
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
