"""Separations, their orientations, and the brute-force enumerator.

A separation is an ordered pair (A, B) of vertex sets covering V with no
edge between the exclusive parts; its order is |A ∩ B|.  Orientations
pick one direction per unordered pair; blocks and clique models induce
lazy orientations (see obstructions.py).
"""

import itertools
from dataclasses import dataclass

from . import _kernels
from .errors import DEFAULT_BUDGET, AdjacentPair, Budget, SeparationDoesNotDecide
from .graph import bits, mask_of


@dataclass(frozen=True)
class Separation:
    side_a: frozenset
    side_b: frozenset

    @staticmethod
    def of(a, b):
        return Separation(frozenset(a), frozenset(b))

    @property
    def separator(self):
        return self.side_a & self.side_b

    @property
    def order(self):
        return len(self.side_a & self.side_b)

    def flip(self):
        return Separation(self.side_b, self.side_a)

    def _side_key(self, side):
        exclusive = side - self.separator
        return (min(exclusive) if exclusive else float("inf"), tuple(sorted(side)))

    def canonical(self):
        """Sides ordered lexicographically by smallest exclusive vertex."""
        if self._side_key(self.side_a) <= self._side_key(self.side_b):
            return self
        return self.flip()

    def sort_key(self):
        c = self.canonical()
        return (c.order, tuple(sorted(c.side_a)), tuple(sorted(c.side_b)))


def is_separation(g, a, b):
    """True iff a ∪ b = V and no edge joins a∖b to b∖a."""
    am, bm = mask_of(a), mask_of(b)
    if (am | bm) != g.vertex_mask:
        return False
    only_a = am & ~bm
    only_b = bm & ~am
    for v in bits(only_a):
        if g.adj[v] & only_b:
            return False
    return True


def is_tight(g, s, strict=False):
    """Tightness: each separator pair is joined, inside both sides, by a
    path internally avoiding the separator.

    The definition quantifies over all x, y in the separator; we read it
    as x != y.  ``strict`` additionally requires every separator vertex
    to have a neighbor in each exclusive side, which is what the x == y
    reading would force.
    """
    sep = s.separator
    sep_m = mask_of(sep)
    for side in (s.side_a, s.side_b):
        side_m = mask_of(side)
        interior = side_m & ~sep_m
        if strict:
            for x in sep:
                if not (g.adj[x] & interior):
                    return False
        for x, y in itertools.combinations(sorted(sep), 2):
            if g.adj[x] >> y & 1:
                continue
            reach = g.reachable_mask(g.adj[x] & interior, interior)
            if not (reach & g.adj[y]):
                return False
    return True


def min_vertex_cut(g, u, v):
    """Minimum size of a vertex set separating nonadjacent u and v."""
    if u == v:
        raise ValueError("u and v must differ")
    if g.has_edge(u, v):
        raise AdjacentPair("(%d,%d) is an edge; cut undefined" % (u, v))
    allowed = g.vertex_mask & ~(1 << u) & ~(1 << v)
    return _kernels.max_disjoint_paths(g.adj, g.n, g.adj[u], g.adj[v], allowed)


def enumerate_separations(g, max_order, budget=DEFAULT_BUDGET):
    """Every separation of order < max_order, canonically, each pair once.

    Iterates over candidate separators and 2-colorings of the remaining
    components; intended for oracle scale only.  A coloring and its
    complement give one separation and its flip.  Only the colorings
    that put the component of the smallest non-separator vertex on side
    A are built: that side holds the smallest exclusive vertex, so each
    of them is canonical and each unordered pair comes out once.  The
    list is sorted by ``Separation.sort_key``, computed from the masks
    as vertex lists (``tuple`` of a generator over-allocates and then
    shrinks, which fragmented memory and raised peak RSS by 3-5 %).
    """
    budget = Budget.of(budget)
    keyed = []
    verts = sorted(g.vertices)
    full = g.vertex_mask
    for size in range(0, max_order):
        if size > g.n:
            break
        for sep in itertools.combinations(verts, size):
            sep_m = mask_of(sep)
            rest = full & ~sep_m
            comps = g.component_masks(rest)
            budget.charge("separation enumeration", 1 << len(comps))
            if not comps:  # the separator is all of V: (V, V)
                keyed.append((size, list(sep), list(sep)))
                continue
            low = rest & -rest
            unions = [0]  # unions of every subset of the other components
            for c in comps:
                if not c & low:
                    unions += [u | c for u in unions]
            base_a = sep_m | next(c for c in comps if c & low)
            others = rest & ~base_a
            for u in unions:
                am, bm = base_a | u, sep_m | (others ^ u)
                keyed.append((size, list(bits(am)), list(bits(bm))))
    keyed.sort()
    return [Separation(frozenset(a), frozenset(b)) for _, a, b in keyed]


# -- orientations ------------------------------------------------------


class Orientation:
    """One direction per separation pair of S_k(G).

    Concrete classes answer ``w_side(separation)``: the side W such that
    (U, W) is the member of the orientation, for any separation of order
    below k.
    """

    def __init__(self, k):
        self.k = k

    def w_side(self, s):
        raise NotImplementedError


class ExplicitOrientation(Orientation):
    """Orientation materialized as a map canonical-separation -> W side."""

    def __init__(self, k, choices):
        super().__init__(k)
        self.choices = dict(choices)

    @staticmethod
    def from_w_sides(k, pairs):
        choices = {}
        for s, w in pairs:
            c = s.canonical()
            choices[(c.side_a, c.side_b)] = frozenset(w)
        return ExplicitOrientation(k, choices)

    def w_side(self, s):
        if s.order >= self.k:
            raise SeparationDoesNotDecide("order %d >= k=%d" % (s.order, self.k))
        c = s.canonical()
        try:
            return self.choices[(c.side_a, c.side_b)]
        except KeyError:
            raise SeparationDoesNotDecide("separation not in explicit table")


def orientation_is_consistent(g, orientation, budget=DEFAULT_BUDGET):
    """Exhaustive consistency check at oracle scale.

    Inconsistent means: two members (A,B), (C,D) with B ⊆ C and D ⊆ A.
    """
    seps = enumerate_separations(g, orientation.k, budget=budget)
    members = []
    for s in seps:
        w = orientation.w_side(s)
        u = s.side_a if w == s.side_b else s.side_b
        members.append((mask_of(u), mask_of(w)))
    for i, (a, b) in enumerate(members):
        for j, (c, d) in enumerate(members):
            if i == j:
                continue
            if b | c == c and d | a == a:  # B ⊆ C and D ⊆ A
                return False
    return True
