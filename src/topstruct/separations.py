"""Separations, tightness, and the brute-force enumerator of S_k.

A separation is an ordered pair (A, B) of vertex sets covering V with no
edge between the exclusive parts; its order is |A ∩ B|.
"""

import itertools

from . import _kernels
from .errors import DEFAULT_BUDGET, AdjacentPair, Budget
from .graph import bits, mask_of


class Separation:
    """An ordered pair (A, B) of vertex sets, held as two vertex masks.

    Bit v of ``mask_a`` stands for vertex v of A, as in the kernels.
    ``order`` is |A ∩ B|, stored with the masks: the leanness check
    slices S_k by it.  Equality and hash use the masks, which is the
    same as comparing the sides.  ``side_a``, ``side_b`` and
    ``separator`` are frozensets built anew on each use; the enumerator
    and every consumer of S_k read the masks and never build them.
    ``Separation(a, b)`` takes any two collections of vertices.
    Instances are hashed, so treat them as immutable.
    """

    __slots__ = ("mask_a", "mask_b", "order")

    def __init__(self, side_a, side_b):
        self.mask_a = mask_of(side_a)
        self.mask_b = mask_of(side_b)
        self.order = (self.mask_a & self.mask_b).bit_count()

    @classmethod
    def _of_masks(cls, mask_a, mask_b):
        s = cls.__new__(cls)
        s.mask_a = mask_a
        s.mask_b = mask_b
        s.order = (mask_a & mask_b).bit_count()
        return s

    @property
    def side_a(self):
        return frozenset(bits(self.mask_a))

    @property
    def side_b(self):
        return frozenset(bits(self.mask_b))

    @property
    def separator(self):
        return frozenset(bits(self.mask_a & self.mask_b))

    def __eq__(self, other):
        if not isinstance(other, Separation):
            return NotImplemented
        return self.mask_a == other.mask_a and self.mask_b == other.mask_b

    def __hash__(self):
        return hash((self.mask_a, self.mask_b))

    def __repr__(self):
        return "Separation(side_a=%r, side_b=%r)" % (self.side_a, self.side_b)

    def flip(self):
        return Separation._of_masks(self.mask_b, self.mask_a)

    def canonical(self):
        """Sides ordered lexicographically by smallest exclusive vertex."""
        only_a = self.mask_a & ~self.mask_b
        only_b = self.mask_b & ~self.mask_a
        if only_b and (not only_a or only_b & -only_b < only_a & -only_a):
            return self.flip()
        return self

    def sort_key(self):
        c = self.canonical()
        return (c.order, tuple(bits(c.mask_a)), tuple(bits(c.mask_b)))


_SWAP_01 = str.maketrans("01", "10")


def _mask_key(mask):
    """A string that sorts like the ascending vertex tuple of ``mask``.

    Character v is ``0`` when vertex v is in the set and ``1`` when not,
    so the first vertex in which two sets differ decides, in favour of
    the set holding it, and a set whose vertices run out first (a prefix
    of the other's tuple) gives the shorter string.  Exact for sets of
    positive vertices; bit 0, always clear, makes the empty set "1".
    """
    return bin(mask)[:1:-1].translate(_SWAP_01)


def is_mask_separation(g, am, bm):
    """True iff the masks' union is V and no edge joins am∖bm to bm∖am."""
    if (am | bm) != g.vertex_mask:
        return False
    only_a = am & ~bm
    only_b = bm & ~am
    for v in bits(only_a):
        if g.adj[v] & only_b:
            return False
    return True


def is_tight(g, s):
    """Tightness: each separator pair is joined, inside both sides, by a
    path internally avoiding the separator.

    The definition quantifies over all x, y in the separator; we read it
    as x != y.
    """
    sep_m = s.mask_a & s.mask_b
    sep = list(bits(sep_m))
    for side_m in (s.mask_a, s.mask_b):
        interior = side_m & ~sep_m
        for x, y in itertools.combinations(sep, 2):
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
    """The proper members of S_k, k = max_order: every separation of
    order < k with both exclusive sides non-empty, canonically, each
    pair once.

    Iterates over candidate separators and 2-colorings of the remaining
    components; intended for oracle scale only.  A coloring and its
    complement give one separation and its flip.  Only the colorings
    that put the component of the smallest non-separator vertex on side
    A are built: that side holds the smallest exclusive vertex, so each
    of them is canonical and each unordered pair comes out once.  Each
    separation is built from its two masks, and the list is sorted by
    ``Separation.sort_key``, computed from the masks with ``_mask_key``.
    Each candidate separator is charged ``1 << len(comps)`` to
    ``budget``, whether or not it gives a separation.

    The degenerate members, (V, X) for every X of fewer than k vertices
    and (V, V) when n < k, are not built: a separator with fewer than
    two components gives no proper separation, and of the others'
    colorings the one that puts every component on side A is skipped.
    ``degenerate_members`` in ``tests/conftest.py`` lists them for the
    exhaustive checks.  No consumer in ``pipeline.run_structure`` needs
    them:

    - a leanness witness needs p > |X| vertices of a bag on its thin
      side, which for (V, X) is X itself, so
      ``TreeDecomposition.check_k_lean`` can never match it;
    - the k-block relation splits the pairs across the exclusive sides,
      and (V, X) has an empty one;
    - block homes are read off the bags, and the subdivision exit
      compares no orientations, so neither asks a separation which side
      holds a block or a model.
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
            if len(comps) < 2:  # only (V, X), or (V, V) when X = V
                continue
            low = rest & -rest
            unions = [0]  # unions of every subset of the other components
            for c in comps:
                if not c & low:
                    unions += [u | c for u in unions]
            base_a = sep_m | next(c for c in comps if c & low)
            others = rest & ~base_a
            unions.pop()  # the union of them all gives (V, X)
            for u in unions:
                am, bm = base_a | u, sep_m | (others ^ u)
                keyed.append((size, _mask_key(am), _mask_key(bm), am, bm))
    keyed.sort()
    of_masks = Separation._of_masks
    return [of_masks(am, bm) for _, _, _, am, bm in keyed]
