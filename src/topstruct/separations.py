"""Separations, tightness, and the brute-force enumerator of S_k.

A separation is an ordered pair (A, B) of vertex sets covering V with no
edge between the exclusive parts; its order is |A ∩ B|.
"""

import itertools

from . import _kernels
from .errors import DEFAULT_BUDGET, Budget
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
        raise ValueError("(%d,%d) is an edge; cut undefined" % (u, v))
    allowed = g.vertex_mask & ~(1 << u) & ~(1 << v)
    return _kernels.max_disjoint_paths(g.adj, g.n, g.adj[u], g.adj[v], allowed)


def enumerate_separations(g, max_order, budget=DEFAULT_BUDGET):
    """The proper members of S_k, k = max_order: every separation of
    order < k with both exclusive sides non-empty, canonically, each
    pair once, grouped by ascending order.

    Iterates over candidate separators and 2-colorings of the remaining
    components; intended for oracle scale only.  A coloring and its
    complement give one separation and its flip.  Only the colorings
    that put the component of the smallest non-separator vertex on side
    A are built: that side holds the smallest exclusive vertex, so each
    of them is canonical and each unordered pair comes out once.  The
    separators come by ascending size, so the list is grouped by order;
    within an order the separations stay in the order they are made,
    unsorted.  ``TreeDecomposition.check_k_lean`` picks its least
    witness itself, and no other consumer reads the order within a
    level.  Each candidate separator is charged ``1 << len(comps)`` to
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
    # looked up per call, so that a wrapper installed on the kernel
    # module is the one called
    components = _kernels.components
    charge = budget.charge
    of_masks = Separation._of_masks
    adj = g.adj
    full = g.vertex_mask
    vertex_bits = [1 << v for v in g.vertices]
    out = []
    for size in range(0, max_order):
        if size > g.n:
            break
        for sep in itertools.combinations(vertex_bits, size):
            sep_m = sum(sep)
            rest = full & ~sep_m
            comps = components(adj, rest)
            charge("separation enumeration", 1 << len(comps))
            if len(comps) < 2:  # only (V, X), or (V, V) when X = V
                continue
            # comps[0] holds the smallest non-separator vertex
            base_a = sep_m | comps[0]
            others = rest & ~base_a
            unions = [0]  # unions of every subset of the other components
            for c in comps[1:]:
                unions += [u | c for u in unions]
            unions.pop()  # the union of them all gives (V, X)
            out += [of_masks(base_a | u, sep_m | (others ^ u)) for u in unions]
    return out
