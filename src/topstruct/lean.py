"""Construction of k-lean tree-decompositions.

``build_k_lean`` starts from the trivial decomposition and repeatedly
applies the classical exchange step to the first leanness violation;
every step strictly decreases the fatness of the decomposition, so the
loop terminates.  The first violation's witness has minimum order, so
the exchange needs no shrinking: it takes one disjoint path system per
side from ``flows`` and builds the new bags as vertex masks.  It works
on masks from start to finish: the witness's sides, the bags, the
paths and the separator.

Nearly every path system the step asks for is made of shared vertices
only: the separator already lies in the bag it is routed to, and the
kernel answers without a flow network.  The flow stays, since a
separator vertex outside its bag needs a real path, and the path the
flow picks decides the new bags.

The exhaustive minimum-fatness builder that the tests hold this one
against is a test reference, in ``tests/conftest.py``.
"""

from bisect import bisect_left

from .decomposition import TreeDecomposition
from .errors import DEFAULT_BUDGET, Budget, InvariantViolation
from .flows import disjoint_path_system
from .separations import enumerate_separations, is_mask_separation


def _violation_is_genuine(g, td, viol, bag_masks):
    if viol.s not in td.nodes or viol.t not in td.nodes:
        return False
    w = viol.witness
    if not is_mask_separation(g, w.mask_a, w.mask_b):
        return False
    if w.order >= viol.p or viol.p < 1:
        return False
    if viol.s != viol.t and td.min_order_on_path(viol.s, viol.t) < viol.p:
        return False
    return (
        (w.mask_a & bag_masks[viol.s]).bit_count() >= viol.p
        and (w.mask_b & bag_masks[viol.t]).bit_count() >= viol.p
    )


def improvement_step(g, td, viol):
    """One exchange: split td along the witness into an A-copy and a
    B-copy glued across the separator; strictly smaller fatness.

    The witness (A, B), with X = A ∩ B, must be of minimum order: inside
    each side, |X| disjoint paths join X to the bag that side covers,
    V_s ∩ A in G[A] and V_t ∩ B in G[B].  Otherwise this raises
    ``InvariantViolation``.  ``check_k_lean`` never returns another
    witness.
    Its witness at level p has |X| = p - 1.  Suppose some S ⊆ A with
    |S| < |X| met every X–(V_s ∩ A) path in G[A], and let R be what
    (V_s ∩ A) ∖ S reaches in G[A ∖ S].  Then (R ∪ S, B ∪ (A ∖ R)) is a
    proper separation of order |S| with all of V_s ∩ A on its first side
    and all of V_t ∩ B on its second: a witness at level |S| + 1 < p,
    which the check would have returned first.  The B side is symmetric.

    Mostly X lies inside the bag it is routed to, so the path system is
    X itself, one single-vertex path per separator vertex; the kernel
    answers those without building its flow network.  The flow stays
    for the rest: where a separator vertex lies outside the bag, its
    path runs through other vertices of the side, and which path the
    flow picks decides the new bags.

    The bags of the A-copy keep their A-part and additionally pick up
    every separator vertex whose B-side path meets the bag (and
    symmetrically), which routes each separator vertex's subtree to the
    gluing edge without growing any bag.  Every set here is a vertex
    mask: the bags are read from ``td.masks``, and the new bags go to
    the new decomposition as its masks.
    """
    bag_masks = td.masks
    if not _violation_is_genuine(g, td, viol, bag_masks):
        raise InvariantViolation("not a leanness violation for this decomposition")
    sep = viol.witness
    mask_a, mask_b = sep.mask_a, sep.mask_b
    x = mask_a & mask_b
    # per side, (bit of the path's separator vertex, mask of the path)
    # for each path of more than one vertex: a one-vertex path meets a
    # bag only at its separator vertex, which both parts of the bag hold
    path_bits = []
    for side, node in ((mask_a, viol.s), (mask_b, viol.t)):
        paths, _ = disjoint_path_system(g, x, bag_masks[node] & side, side)
        if len(paths) < sep.order:
            raise InvariantViolation("witness is not of minimum order")
        path_bits.append(
            [(1 << p[0], sum(1 << v for v in p)) for p in paths if p[1:]]
        )
    paths_a, paths_b = path_bits

    offset = max(td.nodes) + 1
    bags = {}
    neigh = {}
    for u, bag_m in bag_masks.items():
        bags[u] = bag_m & mask_a | sum(
            bit for bit, path in paths_b if bag_m & path
        )
        bags[u + offset] = bag_m & mask_b | sum(
            bit for bit, path in paths_a if bag_m & path
        )
        neigh[u] = set(td.neighbors(u))
        neigh[u + offset] = {w + offset for w in td.neighbors(u)}
    neigh[viol.t].add(viol.s + offset)
    neigh[viol.s + offset].add(viol.t)

    new_td = _prune(bags, neigh)
    old_fat = td.fatness(g.n)
    new_fat = new_td.fatness(g.n)
    if not new_fat < old_fat:
        raise InvariantViolation(
            "exchange did not reduce fatness: %r -> %r" % (old_fat, new_fat)
        )
    return new_td


def _prune(bags, neigh):
    """Drop empty bags and bags contained in a neighboring bag from the
    tree given by ``bags`` (node -> vertex mask) and ``neigh`` (node ->
    set of neighbors), and return what is left as a TreeDecomposition
    that keeps the masks of ``bags``.  Both dicts are consumed.

    The rule: merge the first node, in ascending id order, that is empty
    or lies inside a neighbor into the smallest such neighbor, and apply
    the rule again from the smallest id.  No bag changes, so whether a
    node can be merged depends only on its set of neighbors, and a merge
    changes only the target's set and those of the merged node's other
    neighbors.  Every node before the smallest of them still cannot be
    merged, so the scan of the one sorted node list resumes there and
    finds the node a scan from the smallest id would find.
    """
    order = sorted(bags)
    i = 0
    while i < len(order):
        u = order[i]
        bag = bags[u]
        others = neigh[u]
        target = None
        for w in others:
            if not bag & ~bags[w] and (target is None or w < target):
                target = w
        if target is None:
            i += 1
            continue
        del bags[u], neigh[u], order[i]
        # reattach u's other neighbors to the target
        others.discard(target)
        for w in others:
            neigh[w].discard(u)
            neigh[w].add(target)
        neigh[target].discard(u)
        neigh[target] |= others
        first = min(others | {target})
        if first < u:
            i = bisect_left(order, first)
    edges = [(u, w) for u in order for w in neigh[u] if u < w]
    return TreeDecomposition._of_masks(edges, {u: bags[u] for u in order})


def build_k_lean(g, k, budget=DEFAULT_BUDGET, *, seps=None):
    """A k-lean tree-decomposition of g, by iterated improvement.

    ``seps`` is S_k(g) as ``enumerate_separations(g, k)`` returns it, for
    a caller that needs it elsewhere too; omitted, it is enumerated here.
    It must be grouped by ascending order, in any sequence within an
    order (see ``lean_step_trace``).
    """
    td = None
    for _, td in lean_step_trace(g, k, budget, seps=seps):
        pass
    if td is None:
        return TreeDecomposition.single_bag(g.vertices)
    return td


def lean_step_trace(g, k, budget=DEFAULT_BUDGET, *, seps=None):
    """The steps of build_k_lean: yields (violation, td) after each
    exchange.

    g never changes, so S_k(g) is enumerated once (unless the caller
    passes it as ``seps``), and every ``check_k_lean`` step reads that
    one list as its ``seps``: the separations with two non-empty
    exclusive sides (no other can be a witness), grouped by ascending
    order, since the check bisects out each level.  Within an order
    they may come in any sequence: the check takes the least witness
    of a level itself, which is a step's minimum witness.  Each
    exchange step costs one unit of ``budget``; the loop ends
    regardless, since every step strictly lowers the fatness
    (``improvement_step`` raises otherwise).
    """
    if k < 1:
        raise ValueError("k must be positive")
    budget = Budget.of(budget)
    if seps is None:
        seps = enumerate_separations(g, k, budget=budget)
    td = TreeDecomposition.single_bag(g.vertices)
    while True:
        viol = td.check_k_lean(g, k, seps=seps)
        if viol is None:
            return
        budget.charge("lean builder")
        td = improvement_step(g, td, viol)
        yield viol, td
