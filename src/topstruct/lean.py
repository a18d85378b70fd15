"""Construction of k-lean tree-decompositions.

``build_k_lean`` starts from the trivial decomposition and repeatedly
applies the classical exchange step to the first leanness violation;
every step strictly decreases the fatness of the decomposition, so the
loop terminates.  ``build_k_atomic_exact`` is the tiny-instance oracle:
it finds a decomposition of genuinely minimum fatness among all
decompositions of adhesion < k by exhaustive dynamic programming.
"""

from .decomposition import TreeDecomposition, leanness_table
from .errors import BudgetExceeded, InvariantViolation, NotAViolation
from .flows import disjoint_path_system
from .graph import bits, mask_of, set_of
from .separations import enumerate_separations, is_separation


def _violation_is_genuine(g, td, viol):
    if viol.s not in td.nodes or viol.t not in td.nodes:
        return False
    w = viol.witness
    if not is_separation(g, w.side_a, w.side_b):
        return False
    if w.order >= viol.p or viol.p < 1:
        return False
    if viol.s != viol.t and td.min_order_on_path(viol.s, viol.t) < viol.p:
        return False
    return (
        len(w.side_a & td.bags[viol.s]) >= viol.p
        and len(w.side_b & td.bags[viol.t]) >= viol.p
    )


def _minimize_witness(g, td, viol):
    """Shrink the witness separation to minimum order.

    While fewer than |A ∩ B| disjoint paths join the separator to the
    relevant bag inside a side, the Menger separator of that side yields
    a separation of strictly smaller order with the same bag-coverage
    properties.  On return, both sides carry full disjoint path systems,
    one path per separator vertex, which the exchange step consumes.
    """
    a, b = set(viol.witness.side_a), set(viol.witness.side_b)
    vs, vt = td.bags[viol.s], td.bags[viol.t]
    while True:
        x = a & b
        paths_a, sep_a = disjoint_path_system(g, x, vs & a, a)
        if len(sep_a) < len(x):
            a, b = _shift_side(g, a, b, vs, sep_a)
            continue
        paths_b, sep_b = disjoint_path_system(g, x, vt & b, b)
        if len(sep_b) < len(x):
            b, a = _shift_side(g, b, a, vt, sep_b)
            continue
        by_start_a = {p[0]: p for p in paths_a}
        by_start_b = {p[0]: p for p in paths_b}
        return frozenset(a), frozenset(b), by_start_a, by_start_b


def _shift_side(g, a, b, bag, sep):
    """Replace (A, B) by the separation through the Menger separator."""
    sep_m = mask_of(sep)
    keep = g.reachable_mask(mask_of(bag & a) & ~sep_m, mask_of(a) & ~sep_m)
    new_a = set_of(keep | sep_m)
    new_b = b | (a - new_a) | sep
    return new_a, new_b


def improvement_step(g, td, viol):
    """One exchange: split td along the witness into an A-copy and a
    B-copy glued across the separator; strictly smaller fatness.

    The bags of the A-copy keep their A-part and additionally pick up
    every separator vertex whose B-side path meets the bag (and
    symmetrically), which routes each separator vertex's subtree to the
    gluing edge without growing any bag.
    """
    if not _violation_is_genuine(g, td, viol):
        raise NotAViolation("not a leanness violation for this decomposition")
    a, b, paths_a, paths_b = _minimize_witness(g, td, viol)
    x = a & b
    path_b_masks = {v: mask_of(paths_b[v]) for v in x}
    path_a_masks = {v: mask_of(paths_a[v]) for v in x}

    offset = max(td.nodes) + 1
    nodes = set()
    bags = {}
    edges = set()
    for u in td.nodes:
        bag_m = mask_of(td.bags[u])
        bag_a = (td.bags[u] & a) | {v for v in x if bag_m & path_b_masks[v]}
        bag_b = (td.bags[u] & b) | {v for v in x if bag_m & path_a_masks[v]}
        nodes.add(u)
        nodes.add(u + offset)
        bags[u] = frozenset(bag_a)
        bags[u + offset] = frozenset(bag_b)
    for s, t in td.tree_edges:
        edges.add((s, t))
        edges.add((s + offset, t + offset))
    edges.add(tuple(sorted((viol.t, viol.s + offset))))

    new_td = _prune(TreeDecomposition(nodes, edges, bags))
    old_fat = td.fatness(g.n)
    new_fat = new_td.fatness(g.n)
    if not new_fat < old_fat:
        raise InvariantViolation(
            "exchange did not reduce fatness: %r -> %r" % (old_fat, new_fat)
        )
    return new_td


def _prune(td):
    """Drop empty bags and bags contained in a neighboring bag."""
    nodes = set(td.nodes)
    bags = dict(td.bags)
    neigh = {u: set(td.neighbors(u)) for u in td.nodes}
    changed = True
    while changed:
        changed = False
        for u in sorted(nodes):
            if len(nodes) == 1:
                break
            others = neigh[u]
            target = None
            if not bags[u]:
                target = min(others) if others else None
            else:
                for w in sorted(others):
                    if bags[u] <= bags[w]:
                        target = w
                        break
            if target is None:
                continue
            # reattach u's other neighbors to the target
            for w in others:
                if w != target:
                    neigh[w].discard(u)
                    neigh[w].add(target)
                    neigh[target].add(w)
            neigh[target].discard(u)
            nodes.discard(u)
            del bags[u]
            del neigh[u]
            changed = True
            break
    edges = set()
    for u in nodes:
        for w in neigh[u]:
            edges.add((min(u, w), max(u, w)))
    return TreeDecomposition(nodes, edges, bags)


def build_k_lean(g, k, budget=None, *, seps=None):
    """A k-lean tree-decomposition of g, by iterated improvement.

    ``seps`` is S_k(g) as ``enumerate_separations(g, k)`` returns it, for
    a caller that needs it elsewhere too; omitted, it is enumerated here.
    """
    td = TreeDecomposition.single_bag(g.vertices)
    for _, td in lean_step_trace(g, k, budget, seps=seps):
        pass
    return td


def lean_step_trace(g, k, budget=None, *, seps=None):
    """The steps of build_k_lean: yields (violation, td) after each
    exchange.

    g never changes, so S_k(g) is enumerated once (unless the caller
    passes it as ``seps``) and turned once into the directed table that
    every ``check_k_lean`` step scans: both directions of each
    separation, ascending by (order, sort_key), each separation just
    before its flip.  In that order a step's first matching row is its
    minimum witness.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if budget is None:
        budget = 10 * g.n * g.n + 10
    if seps is None:
        seps = enumerate_separations(g, k)
    table = leanness_table(seps)
    td = TreeDecomposition.single_bag(g.vertices)
    steps = 0
    while True:
        viol = td.check_k_lean(g, k, table=table)
        if viol is None:
            return
        steps += 1
        if steps > budget:
            raise BudgetExceeded("lean builder exceeded %d steps" % budget)
        td = improvement_step(g, td, viol)
        yield viol, td


# -- exact minimum-fatness oracle --------------------------------------


def _merge_sizes(*size_tuples):
    out = []
    for sizes in size_tuples:
        out.extend(sizes)
    out.sort(reverse=True)
    return tuple(out)


def build_k_atomic_exact(g, k, budget=5_000_000):
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
    work = [0]

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
            work[0] += 1
            if work[0] > budget:
                raise BudgetExceeded("exact builder budget", spent=work[0])
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
    return TreeDecomposition(set(nodes), edges, nodes)
