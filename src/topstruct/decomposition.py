"""Tree-decompositions: induced separations, contraction, fatness,
leanness checking, and the .td text format.

Instances are immutable after construction; contraction returns a new
value.  Every walk of the tree is one ``TreeDecomposition.reach``.
"""

from bisect import bisect_left
from dataclasses import dataclass
from operator import attrgetter

from .errors import DEFAULT_BUDGET, FormatError, NotAnEdge
from .graph import mask_of
from .separations import Separation, enumerate_separations


@dataclass(frozen=True)
class LeannessViolation:
    """Witness that a decomposition is not k-lean.

    The tree path from s to t has no edge of order < p, yet the witness
    separation (A, B) has |A ∩ V_s| >= p, |B ∩ V_t| >= p and order < p.
    """

    s: int
    t: int
    p: int
    witness: Separation


class TreeDecomposition:
    """A tree with one bag per node.

    ``tree_edges`` are pairs of node ids and ``bags`` maps each node id to
    its vertex set; the nodes are the bag keys.
    """

    def __init__(self, tree_edges, bags):
        self.tree_edges = frozenset(
            (min(s, t), max(s, t)) for s, t in tree_edges
        )
        self.bags = {node: frozenset(bag) for node, bag in bags.items()}
        self.nodes = frozenset(self.bags)
        self._neighbors = {node: set() for node in self.nodes}
        for s, t in self.tree_edges:
            self._neighbors[s].add(t)
            self._neighbors[t].add(s)

    @staticmethod
    def single_bag(vertices):
        return TreeDecomposition(set(), {1: frozenset(vertices)})

    def __eq__(self, other):
        if not isinstance(other, TreeDecomposition):
            return NotImplemented
        return self.tree_edges == other.tree_edges and self.bags == other.bags

    def __hash__(self):
        return hash((self.tree_edges, frozenset(self.bags.items())))

    def __repr__(self):
        return "TreeDecomposition(%d nodes, %d edges)" % (
            len(self.nodes),
            len(self.tree_edges),
        )

    # -- tree structure ------------------------------------------------

    def neighbors(self, node):
        return self._neighbors[node]

    def has_tree_edge(self, s, t):
        return (min(s, t), max(s, t)) in self.tree_edges

    def _require_edge(self, s, t):
        if not self.has_tree_edge(s, t):
            raise NotAnEdge("(%s,%s) is not a tree edge" % (s, t))

    def reach(self, start, within=None, cut=()):
        """{node: parent} of the nodes reachable from ``start``, in
        breadth-first visit order, with ``start`` mapped to None.

        The walk never leaves ``within`` (all nodes when None) and never
        crosses a tree edge listed in ``cut`` as a ``(min, max)`` pair.
        """
        allowed = self.nodes if within is None else within
        parent = {start: None}
        queue = [start]
        for x in queue:
            for y in self._neighbors[x]:
                if y in parent or y not in allowed:
                    continue
                if cut and (min(x, y), max(x, y)) in cut:
                    continue
                parent[y] = x
                queue.append(y)
        return parent

    def side_nodes(self, s, t):
        """Nodes on s's side of the tree edge st (s included, t excluded)."""
        self._require_edge(s, t)
        return set(self.reach(s, within=self.nodes - {t}))

    def tree_path(self, s, t):
        """Node sequence of the unique s-t path in the tree."""
        parent = self.reach(s)
        if t not in parent:
            raise ValueError("nodes in different trees")
        path = [t]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()
        return path

    def path_edges(self, s, t):
        path = self.tree_path(s, t)
        return list(zip(path, path[1:]))

    # -- induced separations ------------------------------------------

    def induced_separation(self, s, t):
        """Separation (U_s, W_t) induced by the tree edge st."""
        self._require_edge(s, t)
        s_side = self.side_nodes(s, t)
        u = frozenset().union(*(self.bags[x] for x in s_side))
        w = frozenset().union(*(self.bags[x] for x in self.nodes - s_side))
        return Separation(u, w)

    def edge_order(self, s, t):
        # Separator of an induced separation equals the bag intersection.
        self._require_edge(s, t)
        return len(self.bags[s] & self.bags[t])

    def adhesion(self):
        if not self.tree_edges:
            return 0
        return max(self.edge_order(s, t) for s, t in self.tree_edges)

    def min_order_on_path(self, s, t):
        edges = self.path_edges(s, t)
        if not edges:
            return None
        return min(self.edge_order(a, b) for a, b in edges)

    # -- contraction ---------------------------------------------------

    def contract_tree_edge(self, s, t):
        """Contract st; the merged node gets a fresh id."""
        self._require_edge(s, t)
        new = max(self.nodes) + 1
        edges = set()
        for a, b in self.tree_edges:
            if {a, b} == {s, t}:
                continue
            a2 = new if a in (s, t) else a
            b2 = new if b in (s, t) else b
            edges.add((min(a2, b2), max(a2, b2)))
        bags = {n: self.bags[n] for n in self.nodes - {s, t}}
        bags[new] = self.bags[s] | self.bags[t]
        return TreeDecomposition(edges, bags)

    # -- fatness -------------------------------------------------------

    def fatness(self, n):
        """(a_0, ..., a_n) where a_i counts bags of size n - i."""
        counts = [0] * (n + 1)
        for bag in self.bags.values():
            counts[n - len(bag)] += 1
        return tuple(counts)

    # -- leanness ------------------------------------------------------

    def check_k_lean(self, g, k, budget=DEFAULT_BUDGET, *, seps=None):
        """None iff k-lean; else the first violation in canonical order.

        Order: smallest p, then lexicographic (s, t), then the witness of
        minimum order with canonically smallest sides.  Requires
        adhesion < k, and raises ``ValueError`` when the tree is not
        connected.

        ``seps`` is S_k(g) as ``enumerate_separations(g, k)`` returns
        it; a caller that checks many decompositions of one graph
        enumerates it once, and without it the check enumerates its own.
        It must ascend by ``order``, since each level is a slice of it
        found by bisection, and within an order by ``sort_key``.  Its
        proper members are the only possible witnesses: the thin side of
        (V, X) or (V, V) is X itself, and a witness needs p > |X| of a
        bag's vertices on each side.  Each separation is tested in its
        own direction, then in its flip's, which shares its sort_key; so
        for each (p, s, t) the first match of order < p with
        |A ∩ V_s| >= p and |B ∩ V_t| >= p is the minimum witness.

        Level p tests only the separations of order exactly p - 1.
        Suppose one of order o < p - 1 qualified at (p, s, t).  Then it
        would also qualify at (o + 1, s, t): o + 1 <= p, and p is at
        most the path minimum, |A ∩ V_s| and |B ∩ V_t|.  So the check
        would have returned at level o + 1 already.  Reaching level p,
        none of order < p - 1 qualifies there, and the first match
        among those of order p - 1 is the first match among all of
        order < p.

        At level p, s and t qualify exactly when no edge of the s-t path
        has order < p: when they lie in one part of the tree left by
        deleting those edges.  Each level builds its parts by merging
        along the edges of order >= p, one edge at a time; above the
        adhesion every part is a single node.  A source s needs
        |V_s| >= p, a target t != s needs |V_t| >= p, and t = s needs
        |V_s| >= 2p - (p - 1) = p + 1, since a separation of order
        p - 1 puts p vertices of V_s on each side.  One walk up front
        rejects a forest before any level can return.
        """
        order = {
            (s, t): len(self.bags[s] & self.bags[t]) for s, t in self.tree_edges
        }
        adhesion = max(order.values(), default=0)
        if adhesion >= k:
            raise ValueError("adhesion %d >= k=%d" % (adhesion, k))
        ordered_nodes = sorted(self.nodes)
        if ordered_nodes and len(self.reach(ordered_nodes[0])) != len(ordered_nodes):
            raise ValueError("nodes in different trees")
        if seps is None:
            seps = enumerate_separations(g, k, budget=budget)
        bag_masks = {node: mask_of(bag) for node, bag in self.bags.items()}
        order_of = attrgetter("order")
        for p in range(1, k + 1):
            level = seps[
                bisect_left(seps, p - 1, key=order_of) :
                bisect_left(seps, p, key=order_of)
            ]
            if not level:
                continue
            part = {node: [node] for node in ordered_nodes}
            for (a, b), o in order.items():
                if o >= p:
                    joined = sorted(part[a] + part[b])
                    for node in joined:
                        part[node] = joined
            for s_node in ordered_nodes:
                vs = bag_masks[s_node]
                if vs.bit_count() < p:
                    continue
                for t_node in part[s_node]:
                    vt = bag_masks[t_node]
                    if vt.bit_count() < p + (t_node == s_node):
                        continue
                    for sep in level:
                        am, bm = sep.mask_a, sep.mask_b
                        if (am & vs).bit_count() >= p and (bm & vt).bit_count() >= p:
                            return LeannessViolation(s_node, t_node, p, sep)
                        if (bm & vs).bit_count() >= p and (am & vt).bit_count() >= p:
                            return LeannessViolation(s_node, t_node, p, sep.flip())
        return None


# -- .td text format ---------------------------------------------------


def renumbered(td, coloring=None):
    """Copy with nodes renumbered 1..N in increasing id order."""
    order = sorted(td.nodes)
    index = {old: i + 1 for i, old in enumerate(order)}
    new_td = TreeDecomposition(
        {(index[s], index[t]) for s, t in td.tree_edges},
        {index[n]: td.bags[n] for n in order},
    )
    if coloring is None:
        return new_td
    return new_td, {index[n]: c for n, c in coloring.items()}


def write_td(td, n, coloring=None):
    """Serialize in PACE-style .td text, with optional color comments."""
    if coloring is not None:
        td, coloring = renumbered(td, coloring)
    else:
        td = renumbered(td)
    max_bag = max((len(b) for b in td.bags.values()), default=0)
    lines = ["s td %d %d %d" % (len(td.nodes), max_bag, n)]
    for node in sorted(td.nodes):
        lines.append(
            ("b %d " % node + " ".join(str(v) for v in sorted(td.bags[node]))).strip()
        )
    for s, t in sorted(td.tree_edges):
        lines.append("%d %d" % (s, t))
    if coloring is not None:
        for node in sorted(coloring):
            lines.append("c color %d %s" % (node, coloring[node]))
    return "\n".join(lines) + "\n"


def parse_td(text):
    """Parse .td text; returns (td, n, coloring-or-None)."""
    header = None
    bags = {}
    edges = set()
    coloring = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "c":
            if len(parts) == 4 and parts[1] == "color":
                try:
                    node = int(parts[2])
                except ValueError:
                    raise FormatError("bad color node id", lineno)
                if parts[3] not in ("red", "blue"):
                    raise FormatError("color must be red or blue", lineno)
                if node in coloring:
                    raise FormatError("bag %d colored twice" % node, lineno)
                coloring[node] = parts[3]
            continue
        if parts[0] == "s":
            if header is not None:
                raise FormatError("duplicate solution header", lineno)
            if len(parts) != 5 or parts[1] != "td":
                raise FormatError("expected `s td <#bags> <max> <n>`", lineno)
            try:
                header = tuple(int(x) for x in parts[2:])
            except ValueError:
                raise FormatError("non-integer header fields", lineno)
        elif parts[0] == "b":
            if header is None:
                raise FormatError("bag line before header", lineno)
            try:
                node = int(parts[1])
                verts = [int(x) for x in parts[2:]]
            except (ValueError, IndexError):
                raise FormatError("bad bag line", lineno)
            if node in bags:
                raise FormatError("duplicate bag id %d" % node, lineno)
            bags[node] = frozenset(verts)
        else:
            if header is None:
                raise FormatError("edge line before header", lineno)
            if len(parts) != 2:
                raise FormatError("expected `<id> <id>`", lineno)
            try:
                s, t = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError("non-integer edge", lineno)
            edges.add((min(s, t), max(s, t)))
    if header is None:
        raise FormatError("missing `s td` header")
    num_bags, max_bag, n = header
    if len(bags) != num_bags:
        raise FormatError("header declares %d bags, found %d" % (num_bags, len(bags)))
    for node, bag in bags.items():
        if len(bag) > max_bag:
            raise FormatError("bag %d exceeds declared max size" % node)
        if any(not 1 <= v <= n for v in bag):
            raise FormatError("bag %d has vertices outside 1..%d" % (node, n))
    for s, t in edges:
        if s not in bags or t not in bags:
            raise FormatError("tree edge (%d,%d) references unknown bag" % (s, t))
    if coloring and not set(coloring) <= set(bags):
        raise FormatError("color comment references unknown bag")
    td = TreeDecomposition(edges, bags)
    return td, n, (coloring or None)


def load_td(path):
    with open(path) as f:
        return parse_td(f.read())
