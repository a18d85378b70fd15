"""Tree-decompositions: induced separations, torsos, contraction,
fatness, leanness checking, home nodes, and the .td text format.

Instances are immutable after construction; contraction returns a new
value and records provenance for the fresh node id.
"""

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter

from .errors import (
    FormatError,
    InconsistentOrientation,
    NotAnEdge,
    NotASubtree,
)
from .graph import Graph, mask_of
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


def leanness_table(seps):
    """Directed rows ``(order, A-mask, B-mask, separation, flipped)`` of S_k.

    ``seps`` comes as ``enumerate_separations`` returns it: canonical,
    ascending by ``Separation.sort_key``.  Each separation's row is
    followed by its flip's, so the rows ascend by (order, sort_key) and
    ``TreeDecomposition.check_k_lean`` can stop at its first match.  A
    flip's row holds the canonical separation with ``flipped`` set; only
    the row a check returns is turned into ``separation.flip()``.
    """
    rows = []
    for s in seps:
        am, bm = mask_of(s.side_a), mask_of(s.side_b)
        rows.append((s.order, am, bm, s, False))
        if am != bm:
            rows.append((s.order, bm, am, s, True))
    return rows


class TreeDecomposition:
    def __init__(self, nodes, tree_edges, bags, provenance=None):
        self.nodes = frozenset(nodes)
        self.tree_edges = frozenset(
            (min(s, t), max(s, t)) for s, t in tree_edges
        )
        self.bags = {node: frozenset(bag) for node, bag in bags.items()}
        self.provenance = dict(provenance) if provenance else {}
        if set(self.bags) != set(self.nodes):
            raise ValueError("bags and nodes out of sync")
        self._neighbors = {node: set() for node in self.nodes}
        for s, t in self.tree_edges:
            self._neighbors[s].add(t)
            self._neighbors[t].add(s)

    @staticmethod
    def single_bag(vertices):
        return TreeDecomposition({1}, set(), {1: frozenset(vertices)})

    def __eq__(self, other):
        if not isinstance(other, TreeDecomposition):
            return NotImplemented
        return (
            self.nodes == other.nodes
            and self.tree_edges == other.tree_edges
            and self.bags == other.bags
        )

    def __hash__(self):
        return hash((self.nodes, self.tree_edges, frozenset(self.bags.items())))

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

    def is_tree(self):
        if not self.nodes:
            return False
        if len(self.tree_edges) != len(self.nodes) - 1:
            return False
        seen = set()
        stack = [next(iter(sorted(self.nodes)))]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(self._neighbors[x])
        return seen == self.nodes

    def side_nodes(self, s, t):
        """Nodes on s's side of the tree edge st (s included, t excluded)."""
        self._require_edge(s, t)
        seen = {s}
        stack = [s]
        while stack:
            x = stack.pop()
            for y in self._neighbors[x]:
                if y != t and y not in seen:
                    seen.add(y)
                    stack.append(y)
        return seen

    def tree_path(self, s, t):
        """Node sequence of the unique s-t path in the tree."""
        parent = {s: None}
        queue = [s]
        qi = 0
        while qi < len(queue):
            x = queue[qi]
            qi += 1
            if x == t:
                break
            for y in sorted(self._neighbors[x]):
                if y not in parent:
                    parent[y] = x
                    queue.append(y)
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

    # -- validation ----------------------------------------------------

    def validate(self, g):
        """Both tree-decomposition axioms plus tree-ness."""
        if not self.is_tree():
            return False
        covered = frozenset().union(*self.bags.values()) if self.bags else frozenset()
        if covered != set(g.vertices):
            return False
        for v in g.vertices:
            holders = {node for node, bag in self.bags.items() if v in bag}
            if not holders:
                return False
            # connectivity of the holder set in the tree
            seen = set()
            stack = [next(iter(holders))]
            while stack:
                x = stack.pop()
                if x in seen:
                    continue
                seen.add(x)
                stack.extend(self._neighbors[x] & holders)
            if seen != holders:
                return False
        for u, v in g.edges:
            if not any(u in bag and v in bag for bag in self.bags.values()):
                return False
        return True

    # -- torsos --------------------------------------------------------

    def torso_at_subtree(self, g, node_set):
        """Torso of the given connected subtree, relabelled to 1..N.

        Returns (graph, labels): labels[i] is the G-vertex of torso
        vertex i+1.
        """
        node_set = set(node_set)
        if not node_set or not node_set <= self.nodes:
            raise NotASubtree("nodes not in decomposition")
        seen = set()
        stack = [next(iter(node_set))]
        while stack:
            x = stack.pop()
            if x in seen:
                continue
            seen.add(x)
            stack.extend(self._neighbors[x] & node_set)
        if seen != node_set:
            raise NotASubtree("node set is not connected in the tree")
        verts = frozenset().union(*(self.bags[x] for x in node_set))
        extra = set()
        for s, t in self.tree_edges:
            inside = (s in node_set) + (t in node_set)
            if inside == 1:
                adhesion_set = sorted(self.bags[s] & self.bags[t])
                extra.update(itertools.combinations(adhesion_set, 2))
        labels = sorted(verts)
        index = {old: i + 1 for i, old in enumerate(labels)}
        edges = [
            (index[u], index[v])
            for u, v in set(g.edges) | extra
            if u in index and v in index
        ]
        return Graph.from_edges(len(labels), edges), labels

    def torso_at_node(self, g, node):
        return self.torso_at_subtree(g, {node})

    # -- contraction ---------------------------------------------------

    def contract_tree_edge(self, s, t):
        """Contract st; the merged node gets a fresh id with provenance."""
        self._require_edge(s, t)
        new = max(self.nodes) + 1
        nodes = (self.nodes - {s, t}) | {new}
        edges = set()
        for a, b in self.tree_edges:
            if {a, b} == {s, t}:
                continue
            a2 = new if a in (s, t) else a
            b2 = new if b in (s, t) else b
            edges.add((min(a2, b2), max(a2, b2)))
        bags = {n: self.bags[n] for n in self.nodes - {s, t}}
        bags[new] = self.bags[s] | self.bags[t]
        prov = dict(self.provenance)
        prov[new] = (s, t)
        return TreeDecomposition(nodes, edges, bags, prov)

    # -- fatness -------------------------------------------------------

    def fatness(self, n):
        """(a_0, ..., a_n) where a_i counts bags of size n - i."""
        counts = [0] * (n + 1)
        for bag in self.bags.values():
            counts[n - len(bag)] += 1
        return tuple(counts)

    # -- leanness ------------------------------------------------------

    def _path_minima(self):
        """{s: {t: minimum edge order on the s-t tree path}}, one DFS per
        node; a node's path to itself has no edge and minimum infinity."""
        order = {e: self.edge_order(*e) for e in self.tree_edges}
        out = {}
        for s in self.nodes:
            low = {s: float("inf")}
            stack = [s]
            while stack:
                x = stack.pop()
                for y in self._neighbors[x]:
                    if y not in low:
                        low[y] = min(low[x], order[(min(x, y), max(x, y))])
                        stack.append(y)
            if len(low) != len(self.nodes):
                raise ValueError("nodes in different trees")
            out[s] = low
        return out

    def check_k_lean(self, g, k, budget=2_000_000, *, table=None):
        """None iff k-lean; else the first violation in canonical order.

        Order: smallest p, then lexicographic (s, t), then the witness of
        minimum order with canonically smallest sides.  Requires
        adhesion < k.

        ``table`` is ``leanness_table(enumerate_separations(g, k))``; a
        caller that checks many decompositions of one graph builds it
        once, and without it the check builds its own.  The table's rows
        ascend by (order, sort_key), each separation just before its
        flip, which shares its key.  So the rows of order < p form a
        prefix, and for each (p, s, t) the first row with |A ∩ V_s| >= p
        and |B ∩ V_t| >= p is the minimum witness.
        """
        if self.adhesion() >= k:
            raise ValueError("adhesion %d >= k=%d" % (self.adhesion(), k))
        if table is None:
            table = leanness_table(enumerate_separations(g, k, budget=budget))
        bag_masks = {node: mask_of(bag) for node, bag in self.bags.items()}
        ordered_nodes = sorted(self.nodes)
        path_min = self._path_minima()
        for p in range(1, k + 1):
            rows = table[: bisect_left(table, p, key=itemgetter(0))]
            for s_node in ordered_nodes:
                vs = bag_masks[s_node]
                from_s = [
                    (bm, sep, flipped)
                    for _, am, bm, sep, flipped in rows
                    if (am & vs).bit_count() >= p
                ]
                if not from_s:
                    continue
                reach = path_min[s_node]
                for t_node in ordered_nodes:
                    if reach[t_node] < p:
                        continue
                    vt = bag_masks[t_node]
                    for bm, sep, flipped in from_s:
                        if (bm & vt).bit_count() >= p:
                            if flipped:
                                sep = sep.flip()
                            return LeannessViolation(s_node, t_node, p, sep)
        return None

    # -- home nodes ----------------------------------------------------

    def home_node(self, orientation):
        """Unique sink of the edge orientation induced by ``orientation``."""
        if len(self.nodes) == 1:
            return next(iter(self.nodes))
        outdeg = {node: 0 for node in self.nodes}
        for s, t in self.tree_edges:
            sep = self.induced_separation(s, t)
            w = orientation.w_side(sep)
            if sep.side_a == sep.side_b:
                # degenerate (B, B) edge carries no information
                outdeg[s] += 1
                continue
            if w == sep.side_b:
                outdeg[s] += 1
            elif w == sep.side_a:
                outdeg[t] += 1
            else:
                raise InconsistentOrientation("w_side returned a foreign set")
        sinks = [node for node, d in outdeg.items() if d == 0]
        if len(sinks) != 1:
            raise InconsistentOrientation("no unique sink: %r" % (sorted(sinks),))
        return sinks[0]


# -- .td text format ---------------------------------------------------


def renumbered(td, coloring=None):
    """Copy with nodes renumbered 1..N in increasing id order."""
    order = sorted(td.nodes)
    index = {old: i + 1 for i, old in enumerate(order)}
    new_td = TreeDecomposition(
        set(index.values()),
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
    td = TreeDecomposition(set(bags), edges, bags)
    return td, n, (coloring or None)


def load_td(path):
    with open(path) as f:
        return parse_td(f.read())
