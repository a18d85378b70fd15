"""Simple undirected graphs on vertices 1..n, plus the .gr text format.

The dense integer labelling keeps canonical forms and bitset encodings
cheap; external labels are mapped at parse time.  Vertex sets travel
through the public API as (frozen)sets of ints and through the kernels
as bitmasks with bit v standing for vertex v.
"""

from dataclasses import dataclass, field

from . import _kernels
from ._kernels import bits  # re-exported; defined once, with the kernels
from .errors import FormatError


def mask_of(vertices):
    m = 0
    for v in vertices:
        m |= 1 << v
    return m


def set_of(mask):
    out = set()
    while mask:
        low = mask & -mask
        out.add(low.bit_length() - 1)
        mask ^= low
    return out


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph.  No loops, no parallel edges."""

    n: int
    edges: frozenset  # of (u, v) tuples with u < v
    _adj: tuple = field(default=None, compare=False, repr=False)

    @staticmethod
    def from_edges(n, edge_iter):
        edges = set()
        for u, v in edge_iter:
            if u == v:
                raise ValueError("loop at vertex %d" % u)
            if not (1 <= u <= n and 1 <= v <= n):
                raise ValueError("edge (%d,%d) outside 1..%d" % (u, v, n))
            edges.add((min(u, v), max(u, v)))
        return Graph(n, frozenset(edges))

    def __post_init__(self):
        adj = [0] * (self.n + 1)
        for u, v in self.edges:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        object.__setattr__(self, "_adj", tuple(adj))

    # -- basic queries -------------------------------------------------

    @property
    def vertices(self):
        return range(1, self.n + 1)

    @property
    def vertex_mask(self):
        return ((1 << self.n) - 1) << 1

    @property
    def adj(self):
        """Adjacency masks, indexed by vertex (index 0 unused)."""
        return self._adj

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def neighbors(self, v):
        return set_of(self._adj[v])

    def degree(self, v):
        return self._adj[v].bit_count()

    def sorted_edges(self):
        return sorted(self.edges)

    # -- connectivity --------------------------------------------------

    def components(self, within=None):
        """Vertex sets of the components of G (or of G[within])."""
        mask = self.vertex_mask if within is None else mask_of(within)
        return [set_of(c) for c in _kernels.components(self._adj, mask)]

    def component_masks(self, mask):
        return _kernels.components(self._adj, mask)

    def is_connected_set(self, vertices):
        return _kernels.is_connected(self._adj, mask_of(vertices))

    def reachable_mask(self, start_mask, allowed_mask):
        return _kernels.reachable(self._adj, start_mask, allowed_mask)

    # -- derived graphs ------------------------------------------------

    def overlay_clique(self, z):
        """G^Z: make the vertices of z pairwise adjacent."""
        zs = sorted(z)
        extra = {(zs[i], zs[j]) for i in range(len(zs)) for j in range(i + 1, len(zs))}
        return Graph(self.n, self.edges | frozenset(extra))

    def induced(self, vertices):
        """Induced subgraph relabelled to 1..|vertices|.

        Returns (graph, labels) where labels[i] is the original label of
        new vertex i+1.
        """
        labels = sorted(vertices)
        index = {old: i + 1 for i, old in enumerate(labels)}
        edges = [
            (index[u], index[v]) for u, v in self.edges if u in index and v in index
        ]
        return Graph.from_edges(len(labels), edges), labels

    def contract_edge(self, u, v):
        """Contract edge uv, merging v into u; relabels to stay dense."""
        if not self.has_edge(u, v):
            raise ValueError("(%d,%d) is not an edge" % (u, v))
        keep = [w for w in self.vertices if w != v]
        index = {old: i + 1 for i, old in enumerate(keep)}
        edges = set()
        for a, b in self.edges:
            a2 = u if a == v else a
            b2 = u if b == v else b
            if a2 != b2:
                edges.add((min(index[a2], index[b2]), max(index[a2], index[b2])))
        return Graph(self.n - 1, frozenset(edges))


# -- .gr parsing / writing (PACE-style) --------------------------------


def parse_gr(text):
    """Parse PACE-style graph text: `p tw <n> <m>` header, `<u> <v>` edges."""
    n = None
    declared_m = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError("duplicate header", lineno)
            if len(parts) != 4 or parts[1] != "tw":
                raise FormatError("expected `p tw <n> <m>`", lineno)
            try:
                n, declared_m = int(parts[2]), int(parts[3])
            except ValueError:
                raise FormatError("non-integer header fields", lineno)
            if n < 0 or declared_m < 0:
                raise FormatError("negative header fields", lineno)
        else:
            if n is None:
                raise FormatError("edge before header", lineno)
            if len(parts) != 2:
                raise FormatError("expected `<u> <v>`", lineno)
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise FormatError("non-integer endpoints", lineno)
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise FormatError("bad edge (%d,%d)" % (u, v), lineno)
            edges.append((u, v))
    if n is None:
        raise FormatError("missing `p tw` header")
    g = Graph.from_edges(n, edges)
    if declared_m != len(g.edges):
        raise FormatError(
            "header declares %d edges, found %d" % (declared_m, len(g.edges))
        )
    return g


def write_gr(g):
    lines = ["p tw %d %d" % (g.n, len(g.edges))]
    for u, v in g.sorted_edges():
        lines.append("%d %d" % (u, v))
    return "\n".join(lines) + "\n"


def load_gr(path):
    with open(path) as f:
        return parse_gr(f.read())


# -- small named families (used heavily by tests and fixtures) ---------


def complete_graph(n):
    return Graph.from_edges(
        n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    )


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)])


def cycle_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(1, n)] + [(n, 1)])


def complete_bipartite(a, b):
    return Graph.from_edges(
        a + b, [(i, a + j) for i in range(1, a + 1) for j in range(1, b + 1)]
    )


def grid_graph(rows, cols):
    def vid(r, c):
        return r * cols + c + 1

    edges = []
    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                edges.append((vid(r, c), vid(r, c + 1)))
            if r + 1 < rows:
                edges.append((vid(r, c), vid(r + 1, c)))
    return Graph.from_edges(rows * cols, edges)


def petersen_graph():
    outer = [(i, i % 5 + 1) for i in range(1, 6)]
    spokes = [(i, i + 5) for i in range(1, 6)]
    # inner pentagram
    inner = [(6, 8), (7, 9), (8, 10), (6, 9), (7, 10)]
    return Graph.from_edges(10, outer + spokes + inner)


def random_graph(n, p, rng):
    edges = [
        (i, j)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
        if rng.random() < p
    ]
    return Graph.from_edges(n, edges)
