"""Bitset kernels: reachability, components and the one max-flow.

Vertices are 1..n; a vertex set is an int with bit v set for vertex v.
``adj`` is a sequence indexed by vertex label (index 0 unused) whose
entries are neighborhood masks.  These functions sit in the innermost
loops of every search in the package.

``_max_flow`` is the package's only max-flow.  ``max_disjoint_paths``
returns its value; ``_path_system`` reads a path system and a minimum
separator from its residual network for ``flows``.  Only this module
knows the network's layout.

The kernels never call one another through the four kernel names
(``reachable``, ``components``, ``is_connected``,
``max_disjoint_paths``): perfbench/tracer.py counts calls by wrapping
those names, and must see only the calls from outside this module.
"""

# The benchmark's run line prints this (perfbench/run.py).
BACKEND = "pure"


def bits(mask):
    """The vertices of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(adj, seen, allowed):
    """Closure of ``seen``, a subset of ``allowed``, within ``allowed``."""
    frontier = seen
    while frontier:
        nxt = 0
        for v in bits(frontier):
            nxt |= adj[v]
        frontier = nxt & allowed & ~seen
        seen |= frontier
    return seen


def reachable(adj, start, allowed):
    """Closure of ``start & allowed`` under adjacency within ``allowed``."""
    return _closure(adj, start & allowed, allowed)


def components(adj, mask):
    """Connected components of the induced subgraph on ``mask``."""
    out = []
    rest = mask
    while rest:
        comp = _closure(adj, rest & -rest, mask)
        out.append(comp)
        rest &= ~comp
    return out


def is_connected(adj, mask):
    """True for the empty set and for connected induced subgraphs."""
    if mask == 0:
        return True
    return _closure(adj, mask & -mask, mask) == mask


def max_disjoint_paths(adj, n, src, dst, allowed):
    """Maximum number of fully vertex-disjoint paths from ``src`` to ``dst``.

    All path vertices must lie in ``allowed``; a vertex in ``src & dst``
    counts as a trivial path.  Unit vertex capacities throughout, so this
    is the Menger number between the two sets.
    """
    return _max_flow(adj, n, src, dst, allowed)[0]


def _path_system(adj, n, src, dst, allowed):
    """A maximum disjoint path system and a minimum separator.

    Returns (paths, separator): the paths as vertex tuples, one per
    flow-carrying ``src`` vertex in ascending order, and as a mask the
    vertices whose in-node the last search reached but whose out-node
    it did not, plus the shared vertices.
    """
    _, shared, cap, prev = _max_flow(adj, n, src, dst, allowed)
    # The residual capacity cap[y][x] of a reverse arc is the flow on x -> y.
    paths = []
    for v in bits(src & allowed):
        if shared >> v & 1:
            paths.append((v,))
        elif cap[2 * v][0]:
            path = [v]
            node = 2 * v + 1
            while not cap[1][node]:
                for w in bits(adj[path[-1]] & allowed):
                    if cap[2 * w][node]:
                        break
                else:
                    raise AssertionError("broken flow decomposition")
                path.append(w)
                node = 2 * w + 1
            paths.append(tuple(path))
    cut = sum(
        1 << v for v in bits(allowed) if prev[2 * v] >= 0 and prev[2 * v + 1] < 0
    )
    return paths, shared | cut


def _max_flow(adj, n, src, dst, allowed):
    """Edmonds-Karp on the split-vertex network of G[allowed].

    Vertex v is split into in-node 2v and out-node 2v+1 joined by a unit
    arc; node 0 is the source, node 1 the sink.  A vertex in ``src &
    dst`` stays out of the network: it is a trivial path, and it is in
    every separator.  Source and sink arcs carry n + 1, so every minimum
    cut lies on split arcs.  Returns (value, shared vertices, residual
    capacities, BFS parents of the last search, -1 where unreached).

    Each node scans its arcs in ascending order, except that an out-node
    scans the reverse of its own split arc first.  The scan order picks
    which maximum flow comes out, and the lean builder's exchange step
    reads its paths, so changing it changes decompositions.
    """
    shared = src & dst & allowed
    allowed &= ~shared
    src &= allowed
    dst &= allowed
    size = 2 * n + 2
    inf = n + 1
    cap = [[0] * size for _ in range(size)]
    for v in bits(allowed):
        cap[2 * v][2 * v + 1] = 1
        for w in bits(adj[v] & allowed):
            cap[2 * v + 1][2 * w] = inf
    for v in bits(src):
        cap[0][2 * v] = inf
    for v in bits(dst):
        cap[2 * v + 1][1] = inf
    flow = shared.bit_count()
    cols = range(size)
    while True:
        prev = [-1] * size
        prev[0] = 0
        queue = [0]
        for x in queue:  # the loop also visits what it appends
            row = cap[x]
            if x & 1 and row[x - 1] and prev[x - 1] < 0:
                prev[x - 1] = x
                queue.append(x - 1)
            for y in cols:
                if row[y] and prev[y] < 0:
                    prev[y] = x
                    queue.append(y)
            if prev[1] >= 0:
                break
        else:
            return flow, shared, cap, prev
        y = 1
        while y:
            x = prev[y]
            cap[x][y] -= 1
            cap[y][x] += 1
            y = x
        flow += 1
