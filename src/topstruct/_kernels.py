"""Bitset kernels: reachability, components and Menger counts.

Vertices are 1..n; a vertex set is an int with bit v set for vertex v.
``adj`` is a sequence indexed by vertex label (index 0 unused) whose
entries are neighborhood masks.  These functions sit in the innermost
loops of every search in the package.

The kernels never call one another through the four public names:
perfbench/tracer.py counts calls by wrapping those names, and must see
only the calls from outside this module.
"""

# The benchmark's run line prints this (perfbench/run.py).
BACKEND = "pure"


def _bits(mask):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _closure(adj, seen, allowed):
    """Closure of ``seen``, a subset of ``allowed``, within ``allowed``."""
    frontier = seen
    while frontier:
        nxt = 0
        for v in _bits(frontier):
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

    Vertex v is split into in-node 2v and out-node 2v+1; node 0 is the
    source, node 1 the sink.  Plain BFS augmentation: the flow value is
    at most n, so Ford-Fulkerson is exact and cheap at this scale.
    """
    # Trivial one-vertex paths; route the rest around them.
    shared = src & dst & allowed
    allowed &= ~shared
    src &= allowed
    dst &= allowed
    size = 2 * n + 2
    cap = [[0] * size for _ in range(size)]
    inf = n + 1
    for v in _bits(allowed):
        cap[2 * v][2 * v + 1] = 1
        for w in _bits(adj[v] & allowed):
            cap[2 * v + 1][2 * w] = inf
    for v in _bits(src):
        cap[0][2 * v] = 1
    for v in _bits(dst):
        cap[2 * v + 1][1] = 1
    flow = shared.bit_count()
    while True:
        prev = [-1] * size
        prev[0] = 0
        queue = [0]
        qi = 0
        while qi < len(queue) and prev[1] == -1:
            x = queue[qi]
            qi += 1
            row = cap[x]
            for y in range(size):
                if row[y] > 0 and prev[y] == -1:
                    prev[y] = x
                    queue.append(y)
        if prev[1] == -1:
            return flow
        y = 1
        while y != 0:
            x = prev[y]
            cap[x][y] -= 1
            cap[y][x] += 1
            y = x
        flow += 1
