"""Vertex-capacity flow with witness extraction.

The kernels answer "how many disjoint paths" quickly; this module is the
cold-path twin that also hands back the actual path system and a minimum
vertex separator, which the lean builder needs for its exchange step.
"""

from .graph import bits, mask_of


def disjoint_path_system(g, src, dst, allowed):
    """Maximum family of fully vertex-disjoint src-dst paths in G[allowed].

    Returns (paths, separator): ``paths`` is a list of vertex tuples,
    each from a src vertex to a dst vertex, pairwise disjoint;
    ``separator`` is a minimum vertex set meeting every src-dst path in
    G[allowed].  |paths| == |separator| (Menger).
    """
    allowed_m = mask_of(allowed)
    src_m = mask_of(src) & allowed_m
    dst_m = mask_of(dst) & allowed_m
    n = g.n
    adj = g.adj
    size = 2 * n + 2
    inf = n + 1
    cap = [dict() for _ in range(size)]

    def add_arc(x, y, c):
        cap[x][y] = cap[x].get(y, 0) + c
        cap[y].setdefault(x, 0)

    for v in bits(allowed_m):
        add_arc(2 * v, 2 * v + 1, 1)
        for w in bits(adj[v] & allowed_m):
            add_arc(2 * v + 1, 2 * w, inf)
    # Source/sink arcs carry infinite capacity: each vertex's own split
    # arc enforces unit use, and this keeps the min cut on split arcs only.
    for v in bits(src_m):
        add_arc(0, 2 * v, inf)
    for v in bits(dst_m):
        add_arc(2 * v + 1, 1, inf)
    orig = [dict(row) for row in cap]

    while True:
        prev = {0: 0}
        queue = [0]
        qi = 0
        while qi < len(queue) and 1 not in prev:
            x = queue[qi]
            qi += 1
            for y, c in cap[x].items():
                if c > 0 and y not in prev:
                    prev[y] = x
                    queue.append(y)
        if 1 not in prev:
            break
        y = 1
        while y != 0:
            x = prev[y]
            cap[x][y] -= 1
            cap[y][x] = cap[y].get(x, 0) + 1
            y = x

    # Flow on each arc = original capacity minus residual capacity.
    def flow_on(x, y):
        return orig[x].get(y, 0) - cap[x].get(y, 0)

    paths = []
    for v in bits(src_m):
        if flow_on(0, 2 * v) <= 0:
            continue
        path = [v]
        node = 2 * v + 1
        while flow_on(node, 1) <= 0:
            for y in cap[node]:
                if y >= 2 and flow_on(node, y) > 0:
                    w = y // 2
                    path.append(w)
                    node = 2 * w + 1
                    break
            else:
                raise AssertionError("broken flow decomposition")
        paths.append(tuple(path))

    # Min separator from residual reachability: v is cut iff its in-node
    # is reachable from the source but its out-node is not.
    reach = set(prev) if 1 not in prev else set()
    separator = {v for v in bits(allowed_m) if 2 * v in reach and 2 * v + 1 not in reach}
    assert len(separator) == len(paths)
    return paths, separator
