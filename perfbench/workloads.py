"""Seeded inputs of the three benchmark workloads.

Every workload draws a fixed number of graphs from a fixed family, so
the mix of graph sizes does not depend on the seed; only the edges and
the labels do.  Why each workload exists, and what it stresses, is in
README.md.
"""

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    k: int
    m: int
    family: str  # "gnm", "chain" or "stacked"; see make_graphs
    sizes: tuple  # vertex counts, one cell per (size, density) pair
    densities: tuple  # edge densities ("gnm") or chord densities ("chain")
    per_cell: int
    cli: bool = False  # timed loop runs ``topstruct verify`` on files


WORKLOADS = {
    w.name: w
    for w in (
        Workload("corpus", 3, 6, "gnm", tuple(range(1, 11)),
                 (0.2, 0.4, 0.7), 30),
        Workload("lean", 4, 30, "chain", (12,), (0.6,), 20),
        Workload("verify", 2, 7, "stacked", (11,), (None,), 30, cli=True),
    )
}

CHAIN_BLOBS = 3
CHAIN_LINKS = 2


def relabel(n, edges, rng, graph_cls):
    label = list(range(1, n + 1))
    rng.shuffle(label)
    return graph_cls.from_edges(
        n, [tuple(sorted((label[u - 1], label[w - 1]))) for u, w in edges]
    )


def random_gnm(n, density, rng, graph_cls):
    """A uniform random graph with round(density * n(n-1)/2) edges.

    The acceptance tests draw G(n, p); fixing the edge count at its
    expectation removes the largest source of cost variance between
    graphs of one cell, so fewer graphs give a steady total.
    """
    pairs = [(u, w) for u in range(1, n + 1) for w in range(u + 1, n + 1)]
    edges = rng.sample(pairs, round(density * len(pairs)))
    return graph_cls.from_edges(n, edges)


def chain_of_blobs(n, density, rng, graph_cls):
    """CHAIN_BLOBS random blobs of n / CHAIN_BLOBS vertices in a row.

    A blob is a path plus round(density * k) of its k other pairs, drawn
    uniformly; consecutive blobs are joined by CHAIN_LINKS distinct
    random edges.  The many separations of order below 4 make the lean
    builder take several exchange steps on every graph.  Fixed chord and
    link counts, as in random_gnm, keep the cost per graph close to
    constant.
    """
    size = n // CHAIN_BLOBS
    edges = set()
    for b in range(CHAIN_BLOBS):
        vs = range(b * size + 1, (b + 1) * size + 1)
        edges |= set(zip(vs, vs[1:]))
        chords = [(u, w) for i, u in enumerate(vs) for w in vs[i + 2:]]
        edges |= set(rng.sample(chords, round(density * len(chords))))
        if b:
            prev = range((b - 1) * size + 1, b * size + 1)
            links = [(u, w) for u in prev for w in vs]
            edges |= set(rng.sample(links, CHAIN_LINKS))
    return relabel(CHAIN_BLOBS * size, edges, rng, graph_cls)


def stacked_triangulation(n, rng, graph_cls):
    """A random planar 3-tree on n >= 3 vertices, randomly labelled.

    Starting from a triangle (two faces), each new vertex goes into a
    random face and is joined to its three corners.  The result is planar, so
    it has no K_5 (hence no K_7) minor, and its minimum degree is 3, so
    the minor oracle's degree reductions do not apply.
    """
    edges = {(1, 2), (1, 3), (2, 3)}
    faces = [(1, 2, 3), (1, 2, 3)]
    for v in range(4, n + 1):
        a, b, c = faces.pop(rng.randrange(len(faces)))
        edges |= {(a, v), (b, v), (c, v)}
        faces += [(a, b, v), (a, c, v), (b, c, v)]
    return relabel(n, edges, rng, graph_cls)


def make_graphs(workload, seed, graph_cls):
    """The workload's graphs for ``seed``, in drawing order."""
    rng = random.Random("%s/%d" % (workload.name, seed))
    out = []
    for _ in range(workload.per_cell):
        for n in workload.sizes:
            for p in workload.densities:
                if workload.family == "gnm":
                    g = random_gnm(n, p, rng, graph_cls)
                elif workload.family == "chain":
                    g = chain_of_blobs(n, p, rng, graph_cls)
                else:
                    g = stacked_triangulation(n, rng, graph_cls)
                out.append(g)
    return out
