"""Disjoint path systems with a minimum vertex separator.

The lean builder's exchange step needs the actual paths of a maximum
disjoint family and a minimum separator, not just their number.  Both
are read off the one split-vertex max-flow in ``_kernels``, the same
flow that ``_kernels.max_disjoint_paths`` counts with; this module only
turns vertex sets into masks and back.
"""

from . import _kernels
from .graph import mask_of, set_of


def disjoint_path_system(g, src, dst, allowed):
    """Maximum family of fully vertex-disjoint src-dst paths in G[allowed].

    Returns (paths, separator): ``paths`` is a list of vertex tuples,
    each from a src vertex to a dst vertex, pairwise disjoint, ordered
    by first vertex; ``separator`` is a minimum vertex set meeting every
    src-dst path in G[allowed].  |paths| == |separator| (Menger).
    """
    allowed_m = mask_of(allowed)
    paths, separator = _kernels._path_system(
        g.adj, g.n, mask_of(src) & allowed_m, mask_of(dst) & allowed_m,
        allowed_m,
    )
    separator = set_of(separator)
    assert len(separator) == len(paths)
    return paths, separator
