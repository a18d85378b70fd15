"""Disjoint path systems with a minimum vertex separator.

The lean builder's exchange step needs the actual paths of a maximum
disjoint family and a minimum separator, not just their number.  Both
are read off the one split-vertex max-flow in ``_kernels``, the same
flow that ``_kernels.max_disjoint_paths`` counts with.  Vertex sets go
in and the separator comes out as masks, as in the kernels; this module
adds only the Menger check.
"""

from . import _kernels
from .errors import InvariantViolation


def disjoint_path_system(g, src, dst, allowed):
    """Maximum family of fully vertex-disjoint src-dst paths in G[allowed].

    ``src``, ``dst`` and ``allowed`` are vertex masks.  Returns
    (paths, separator): ``paths`` is a list of vertex tuples, each from
    a src vertex to a dst vertex, pairwise disjoint, ordered by first
    vertex; ``separator`` is the mask of a minimum vertex set meeting
    every src-dst path in G[allowed].  |paths| == |separator| (Menger);
    anything else raises ``InvariantViolation``.
    """
    paths, separator = _kernels._path_system(g.adj, g.n, src, dst, allowed)
    if separator.bit_count() != len(paths):
        raise InvariantViolation(
            "%d disjoint paths but a separator of %d vertices"
            % (len(paths), separator.bit_count())
        )
    return paths, separator
