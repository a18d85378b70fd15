"""Tree-decompositions versus clique subdivisions.

Given a graph and a parameter, either extract a clique subdivision or
produce a low-adhesion tree-decomposition whose torsos are tame; every
intermediate step is exposed as a checkable operation.
"""

from . import errors
from .decomposition import (
    LeannessViolation,
    TreeDecomposition,
    load_td,
    parse_td,
    renumbered,
    write_td,
)
from .graph import Graph, load_gr, parse_gr, write_gr
from .lean import build_k_lean, improvement_step
from .obstructions import (
    Block,
    Model,
    SubdivisionEmbedding,
    extract_subdivision,
    find_clique_model,
    find_k_blocks,
    find_subdivision,
    find_z_based_model,
)
from .pipeline import (
    Coloring,
    Parameters,
    StructureResult,
    color_nodes,
    contract_blue,
    run_structure,
    select_f,
)
from .separations import (
    Separation,
    enumerate_separations,
    is_tight,
    min_vertex_cut,
)
from .verifier import (
    minor_oracle,
    verify_decomposition,
    verify_subdivision,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "Block",
    "Coloring",
    "Graph",
    "LeannessViolation",
    "Model",
    "Parameters",
    "Separation",
    "StructureResult",
    "SubdivisionEmbedding",
    "TreeDecomposition",
    "build_k_lean",
    "color_nodes",
    "contract_blue",
    "enumerate_separations",
    "errors",
    "extract_subdivision",
    "find_clique_model",
    "find_k_blocks",
    "find_subdivision",
    "find_z_based_model",
    "improvement_step",
    "is_tight",
    "load_gr",
    "load_td",
    "min_vertex_cut",
    "minor_oracle",
    "parse_gr",
    "parse_td",
    "renumbered",
    "run_structure",
    "select_f",
    "verify_decomposition",
    "verify_subdivision",
    "verify_theorem",
    "write_gr",
    "write_td",
]
