"""The structure pipeline: lean decomposition, obstruction homes,
distinguishing edges, coloring, contraction — or a subdivision exit.

Given parameters (r, or a generalized (k, m) pair), the run either
extracts a clique subdivision (when some block and some clique model
share a home node of the lean decomposition) or emits a colored
tree-decomposition whose red torsos have few high-degree vertices and
whose blue torsos have no large clique minor.
"""

from dataclasses import dataclass, field
from itertools import combinations

from .decomposition import TreeDecomposition
from .errors import DEFAULT_BUDGET, Budget, InvariantViolation
from .lean import build_k_lean
from .obstructions import (
    branch_count_fits,
    extract_subdivision,
    find_k_blocks,
    find_z_based_model,
    refutes_clique_minor,
)
from .separations import enumerate_separations, is_tight


def _supported_branch_count(k, m):
    """Largest r ≥ 2 for which (k, m) supports the subdivision exit."""
    if not branch_count_fits(2, k, m):
        return None
    r = 2
    while branch_count_fits(r + 1, k, m):
        r += 1
    return r


@dataclass(frozen=True)
class Parameters:
    r: int
    k: int
    m: int
    generalized: bool = False

    @staticmethod
    def from_r(r):
        if r < 2:
            raise ValueError("r must be at least 2")
        k = r * (r - 1)
        return Parameters(r, k, 2 * k, generalized=False)

    @staticmethod
    def generalized_km(k, m):
        if m < k:
            # m disjoint branch sets all meet some separator of m < k
            # vertices, so a K_m model orients no such S_k
            raise ValueError(
                "(k=%d, m=%d): need m >= k, or a K_m model does not orient S_k"
                % (k, m)
            )
        r = _supported_branch_count(k, m)
        if r is None:
            raise ValueError(
                "(k=%d, m=%d) supports no subdivision size; need k >= 2, m >= 3"
                % (k, m)
            )
        return Parameters(r, k, m, generalized=True)


@dataclass(frozen=True)
class Coloring:
    color: dict  # node -> "red" | "blue"
    f_edges: frozenset
    defaulted: frozenset = frozenset()  # nodes blue only by default


@dataclass
class StructureResult:
    params: Parameters
    subdivision: object = None
    decomposition: TreeDecomposition = None
    coloring: Coloring = None
    lean: TreeDecomposition = None  # pre-contraction decomposition
    lean_coloring: Coloring = None
    blocks: tuple = ()
    model_nodes: frozenset = frozenset()
    report: list = field(default_factory=list)

    @property
    def variant(self):
        return "subdivision" if self.subdivision is not None else "decomposition"


# -- distinguishing edge selection -------------------------------------


def _efficient_edges(td, t1, t2):
    """Edges on the t1–t2 tree-path whose order equals the path minimum."""
    if t1 == t2:
        return []
    edges = td.path_edges(t1, t2)
    low = min(td.edge_order(*e) for e in edges)
    return [e for e in edges if td.edge_order(*e) == low]


def select_f(g, td, block_homes, model_homes):
    """Inclusion-minimal edge set efficiently distinguishing every
    (block home, model home) pair, chosen greedily.

    A lean decomposition distinguishes every such pair efficiently along
    the tree-path between the home nodes; we start from all efficient
    edges and drop them in descending (order, id) order while every pair
    keeps one.
    """
    pairs = []
    for tb in sorted(set(block_homes)):
        for tx in sorted(set(model_homes)):
            eff = _efficient_edges(td, tb, tx)
            if not eff:
                raise InvariantViolation(
                    "no efficient edge between nodes %d and %d" % (tb, tx)
                )
            pairs.append(frozenset(eff))
    chosen = set()
    for eff in pairs:
        chosen |= eff
    for e in sorted(chosen, key=lambda e: (-td.edge_order(*e), -e[0], -e[1])):
        trial = chosen - {e}
        if all(trial & eff for eff in pairs):
            chosen = trial
    return frozenset(chosen)


# -- coloring and contraction ------------------------------------------


def color_nodes(td, f, block_homes, model_homes):
    """Color each component of T − F by the home-node kind it contains.

    A component holding neither kind is blue by default, and its nodes
    are listed in ``Coloring.defaulted``.  A component holding both
    kinds indicates an upstream invariant failure and raises.
    """
    f = {tuple(sorted(e)) for e in f}
    colors = {}
    defaulted = set()
    for start in sorted(td.nodes):
        if start in colors:
            continue
        comp = td.reach(start, cut=f)
        has_block = any(t in block_homes for t in comp)
        has_model = any(t in model_homes for t in comp)
        if has_block and has_model:
            raise InvariantViolation(
                "component %r holds both home-node kinds" % sorted(comp)
            )
        if not has_block and not has_model:
            defaulted.update(comp)
            color = "blue"
        else:
            color = "blue" if has_block else "red"
        for t in comp:
            colors[t] = color
    return Coloring(colors, frozenset(f), frozenset(defaulted))


def contract_blue(td, coloring):
    """Contract every maximal all-blue subtree to a single node.

    The rule, one tree edge at a time: contract the least all-blue edge
    into a node with the next fresh id, one above the largest id so
    far, and rename the F edges as the tree edges; an F edge that is
    contracted away is dropped.  The rule runs on an edge set and a
    node -> vertex mask dict, and one decomposition is built at the
    end; with no all-blue edge, ``td`` itself is returned.
    """
    colors = dict(coloring.color)
    f = coloring.f_edges
    edges = td.tree_edges
    masks = None
    while True:
        blue = [e for e in edges if colors[e[0]] == colors[e[1]] == "blue"]
        if not blue:
            break
        edge = s, t = min(blue)
        if masks is None:
            masks = dict(td.masks)
            fresh = max(masks)
        fresh += 1
        masks[fresh] = masks.pop(s) | masks.pop(t)
        del colors[s], colors[t]
        colors[fresh] = "blue"
        # fresh is above every id, so each renamed pair stays (min, max)
        edges = {
            (b, fresh) if a in edge else (a, fresh) if b in edge else (a, b)
            for a, b in edges
            if (a, b) != edge
        }
        f = {tuple(sorted(fresh if x in edge else x for x in e)) for e in f}
    if masks is not None:
        td = TreeDecomposition._of_masks(edges, masks)
    remaining_f = frozenset(e for e in f if e in td.tree_edges)
    return td, Coloring(colors, remaining_f, frozenset())


# -- the full run ------------------------------------------------------


def _model_home_nodes(g, m, td, budget):
    """The set of nodes t for which some K_m model has every branch set
    meeting the bag V_t: the homes of K_m models.

    Such a model exists iff some m vertices Z ⊆ V_t seed a Z-based K_m
    model.  Given the model, pick one V_t vertex in each branch set;
    given the Z-based model, each branch set holds its seed, which lies
    in V_t.  So t is a home iff one of the m-subsets of V_t, tried in
    lexicographic order, seeds a model; a bag of fewer than m vertices
    has none.  The models found are not kept.  ``refutes_clique_minor``
    on g refutes every node at once; for m ≤ 3 it is only a vertex and
    edge count, since its degree-2 contraction would turn a triangle
    into an edge.
    """
    if refutes_clique_minor(g, m):
        return set()
    return {
        t
        for t in sorted(td.nodes)
        if any(
            find_z_based_model(g, z, budget=budget) is not None
            for z in combinations(sorted(td.bags[t]), m)
        )
    }


def run_structure(g, params, budget=DEFAULT_BUDGET):
    """Run the whole argument on g.

    A k-block's home is the one node whose bag contains it: every tree
    edge induces a separation of order < k, and a block of at least k
    vertices lies on one side of each, so it lies in the bag of the
    sink of the edges directed toward it and in no other bag.  A K_m
    model's home is a node whose bag every branch set meets.  When a
    block and a model share a home, the run extracts a subdivision of
    K_r whose branch vertices are the block's r smallest vertices
    (see ``extract_subdivision`` for why it exists); otherwise it
    returns the colored, blue-contracted decomposition.  Every stage
    charges the one ``budget``.
    """
    budget = Budget.of(budget)
    report = []
    report.append("k=%d m=%d r=%d%s" % (
        params.k, params.m, params.r,
        " (generalized)" if params.generalized else "",
    ))
    seps = enumerate_separations(g, params.k, budget=budget)
    td = build_k_lean(g, params.k, budget=budget, seps=seps)
    report.append(
        "lean decomposition: %d nodes, adhesion %d, largest bag %d"
        % (
            len(td.nodes),
            td.adhesion(),
            max((len(b) for b in td.bags.values()), default=0),
        )
    )
    blocks = tuple(find_k_blocks(g, params.k, budget=budget, seps=seps))
    block_homes = {}
    for b in blocks:
        holders = [t for t in sorted(td.nodes) if b.vertices <= td.bags[t]]
        if len(holders) != 1:
            raise InvariantViolation("a k-block lies in %d bags" % len(holders))
        block_homes[holders[0]] = b
    report.append(
        "blocks: %d, home nodes %s" % (len(blocks), sorted(block_homes))
    )
    model_homes = _model_home_nodes(g, params.m, td, budget)
    report.append("model home nodes: %s" % sorted(model_homes))

    shared = sorted(set(block_homes) & model_homes)
    if shared:
        t = shared[0]
        b0 = tuple(sorted(block_homes[t].vertices)[: params.r])
        emb = extract_subdivision(g, b0, budget=budget)
        if emb is None:
            raise InvariantViolation(
                "no K_%d subdivision at the shared home %d" % (params.r, t)
            )
        report.append(
            "subdivision exit at node %d, branch vertices %s"
            % (t, list(emb.branch_vertices))
        )
        return StructureResult(
            params,
            subdivision=emb,
            lean=td,
            blocks=blocks,
            model_nodes=frozenset(model_homes),
            report=report,
        )

    f = select_f(g, td, set(block_homes), model_homes)
    for e in sorted(f):
        report.append(
            "F edge %d-%d order %d" % (e[0], e[1], td.edge_order(*e))
        )
    coloring = color_nodes(td, f, set(block_homes), model_homes)
    if coloring.defaulted:
        report.append(
            "defaulted to blue (no home node): %s"
            % sorted(coloring.defaulted)
        )
    report.append(
        "coloring: %s"
        % " ".join(
            "%d=%s" % (t, coloring.color[t]) for t in sorted(td.nodes)
        )
    )
    for e in sorted(td.tree_edges):
        sep = td.induced_separation(*e)
        report.append(
            "edge %d-%d tight=%s" % (e[0], e[1], is_tight(g, sep))
        )
    contracted, contracted_coloring = contract_blue(td, coloring)
    report.append(
        "contracted decomposition: %d nodes" % len(contracted.nodes)
    )
    return StructureResult(
        params,
        decomposition=contracted,
        coloring=contracted_coloring,
        lean=td,
        lean_coloring=coloring,
        blocks=blocks,
        model_nodes=frozenset(model_homes),
        report=report,
    )
