"""The structure pipeline: lean decomposition, obstruction homes,
distinguishing edges, coloring, contraction — or a subdivision exit.

Given parameters (r, or a generalized (k, m) pair), the run either
extracts a clique subdivision (when some block and some clique model
orient all small separations the same way) or emits a colored
tree-decomposition whose red torsos have few high-degree vertices and
whose blue torsos have no large clique minor.
"""

from dataclasses import dataclass, field

from .decomposition import TreeDecomposition
from .errors import (
    BichromaticComponent,
    CoverageImpossible,
    Indistinguishable,
    UncoloredComponent,
)
from .lean import build_k_lean
from .obstructions import (
    DEFAULT_BUDGET,
    block_orientation,
    branch_count_fits,
    extract_subdivision,
    find_clique_model,
    find_k_blocks,
    find_z_based_model,
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


# -- orientation comparison --------------------------------------------


def distinguishing_order(g, o1, o2, budget=2_000_000):
    """Minimum order of a separation the two orientations direct apart."""
    if o1.k != o2.k:
        raise ValueError("orientations live on different S_k")
    best = None
    for s in enumerate_separations(g, o1.k, budget=budget):
        if o1.w_side(s) != o2.w_side(s):
            if best is None or s.order < best:
                best = s.order
    if best is None:
        raise Indistinguishable("orientations agree on all of S_k")
    return best


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
                raise CoverageImpossible(
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


def color_nodes(td, f, block_homes, model_homes, default_blue=False):
    """Color each component of T − F by the home-node kind it contains.

    Components holding both kinds, or neither (without the blue
    default), indicate an upstream invariant failure and raise.
    """
    f = {tuple(sorted(e)) for e in f}
    comp_of = {}
    for start in sorted(td.nodes):
        if start in comp_of:
            continue
        comp = [start]
        comp_of[start] = comp
        stack = [start]
        while stack:
            u = stack.pop()
            for w in td.neighbors(u):
                e = (min(u, w), max(u, w))
                if e in f or w in comp_of:
                    continue
                comp_of[w] = comp
                comp.append(w)
                stack.append(w)
    colors = {}
    defaulted = set()
    seen = set()
    for start in sorted(td.nodes):
        comp = comp_of[start]
        if id(comp) in seen:
            continue
        seen.add(id(comp))
        has_block = any(t in block_homes for t in comp)
        has_model = any(t in model_homes for t in comp)
        if has_block and has_model:
            raise BichromaticComponent(
                "component %r holds both home-node kinds" % sorted(comp)
            )
        if not has_block and not has_model:
            if not default_blue:
                raise UncoloredComponent(
                    "component %r holds no home node" % sorted(comp)
                )
            defaulted.update(comp)
            color = "blue"
        else:
            color = "blue" if has_block else "red"
        for t in comp:
            colors[t] = color
    return Coloring(colors, frozenset(f), frozenset(defaulted))


def contract_blue(td, coloring):
    """Contract every maximal all-blue subtree to a single node."""
    colors = dict(coloring.color)
    while True:
        edge = None
        for e in sorted(td.tree_edges):
            if colors[e[0]] == "blue" and colors[e[1]] == "blue":
                edge = e
                break
        if edge is None:
            break
        s, t = edge
        td = td.contract_tree_edge(s, t)
        fresh = max(td.nodes)
        del colors[s]
        del colors[t]
        colors[fresh] = "blue"
    remaining_f = frozenset(
        e for e in coloring.f_edges if e in td.tree_edges
    )
    return td, Coloring(colors, remaining_f, frozenset())


def check_join_lemma(g, td, s, t, budget=DEFAULT_BUDGET):
    """True iff the far side of the edge s→t has a model based on the
    adhesion set: G[W_t] must contain a (V_s ∩ V_t)-based clique model."""
    sep = td.induced_separation(s, t)
    w_t = sep.side_b  # the t-side
    z = td.bags[s] & td.bags[t]
    sub, labels = g.induced(sorted(w_t))
    back = {old: i + 1 for i, old in enumerate(labels)}
    model = find_z_based_model(sub, [back[v] for v in sorted(z)], budget=budget)
    return model is not None


# -- the full run ------------------------------------------------------


def _model_home_nodes(g, m, td, budget):
    """Nodes that are the home of some K_m model's orientation.

    A node t qualifies exactly when some model has every branch set
    meeting the bag of t, which the constrained search decides directly.
    Two exact prunes skip searches that cannot succeed: a minor has no
    more vertices or edges than g, and m disjoint branch sets cannot all
    meet a bag of fewer than m vertices.
    """
    homes = {}
    if g.n < m or len(g.edges) < m * (m - 1) // 2:
        return homes
    for t in sorted(td.nodes):
        if len(td.bags[t]) < m:
            continue
        model = find_clique_model(g, m, budget=budget, require_meet=td.bags[t])
        if model is not None:
            homes[t] = model
    return homes


def run_structure(g, params, budget=DEFAULT_BUDGET, default_blue=True):
    """Run the whole argument on g.

    Either a subdivision of K_r with branch vertices inside some block
    (when a block and a model share a home node on the lean
    decomposition), or the colored, blue-contracted decomposition.
    """
    report = []
    report.append("k=%d m=%d r=%d%s" % (
        params.k, params.m, params.r,
        " (generalized)" if params.generalized else "",
    ))
    seps = enumerate_separations(g, params.k, budget=budget)
    td = build_k_lean(g, params.k, seps=seps)
    report.append(
        "lean decomposition: %d nodes, adhesion %d, largest bag %d"
        % (
            len(td.nodes),
            td.adhesion(),
            max((len(b) for b in td.bags.values()), default=0),
        )
    )
    blocks = tuple(find_k_blocks(g, params.k, budget=budget))
    block_homes = {}
    for b in blocks:
        home = td.home_node(block_orientation(g, params.k, b))
        block_homes[home] = b
    report.append(
        "blocks: %d, home nodes %s" % (len(blocks), sorted(block_homes))
    )
    model_homes = _model_home_nodes(g, params.m, td, budget)
    report.append("model home nodes: %s" % sorted(model_homes))

    shared = sorted(set(block_homes) & set(model_homes))
    if shared:
        t = shared[0]
        block = block_homes[t]
        model = model_homes[t]
        b0 = tuple(sorted(block.vertices)[: params.r])
        emb = extract_subdivision(
            g, params.k, params.m, block, model, b0, budget=budget, seps=seps
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

    f = select_f(g, td, set(block_homes), set(model_homes))
    for e in sorted(f):
        report.append(
            "F edge %d-%d order %d" % (e[0], e[1], td.edge_order(*e))
        )
    coloring = color_nodes(
        td, f, set(block_homes), set(model_homes), default_blue=default_blue
    )
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
