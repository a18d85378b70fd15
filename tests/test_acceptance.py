"""Acceptance gate: one test per criterion, one summary line each.

Each test exercises its criterion on the shared random corpus (seeded,
so runs are reproducible) plus the named fixture graphs, and records a
single pass/fail line that pytest prints in the terminal summary.
"""

import itertools
import random

from conftest import (
    BlockOrientation,
    ModelOrientation,
    blocks_by_definition,
    build_k_atomic_exact,
    check_join_lemma,
    contract_tree_edge,
    distinguishing_order,
    find_meeting_model,
    home_node,
    is_separation,
    record_acceptance,
    small_corpus,
    torso_at_subtree,
)

from topstruct.cli import main
from topstruct.decomposition import load_td, parse_td, renumbered, write_td
from topstruct.graph import (
    complete_graph,
    grid_graph,
    petersen_graph,
    random_graph,
    write_gr,
)
from topstruct.lean import build_k_lean
from topstruct.obstructions import (
    extract_subdivision,
    find_clique_model,
    find_k_blocks,
)
from topstruct.pipeline import Parameters, run_structure
from topstruct.verifier import (
    minor_oracle,
    verify_decomposition,
    verify_subdivision,
    verify_theorem,
)

CORPUS = small_corpus(101, 500, 12, probs=(0.2, 0.4, 0.7))


def _finish(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    record_acceptance(f"criterion {num} ({name}): {status}")
    assert not failures, failures[:5]


def test_criterion_1_axiom_suite():
    failures = []
    for i, g in enumerate(CORPUS):
        k = 2 + i % 3
        td = build_k_lean(g, k)
        if not verify_decomposition(g, td):
            failures.append((i, "validate"))
            continue
        for s, t in sorted(td.tree_edges):
            sep = td.induced_separation(s, t)
            if not is_separation(g, sep.side_a, sep.side_b):
                failures.append((i, (s, t), "not a separation"))
            if sep.separator != td.bags[s] & td.bags[t]:
                failures.append((i, (s, t), "separator != bag intersection"))
    _finish(1, "decomposition axioms, 500 graphs", failures)


def test_criterion_2_leanness():
    failures = []
    for i, g in enumerate(CORPUS):
        if g.n > 10:
            continue
        for k in (2, 3, 4):
            lean = build_k_lean(g, k)
            if lean.check_k_lean(g, k) is not None:
                failures.append((i, k, "not k-lean"))
            if g.n > 7:
                continue
            exact = build_k_atomic_exact(g, k)
            if exact.check_k_lean(g, k) is not None:
                failures.append((i, k, "exact output not k-lean"))
            if exact.fatness(g.n) > lean.fatness(g.n):
                failures.append((i, k, "exact fatter than iterative"))
    _finish(2, "k-lean builder and exact minimum", failures)


def test_criterion_3_block_oracle():
    failures = []
    for i, g in enumerate(CORPUS):
        if g.n > 8:
            continue
        for k in (2, 3):
            found = [frozenset(b.vertices) for b in find_k_blocks(g, k)]
            expected = blocks_by_definition(g, k)
            if sorted(found, key=lambda b: tuple(sorted(b))) != expected:
                failures.append((i, k))
    _finish(3, "k-blocks match definition", failures)


def test_criterion_4_minor_cross_check():
    failures = []
    for i, g in enumerate(CORPUS):
        if g.n > 9:
            continue
        m = i % 5 + 1
        if (find_clique_model(g, m) is not None) != minor_oracle(g, m):
            failures.append((i, m))
    pins = [
        (petersen_graph(), 5, True),
        (petersen_graph(), 6, False),
        (grid_graph(4, 4), 5, False),
    ]
    for g, m, want in pins:
        if minor_oracle(g, m) is not want:
            failures.append(("pin", m, want))
        if (find_clique_model(g, m) is not None) is not want:
            failures.append(("pin model", m, want))
    _finish(4, "minor oracle cross-check and pins", failures)


def test_criterion_5_efficient_distinction():
    failures = []
    pairs = 0
    for g in small_corpus(105, 120, 11):
        for k in (2, 3):
            m = 2 * k
            td = build_k_lean(g, k)
            block_homes = []
            for b in find_k_blocks(g, k):
                o = BlockOrientation(k, frozenset(b.vertices))
                block_homes.append((home_node(td, o), o))
            model_homes = []
            for t in sorted(td.nodes):
                x = find_meeting_model(g, m, td.bags[t])
                if x is not None:
                    model_homes.append((t, ModelOrientation(k, x)))
            for (tb, ob), (tx, ox) in itertools.product(
                block_homes, model_homes
            ):
                if tb == tx:
                    continue
                pairs += 1
                want = distinguishing_order(g, ob, ox)
                if want is None:
                    failures.append((g.n, k, tb, tx, "indistinguishable"))
                    continue
                if td.min_order_on_path(tb, tx) != want:
                    failures.append((g.n, k, tb, tx))
    if pairs == 0:
        failures.append("no block/model pairs exercised")
    _finish(5, "path order equals distinguishing order", failures)


def test_criterion_6_coloring_properties(octahedron_petersen_runs):
    # the corpus at (3, 6) yields no F edge; the octahedron + Petersen
    # seeds at (4, 5) reach both colours, so the join lemma is checked
    failures = []
    runs = f_checked = joins_checked = blue_checked = 0
    corpus_params = Parameters.generalized_km(3, 6)
    inputs = [
        (
            corpus_params,
            (
                (g, run_structure(g, corpus_params))
                for g in small_corpus(106, 80, 11)
            ),
        ),
        (Parameters.generalized_km(4, 5), octahedron_petersen_runs),
    ]
    for p, results in inputs:
        for i, (g, res) in enumerate(results):
            if res.variant != "decomposition":
                continue
            runs += 1
            td, lc = res.lean, res.lean_coloring
            colors = set(lc.color.values())
            if set(lc.color) != set(td.nodes) or not colors <= {"red", "blue"}:
                failures.append((p.m, i, "coloring not total"))
                continue
            f_checked += len(lc.f_edges)
            for a, b in sorted(lc.f_edges):
                for s, t in ((a, b), (b, a)):
                    if lc.color[s] == "blue" and lc.color[t] == "red":
                        joins_checked += 1
                        if not check_join_lemma(g, td, s, t):
                            failures.append((p.m, i, (s, t), "join lemma"))
            blue = {t for t, c in lc.color.items() if c == "blue"}
            seen = set()
            for start in sorted(blue):
                if start in seen:
                    continue
                comp = {start}
                stack = [start]
                while stack:
                    u = stack.pop()
                    for v in td.neighbors(u):
                        if v in blue and v not in comp:
                            comp.add(v)
                            stack.append(v)
                seen |= comp
                blue_checked += 1
                torso = torso_at_subtree(g, td, comp)
                if minor_oracle(torso, p.m):
                    failures.append(
                        (p.m, i, sorted(comp), "blue torso has minor")
                    )
    if runs <= 5:
        failures.append("too few decomposition runs")
    # floors from a reading: 21 F edges, 20 blue-to-red join checks and
    # 94 blue components (20 of them at (4, 5))
    if f_checked < 21 or joins_checked < 20 or blue_checked < 94:
        failures.append(("too few checks", f_checked, joins_checked, blue_checked))
    _finish(6, "coloring total, join lemma, blue torsos minor-free", failures)


def test_criterion_7_end_to_end():
    failures = []
    p = Parameters.generalized_km(3, 6)
    rng = random.Random(107)
    for i in range(200):
        n = rng.randint(1, 11)
        g = random_graph(n, rng.choice([0.2, 0.4, 0.7]), rng)
        res = run_structure(g, p)
        if res.variant == "subdivision":
            if not verify_subdivision(g, p.r, res.subdivision):
                failures.append((i, "bad subdivision"))
        else:
            rep = verify_theorem(g, p, res)
            if not rep.passed:
                failures.append((i, rep.failures))
    # prescribed branch vertices on a constructed instance
    k6 = complete_graph(6)
    emb = extract_subdivision(k6, (2, 4))
    if emb.branch_vertices != (2, 4) or not verify_subdivision(k6, 2, emb):
        failures.append("prescribed branch vertices")
    _finish(7, "end-to-end structure runs verified", failures)


def test_criterion_8_contraction_invariance():
    failures = []
    rng = random.Random(108)
    done = 0
    while done < 100:
        n = rng.randint(2, 9)
        g = random_graph(n, rng.choice([0.3, 0.6]), rng)
        td = build_k_lean(g, rng.randint(2, 3))
        if not td.tree_edges:
            continue
        done += 1
        e = sorted(td.tree_edges)[rng.randrange(len(td.tree_edges))]
        out = contract_tree_edge(td, *e)
        fresh = max(out.nodes)
        for other in sorted(td.tree_edges):
            if other == e:
                continue
            a, b = other
            a2 = fresh if a in e else a
            b2 = fresh if b in e else b
            old = td.induced_separation(a, b)
            new = out.induced_separation(min(a2, b2), max(a2, b2))
            if {old.side_a, old.side_b} != {new.side_a, new.side_b}:
                failures.append((done, other, "separation changed"))
        for node in sorted(td.nodes):
            if node in e:
                continue
            if torso_at_subtree(g, td, {node}) != torso_at_subtree(g, out, {node}):
                failures.append((done, node, "torso changed"))
    _finish(8, "contraction leaves the rest alone", failures)


def test_criterion_9_cli(tmp_path):
    failures = []
    for i, g in enumerate(CORPUS):
        gr = tmp_path / f"g{i}.gr"
        gr.write_text(write_gr(g))
        args = ["decompose", "--k", "3", "--m", "6", str(gr)]
        if main(args + ["--output", str(tmp_path / "a")]) != 0:
            failures.append((i, "decompose exit"))
            continue
        main(args + ["--output", str(tmp_path / "b")])
        first = (tmp_path / "a.td").read_bytes() if (
            tmp_path / "a.td"
        ).exists() else (tmp_path / "a.witness.txt").read_bytes()
        second = (tmp_path / "b.td").read_bytes() if (
            tmp_path / "b.td"
        ).exists() else (tmp_path / "b.witness.txt").read_bytes()
        if first != second:
            failures.append((i, "not deterministic"))
        if (tmp_path / "a.td").exists():
            td, n, colors = load_td(str(tmp_path / "a.td"))
            if n != g.n or not verify_decomposition(g, td):
                failures.append((i, "round trip invalid"))
            td2, n2, colors2 = parse_td(write_td(td, n, colors))
            if (renumbered(td), n, colors) != (renumbered(td2), n2, colors2):
                failures.append((i, "reserialization differs"))
        for leftover in ("a", "b"):
            for ext in (".td", ".witness.txt", ".report.txt"):
                p = tmp_path / (leftover + ext)
                if p.exists():
                    p.unlink()
    # fixture scenario 1: success round trip exits 0
    gr = tmp_path / "grid.gr"
    gr.write_text(write_gr(grid_graph(3, 3)))
    if main(["decompose", "--k", "3", "--m", "6", str(gr)]) != 0:
        failures.append("scenario 1 decompose")
    if main(["verify", str(gr), str(tmp_path / "grid.td"), "--k", "3", "--m", "6"]) != 0:
        failures.append("scenario 1 verify")
    # fixture scenario 2: corrupted decomposition exits 1
    td_path = tmp_path / "grid.td"
    lines = td_path.read_text().splitlines()
    bag = next(i for i, ln in enumerate(lines) if ln.startswith("b "))
    parts = lines[bag].split()
    lines[bag] = " ".join(parts[:-1]) if len(parts) > 3 else lines[bag]
    td_path.write_text("\n".join(lines) + "\n")
    if main(["verify", str(gr), str(td_path), "--k", "3", "--m", "6"]) != 1:
        failures.append("scenario 2 corruption")
    # fixture scenario 3: budget exhaustion exits 2, usage errors exit 64
    pet = tmp_path / "pet.gr"
    pet.write_text(write_gr(petersen_graph()))
    if main(["find", "--kind", "minor", "--m", "5", str(pet), "--budget", "2"]) != 2:
        failures.append("scenario 3 budget")
    bad = tmp_path / "bad.gr"
    bad.write_text("p tw nope\n")
    if main(["decompose", "--r", "4", str(bad)]) != 64:
        failures.append("scenario 3 usage")
    _finish(9, "CLI round trip, determinism, exit codes", failures)
