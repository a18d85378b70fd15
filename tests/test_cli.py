import os

import pytest

from conftest import is_valid_model

from topstruct import cli
from topstruct.cli import main
from topstruct.decomposition import load_td, renumbered
from topstruct.errors import InvariantViolation
from topstruct.graph import (
    complete_graph,
    grid_graph,
    path_graph,
    petersen_graph,
    write_gr,
)
from topstruct.obstructions import Model


def _write(tmp_path, name, g):
    path = tmp_path / name
    path.write_text(write_gr(g))
    return str(path)


def test_decompose_and_verify_round_trip(tmp_path):
    gr = _write(tmp_path, "grid.gr", grid_graph(3, 3))
    assert main(["decompose", "--k", "3", "--m", "6", gr]) == 0
    td_path = gr[:-3] + ".td"
    assert os.path.exists(td_path)
    assert os.path.exists(gr[:-3] + ".report.txt")
    assert main(["verify", gr, td_path, "--k", "3", "--m", "6"]) == 0


def test_decompose_subdivision_variant(tmp_path, capsys):
    gr = _write(tmp_path, "k6.gr", complete_graph(6))
    assert main(["decompose", "--k", "3", "--m", "6", gr]) == 0
    out = capsys.readouterr().out
    assert "variant=subdivision" in out
    witness = (tmp_path / "k6.witness.txt").read_text()
    assert witness.startswith("bv ")


def test_parsed_td_matches_written(tmp_path):
    gr = _write(tmp_path, "p6.gr", path_graph(6))
    assert main(["decompose", "--k", "2", "--m", "4", gr]) == 0
    td, n, colors = load_td(str(tmp_path / "p6.td"))
    assert n == 6
    assert td.validate(path_graph(6))
    assert colors is not None and set(colors.values()) <= {"red", "blue"}
    # structural round trip: re-serializing parses back identically
    from topstruct.decomposition import parse_td, write_td

    text = write_td(td, n, colors)
    td2, n2, colors2 = parse_td(text)
    assert (renumbered(td), n, colors) == (renumbered(td2), n2, colors2)


def test_determinism(tmp_path):
    g = grid_graph(3, 3)
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    gr = _write(tmp_path, "g.gr", g)
    assert main(["decompose", "--k", "3", "--m", "6", gr, "--output", str(out1)]) == 0
    assert main(["decompose", "--k", "3", "--m", "6", gr, "--output", str(out2)]) == 0
    assert (
        (tmp_path / "a.td").read_bytes() == (tmp_path / "b.td").read_bytes()
    )
    assert (
        (tmp_path / "a.report.txt").read_bytes()
        == (tmp_path / "b.report.txt").read_bytes()
    )


def test_dot_output(tmp_path):
    from topstruct.graph import Graph

    # K4 with every edge subdivided: K4 model present, but no 4-block,
    # so the nodes stay red and the tree keeps its edges
    sub_k4 = Graph.from_edges(
        10,
        [(1, 5), (5, 2), (1, 6), (6, 3), (1, 7), (7, 4),
         (2, 8), (8, 3), (2, 9), (9, 4), (3, 10), (10, 4)],
    )
    gr = _write(tmp_path, "subk4.gr", sub_k4)
    assert main(["decompose", "--k", "4", "--m", "4", "--format", "dot", gr]) == 0
    dot = (tmp_path / "subk4.dot").read_text()
    assert dot.startswith("graph decomposition {")
    assert "--" in dot
    assert "lightcoral" in dot


def test_find_commands(tmp_path, capsys):
    k5 = _write(tmp_path, "k5.gr", complete_graph(5))
    pet = _write(tmp_path, "pet.gr", petersen_graph())
    assert main(["find", "--kind", "block", "--k", "4", k5]) == 0
    assert "block 1: 1 2 3 4 5" in capsys.readouterr().out
    assert main(["find", "--kind", "minor", "--m", "6", pet]) == 0
    assert capsys.readouterr().out.strip() == "none"
    for path, g, m in [(pet, petersen_graph(), 5),
                       (_write(tmp_path, "k7.gr", complete_graph(7)),
                        complete_graph(7), 6)]:
        assert main(["find", "--kind", "minor", "--m", str(m), path]) == 0
        model = _parse_model(capsys.readouterr().out, m)
        assert is_valid_model(g, model, m)
    assert main(["find", "--kind", "subdivision", "--r", "4", k5]) == 0
    assert "bv " in capsys.readouterr().out
    assert main(["find", "--kind", "zmodel", "--z", "1,2,3", k5]) == 0
    assert "x 1: 1" in capsys.readouterr().out


def _parse_model(text, m):
    """The branch sets printed by ``find --kind minor``."""
    lines = [line for line in text.splitlines() if line.startswith("x ")]
    sets = []
    for i, line in enumerate(lines, start=1):
        label, _, verts = line.partition(":")
        assert label == "x %d" % i
        sets.append(frozenset(int(v) for v in verts.split()))
    return Model(tuple(sets), m)


def test_exit_codes(tmp_path, capsys):
    # usage: malformed header -> 64
    bad = tmp_path / "bad.gr"
    bad.write_text("p tw nope\n")
    assert main(["decompose", "--r", "4", str(bad)]) == 64
    # usage: missing parameters -> 64
    gr = _write(tmp_path, "p4.gr", path_graph(4))
    assert main(["decompose", gr]) == 64
    assert main(["decompose", "--r", "4", "--k", "2", gr]) == 64
    # violation: corrupted td -> 1
    assert main(["decompose", "--k", "2", "--m", "4", gr]) == 0
    td_path = str(tmp_path / "p4.td")
    text = open(td_path).read()
    corrupted = text.replace("b 1 1 2", "b 1 1").replace("s td", "s td", 1)
    open(td_path, "w").write(corrupted)
    code = main(["verify", gr, td_path, "--k", "2", "--m", "4"])
    assert code == 1
    # budget exhaustion -> 2
    pet = _write(tmp_path, "pet.gr", petersen_graph())
    assert main(["find", "--kind", "minor", "--m", "5", pet, "--budget", "2"]) == 2
    # n mismatch between files -> 64
    other = _write(tmp_path, "p5.gr", path_graph(5))
    assert main(["verify", other, td_path, "--k", "2", "--m", "4"]) == 64


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    # an internal error is neither a violation (1) nor a usage error (64)
    def broken(*args, **kwargs):
        raise InvariantViolation("home node vanished")

    monkeypatch.setattr(cli, "run_structure", broken)
    gr = _write(tmp_path, "p4.gr", path_graph(4))
    assert main(["decompose", "--k", "2", "--m", "4", gr]) == 70
    err = capsys.readouterr().err
    assert "internal error: InvariantViolation: home node vanished" in err


def test_unexpected_exception_exit_code(tmp_path, capsys, monkeypatch):
    # any uncaught exception inside a command is an internal error too
    def broken(*args, **kwargs):
        raise KeyError(7)

    monkeypatch.setattr(cli, "run_structure", broken)
    gr = _write(tmp_path, "p4.gr", path_graph(4))
    assert main(["decompose", "--k", "2", "--m", "4", gr]) == 70
    err = capsys.readouterr().err
    assert "internal error: KeyError: 7" in err
