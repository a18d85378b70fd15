"""Named mutants of the package, each with the test that must kill it.

Each entry of ``MUTANTS`` gives a name, a file under ``src/topstruct``,
the text to replace, its replacement, and the pytest node id of the test
that must fail once the mutant is in.  The text must occur exactly once
in its file, so an entry that no longer matches the code fails instead
of passing unseen.

For each entry the script copies ``src/``, ``tests/``, ``perfbench/``
(the suite's ``conftest.py`` reads its corpora) and ``pyproject.toml``
to a temporary directory, applies the mutant there and runs only the
named test.  Before any mutant, every named test must pass on an
unmutated copy.  Nothing in the working tree is written.

    python tests/mutants.py

Exit status 0 when every mutant is killed (its test fails); 1 when one
survives, when an entry's text does not occur exactly once, or when a
named test does not pass unmutated or cannot be run.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")

GENERALIZED = "tests/test_verifier.py::test_verify_theorem_generalized_bounds_bite"
STANDARD = "tests/test_verifier.py::test_verify_theorem_standard_bounds_bite"

# (name, file, text, replacement, test that must fail)
MUTANTS = [
    (
        "generalized adhesion bound admits k",
        "verifier.py",
        "report.check(adhesion < k,",
        "report.check(adhesion <= k,",
        GENERALIZED,
    ),
    (
        "generalized red degree threshold 2k",
        "verifier.py",
        "deg_threshold = 2 * k * k",
        "deg_threshold = 2 * k",
        GENERALIZED,
    ),
    (
        "generalized red vertex bound k + 100",
        "verifier.py",
        "deg_bound = k",
        "deg_bound = k + 100",
        GENERALIZED,
    ),
    (
        "standard adhesion bound admits r^2",
        "verifier.py",
        'adhesion < r * r, "adhesion',
        'adhesion <= r * r, "adhesion',
        STANDARD,
    ),
    (
        "standard degree threshold 2r",
        "verifier.py",
        "deg_threshold = 2 * r ** 4",
        "deg_threshold = 2 * r",
        STANDARD,
    ),
    (
        "standard vertex bound r^2 + 100",
        "verifier.py",
        "deg_bound = r * r",
        "deg_bound = r * r + 100",
        STANDARD,
    ),
    (
        "color_nodes swaps the colours",
        "pipeline.py",
        'color = "blue" if has_block else "red"',
        'color = "red" if has_block else "blue"',
        "tests/test_pipeline.py::test_color_nodes_cases",
    ),
    (
        "contract_blue keeps F edges at contracted nodes",
        "pipeline.py",
        "fresh if x in edge else x",
        "x",
        "tests/test_pipeline.py::test_contract_blue",
    ),
    (
        "select_f keeps non-efficient edges",
        "pipeline.py",
        "return [e for e in edges if td.edge_order(*e) == low]",
        "return edges",
        "tests/test_acceptance.py::test_criterion_6_coloring_properties",
    ),
    (
        "select_f raises ValueError on a missing efficient edge",
        "pipeline.py",
        'raise InvariantViolation(\n                    "no efficient edge',
        'raise ValueError(\n                    "no efficient edge',
        "tests/test_pipeline.py::test_select_f_cases",
    ),
]


def copy_tree(dest):
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(
                src, dest / name, ignore=shutil.ignore_patterns("__pycache__")
            )
        else:
            shutil.copy2(src, dest / name)


def run_tests(tests, mutant=None):
    """pytest's exit status and output for ``tests`` on a fresh copy,
    with ``mutant`` (file, text, replacement) applied if given."""
    with tempfile.TemporaryDirectory(prefix="topstruct-mutant-") as tmp:
        tmp = Path(tmp)
        copy_tree(tmp)
        if mutant is not None:
            path = tmp / "src" / "topstruct" / mutant[0]
            source = path.read_text()
            path.write_text(source.replace(mutant[1], mutant[2]))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(tmp / "src"), env.get("PYTHONPATH")) if p
        )
        cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
        done = subprocess.run(
            cmd + list(tests),
            cwd=tmp,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        return done.returncode, done.stdout


def main():
    stale = False
    for name, file, text, _, _ in MUTANTS:
        count = (ROOT / "src" / "topstruct" / file).read_text().count(text)
        if count != 1:
            print("STALE     %s: text occurs %d times in %s" % (name, count, file))
            stale = True
    if stale:
        return 1

    tests = sorted({entry[4] for entry in MUTANTS})
    status, output = run_tests(tests)
    if status != 0:
        print(output)
        print("the named tests do not all pass unmutated (pytest exit %d)" % status)
        return 1

    killed = 0
    for name, file, text, replacement, test in MUTANTS:
        status, output = run_tests([test], (file, text, replacement))
        if status == 1:
            killed += 1
            verdict = "killed"
        elif status == 0:
            verdict = "SURVIVED"
        else:
            print(output)
            verdict = "ERROR"
        print("%-9s %s (%s)" % (verdict, name, test))
    print("%d of %d mutants killed" % (killed, len(MUTANTS)))
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
