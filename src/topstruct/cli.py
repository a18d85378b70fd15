"""Command-line driver: decompose, verify, find.

Exit codes: 0 pass, 1 violation, 2 budget exhausted, 64 usage or
parse errors, 70 internal error (any other exception).
"""

import argparse
import functools
import sys

from .decomposition import load_td, renumbered, write_td
from .errors import DEFAULT_BUDGET, BudgetExceeded, FormatError
from .graph import load_gr
from .obstructions import (
    find_clique_model,
    find_k_blocks,
    find_subdivision,
    find_z_based_model,
    serialize_model,
    serialize_subdivision,
)
from .pipeline import Coloring, Parameters, StructureResult, run_structure
from .verifier import verify_theorem

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_BUDGET = 2
EXIT_USAGE = 64
EXIT_SOFTWARE = 70


def _params_from_args(args):
    if args.r is not None:
        if args.k is not None or args.m is not None:
            raise ValueError("--r is mutually exclusive with --k/--m")
        return Parameters.from_r(args.r)
    if args.k is None or args.m is None:
        raise ValueError("need --r, or both --k and --m")
    return Parameters.generalized_km(args.k, args.m)


def write_dot(td, coloring=None):
    """DOT rendering: filled red/blue nodes, edges labeled by separator
    size.  Like ``write_td``, nodes are renumbered 1..N and ``coloring``
    maps each node to "red" or "blue"."""
    td, colors = renumbered(td, coloring or {})
    fills = {"red": "lightcoral", "blue": "lightblue"}
    lines = ["graph decomposition {", "  node [style=filled];"]
    for t in sorted(td.nodes):
        bag = " ".join(str(v) for v in sorted(td.bags[t]))
        fill = fills.get(colors.get(t), "white")
        lines.append(
            '  n%d [label="%d: %s", fillcolor=%s];' % (t, t, bag, fill)
        )
    for s, t in sorted(td.tree_edges):
        lines.append(
            '  n%d -- n%d [label="%d"];' % (s, t, td.edge_order(s, t))
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


def _base_path(path):
    return path[:-3] if path.endswith(".gr") else path


def cmd_decompose(args):
    g = load_gr(args.input)
    params = _params_from_args(args)
    base = args.output if args.output else _base_path(args.input)
    try:
        result = run_structure(g, params, budget=args.budget)
    except BudgetExceeded as exc:
        with open(base + ".report.txt", "w") as fh:
            fh.write("budget exhausted: %s\n" % exc)
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    report_lines = list(result.report)
    if result.variant == "subdivision":
        with open(base + ".witness.txt", "w") as fh:
            fh.write(serialize_subdivision(result.subdivision))
        report_lines.append("witness: %s.witness.txt" % base)
    else:
        colors = result.coloring.color if result.coloring else {}
        if args.format == "dot":
            with open(base + ".dot", "w") as fh:
                fh.write(write_dot(result.decomposition, colors))
        else:
            with open(base + ".td", "w") as fh:
                fh.write(write_td(result.decomposition, g.n, colors))
    with open(base + ".report.txt", "w") as fh:
        fh.write("\n".join(report_lines) + "\n")
    print("variant=%s" % result.variant)
    return EXIT_OK


def cmd_verify(args):
    g = load_gr(args.graph)
    td, n, colors = load_td(args.td)
    if n != g.n:
        raise FormatError(
            "graph has %d vertices but decomposition claims %d" % (g.n, n)
        )
    params = _params_from_args(args)
    coloring = Coloring(colors or {}, frozenset())
    result = StructureResult(
        params, decomposition=td, coloring=coloring
    )
    report = verify_theorem(g, params, result, budget=args.budget)
    sys.stdout.write(report.render())
    return report.exit_code


def cmd_find(args):
    g = load_gr(args.input)
    base = args.output if args.output else _base_path(args.input)
    kind = args.kind
    if kind == "block":
        if args.k is None:
            raise ValueError("--kind block needs --k")
        blocks = find_k_blocks(g, args.k, budget=args.budget)
        text = "".join(
            "block %d: %s\n"
            % (i, " ".join(str(v) for v in sorted(b.vertices)))
            for i, b in enumerate(blocks, start=1)
        ) or None
    elif kind == "minor":
        if args.m is None:
            raise ValueError("--kind minor needs --m")
        model = find_clique_model(g, args.m, budget=args.budget)
        text = None if model is None else serialize_model(model)
    elif kind == "subdivision":
        if args.r is None:
            raise ValueError("--kind subdivision needs --r")
        emb = find_subdivision(g, args.r, budget=args.budget)
        text = None if emb is None else serialize_subdivision(emb)
    elif kind == "zmodel":
        z = [int(tok) for tok in (args.z or "").replace(",", " ").split()]
        if not z:
            raise ValueError("--kind zmodel needs --z")
        model = find_z_based_model(g, z, budget=args.budget)
        text = None if model is None else serialize_model(model)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError("unknown kind %r" % kind)
    if text is None:
        print("none")
        return EXIT_OK
    path = base + ".witness.txt"
    with open(path, "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    print("witness: %s" % path)
    return EXIT_OK


def _add_param_flags(sub):
    sub.add_argument("--r", type=int, help="clique size; sets k=r(r-1), m=2k")
    sub.add_argument("--k", type=int, help="block order (generalized mode)")
    sub.add_argument("--m", type=int, help="model size (generalized mode)")
    sub.add_argument(
        "--budget", type=int, default=DEFAULT_BUDGET,
        help="work units shared by every search of the run",
    )


@functools.cache
def build_parser():
    """The ``topstruct`` parser, built once: building costs ten parses."""
    parser = argparse.ArgumentParser(
        prog="topstruct",
        description="Tree-decompositions vs. clique subdivisions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("decompose", help="run the structure pipeline")
    p.add_argument("input", help=".gr graph file")
    p.add_argument("--format", choices=("td", "dot"), default="td")
    p.add_argument("--output", help="output path prefix")
    _add_param_flags(p)
    p.set_defaults(func=cmd_decompose)

    p = subs.add_parser("verify", help="verify a decomposition")
    p.add_argument("graph", help=".gr graph file")
    p.add_argument("td", help=".td decomposition file")
    _add_param_flags(p)
    p.set_defaults(func=cmd_verify)

    p = subs.add_parser("find", help="search for one obstruction")
    p.add_argument("input", help=".gr graph file")
    p.add_argument(
        "--kind", choices=("block", "minor", "subdivision", "zmodel"),
        required=True,
    )
    p.add_argument("--z", help="comma-separated vertices for zmodel")
    p.add_argument("--output", help="output path prefix")
    _add_param_flags(p)
    p.set_defaults(func=cmd_find)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code == 0 else EXIT_USAGE
    try:
        return args.func(args)
    except (FormatError, ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceeded as exc:
        print("budget exhausted: %s" % exc, file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # a bug: neither a violation nor bad input
        print(
            "internal error: %s: %s" % (type(exc).__name__, exc),
            file=sys.stderr,
        )
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
