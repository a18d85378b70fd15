"""End-to-end benchmark: decompose seeded graphs and verify every answer.

Run from the repository root:

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 35 --trace 0

``--workload`` is one of corpus, lean, verify (see README.md).  The run
sets up (imports topstruct from ./src, draws the seeded graphs and, for
verify, decomposes them and writes the .gr and .td files) several times,
then
makes whole passes over the graphs while the next pass would still end
within ``--seconds`` (at least one pass).  Every output is verified; any
exception, budget exhaustion or failed verification is counted as a
failure, and the run then exits 1.  ``--trace 1`` adds one traced pass
after the untraced ones and reports per-layer metrics instead of
end-to-end ones.

Times are scaled to a machine of fixed speed: between graphs the run
times a fixed reference loop that does not use topstruct, and every
time is multiplied by REF_NOMINAL_S over the reference's median time in
the same pass or set-up.  A shared machine that runs slow for a while
slows both alike, so the scaled times hold still; a change to topstruct
moves only the graphs' times.  The raw figures are printed as well.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, make_graphs  # noqa: E402

WORK = ROOT / ".perfbench"
# Set up at least SETUP_REPEATS times and for at least SETUP_MIN_S
# seconds, and report the median.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
# The reference loop's time at unit speed (a little under its median
# on a two-vCPU Intel Xeon VM with Python 3.11.7), and how often it runs
# between graphs.
REF_NOMINAL_S = 0.005
REF_EVERY_S = 0.05
REF_AT_SETUP = 5
SEGMENT_S = 1.0
# The end-to-end metrics of BENCHMARK.json, which go into the JSON line.
# The other three are printed only: fail_ratio is 0 on a correct program
# (the JSON line carries failed/attempted), and verify_s and
# graph_tail_ms rest on a few costly graphs (see README.md).
GATED = ("graphs_per_s", "graph_p50_ms", "decompose_s", "peak_rss_mb",
         "setup_s")

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _ordered(a, b):
    return (a, b) if a < b else (b, a)


def reference_loop():
    """A fixed piece of pure-Python work that calls no topstruct code,
    about 5 ms: dict counting, tuples in a set with a sort, and bitset
    reachability, the kinds of work topstruct's searches do."""
    table = {}
    acc = 0
    for i in range(3000):
        key = (i * 2654435761) & 0xFFFF
        table[key] = table.get(key, 0) + 1
        acc ^= (key << 3) | (i & 7)
        if acc & 1:
            acc += len(table)
    seen, rows = set(), []
    for i in range(1500):
        pair = _ordered(i * 7919 % 1009, i % 31)
        if pair not in seen:
            seen.add(pair)
            rows.append([pair[0], pair[1], i])
    rows.sort(key=lambda row: (row[1], row[0]))
    adj = [((i * 40503) & 0xFFF) | (1 << i) for i in range(12)]
    for start in range(400):
        reached, frontier = 0, adj[start % 12]
        while frontier:
            low = frontier & -frontier
            reached |= low
            frontier |= adj[(low.bit_length() - 1) % 12]
            frontier &= ~reached
        acc += bin(reached).count("1")
    return acc + len(rows)


class Speed:
    """Samples the machine's speed with the reference loop between
    pieces of work, and turns the samples into a scale for their times."""

    def __init__(self):
        self.samples = []
        self.all = []  # every sample of the run, for the report
        self.spent = 0.0  # seconds in the reference loop
        self.last = -REF_EVERY_S

    def tick(self, force=False):
        """Time the reference loop if REF_EVERY_S has passed since the
        last time, or if ``force``."""
        if force or clock() - self.last >= REF_EVERY_S:
            start = clock()
            reference_loop()
            self.last = clock()
            self.samples.append(self.last - start)
            self.spent += self.last - start

    def take(self):
        """The scale for times measured since the last take: nominal over
        the median reference time since then."""
        self.all += self.samples
        scale = REF_NOMINAL_S / statistics.median(self.samples)
        self.samples = []
        return scale


def set_up(workload, seed, speed):
    """Import topstruct afresh from this checkout's sources, draw the
    workload's graphs and, for verify, decompose them and write their
    files.  Returns (scaled seconds, cases, runner, scaled seconds in
    run_structure per case or None)."""
    src = ROOT / "src"
    if not (src / "topstruct" / "__init__.py").is_file():
        raise SystemExit("perfbench: no topstruct sources under %s" % src)
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [m for m in sys.modules if m.split(".")[0] == "topstruct"]:
        del sys.modules[name]
    gc.collect()  # the previous set-up's modules, outside the timing
    for _ in range(REF_AT_SETUP):
        speed.tick(force=True)
    start, ref_start = clock(), speed.spent
    import topstruct.cli
    from topstruct.graph import Graph

    graphs = make_graphs(workload, seed, Graph)
    cases = [Case(i, g) for i, g in enumerate(graphs)]
    runner = Runner(workload)
    decompose = None
    if workload.cli:
        decompose = write_files(
            runner, cases, WORK / ("%s-seed%d" % (workload.name, seed)),
            speed)
    seconds = clock() - start - (speed.spent - ref_start)
    scale = speed.take()
    if decompose is not None:
        decompose = [d * scale for d in decompose]
    return seconds * scale, cases, runner, decompose


# -- one graph ---------------------------------------------------------


class Case:
    """One input graph and, after set-up, its files (verify workload)."""

    def __init__(self, index, graph):
        self.index = index
        self.graph = graph
        self.gr = self.td = None


class Runner:
    """Runs one workload's cases; every library call goes through the
    module attribute, so a tracer's wrappers are seen."""

    def __init__(self, workload):
        import topstruct

        self.ts = topstruct
        self.workload = workload
        self.params = topstruct.pipeline.Parameters.generalized_km(
            workload.k, workload.m
        )

    def decompose(self, case):
        """(seconds in run_structure, result); exceptions propagate."""
        start = clock()
        result = self.ts.pipeline.run_structure(case.graph, self.params)
        return clock() - start, result

    def output_bytes(self, case, result):
        """The bytes ``topstruct decompose`` writes for this result."""
        ts = self.ts
        if result.variant == "subdivision":
            text = ts.obstructions.serialize_subdivision(result.subdivision)
        else:
            colors = result.coloring.color if result.coloring else {}
            text = ts.decomposition.write_td(
                result.decomposition, case.graph.n, colors
            )
        return text.encode()

    def verify_result(self, case, result):
        ts = self.ts
        if result.variant == "subdivision":
            return ts.verifier.verify_subdivision(
                case.graph, self.params.r, result.subdivision
            )
        report = ts.verifier.verify_theorem(case.graph, self.params, result)
        return report.passed

    def verify_files(self, case):
        """``topstruct verify`` on the files written at set-up."""
        argv = ["verify", case.gr, case.td,
                "--k", str(self.workload.k), "--m", str(self.workload.m)]
        with redirect_stdout(io.StringIO()):
            code = self.ts.cli.main(argv)
        return code == 0

    def run_case(self, case):
        """(decompose s, verify s, ok, output bytes or None)."""
        if self.workload.cli:
            start = clock()
            ok = self.verify_files(case)
            return 0.0, clock() - start, ok, None
        dec_s, result = self.decompose(case)
        start = clock()
        ok = self.verify_result(case, result)
        return dec_s, clock() - start, ok, self.output_bytes(case, result)


# -- set-up ------------------------------------------------------------


def write_files(runner, cases, directory, speed):
    """Decompose every case once and write the .gr and .td files
    ``topstruct decompose`` would; returns the seconds each case spent
    in run_structure.

    The verify workload's graphs are planar, so they have no K_7 minor
    and every answer must be a decomposition.
    """
    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    spent = []
    for case in cases:
        speed.tick()
        base = str(directory / ("g%03d" % case.index))
        case.gr, case.td = base + ".gr", base + ".td"
        with open(case.gr, "w") as fh:
            fh.write(runner.ts.graph.write_gr(case.graph))
        dec_s, result = runner.decompose(case)
        spent.append(dec_s)
        if result.variant != "decomposition":
            raise SystemExit("perfbench: graph %d of a planar workload gave "
                             "a %s" % (case.index, result.variant))
        with open(case.td, "wb") as fh:
            fh.write(runner.output_bytes(case, result))
    return spent


# -- measurement -------------------------------------------------------


class Pass:
    """One timed pass over every case.  Times are scaled (see Speed) in
    segments of about SEGMENT_S, each by the reference times taken
    within it."""

    def __init__(self, cases, runner, failures, speed, tracer=None):
        self.decompose = []  # seconds per case
        self.verify = []
        self.scales = []  # one per segment
        self.raw_s = 0.0
        self.digest = hashlib.sha256()
        start = segment_start = clock()
        scaled = 0  # cases whose times are scaled
        for case in cases:
            speed.tick(force=not speed.samples)  # one per segment at least
            if tracer is not None:
                tracer.graph = case.index
            try:
                dec_s, ver_s, ok, data = runner.run_case(case)
            except Exception:
                failures.append((case.index, traceback.format_exc()))
                dec_s = ver_s = 0.0
                ok, data = True, None
            if not ok:
                failures.append((case.index, "output did not verify"))
            self.decompose.append(dec_s)
            self.verify.append(ver_s)
            self.raw_s += dec_s + ver_s
            if data is not None:
                self.digest.update(b"%d:%d\n" % (case.index, len(data)))
                self.digest.update(data)
            if clock() - segment_start >= SEGMENT_S or case is cases[-1]:
                self.scales.append(speed.take())
                for i in range(scaled, len(self.decompose)):
                    self.decompose[i] *= self.scales[-1]
                    self.verify[i] *= self.scales[-1]
                scaled = len(self.decompose)
                segment_start = clock()
        self.wall_s = clock() - start
        self.total = [d + v for d, v in zip(self.decompose, self.verify)]
        self.total_s = sum(self.total)


def run_passes(cases, runner, seconds, failures, speed):
    """Whole passes while the next one, as long as the last, still ends
    within ``seconds``; at least one."""
    passes = []
    start = clock()
    while True:
        passes.append(Pass(cases, runner, failures, speed))
        if clock() - start + passes[-1].wall_s > seconds:
            return passes


def typical(passes, field):
    """Per case, the median of its times over the passes."""
    return [statistics.median(times)
            for times in zip(*(getattr(p, field) for p in passes))]


def tail(values):
    """(percentile, value): the highest percentile with ten samples
    above it, by nearest rank."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - 10)
    return 100 * rank / len(ordered), ordered[rank - 1]


def end_to_end(cases, passes, failures, setup_s, setup_decompose_s):
    """All eight end-to-end metrics as {name: (value, unit)}, and notes.

    A case's time is its median over the passes; pass totals are sums
    over cases.
    """
    decompose = typical(passes, "decompose")
    verify = typical(passes, "verify")
    per_case = typical(passes, "total")
    q, tail_s = tail(per_case)
    metrics = {
        "graphs_per_s": (len(cases) / sum(per_case), "1/s"),
        "graph_p50_ms": (statistics.median(per_case) * 1e3, "ms"),
        "graph_tail_ms": (tail_s * 1e3, "ms"),
        "decompose_s": (setup_decompose_s or sum(decompose), "s"),
        "verify_s": (sum(verify), "s"),
        "fail_ratio": (len(failures) / (len(cases) * len(passes)), "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    notes = {
        "graphs_per_s": "%d passes" % len(passes),
        "graph_tail_ms": "p%.2f: 10 of %d graphs beyond it" % (
            q, len(per_case)),
        "decompose_s": "at set-up, each graph's median set-up"
        if setup_decompose_s else "per pass",
    }
    return metrics, notes


def print_metrics(title, metrics, notes=None):
    print(title)
    for name, (value, unit) in metrics.items():
        note = (notes or {}).get(name)
        print("  %-48s %14.6g %-6s%s" % (
            name, value, unit, "  (%s)" % note if note else ""))


def file_digest(cases):
    digest = hashlib.sha256()
    for case in cases:
        with open(case.td, "rb") as fh:
            data = fh.read()
        digest.update(b"%d:%d\n" % (case.index, len(data)))
        digest.update(data)
    return digest.hexdigest()


def traced_pass(cases, runner, failures, speed, untraced_s, path):
    """One pass under the tracer; per-layer metrics and the spans file.

    Span times are raw; the pass's rate and overhead are scaled, like
    the untraced passes they are compared with.
    """
    import topstruct

    tracer = Tracer(topstruct.errors.BudgetExceeded)
    tracer.install()
    try:
        traced = Pass(cases, runner, failures, speed, tracer)
    finally:
        tracer.restore()
    path.parent.mkdir(parents=True, exist_ok=True)
    tracer.write(path)
    layers = tracer.layer_metrics()
    layers["trace.graphs_per_s"] = (len(cases) / traced.total_s, "1/s")
    layers["trace.overhead"] = (traced.total_s / untraced_s - 1, "ratio")
    print_metrics("per-layer, one traced pass (spans in %s):" % path, layers)
    print("time shares of the traced pass (%.3f s raw):" % traced.raw_s)
    for name, self_s, incl_s in tracer.time_table():
        print("  %-44s self %6.1f %%  inclusive %6.1f %%" % (
            name, 100 * self_s / traced.raw_s,
            100 * incl_s / traced.raw_s))
    return layers


# -- main --------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if args.workload not in WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r" % args.workload)
    workload = WORKLOADS[args.workload]

    speed = Speed()
    setup_times, decompose_times = [], []
    start = clock()
    while (len(setup_times) < SETUP_REPEATS
           or clock() - start < SETUP_MIN_S):
        seconds, cases, runner, decompose = set_up(
            workload, args.seed, speed)
        setup_times.append(seconds)
        decompose_times.append(decompose)
    setup_s = statistics.median(setup_times)
    setup_decompose_s = 0.0
    if workload.cli:
        setup_decompose_s = sum(
            map(statistics.median, zip(*decompose_times)))

    import topstruct

    print("workload=%s seed=%d graphs=%d k=%d m=%d" % (
        workload.name, args.seed, len(cases), workload.k, workload.m))
    print("backend=%s python=%s nproc=%d" % (
        topstruct._kernels.BACKEND, platform.python_version(),
        os.cpu_count()))

    failures = []
    passes = run_passes(cases, runner, args.seconds, failures, speed)
    digests = {p.digest.hexdigest() for p in passes}
    if workload.cli:
        digests = {file_digest(cases)}
    elif len(digests) != 1:
        failures.append((-1, "outputs differ between passes"))
    print("outputs_sha256=%s" % min(digests))

    metrics, notes = end_to_end(
        cases, passes, failures, setup_s, setup_decompose_s)
    print_metrics("end-to-end, untraced, scaled:", metrics, notes)
    scales = [x for p in passes for x in p.scales]
    print("scale: median %.3f, range %.3f-%.3f over %d segments" % (
        statistics.median(scales), min(scales), max(scales), len(scales)))
    print("reference loop: median %.4f ms, quartiles %s ms, %d samples; "
          "unit speed %.4f ms" % (
              statistics.median(speed.all) * 1e3,
              " ".join("%.4f" % (q * 1e3)
                       for q in statistics.quantiles(speed.all, n=4)[::2]),
              len(speed.all), REF_NOMINAL_S * 1e3))
    attempted = len(cases) * len(passes)
    if args.trace:
        untraced_s = statistics.median(p.total_s for p in passes)
        reported = traced_pass(
            cases, runner, failures, speed, untraced_s,
            WORK / ("trace-%s-seed%d.json" % (workload.name, args.seed)))
        attempted += len(cases)
    else:
        reported = {k: metrics[k] for k in GATED}

    for index, detail in failures[:5]:
        print("failure at graph %d: %s" % (index, detail), file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in reported.items()
        },
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
