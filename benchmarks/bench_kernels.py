"""Compare the compiled bitset kernels against the pure-Python fallback.

Runs each kernel on identical random workloads and prints per-call
timings plus the speedup.  When the compiled extension is importable,
every case is first checked to give equal results on both.
Usage: python benchmarks/bench_kernels.py [--seed N]
"""

import argparse
import random
import time

from topstruct.graph import random_graph
from topstruct._kernels import pure

try:
    from topstruct._kernels import _fast
except ImportError:
    _fast = None


def make_workload(n, p, cases, seed):
    rng = random.Random(seed)
    g = random_graph(n, p, rng)
    adj = list(g._adj)
    full = g.vertex_mask
    work = []
    for _ in range(cases):
        allowed = full & rng.getrandbits(n + 1)
        start = 1 << rng.randint(1, n)
        u, v = rng.sample(range(1, n + 1), 2)
        work.append((start, allowed, 1 << u, 1 << v))
    return adj, full, work


def check_agreement(adj, n, full, work):
    """Assert that pure and compiled kernels agree on every case."""
    for start, allowed, src, dst in work:
        for name, args in (
            ("reachable", (adj, start, allowed | start)),
            ("components", (adj, allowed)),
            ("is_connected", (adj, allowed)),
            ("max_disjoint_paths", (adj, n, src, dst, full & ~(src | dst))),
        ):
            want = getattr(pure, name)(*args)
            got = getattr(_fast, name)(*args)
            assert want == got, "%s%r: pure %r, compiled %r" % (
                name, args[1:], want, got)


def bench(impl, adj, n, full, work, repeat):
    t0 = time.perf_counter()
    for _ in range(repeat):
        for start, allowed, src, dst in work:
            impl.reachable(adj, start, allowed | start)
            impl.components(adj, allowed)
            impl.is_connected(adj, allowed)
            impl.max_disjoint_paths(adj, n, src, dst, full & ~(src | dst))
    return (time.perf_counter() - t0) / (repeat * len(work))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed; 0 gives the original fixed workloads",
    )
    args = parser.parse_args()
    print(f"compiled extension available: {_fast is not None}, seed {args.seed}")
    for n, p in [(12, 0.4), (24, 0.3), (48, 0.15), (63, 0.1)]:
        adj, full, work = make_workload(
            n, p, cases=60, seed=1000 * args.seed + n
        )
        if _fast is not None:
            check_agreement(adj, n, full, work)
        repeat = max(1, 600 // n)
        t_pure = bench(pure, adj, n, full, work, repeat)
        line = f"n={n:3d} p={p:.2f}  pure {t_pure * 1e6:9.2f} us/case"
        if _fast is not None:
            t_fast = bench(_fast, adj, n, full, work, repeat)
            line += (
                f"  compiled {t_fast * 1e6:9.2f} us/case"
                f"  speedup {t_pure / t_fast:5.1f}x"
            )
        print(line)


if __name__ == "__main__":
    main()
