"""Time the bitset kernels on random workloads.

Runs each kernel on the same random cases and prints the time per case.
Usage: python benchmarks/bench_kernels.py [--seed N]
"""

import argparse
import random
import time

from topstruct import _kernels
from topstruct.graph import random_graph


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


def bench(adj, n, full, work, repeat):
    t0 = time.perf_counter()
    for _ in range(repeat):
        for start, allowed, src, dst in work:
            _kernels.reachable(adj, start, allowed | start)
            _kernels.components(adj, allowed)
            _kernels.is_connected(adj, allowed)
            _kernels.max_disjoint_paths(adj, n, src, dst, full & ~(src | dst))
    return (time.perf_counter() - t0) / (repeat * len(work))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--seed", type=int, default=0,
        help="workload seed; 0 gives the original fixed workloads",
    )
    args = parser.parse_args()
    print(f"seed {args.seed}")
    for n, p in [(12, 0.4), (24, 0.3), (48, 0.15), (63, 0.1)]:
        adj, full, work = make_workload(
            n, p, cases=60, seed=1000 * args.seed + n
        )
        repeat = max(1, 600 // n)
        t = bench(adj, n, full, work, repeat)
        print(f"n={n:3d} p={p:.2f}  {t * 1e6:9.2f} us/case")


if __name__ == "__main__":
    main()
