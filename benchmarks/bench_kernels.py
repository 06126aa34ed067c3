"""Compare the compiled kernels against their pure-Python twins.

Runs the three hot paths (occurrence counting over all of S_n,
avoider counting over an edge list, matrix copy counting) with both
backends and prints a table of timings.  Useful for checking that the
extension actually built and what it buys on this machine.

    python3 benchmarks/bench_kernels.py [--n 8] [--repeat 3]
"""

import argparse
import random
import time
from itertools import combinations, permutations

from permavoid import _kernels_py as pure, kernels


def time_call(fn, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def bench_histogram(n, repeat):
    pi = (2, 0, 1)  # a representative length-3 pattern, 0-based

    def compiled():
        return kernels.copy_count_histogram(n, pi)

    def fallback():
        return pure.copy_count_histogram(n, pi)

    return "copy histogram over S_%d" % n, compiled, fallback


def bench_avoiders(n, repeat):
    rng = random.Random(1)
    edges = [e for e in combinations(range(n), 3) if rng.random() < 0.5]
    pi = (2, 1, 0)

    def compiled():
        return kernels.count_avoiders(n, pi, edges)

    def fallback():
        return pure.count_avoiders(n, pi, edges)

    return "avoiders of S_%d over %d edges" % (n, len(edges)), compiled, fallback


def bench_matrix(n, repeat):
    rng = random.Random(2)
    row_bits = [rng.getrandbits(n) for _ in range(n)]
    pi = (1, 0, 2)
    trials = 2000

    def compiled():
        total = 0
        for _ in range(trials):
            total += kernels.count_matrix_copies(row_bits, n, pi)
        return total

    def fallback():
        total = 0
        for _ in range(trials):
            total += pure.count_matrix_copies(row_bits, n, pi)
        return total

    return "matrix copies %dx%d x%d" % (n, n, trials), compiled, fallback


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=8,
                        help="permutation size for the S_n benchmarks")
    parser.add_argument("--repeat", type=int, default=3,
                        help="repetitions; the best time is reported")
    args = parser.parse_args()

    print(f"active backend: {kernels.BACKEND}")
    if kernels.BACKEND != "compiled":
        print("note: the extension is not loaded, so both columns below "
              "run the pure kernels")
    print()
    header = f"{'benchmark':<36} {'compiled':>10} {'pure':>10} {'speedup':>8}"
    print(header)
    print("-" * len(header))
    benches = [
        bench_histogram(args.n, args.repeat),
        bench_avoiders(args.n, args.repeat),
        bench_matrix(16, args.repeat),
    ]
    for label, compiled, fallback in benches:
        fast, fast_result = time_call(compiled, args.repeat)
        slow, slow_result = time_call(fallback, args.repeat)
        if fast_result != slow_result:
            raise SystemExit(f"backend disagreement in {label!r}: "
                             f"{fast_result!r} != {slow_result!r}")
        ratio = slow / fast if fast > 0 else float("inf")
        print(f"{label:<36} {fast:>9.4f}s {slow:>9.4f}s {ratio:>7.1f}x")


if __name__ == "__main__":
    main()
