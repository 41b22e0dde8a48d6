"""Compare a fresh BENCH_perf.json against the stored baseline ratios.

Usage::

    python benchmarks/perf/check_regression.py FRESH.json [BASELINE.json]

For every kernel present in both files, the fresh worst-case speedup
must not fall below ``baseline_speedup / SLOWDOWN_FACTOR`` (5x): a
machine can be slower overall, but the *ratio* of batch to scalar is
machine-insensitive, so losing more than 5x of it means the batch
kernel itself regressed.  Exits non-zero (for CI) with a per-kernel
report on failure.
"""

import json
import sys

SLOWDOWN_FACTOR = 5.0

# Kernels whose batch-vs-scalar ratio the gate enforces — the warm skew
# kernels, the cold path (now required to beat scalar), and the compiled
# simulation kernels.  Monte-Carlo pool rows are gated by the absolute
# floors below instead of a baseline ratio (the cache row has its own
# absolute >= 3x gate in bench_perf_kernels.py).
GATED_KERNELS = (
    "max_skew_bound",
    "max_skew_lower_bound",
    "buffered_max_skew",
    "max_skew_bound_cold",
    "clocked_run",
    "selftimed_makespan",
    "selftimed_backpressure",
    "lca_cold_build",
    "eco_resize",
    "tile_stitch",
    "mcm_howard",
    "buffer_sizing",
)

# Absolute speedup floors, independent of any baseline: the pooled
# Monte-Carlo run must never *lose* to the serial rebuild-per-trial loop
# again (the regression this gate exists for), even on a one-core runner
# where the win is purely algorithmic.  Matched by kernel-name prefix so
# any worker count is covered.
ABSOLUTE_FLOOR_PREFIXES = {
    "montecarlo_workers_": 1.0,
    # The ECO acceptance bar: a single-edge repad must re-analyze at
    # least 10x faster than a from-scratch analyze_slack at every
    # benchmarked size (it is hundreds of x at the 4096-cell gate).
    "eco_repad": 10.0,
}

# Kernels whose max_abs_diff column must be exactly 0.0: the incremental
# ECO engine and the tiled-composition stitch are only admissible while
# bit-identical to their from-scratch oracles, and the static flow
# analyzer (max-plus MCM, buffer sizing) must land on the very float the
# simulate-to-convergence / Karp-oracle baseline measures — dyadic
# delays make the agreement exact, so any non-zero diff is a bug.
EXACT_PREFIXES = ("eco_", "tile_", "mcm_", "buffer_sizing")


def speedups(path):
    with open(path) as fh:
        payload = json.load(fh)
    headers = payload["headers"]
    k, sp = headers.index("kernel"), headers.index("speedup")
    out = {}
    for row in payload["rows"]:
        kernel, speedup = row[k], float(row[sp])
        out[kernel] = min(out.get(kernel, float("inf")), speedup)
    return out


def worst_diffs(path):
    """``{kernel: largest max_abs_diff over its rows}``."""
    with open(path) as fh:
        payload = json.load(fh)
    headers = payload["headers"]
    k, d = headers.index("kernel"), headers.index("max_abs_diff")
    out = {}
    for row in payload["rows"]:
        kernel, diff = row[k], float(row[d])
        out[kernel] = max(out.get(kernel, 0.0), diff)
    return out


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    fresh = speedups(argv[1])
    baseline_path = argv[2] if len(argv) > 2 else "benchmarks/perf/baseline.json"
    with open(baseline_path) as fh:
        baseline = json.load(fh)["speedups"]

    failures = []
    for kernel in GATED_KERNELS:
        if kernel not in fresh or kernel not in baseline:
            continue
        floor = baseline[kernel] / SLOWDOWN_FACTOR
        status = "ok" if fresh[kernel] >= floor else "REGRESSION"
        print(
            f"{kernel}: fresh {fresh[kernel]:.1f}x, baseline {baseline[kernel]:.1f}x, "
            f"floor {floor:.1f}x -> {status}"
        )
        if fresh[kernel] < floor:
            failures.append(kernel)
    for kernel, speedup in sorted(fresh.items()):
        for prefix, floor in ABSOLUTE_FLOOR_PREFIXES.items():
            if not kernel.startswith(prefix):
                continue
            status = "ok" if speedup >= floor else "REGRESSION"
            print(
                f"{kernel}: fresh {speedup:.1f}x, absolute floor {floor:.1f}x "
                f"-> {status}"
            )
            if speedup < floor:
                failures.append(kernel)
    for kernel, diff in sorted(worst_diffs(argv[1]).items()):
        if not kernel.startswith(EXACT_PREFIXES):
            continue
        status = "ok" if diff == 0.0 else "REGRESSION"
        print(f"{kernel}: max_abs_diff {diff} (required 0.0) -> {status}")
        if diff != 0.0:
            failures.append(kernel)
    if failures:
        print(f"perf regression in: {', '.join(failures)}")
        return 1
    print("perf-smoke: batch kernels within 5x of baseline ratios")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
