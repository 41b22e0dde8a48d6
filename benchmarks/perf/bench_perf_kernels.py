"""Perf-regression suite for the batched/parallel hot kernels.

Runs :func:`repro.analysis.perf.run_perf_suite` across mesh sizes and
enforces the PR's acceptance bar:

* scalar and batched results agree to within 1e-9 (they are in fact
  bit-identical — same arithmetic on the same float64 values), and the
  compiled simulation kernels agree *exactly* (diff == 0.0: identical
  payloads, violation lists, and makespans);
* at >= 4096 cells the warm batched ``max_skew_bound`` and
  ``BufferedClockTree.max_skew`` beat the scalar path by >= 5x, and the
  compiled ``clocked_run`` / ``selftimed_makespan`` kernels beat their
  scalar oracles by >= 10x;
* ``max_skew_bound_cold`` (index build + pair translation included) is
  >= 1x at every benchmarked size — cold-start must never lose to the
  scalar path, and the vectorized ``lca_cold_build`` never loses to the
  per-pair parent walk;
* the ECO rows (``eco_repad``/``eco_resize``) and ``tile_stitch`` agree
  *exactly* with their from-scratch oracles (diff == 0.0 means every
  slack array is bit-identical), and a single-edge repad at >= 4096
  cells re-analyzes >= 10x faster than the full ``analyze_slack``;
* the ``CompiledTrialContext`` Monte-Carlo cache is >= 3x over the
  rebuild-per-trial formulation, with bit-identical summaries;
* the pooled Monte-Carlo run over a compiled trial returns
  bit-identical summaries and never loses to the serial
  rebuild-per-trial loop (>= 1x even on a one-core runner — the win is
  algorithmic, not core-count);
* the chunked tick-matrix scale rows (``REPRO_PERF_SCALE_SIDES``) agree
  exactly with the monolithic evaluation and, where it runs, the
  per-event scalar oracle;
* the static flow rows (``mcm_howard``/``buffer_sizing``) agree
  *exactly* with their dynamic oracles (dyadic services make the
  max-plus MCM a bit-equality against the simulated long-run rate), and
  at >= 4096 cells the Howard solve beats simulate-to-convergence by
  >= 10x.

The suite writes the repo-root ``BENCH_perf.json`` perf-trajectory
artifact (schema-validated before writing) exactly like
``python -m repro bench`` does.

Environment knobs for CI / quick local runs:

* ``REPRO_PERF_SIDES`` — comma-separated mesh sides
  (default ``16,32,64``; the >= 5x assertions only apply to sides with
  >= 4096 cells, so a small-sides run still checks equivalence);
* ``REPRO_PERF_SCALE_SIDES`` — comma-separated grid sides for the
  large-scale timing rows (default: none; ``256`` is the 65,536-cell CI
  smoke row, ``256,1024`` adds the million-cell row);
* ``REPRO_PERF_OUT`` — artifact path (default: repo-root
  ``BENCH_perf.json``; empty string skips writing).
"""

import os
import time

from repro.analysis.perf import run_perf_suite, speedup_by_kernel, write_bench_results
from repro.obs.schema import validate_benchmark_result

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
DEFAULT_OUT = os.path.join(REPO_ROOT, "BENCH_perf.json")

# Warm kernels the >= 5x acceptance bar applies to at >= 4096 cells.
ACCEPTANCE_KERNELS = ("max_skew_bound", "buffered_max_skew")
ACCEPTANCE_CELLS = 4096
ACCEPTANCE_SPEEDUP = 5.0
# Compiled simulation kernels: >= 10x at >= 4096 cells, exact agreement.
SIM_KERNELS = ("clocked_run", "selftimed_makespan", "selftimed_backpressure")
SIM_SPEEDUP = 10.0
# Monte-Carlo structure cache: >= 3x over rebuild-per-trial.
MC_CACHED_SPEEDUP = 3.0
# Pooled Monte-Carlo over a compiled trial: never loses to the serial loop.
MC_POOL_FLOOR = 1.0
# Scale rows stream violations per block and must stay exact.
SCALE_KERNELS = ("mesh_csr_build", "clocked_timing_blocked", "clocked_timing")
# Incremental ECO + tiled-composition rows: bit-exact, and a single-edge
# repad at the acceptance scale must be >= 10x over full re-analysis.
ECO_KERNELS = ("eco_repad", "eco_resize", "tile_stitch")
ECO_REPAD_SPEEDUP = 10.0
# Static flow analysis: the max-plus MCM must equal the simulator's
# long-run cycle time bit-for-bit (dyadic services), and at >= 4096
# cells the Howard solve must beat simulate-to-convergence by >= 10x.
FLOW_KERNELS = ("mcm_howard", "buffer_sizing")
FLOW_MCM_SPEEDUP = 10.0
EQUIVALENCE_TOL = 1e-9


def _sides():
    raw = os.environ.get("REPRO_PERF_SIDES", "16,32,64")
    return [int(s) for s in raw.split(",") if s.strip()]


def _scale_sides():
    raw = os.environ.get("REPRO_PERF_SCALE_SIDES", "")
    return [int(s) for s in raw.split(",") if s.strip()]


def test_perf_suite_speedup_and_equivalence():
    sides = _sides()
    scale_sides = _scale_sides()
    t0 = time.perf_counter()
    results = run_perf_suite(
        sides=sides, trials=16, workers=4, repeats=3, scale_sides=scale_sides
    )
    wall_s = time.perf_counter() - t0

    for r in results:
        assert r.max_abs_diff <= EQUIVALENCE_TOL, (
            f"{r.kernel} at size {r.size}: batch/scalar disagree by {r.max_abs_diff}"
        )
        if r.kernel in SIM_KERNELS:
            assert r.max_abs_diff == 0.0, (
                f"{r.kernel} at size {r.size}: compiled kernel not exact "
                f"(diff {r.max_abs_diff})"
            )
        if r.kernel == "max_skew_bound_cold":
            assert r.speedup >= 1.0, (
                f"max_skew_bound_cold at {r.size} cells: {r.speedup:.2f}x — "
                f"cold-start lost to the scalar path"
            )
        if r.kernel == "montecarlo_cached":
            assert r.speedup >= MC_CACHED_SPEEDUP, (
                f"montecarlo_cached: {r.speedup:.1f}x < {MC_CACHED_SPEEDUP}x"
            )
        if r.kernel.startswith("montecarlo_workers_"):
            assert r.max_abs_diff == 0.0, (
                f"{r.kernel}: pooled summary not bit-identical to the serial one "
                f"(diff {r.max_abs_diff})"
            )
            assert r.speedup >= MC_POOL_FLOOR, (
                f"{r.kernel}: {r.speedup:.2f}x — the pool over a compiled trial lost "
                f"to the serial rebuild-per-trial loop"
            )
        if r.kernel in SCALE_KERNELS:
            assert r.max_abs_diff == 0.0, (
                f"{r.kernel} at {r.size} cells: streamed path not exact "
                f"(diff {r.max_abs_diff})"
            )
        if r.kernel in ECO_KERNELS:
            assert r.max_abs_diff == 0.0, (
                f"{r.kernel} at {r.size} cells: incremental path not "
                f"bit-identical to the full oracle (diff {r.max_abs_diff})"
            )
        if r.kernel in FLOW_KERNELS:
            assert r.max_abs_diff == 0.0, (
                f"{r.kernel} at {r.size} cells: static flow analysis not "
                f"bit-identical to the dynamic oracle (diff {r.max_abs_diff})"
            )
        if r.kernel == "lca_cold_build":
            assert r.speedup >= 1.0, (
                f"lca_cold_build at {r.size} cells: {r.speedup:.2f}x — "
                f"vectorized build lost to the per-pair parent walk"
            )

    checked = 0
    sim_checked = 0
    mcm_checked = 0
    for r in results:
        if r.kernel in ACCEPTANCE_KERNELS and r.size >= ACCEPTANCE_CELLS:
            assert r.speedup >= ACCEPTANCE_SPEEDUP, (
                f"{r.kernel} at {r.size} cells: {r.speedup:.1f}x < "
                f"{ACCEPTANCE_SPEEDUP}x acceptance bar"
            )
            checked += 1
        if r.kernel in SIM_KERNELS and r.size >= ACCEPTANCE_CELLS:
            assert r.speedup >= SIM_SPEEDUP, (
                f"{r.kernel} at {r.size} cells: {r.speedup:.1f}x < "
                f"{SIM_SPEEDUP}x acceptance bar"
            )
            sim_checked += 1
        if r.kernel == "eco_repad" and r.size >= ACCEPTANCE_CELLS:
            assert r.speedup >= ECO_REPAD_SPEEDUP, (
                f"eco_repad at {r.size} cells: {r.speedup:.1f}x < "
                f"{ECO_REPAD_SPEEDUP}x acceptance bar"
            )
        if r.kernel == "mcm_howard" and r.size >= ACCEPTANCE_CELLS:
            assert r.speedup >= FLOW_MCM_SPEEDUP, (
                f"mcm_howard at {r.size} cells: {r.speedup:.1f}x < "
                f"{FLOW_MCM_SPEEDUP}x acceptance bar"
            )
            mcm_checked += 1
    if any(side * side >= ACCEPTANCE_CELLS for side in sides):
        assert checked >= len(ACCEPTANCE_KERNELS)
        assert sim_checked >= len(SIM_KERNELS)
        assert mcm_checked >= 1

    out = os.environ.get("REPRO_PERF_OUT", DEFAULT_OUT)
    if out:
        payload = write_bench_results(results, out, wall_s=wall_s)
        assert validate_benchmark_result(payload) == []
        assert set(ACCEPTANCE_KERNELS) <= set(speedup_by_kernel(payload))
