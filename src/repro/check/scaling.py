"""Scaling oracles: the streamed/pooled paths must change nothing.

The million-cell machinery trades memory and wall clock for nothing
else — by construction, a chunked tick-matrix scan and a pooled
Monte-Carlo run produce the *same bits* as their monolithic/serial
formulations.
These checks make that claim a named, diagnosable failure:

* ``differential-chunked-timing`` — :class:`~repro.sim.compiled.CompiledTimingKernel`
  timing over several grid shapes and block sizes must equal the
  monolithic evaluation and the per-event scalar oracle exactly
  (violation list, order, makespan); the clocked simulator's
  ``run(edge_block=...)`` must equal its monolithic ``run`` on a real
  workload.
* ``differential-pooled-trials`` — a compiled sampler read through a
  module-level :class:`~repro.analysis.montecarlo.CompiledTrialContext`
  must reproduce the serial ``run_trials`` summary bit-for-bit under
  thread and process executors, and the vectorized sampler must equal
  its scalar oracle.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Dict, List, Tuple

import numpy as np

from repro.analysis.montecarlo import CompiledTrialContext, run_trials
from repro.arrays.topologies import mesh
from repro.check.registry import REGISTRY, CheckContext, require
from repro.clocktree.htree import htree_for_array
from repro.clocktree.sampler import CompiledSkewSampler
from repro.graphs.csr import csr_from_comm, grid_csr
from repro.sim.compiled import CompiledTimingKernel


def _random_offsets(ctx: CheckContext, salt: str, n: int, period: float) -> np.ndarray:
    rng = ctx.rng(salt)
    return np.array([rng.uniform(0.0, 1.5 * period) for _ in range(n)])


@REGISTRY.register(
    "differential-chunked-timing",
    "differential",
    "chunked tick-matrix timing (any edge-block size) equals the monolithic "
    "evaluation and the per-event scalar oracle bit-for-bit",
)
def check_chunked_timing(ctx: CheckContext) -> Dict[str, Any]:
    shapes: List[Tuple[int, int]] = [(3, 4), (7, 5), (9, 9)]
    if ctx.full:
        shapes.append((16, 16))
    period, lag, ticks = 1.0, 0.3, 4
    cases = 0
    for rows, cols in shapes:
        n = rows * cols
        grid = grid_csr(rows, cols)
        lowered = csr_from_comm(mesh(rows, cols).comm)
        require(
            lowered.same_structure(grid),
            f"grid_csr({rows},{cols}) disagrees with the CommGraph lowering",
            rows=rows, cols=cols,
        )
        offsets = _random_offsets(ctx, f"chunked|{rows}x{cols}", n, period)
        kernel = CompiledTimingKernel(grid, offsets, period=period, lag=lag)
        mono = kernel.timing(ticks)
        scalar = kernel.timing_scalar(ticks)
        require(
            mono.violations == scalar.violations
            and mono.makespan == scalar.makespan
            and mono.ticks == scalar.ticks,
            f"monolithic timing diverged from the scalar oracle on {rows}x{cols}",
            rows=rows, cols=cols,
            mono_violations=len(mono.violations),
            scalar_violations=len(scalar.violations),
        )
        for block in (1, 3, kernel.n_edges // 2 or 1, kernel.n_edges + 7):
            streamed = kernel.timing(ticks, edge_block=block)
            require(
                streamed.violations == mono.violations
                and streamed.makespan == mono.makespan
                and streamed.ticks == mono.ticks,
                f"edge_block={block} changed the timing result on {rows}x{cols}",
                rows=rows, cols=cols, edge_block=block,
            )
            cases += 1

    # The clocked simulator's streamed run on a real systolic workload.
    from repro.arrays.systolic import build_fir_array
    from repro.clocktree.builders import serpentine_clock
    from repro.clocktree.buffered import BufferedClockTree
    from repro.core.padding import plan_safe_clocking
    from repro.delay.variation import BoundedUniformVariation
    from repro.sim.clock_distribution import ClockSchedule
    from repro.sim.clocked import ClockedArraySimulator

    rng = ctx.rng("chunked|fir")
    program = build_fir_array(
        [rng.uniform(-1.0, 1.0) for _ in range(4)],
        [rng.uniform(-2.0, 2.0) for _ in range(8)],
    )
    tree = serpentine_clock(program.array)
    buffered = BufferedClockTree(
        tree,
        buffer_spacing=1.0,
        wire_variation=BoundedUniformVariation(m=1.0, epsilon=0.1, seed=ctx.seed),
    )
    cells = program.array.comm.nodes()
    probe = ClockSchedule.from_buffered_tree(buffered, 1.0, cells)
    plan = plan_safe_clocking(program.array, probe, delta=1.0)
    for factor in (1.05, 0.5):  # one clean run, one with violations
        period = plan.min_safe_period * factor + 1e-6
        schedule = ClockSchedule.from_buffered_tree(buffered, period, cells)
        sim = ClockedArraySimulator(
            program, schedule, delta=1.0, edge_padding=plan.padding
        )
        kernel = sim.compiled()
        whole = kernel.run()
        for block in (1, 5, 64):
            streamed = kernel.run(edge_block=block)
            require(
                streamed.result == whole.result
                and streamed.violations == whole.violations
                and streamed.makespan == whole.makespan
                and streamed.ticks == whole.ticks,
                f"clocked run(edge_block={block}) diverged at period factor {factor}",
                edge_block=block, period_factor=factor,
                violations=len(whole.violations),
            )
            cases += 1
    return {"cases": cases, "shapes": len(shapes)}


def _pooled_sampler(side: int) -> CompiledSkewSampler:
    array = mesh(side, side)
    return CompiledSkewSampler.from_tree(
        htree_for_array(array), array.communicating_pairs()
    )


#: One context per mesh side the check runs; the coordinator warms it
#: before a pool starts, and forked workers inherit it.
_POOLED_CONTEXTS = {
    side: CompiledTrialContext(partial(_pooled_sampler, side)) for side in (8, 12)
}


def _pooled_trial(side: int, seed: int) -> float:
    return _POOLED_CONTEXTS[side].get().sample_max_skew(seed)


@REGISTRY.register(
    "differential-pooled-trials",
    "differential",
    "thread and process pools over a compiled trial reproduce the serial "
    "Monte-Carlo summary bit-for-bit",
)
def check_pooled_trials(ctx: CheckContext) -> Dict[str, Any]:
    side = 8 if not ctx.full else 12
    sampler = _POOLED_CONTEXTS[side].get()
    trials = 8
    serial = run_trials(sampler.sample_max_skew, trials, base_seed=ctx.seed)
    # The scalar oracle consumes the same seeded uniform vector — one
    # divergent trial and the pool comparison below is meaningless.
    for seed in range(ctx.seed, ctx.seed + 3):
        require(
            sampler.sample_max_skew(seed) == sampler.sample_max_skew_scalar(seed),
            "vectorized sampler diverged from its scalar oracle",
            seed=seed,
        )
    trial = partial(_pooled_trial, side)
    for executor, workers in (("thread", 2), ("process", 2)):
        pooled = run_trials(
            trial, trials, base_seed=ctx.seed, workers=workers, executor=executor
        )
        require(
            pooled.mean == serial.mean
            and pooled.stdev == serial.stdev
            and pooled.minimum == serial.minimum
            and pooled.maximum == serial.maximum
            and pooled.ci_half_width == serial.ci_half_width,
            f"{executor} pool summary diverged from the serial run",
            executor=executor, workers=workers,
            serial_mean=serial.mean, pooled_mean=pooled.mean,
        )
    return {"side": side, "trials": trials, "segments": sampler.n_segments}
