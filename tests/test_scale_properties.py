"""Property tests for the million-cell machinery.

Two families, both driven by Hypothesis:

* chunked tick-matrix timing — for random grid shapes, offsets, and
  block sizes, ``CompiledTimingKernel.timing(..., edge_block=b)`` must
  equal the monolithic evaluation and the per-event scalar oracle
  exactly;
* pooled Monte-Carlo — for random trial counts, seeds, and pool
  shapes, ``run_trials`` over a trial that reads a module-level
  :class:`CompiledTrialContext` must be bit-identical to the serial
  path.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.montecarlo import CompiledTrialContext, run_trials
from repro.arrays.topologies import mesh
from repro.clocktree.htree import htree_for_array
from repro.clocktree.sampler import CompiledSkewSampler
from repro.graphs.csr import grid_csr
from repro.sim.compiled import CompiledTimingKernel


# ----------------------------------------------------------------------
# chunked == monolithic == scalar
# ----------------------------------------------------------------------
@given(
    rows=st.integers(1, 6),
    cols=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    ticks=st.integers(1, 5),
    block=st.integers(1, 40),
    lag=st.floats(min_value=0.0, max_value=0.9,
                  allow_nan=False, allow_infinity=False),
)
@settings(max_examples=60, deadline=None)
def test_chunked_timing_equals_monolithic_and_scalar(
    rows, cols, seed, ticks, block, lag
):
    grid = grid_csr(rows, cols)
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, 1.5, grid.n_cells)
    kernel = CompiledTimingKernel(grid, offsets, period=1.0, lag=lag)
    mono = kernel.timing(ticks)
    streamed = kernel.timing(ticks, edge_block=block)
    scalar = kernel.timing_scalar(ticks)
    assert streamed.violations == mono.violations == scalar.violations
    assert streamed.makespan == mono.makespan == scalar.makespan
    assert streamed.ticks == mono.ticks == scalar.ticks


@given(
    seed=st.integers(0, 2**16),
    block=st.integers(1, 500),
)
@settings(max_examples=20, deadline=None)
def test_chunked_timing_with_per_edge_lag(seed, block):
    grid = grid_csr(5, 5)
    rng = np.random.default_rng(seed)
    offsets = rng.uniform(0.0, 1.5, grid.n_cells)
    lag = rng.uniform(0.0, 0.8, grid.n_edges)
    kernel = CompiledTimingKernel(grid, offsets, period=1.0, lag=lag)
    mono = kernel.timing(4)
    streamed = kernel.timing(4, edge_block=block)
    assert streamed.violations == mono.violations
    assert streamed.makespan == mono.makespan


# ----------------------------------------------------------------------
# pooled context trial == serial
# ----------------------------------------------------------------------
def _sampler() -> CompiledSkewSampler:
    array = mesh(4, 4)
    return CompiledSkewSampler.from_tree(
        htree_for_array(array), array.communicating_pairs()
    )


_CONTEXT = CompiledTrialContext(_sampler)


def _context_trial(seed: int) -> float:
    return _CONTEXT.get().sample_max_skew(seed)


@given(
    trials=st.integers(2, 8),
    base_seed=st.integers(0, 2**10),
    workers=st.integers(2, 5),
    executor=st.sampled_from(["thread", "process"]),
)
@settings(max_examples=12, deadline=None)
def test_context_pool_is_bit_identical_to_serial(
    trials, base_seed, workers, executor
):
    serial = run_trials(_sampler().sample_max_skew, trials, base_seed=base_seed)
    _CONTEXT.get()
    pooled = run_trials(
        _context_trial, trials, base_seed=base_seed,
        workers=workers, executor=executor,
    )
    assert pooled == serial
