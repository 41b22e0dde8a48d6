"""CompiledTimingKernel: the array-only large-N static timing kernel.

Its contract is exact agreement with the per-event scalar oracle —
violation list (contents *and* order), makespan, tick count — for every
edge-block size, plus a loss-free round trip through raw arrays.
"""

import numpy as np
import pytest

from repro.graphs.csr import CSRAdjacency, grid_csr
from repro.sim.compiled import CompiledTimingKernel, TimingResult


def _offsets(n: int, seed: int, period: float) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.5 * period, n)


def _kernel(rows=5, cols=4, seed=7, period=1.0, lag=0.3) -> CompiledTimingKernel:
    grid = grid_csr(rows, cols)
    return CompiledTimingKernel(
        grid, _offsets(rows * cols, seed, period), period=period, lag=lag
    )


class TestScalarAgreement:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    @pytest.mark.parametrize("shape", [(2, 2), (5, 4), (8, 8)])
    def test_timing_equals_scalar_oracle(self, shape, seed):
        kernel = _kernel(*shape, seed=seed)
        fast = kernel.timing(4)
        slow = kernel.timing_scalar(4)
        assert fast.violations == slow.violations
        assert fast.makespan == slow.makespan
        assert fast.ticks == slow.ticks

    def test_workload_with_violations_has_them(self):
        # Half-period offsets guarantee late latches somewhere.
        kernel = _kernel(6, 6, seed=3)
        result = kernel.timing(4)
        assert result.violations  # the comparison above must not be vacuous
        assert not result.clean

    def test_clean_schedule_is_clean(self):
        grid = grid_csr(4, 4)
        kernel = CompiledTimingKernel(
            grid, np.zeros(16), period=10.0, lag=0.5
        )
        result = kernel.timing(3)
        assert result.clean
        assert result.violations == []
        assert result.makespan == 20.0


class TestBlockedStreaming:
    @pytest.mark.parametrize("block", [1, 3, 7, 16, 1000])
    def test_any_block_size_is_bit_identical(self, block):
        kernel = _kernel(7, 5, seed=11)
        mono = kernel.timing(5)
        streamed = kernel.timing(5, edge_block=block)
        assert streamed.violations == mono.violations
        assert streamed.makespan == mono.makespan
        assert streamed.ticks == mono.ticks

    def test_bad_block_rejected(self):
        with pytest.raises(ValueError):
            _kernel().timing(3, edge_block=0)

    def test_bad_ticks_rejected(self):
        with pytest.raises(ValueError):
            _kernel().timing(0)


class TestConstruction:
    def test_offsets_shape_checked(self):
        with pytest.raises(ValueError):
            CompiledTimingKernel(grid_csr(3, 3), np.zeros(5), period=1.0)

    def test_period_positive(self):
        with pytest.raises(ValueError):
            CompiledTimingKernel(grid_csr(2, 2), np.zeros(4), period=0.0)

    @pytest.mark.parametrize("period", [np.inf, np.nan])
    def test_period_finite(self, period):
        with pytest.raises(ValueError, match="period must be positive and finite"):
            CompiledTimingKernel(grid_csr(3, 3), np.zeros(9), period=period)

    @pytest.mark.parametrize("bad", [np.nan, -1.0, np.inf])
    def test_offsets_non_negative_and_finite(self, bad):
        offsets = np.zeros(9)
        offsets[4] = bad
        with pytest.raises(ValueError, match="offsets must be non-negative and finite"):
            CompiledTimingKernel(grid_csr(3, 3), offsets, period=1.0)

    @pytest.mark.parametrize("lag", [-5.0, np.nan, np.inf])
    def test_uniform_lag_non_negative_and_finite(self, lag):
        with pytest.raises(ValueError, match="lag must be non-negative and finite"):
            CompiledTimingKernel(grid_csr(3, 3), np.zeros(9), period=1.0, lag=lag)

    def test_per_edge_lag_non_negative_and_finite(self):
        grid = grid_csr(3, 3)
        lag = np.full(grid.n_edges, 0.5)
        lag[7] = np.nan
        with pytest.raises(ValueError, match="lag must be non-negative and finite"):
            CompiledTimingKernel(grid, np.zeros(9), period=1.0, lag=lag)

    def test_per_edge_lag_shape_checked(self):
        grid = grid_csr(2, 2)
        with pytest.raises(ValueError):
            CompiledTimingKernel(
                grid, np.zeros(4), period=1.0, lag=np.zeros(grid.n_edges + 1)
            )

    def test_per_edge_lag_accepted_and_matches_scalar(self):
        grid = grid_csr(3, 3)
        rng = np.random.default_rng(5)
        lag = rng.uniform(0.0, 0.8, grid.n_edges)
        kernel = CompiledTimingKernel(
            grid, _offsets(9, 5, 1.0), period=1.0, lag=lag
        )
        fast = kernel.timing(4)
        slow = kernel.timing_scalar(4)
        assert fast.violations == slow.violations
        assert fast.makespan == slow.makespan


class TestTimingResult:
    def test_clean_property(self):
        assert TimingResult(violations=[], makespan=1.0, ticks=2).clean
        sentinel = object()
        assert not TimingResult(
            violations=[sentinel], makespan=1.0, ticks=2
        ).clean

    def test_timing_edges_are_int_pairs(self):
        kernel = _kernel(6, 6, seed=3)
        for v in kernel.timing(4).violations:
            src, dst = v.edge
            assert isinstance(src, int) and isinstance(dst, int)


class TestAdjacencyGenerality:
    def test_non_grid_csr_works(self):
        # A tiny DAG-ish adjacency given directly in CSR form.
        adjacency = CSRAdjacency(
            indptr=np.array([0, 0, 1, 3]),
            indices=np.array([0, 0, 1]),
        )
        kernel = CompiledTimingKernel(
            adjacency, np.array([0.0, 0.4, 0.9]), period=1.0, lag=0.2
        )
        fast = kernel.timing(3)
        slow = kernel.timing_scalar(3)
        assert fast.violations == slow.violations
        assert fast.makespan == slow.makespan
