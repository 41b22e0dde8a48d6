"""Tests for the hybrid synchronization network simulation (Fig. 8)."""

import pytest

from repro.arrays.topologies import mesh
from repro.core.hybrid import build_hybrid
from repro.core.parameters import equipotential_tau
from repro.clocktree.builders import serpentine_clock
from repro.sim.hybrid_sim import simulate_hybrid


class TestHybridSimulation:
    def test_cycle_time_constant_in_array_size(self):
        cycles = []
        for n in (8, 16, 32):
            scheme = build_hybrid(mesh(n, n), element_size=4.0)
            result = simulate_hybrid(scheme, steps=30, delta=1.0)
            cycles.append(result.cycle_time)
        assert max(cycles) - min(cycles) <= 1e-9

    def test_within_analytic_bound(self):
        scheme = build_hybrid(mesh(12, 12), element_size=4.0)
        result = simulate_hybrid(scheme, steps=30, delta=1.0)
        assert result.within_analytic_bound

    def test_jitter_absorbed_without_divergence(self):
        scheme = build_hybrid(mesh(8, 8), element_size=4.0)
        result = simulate_hybrid(scheme, steps=60, delta=1.0, jitter=0.5, seed=2)
        assert result.cycle_time <= result.analytic_cycle_time + 1e-9

    def test_jitter_reproducible(self):
        scheme = build_hybrid(mesh(8, 8), element_size=4.0)
        a = simulate_hybrid(scheme, steps=40, delta=1.0, jitter=0.3, seed=5)
        b = simulate_hybrid(scheme, steps=40, delta=1.0, jitter=0.3, seed=5)
        assert a.completion_time == b.completion_time

    def test_beats_global_equipotential_clock_at_scale(self):
        """The Section VI payoff: hybrid cycle time stays flat while the
        equipotential global clock's period grows with the array diameter."""
        n = 32
        array = mesh(n, n)
        hybrid_cycle = simulate_hybrid(
            build_hybrid(array, element_size=4.0), steps=30, delta=1.0
        ).cycle_time
        global_tau = equipotential_tau(serpentine_clock(array))
        assert global_tau > 5 * hybrid_cycle

    def test_single_element_degenerates_to_local_clock(self):
        scheme = build_hybrid(mesh(4, 4), element_size=8.0)
        result = simulate_hybrid(scheme, steps=20, delta=1.0)
        assert result.elements == 1
        assert result.cycle_time == pytest.approx(
            2.0 * scheme.max_local_distribution() + 1.0
        )

    def test_completion_time_scales_with_steps(self):
        scheme = build_hybrid(mesh(8, 8), element_size=4.0)
        short = simulate_hybrid(scheme, steps=10, delta=1.0)
        long = simulate_hybrid(scheme, steps=40, delta=1.0)
        assert long.completion_time > 3 * short.completion_time

    def test_rejects_bad_args(self):
        scheme = build_hybrid(mesh(4, 4), element_size=2.0)
        with pytest.raises(ValueError):
            simulate_hybrid(scheme, steps=1, delta=1.0)
        with pytest.raises(ValueError):
            simulate_hybrid(scheme, steps=10, delta=-1.0)
        with pytest.raises(ValueError):
            simulate_hybrid(scheme, steps=10, delta=1.0, m=0)


# Golden timings, pinned bit for bit: they hold the handshake recurrence's
# floats and the jitter RNG stream (one draw per element per step, in
# element order) fixed.
GOLDEN_RUNS = [
    # (mesh side, element size, jitter, seed, completion_time, cycle_time)
    (6, 2.0, 0.0, 0, "520.0", "13.0"),
    (8, 4.0, 0.3, 5, "2368.943565633211", "59.21735933280028"),
    (12, 3.0, 0.5, 7, "1296.1500502319682", "32.38954745891816"),
]


@pytest.mark.parametrize("side,size,jitter,seed,completion,cycle", GOLDEN_RUNS)
def test_timing_matches_recorded_golden(side, size, jitter, seed, completion, cycle):
    scheme = build_hybrid(mesh(side, side), element_size=size)
    result = simulate_hybrid(scheme, steps=40, delta=1.0, jitter=jitter, seed=seed)
    assert repr(result.completion_time) == completion
    assert repr(result.cycle_time) == cycle
