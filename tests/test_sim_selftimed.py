"""Tests for the self-timed array analysis (Section I's 1 - p^k argument)."""

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.sim.selftimed import (
    simulate_selftimed_line,
    simulate_selftimed_wavefront,
    two_point_sampler,
    worst_case_path_probability,
)


class TestFormula:
    def test_values(self):
        assert worst_case_path_probability(0.9, 1) == pytest.approx(0.1)
        assert worst_case_path_probability(0.9, 2) == pytest.approx(0.19)

    def test_approaches_one(self):
        assert worst_case_path_probability(0.99, 1000) > 0.9999

    def test_certain_worst_case(self):
        assert worst_case_path_probability(0.0, 5) == 1.0

    def test_never_worst_case(self):
        assert worst_case_path_probability(1.0, 5) == 0.0

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            worst_case_path_probability(1.5, 3)
        with pytest.raises(ValueError):
            worst_case_path_probability(0.5, 0)


class TestSampler:
    def test_two_point_values(self):
        import random

        sampler = two_point_sampler(1.0, 2.0, 0.5)
        rng = random.Random(0)
        values = {sampler(rng) for _ in range(100)}
        assert values == {1.0, 2.0}

    def test_probability_respected(self):
        import random

        sampler = two_point_sampler(1.0, 2.0, 0.25)
        rng = random.Random(1)
        n = 4000
        worst = sum(1 for _ in range(n) if sampler(rng) == 2.0)
        assert worst / n == pytest.approx(0.25, abs=0.02)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            two_point_sampler(0.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            two_point_sampler(2.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            two_point_sampler(1.0, 2.0, 1.5)


class TestSimulation:
    def test_deterministic_services_give_exact_cycle(self):
        result = simulate_selftimed_line(8, 50, lambda rng: 1.0)
        assert result.mean_cycle_time == pytest.approx(1.0)
        assert result.worst_case_cycle == 1.0

    def test_worst_case_fraction_matches_formula(self):
        p_worst = 0.05
        sampler = two_point_sampler(1.0, 2.0, p_worst)
        for k in (4, 16, 64):
            result = simulate_selftimed_line(
                k, 600, sampler, seed=7, worst_time=2.0
            )
            predicted = worst_case_path_probability(1 - p_worst, k)
            assert result.worst_case_fraction == pytest.approx(predicted, abs=0.08)

    def test_blocking_slower_than_fifo(self):
        sampler = two_point_sampler(1.0, 2.0, 0.1)
        blocking = simulate_selftimed_line(64, 300, sampler, seed=5, blocking=True)
        fifo = simulate_selftimed_line(64, 300, sampler, seed=5, blocking=False)
        assert blocking.mean_cycle_time > fifo.mean_cycle_time

    def test_cycle_time_grows_with_array_length(self):
        """Larger arrays lose more of the self-timing advantage."""
        sampler = two_point_sampler(1.0, 2.0, 0.05)
        short = simulate_selftimed_line(4, 400, sampler, seed=9)
        long = simulate_selftimed_line(128, 400, sampler, seed=9)
        assert long.mean_cycle_time > short.mean_cycle_time

    def test_cycle_between_best_and_worst(self):
        sampler = two_point_sampler(1.0, 3.0, 0.2)
        result = simulate_selftimed_line(32, 300, sampler, seed=2)
        assert result.best_case_cycle <= result.mean_cycle_time <= result.worst_case_cycle

    def test_slowdown_metric(self):
        sampler = two_point_sampler(1.0, 2.0, 0.3)
        result = simulate_selftimed_line(64, 300, sampler, seed=3)
        assert result.slowdown_vs_best > 1.2

    def test_wire_delay_adds_to_cycle(self):
        base = simulate_selftimed_line(16, 200, lambda rng: 1.0)
        wired = simulate_selftimed_line(16, 200, lambda rng: 1.0, wire_delay=0.5)
        assert wired.completion_time > base.completion_time

    def test_reproducible(self):
        sampler = two_point_sampler(1.0, 2.0, 0.1)
        a = simulate_selftimed_line(16, 100, sampler, seed=4)
        b = simulate_selftimed_line(16, 100, sampler, seed=4)
        assert a.completion_time == b.completion_time

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            simulate_selftimed_line(0, 10, lambda rng: 1.0)
        with pytest.raises(ValueError):
            simulate_selftimed_line(4, 1, lambda rng: 1.0)
        with pytest.raises(ValueError):
            simulate_selftimed_line(4, 10, lambda rng: 1.0, wire_delay=-1)


def _uniform(rng):
    return rng.uniform(0.5, 1.5)


# name -> (simulator, positional args, keyword args).
_GOLDEN_RUNS = {
    "line_n1": ("line", (1, 10, _uniform), dict(seed=1)),
    "line_16x40_blocking_w025": (
        "line", (16, 40, two_point_sampler(1.0, 2.0, 0.2)),
        dict(wire_delay=0.25, seed=3, blocking=True)),
    "line_16x40_unbounded_w0": (
        "line", (16, 40, _uniform), dict(wire_delay=0.0, seed=4, blocking=False)),
    "line_64x100_blocking_w13": (
        "line", (64, 100, two_point_sampler(1.0, 2.0, 0.1)),
        dict(wire_delay=1 / 3, seed=7, worst_time=2.0, blocking=True)),
    "line_e3_512": (
        "line", (512, 300, two_point_sampler(1.0, 2.0, 0.05)),
        dict(seed=11, worst_time=2.0, blocking=True)),
    "wavefront_1x6": (
        "wavefront", (1, 6, 40, two_point_sampler(1.0, 2.0, 0.2)), dict(seed=5)),
    "wavefront_6x1": ("wavefront", (6, 1, 40, _uniform), dict(seed=6)),
    "wavefront_5x7": (
        "wavefront", (5, 7, 40, two_point_sampler(1.0, 2.0, 0.2)),
        dict(seed=8, worst_time=2.0)),
}

# name -> (repr of the result, (count, sum) of selftimed.service_time,
# (count, sum) of selftimed.stall_time), recorded from the per-(cell,
# wave) loops these simulators ran before they moved onto the
# recurrence stepper.
_GOLDENS = {
    "line_n1": (
        "SelfTimedResult(n_cells=1, waves=10, completion_time=9.508091164800865, "
        "mean_cycle_time=0.890630846788629, worst_case_cycle=1.3474337369372327, "
        "best_case_cycle=0.5283474765220063, waves_hitting_worst_case=1)",
        (10, 9.508091164800865), (10, 0.0),
    ),
    "line_16x40_blocking_w025": (
        "SelfTimedResult(n_cells=16, waves=40, completion_time=105.25, "
        "mean_cycle_time=2.0, worst_case_cycle=2.25, best_case_cycle=1.25, "
        "waves_hitting_worst_case=38)",
        (640, 769.0), (640, 148.25),
    ),
    "line_16x40_unbounded_w0": (
        "SelfTimedResult(n_cells=16, waves=40, completion_time=65.32322291835516, "
        "mean_cycle_time=1.1234543294964763, worst_case_cycle=1.4976365270880905, "
        "best_case_cycle=0.5009014462790823, waves_hitting_worst_case=1)",
        (640, 646.79828375777), (640, 0.0),
    ),
    "line_64x100_blocking_w13": (
        "SelfTimedResult(n_cells=64, waves=100, completion_time=295.0000000000001, "
        "mean_cycle_time=2.047619047619045, worst_case_cycle=2.3333333333333335, "
        "best_case_cycle=1.3333333333333333, waves_hitting_worst_case=100)",
        (6400, 7022.0), (6400, 1178.000000000003),
    ),
    "line_e3_512": (
        "SelfTimedResult(n_cells=512, waves=300, completion_time=1044.0, "
        "mean_cycle_time=1.516778523489933, worst_case_cycle=2.0, "
        "best_case_cycle=1.0, waves_hitting_worst_case=300)",
        (153600, 161310.0), (153600, 14615.0),
    ),
    "wavefront_1x6": (
        "SelfTimedResult(n_cells=6, waves=40, completion_time=61.0, "
        "mean_cycle_time=1.263157894736842, worst_case_cycle=2.0, "
        "best_case_cycle=1.0, waves_hitting_worst_case=28)",
        (240, 289.0), (240, 39.0),
    ),
    "wavefront_6x1": (
        "SelfTimedResult(n_cells=6, waves=40, completion_time=52.33568193662149, "
        "mean_cycle_time=1.2130815896171605, worst_case_cycle=1.4998785964307024, "
        "best_case_cycle=0.500451714885071, waves_hitting_worst_case=1)",
        (240, 240.63268040833293), (240, 35.661896299694334),
    ),
    "wavefront_5x7": (
        "SelfTimedResult(n_cells=35, waves=40, completion_time=73.0, "
        "mean_cycle_time=1.4736842105263157, worst_case_cycle=2.0, "
        "best_case_cycle=1.0, waves_hitting_worst_case=36)",
        (1400, 1672.0), (1400, 511.0),
    ),
}


@pytest.mark.parametrize("name", sorted(_GOLDENS))
def test_results_and_histograms_match_the_recorded_goldens(name):
    kind, args, kwargs = _GOLDEN_RUNS[name]
    simulate = (
        simulate_selftimed_line if kind == "line" else simulate_selftimed_wavefront
    )
    metrics = MetricsRegistry()
    result = simulate(*args, metrics=metrics, **kwargs)
    service = metrics.histogram("selftimed.service_time")
    stall = metrics.histogram("selftimed.stall_time")
    assert (
        repr(result), (service.total, service.sum), (stall.total, stall.sum)
    ) == _GOLDENS[name]
