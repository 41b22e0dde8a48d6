"""The observability layer threaded through the simulators.

The load-bearing property: instrumentation must *observe*, never
*perturb* — every traced run must produce exactly the results of its
untraced twin (golden tests below), while the tracer/metrics side
channels fill with the time-resolved story.
"""

import pytest

from repro.arrays.systolic import build_fir_array
from repro.arrays.topologies import mesh
from repro.analysis.montecarlo import run_trials
from repro.clocktree.buffered import BufferedClockTree
from repro.clocktree.spine import spine_clock
from repro.core.hybrid import build_hybrid
from repro.delay.variation import NoVariation
from repro.obs.metrics import MetricsRegistry
from repro.obs.replay import summarize_trace
from repro.obs.trace import JsonlTracer, RecordingTracer, load_trace
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator
from repro.sim.engine import Simulator
from repro.sim.faults import JitteredSchedule, summarize_violations
from repro.sim.handshake import run_handshake_pipeline, run_handshake_wavefront
from repro.sim.hybrid_sim import simulate_hybrid
from repro.sim.selftimed import simulate_selftimed_line, two_point_sampler


def fir_program_and_schedule(period=10.0):
    program = build_fir_array([1.0, 2.0, -1.0], [3.0, 1.0, 4.0, 1.0, 5.0])
    buffered = BufferedClockTree(
        spine_clock(program.array, order=["snk", 2, 1, 0, "src"]),
        wire_variation=NoVariation(),
    )
    schedule = ClockSchedule.from_buffered_tree(
        buffered, period, program.array.comm.nodes()
    )
    return program, schedule


class TestEngineInstrumentation:
    def test_dispatch_events_and_queue_gauge(self):
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        sim = Simulator(tracer=tracer, metrics=metrics)
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda: None)
        sim.run()
        dispatches = tracer.by_kind("engine", "dispatch")
        assert len(dispatches) == 3
        assert [e.t for e in dispatches] == [1.0, 2.0, 3.0]
        assert all(e.data["wall_s"] >= 0.0 for e in dispatches)
        assert metrics.counter("engine.events").value == 3
        assert metrics.gauge("engine.queue_depth").value == 0

    def test_runaway_guard_warns(self):
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        sim = Simulator(tracer=tracer, metrics=metrics)

        def reschedule():
            sim.schedule(1.0, reschedule)

        sim.schedule(0.0, reschedule)
        sim.run(max_events=5)
        (guard,) = tracer.by_kind("engine", "runaway_guard")
        assert guard.data["limit"] == 5
        assert guard.data["pending"] >= 1
        assert metrics.counter("engine.runaway_guards").value == 1

    def test_untraced_engine_unchanged(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append(sim.now))
        assert sim.run() == 1
        assert log == [1.0]


class TestClockedTracing:
    def test_traced_run_matches_untraced(self):
        program, base = fir_program_and_schedule(period=4.0)
        jittered = JitteredSchedule(base, amplitude=1.9, seed=7)
        plain = ClockedArraySimulator(program, jittered, delta=1.0).run()
        tracer = RecordingTracer()
        traced = ClockedArraySimulator(
            program, jittered, delta=1.0, tracer=tracer
        ).run()
        assert traced.result == plain.result
        assert traced.violations == plain.violations
        assert traced.makespan == plain.makespan

    def test_fire_and_violation_events(self):
        program, base = fir_program_and_schedule(period=4.0)
        jittered = JitteredSchedule(base, amplitude=1.9, seed=7)
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        result = ClockedArraySimulator(
            program, jittered, delta=1.0, tracer=tracer, metrics=metrics
        ).run()
        assert not result.clean
        fires = tracer.by_kind("tick", "fire")
        n_cells = len(program.array.comm.nodes())
        assert len(fires) == n_cells * result.ticks
        violation_events = tracer.by_category("violation")
        assert len(violation_events) == len(result.violations)
        # Each violation event is time-resolved and carries its edge.
        event = violation_events[0]
        assert event.kind in ("stale", "race")
        assert "edge" in event.data and "receiver_tick" in event.data
        assert metrics.counter("clocked.violations").value == len(result.violations)
        assert metrics.histogram("clocked.tick_skew").total == result.ticks

    def test_jsonl_trace_replays_to_violation_timeline(self, tmp_path):
        """A8-breakage end to end: break the schedule, trace to disk,
        replay — the summary shows *when* the failures happened."""
        program, base = fir_program_and_schedule(period=4.0)
        jittered = JitteredSchedule(base, amplitude=1.9, seed=7)
        path = str(tmp_path / "a8.jsonl")
        with JsonlTracer(path) as tracer:
            result = ClockedArraySimulator(
                program, jittered, delta=1.0, tracer=tracer
            ).run()
        summary = summarize_trace(load_trace(path))
        assert summary.total_violations == len(result.violations)
        assert summary.violation_timeline  # time-resolved, not a flat list
        ticks = [t for t, _s, _r in summary.violation_timeline]
        vsummary = summarize_violations(result.violations)
        assert min(ticks) == vsummary.first_failure_tick
        assert max(ticks) == vsummary.last_failure_tick
        assert summary.skew_samples == result.ticks
        assert summary.max_skew > 0.0


class TestHybridTracing:
    def test_traced_matches_untraced_golden(self):
        scheme = build_hybrid(mesh(8, 8), element_size=4.0)
        plain = simulate_hybrid(scheme, steps=10, delta=1.0, jitter=0.3, seed=3)
        tracer = RecordingTracer()
        traced = simulate_hybrid(
            scheme, steps=10, delta=1.0, jitter=0.3, seed=3, tracer=tracer
        )
        assert traced == plain  # byte-identical dataclass, same RNG stream

    def test_step_events_and_skew_metrics(self):
        scheme = build_hybrid(mesh(8, 8), element_size=4.0)
        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        result = simulate_hybrid(
            scheme, steps=10, delta=1.0, jitter=0.3, seed=3,
            tracer=tracer, metrics=metrics,
        )
        assert len(tracer.by_kind("hybrid", "step")) == result.elements * 10
        assert len(tracer.by_kind("hybrid", "step_summary")) == 10
        assert metrics.histogram("hybrid.step_skew").total == 10
        assert metrics.gauge("hybrid.cycle_time").value == pytest.approx(
            result.cycle_time
        )


class TestSelfTimedMetrics:
    def test_results_identical_and_histograms_filled(self):
        sampler = two_point_sampler(1.0, 3.0, 0.2)
        plain = simulate_selftimed_line(8, 40, sampler, seed=5)
        metrics = MetricsRegistry()
        observed = simulate_selftimed_line(8, 40, sampler, seed=5, metrics=metrics)
        assert observed == plain
        service = metrics.histogram("selftimed.service_time")
        assert service.total == 8 * 40
        stall = metrics.histogram("selftimed.stall_time")
        assert stall.total == 8 * 40
        # Blocking backpressure must show up as nonzero stalls somewhere.
        assert stall.sum > 0.0


class TestHandshakeMetrics:
    def test_pipeline_histograms(self):
        sampler = two_point_sampler(1.0, 4.0, 0.3)
        plain = run_handshake_pipeline(4, 20, sampler, seed=2)
        metrics = MetricsRegistry()
        observed = run_handshake_pipeline(4, 20, sampler, seed=2, metrics=metrics)
        assert observed.arrival_times == plain.arrival_times
        service = metrics.histogram("handshake.service_time")
        assert service.total == 4 * 20  # every stage latches every item
        stall = metrics.histogram("handshake.stall_time")
        assert stall.total > 0
        assert stall.sum > 0.0  # a slow stage blocked its upstream

    def test_wavefront_histograms_and_engine_metrics(self):
        sampler = two_point_sampler(1.0, 2.0, 0.2)
        metrics = MetricsRegistry()
        result = run_handshake_wavefront(3, 3, 5, sampler, seed=1, metrics=metrics)
        assert result.items == 5
        assert metrics.histogram("handshake.service_time").total == 9 * 5
        assert metrics.counter("engine.events").value == result.events_processed


class TestMonteCarloProgress:
    def test_trial_events_and_summary(self):
        tracer = RecordingTracer()
        summary = run_trials(lambda seed: float(seed), 5, base_seed=10, tracer=tracer)
        trials = tracer.by_kind("montecarlo", "trial")
        assert len(trials) == 5
        assert [e.data["seed"] for e in trials] == [10, 11, 12, 13, 14]
        assert trials[-1].data["completed"] == 5
        assert all(e.data["wall_s"] >= 0.0 for e in trials)
        (final,) = tracer.by_kind("montecarlo", "summary")
        assert final.data["mean"] == pytest.approx(summary.mean)

    def test_untraced_unchanged(self):
        a = run_trials(lambda seed: float(seed % 3), 6)
        b = run_trials(lambda seed: float(seed % 3), 6, tracer=RecordingTracer())
        assert a == b


class TestViolationSummaryExport:
    def test_last_tick_and_per_cell(self):
        from repro.sim.clocked import TimingViolation

        violations = [
            TimingViolation(("a", "b"), 2, 1, 0),
            TimingViolation(("a", "b"), 7, 6, 5),
            TimingViolation(("c", "b"), 4, 3, 4),
            TimingViolation(("c", "d"), 5, 4, 3),
        ]
        summary = summarize_violations(violations)
        assert summary.first_failure_tick == 2
        assert summary.last_failure_tick == 7
        assert summary.per_cell == {"b": 3, "d": 1}

    def test_to_dict_round_trips_through_json(self):
        import json

        from repro.sim.clocked import TimingViolation

        summary = summarize_violations(
            [TimingViolation(("a", "b"), 2, 1, 0), TimingViolation(("a", "b"), 3, 2, 3)]
        )
        exported = json.loads(json.dumps(summary.to_dict()))
        assert exported["total"] == 2
        assert exported["stale"] == 1
        assert exported["race"] == 1
        assert exported["first_failure_tick"] == 2
        assert exported["last_failure_tick"] == 3
        assert exported["worst_edge"] == ["a", "b"]
        assert exported["worst_edge_count"] == 2
        assert exported["per_cell"] == {"b": 2}

    def test_empty_summary_to_dict(self):
        exported = summarize_violations([]).to_dict()
        assert exported["total"] == 0
        assert exported["per_cell"] == {}
