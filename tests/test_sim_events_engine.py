"""Unit tests for the discrete-event core."""

import math

import pytest

from repro.sim.engine import Simulator


def _logging(sim, log):
    """``schedule_at(time, label)``: queue an action that logs ``label``."""
    def schedule_at(time, label):
        sim.schedule_at(time, lambda: log.append(label))
    return schedule_at


class TestEventQueue:
    """The event-queue contracts, held by the simulator's own heap:
    time order, FIFO ties, refused times, and ``pending`` for the
    queue's length, truth value and earliest time."""

    def test_time_ordering(self):
        sim, log = Simulator(), []
        push = _logging(sim, log)
        push(3.0, "c")
        push(1.0, "a")
        push(2.0, "b")
        sim.run()
        assert log == ["a", "b", "c"]

    def test_stable_tie_breaking(self):
        sim, log = Simulator(), []
        push = _logging(sim, log)
        push(1.0, "first")
        push(1.0, "second")
        assert sim.run(max_events=1) == 1
        assert log == ["first"]
        sim.run()
        assert log == ["first", "second"]

    def test_peek(self):
        """``run(until=...)`` stops short of the earliest queued time."""
        sim, log = Simulator(), []
        assert sim.pending == 0
        _logging(sim, log)(5.0, "x")
        assert sim.pending == 1
        assert sim.run(until=4.999) == 0
        assert sim.now == 0.0 and sim.pending == 1
        assert sim.run(until=5.0) == 1
        assert sim.now == 5.0 and log == ["x"]

    def test_run_on_empty_queue_processes_nothing(self):
        sim = Simulator()
        assert sim.run() == 0
        assert sim.run(until=1.0, max_events=3) == 0
        assert sim.now == 0.0 and sim.events_processed == 0

    def test_rejects_negative_time(self):
        for bad in (-1.0, math.nan):
            with pytest.raises(ValueError):
                Simulator().schedule_at(bad, lambda: None)
            with pytest.raises(ValueError):
                Simulator().schedule(bad, lambda: None)
        assert Simulator().pending == 0

    def test_bool(self):
        sim = Simulator()
        assert not sim.pending
        sim.schedule(0.0, lambda: None)
        assert sim.pending

    def test_fifo_order_for_equal_times(self):
        """Regression: equal-time events must pop in push order (FIFO) —
        trace diffing relies on runs being event-for-event identical."""
        sim, log = Simulator(), []
        push = _logging(sim, log)
        for i in range(50):
            push(1.0, i)
        sim.run()
        assert log == list(range(50))

    def test_fifo_survives_interleaved_push_pop(self):
        sim, log = Simulator(), []
        push = _logging(sim, log)
        push(1.0, "a")
        push(1.0, "b")
        sim.run(max_events=1)
        assert log == ["a"]
        push(1.0, "c")  # pushed after b, must pop after b
        push(1.0, "d")
        sim.run()
        assert log == ["a", "b", "c", "d"]
        fresh, early = Simulator(), []
        push = _logging(fresh, early)
        push(1.0, "a")
        push(1.0, "b")
        push(0.5, "early")  # pushed last, pops first: time wins over order
        fresh.run()
        assert early == ["early", "a", "b"]


class TestSimulator:
    def test_runs_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, lambda: log.append("late"))
        sim.schedule(1.0, lambda: log.append("early"))
        sim.run()
        assert log == ["early", "late"]
        assert sim.now == 2.0

    def test_callbacks_can_schedule(self):
        sim = Simulator()
        log = []

        def first():
            log.append(sim.now)
            sim.schedule(1.5, lambda: log.append(sim.now))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [1.0, 2.5]

    def test_run_until(self):
        sim = Simulator()
        log = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule(t, lambda t=t: log.append(t))
        sim.run(until=2.0)
        assert log == [1.0, 2.0]
        assert sim.pending == 1

    def test_max_events_guard(self):
        sim = Simulator()

        def rescheduling():
            sim.schedule(1.0, rescheduling)

        sim.schedule(0.0, rescheduling)
        processed = sim.run(max_events=10)
        assert processed == 10

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: sim.schedule_at(0.5, lambda: None))
        with pytest.raises(ValueError):
            sim.run()

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError):
            Simulator().schedule(-0.1, lambda: None)

    def test_event_counter_accumulates(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        sim.schedule(2.0, lambda: None)
        sim.run()
        assert sim.events_processed == 2

    def test_simultaneous_actions_run_in_schedule_order(self):
        """The engine inherits the queue's FIFO tie-break: actions at the
        same instant execute in the order they were scheduled, including
        ones scheduled from a callback at the current time."""
        sim = Simulator()
        log = []
        sim.schedule(1.0, lambda: log.append("first"))
        sim.schedule(1.0, lambda: (log.append("second"),
                                   sim.schedule(0.0, lambda: log.append("nested"))))
        sim.schedule(1.0, lambda: log.append("third"))
        sim.run()
        assert log == ["first", "second", "third", "nested"]


class TestRaisingCallbacks:
    """A callback that raises must not desynchronize the engine's
    accounting from the popped event (the dispatch-consistency bugfix)."""

    def test_events_processed_counts_the_raising_event(self):
        sim = Simulator()

        def boom():
            raise RuntimeError("payload failure")

        sim.schedule(1.0, lambda: None)
        sim.schedule(2.0, boom)
        sim.schedule(3.0, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run()
        # Two events were popped and dispatched (the second one fatally).
        assert sim.events_processed == 2
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_dispatch_span_and_metrics_emitted_on_raise(self):
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import RecordingTracer

        tracer = RecordingTracer()
        metrics = MetricsRegistry()
        sim = Simulator(tracer=tracer, metrics=metrics)

        def boom():
            raise ValueError("nope")

        sim.schedule(1.0, boom)
        with pytest.raises(ValueError):
            sim.run()
        dispatches = tracer.by_kind("engine", "dispatch")
        assert len(dispatches) == 1
        assert dispatches[0].data["error"] is True
        assert dispatches[0].data["queue_depth"] == 0
        assert metrics.counter("engine.events").value == 1
        assert metrics.counter("engine.dispatch_errors").value == 1
        assert metrics.gauge("engine.queue_depth").value == 0

    def test_successful_dispatch_payload_unchanged(self):
        from repro.obs.trace import RecordingTracer

        tracer = RecordingTracer()
        sim = Simulator(tracer=tracer)
        sim.schedule(1.0, lambda: None)
        sim.run()
        (event,) = tracer.by_kind("engine", "dispatch")
        assert set(event.data) == {"wall_s", "queue_depth"}

    def test_run_resumes_after_a_raise(self):
        sim = Simulator()
        ran = []

        def boom():
            raise RuntimeError("once")

        sim.schedule(1.0, boom)
        sim.schedule(2.0, lambda: ran.append("later"))
        with pytest.raises(RuntimeError):
            sim.run()
        sim.run()
        assert ran == ["later"]
        assert sim.events_processed == 2
