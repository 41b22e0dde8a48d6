"""The discrete-event simulation engine.

A thin driver over :class:`~repro.sim.events.EventQueue`: payloads are
zero-argument callables executed at their scheduled time; callbacks may
schedule further events.  Time never runs backwards (scheduling in the past
raises), and the run is fully deterministic for deterministic callbacks.

Optionally observable: pass a :class:`~repro.obs.trace.Tracer` to record a
span per dispatched event (with the wall-clock cost of the callback and
the queue depth after it), and a
:class:`~repro.obs.metrics.MetricsRegistry` to collect an event counter
and a queue-depth gauge.  Tripping the ``max_events`` runaway guard emits
an ``engine/runaway_guard`` warning event.  Both default to off and cost
nothing when disabled.
"""

from __future__ import annotations

import math
import time as _time
from typing import Callable, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.events import EventQueue

Action = Callable[[], None]


class Simulator:
    """Run scheduled actions in time order."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._queue = EventQueue()
        self.now = 0.0
        self.events_processed = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def schedule(self, delay: float, action: Action) -> None:
        """Schedule ``action`` at ``now + delay`` (delay >= 0; NaN is
        refused)."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule after a delay of {delay!r}")
        self._queue.push(self.now + delay, action)

    def schedule_at(self, time: float, action: Action) -> None:
        """Schedule ``action`` at an absolute time >= now (NaN is
        refused)."""
        if not time >= self.now:
            raise ValueError(f"cannot schedule at {time} < now ({self.now})")
        self._queue.push(time, action)

    def run(
        self,
        until: float = math.inf,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events in order until the queue drains, simulated time
        passes ``until``, or ``max_events`` are processed (a runaway guard).
        Returns the number of events processed in this call."""
        processed = 0
        tracer = self.tracer
        metrics = self.metrics
        if tracer is NULL_TRACER and metrics is NULL_METRICS:
            # Uninstrumented fast path: no span bookkeeping, no per-event
            # wall-clock reads, no try/finally per dispatch.  The dataflow
            # and handshake simulators schedule one closure per token, so
            # dispatch overhead is a first-order cost at array scale.
            queue = self._queue
            try:
                if until is math.inf and max_events is None:
                    while queue:
                        time, action = queue.pop()
                        self.now = time
                        processed += 1
                        action()
                else:
                    while queue:
                        next_time = queue.peek_time()
                        if next_time > until:
                            break
                        if max_events is not None and processed >= max_events:
                            break
                        time, action = queue.pop()
                        self.now = time
                        processed += 1
                        action()
            finally:
                self.events_processed += processed
            return processed
        # Read once per run: with metrics off, the loop below skips the
        # per-event counter and gauge calls entirely.
        counting = metrics.enabled
        event_counter = metrics.counter("engine.events")
        depth_gauge = metrics.gauge("engine.queue_depth")
        run_t0 = _time.perf_counter()
        try:
            while self._queue:
                next_time = self._queue.peek_time()
                assert next_time is not None
                if next_time > until:
                    break
                if max_events is not None and processed >= max_events:
                    # The guard fired with work still queued — a likely runaway
                    # (a deadlocked protocol or a self-rescheduling loop).
                    if tracer.enabled:
                        tracer.event(
                            self.now,
                            "engine",
                            "runaway_guard",
                            limit=max_events,
                            pending=len(self._queue),
                        )
                    metrics.counter("engine.runaway_guards").inc()
                    break
                time, action = self._queue.pop()
                self.now = time
                # The popped event counts as processed whether or not its
                # callback raises: counters, gauges, and the dispatch span
                # must stay consistent with the queue state.
                failed = False
                t0 = _time.perf_counter() if tracer.enabled else 0.0
                try:
                    action()
                except BaseException:
                    failed = True
                    raise
                finally:
                    processed += 1
                    if tracer.enabled:
                        data = {
                            "wall_s": _time.perf_counter() - t0,
                            "queue_depth": len(self._queue),
                        }
                        if failed:
                            data["error"] = True
                        tracer.event(time, "engine", "dispatch", **data)
                    if counting:
                        event_counter.inc()
                        depth_gauge.set(len(self._queue))
                        if failed:
                            metrics.counter("engine.dispatch_errors").inc()
            if tracer.enabled:
                # End-of-run summary so a trace shows where the engine
                # stopped (drained vs. guard/until) without replaying
                # every dispatch.
                tracer.event(
                    self.now,
                    "engine",
                    "run",
                    processed=processed,
                    pending=len(self._queue),
                    wall_s=_time.perf_counter() - run_t0,
                )
        finally:
            self.events_processed += processed
        return processed

    @property
    def pending(self) -> int:
        return len(self._queue)
