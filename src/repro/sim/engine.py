"""The discrete-event simulation engine.

Events are ``(time, sequence, action)`` triples in the simulator's own
binary heap: actions are zero-argument callables executed at their
scheduled time, and callbacks may schedule further events.  The sequence
number breaks ties, so equal-time events run strictly in the order they
were scheduled (FIFO); trace diffing relies on two runs of the same
deterministic model producing identical event orders.  Time never runs
backwards (scheduling in the past raises), and the run is fully
deterministic for deterministic callbacks.

Optionally observable: pass a :class:`~repro.obs.trace.Tracer` to record a
span per dispatched event (with the wall-clock cost of the callback and
the queue depth after it), and a
:class:`~repro.obs.metrics.MetricsRegistry` to collect an event counter
and a queue-depth gauge.  Tripping the ``max_events`` runaway guard emits
an ``engine/runaway_guard`` warning event.  Both default to off and cost
nothing when disabled.
"""

from __future__ import annotations

import itertools
import math
import time as _time
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

Action = Callable[[], None]


class Simulator:
    """Run scheduled actions in time order."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._heap: List[Tuple[float, int, Action]] = []
        self._seq = itertools.count()
        self.now = 0.0
        self.events_processed = 0
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else NULL_METRICS

    def schedule(self, delay: float, action: Action) -> None:
        """Schedule ``action`` at ``now + delay`` (delay >= 0; NaN is
        refused)."""
        if not delay >= 0:
            raise ValueError(f"cannot schedule after a delay of {delay!r}")
        heappush(self._heap, (self.now + delay, next(self._seq), action))

    def schedule_at(self, time: float, action: Action) -> None:
        """Schedule ``action`` at an absolute time >= now (NaN is
        refused)."""
        if not time >= self.now:
            raise ValueError(f"cannot schedule at {time} < now ({self.now})")
        heappush(self._heap, (time, next(self._seq), action))

    def run(
        self,
        until: float = math.inf,
        max_events: Optional[int] = None,
    ) -> int:
        """Process events in order until the queue drains, simulated time
        passes ``until``, or ``max_events`` are processed (a runaway guard).
        Returns the number of events processed in this call.

        After each pop the FIFO invariant is asserted: any event still
        queued at the same time carries a later sequence number."""
        processed = 0
        tracer = self.tracer
        metrics = self.metrics
        heap = self._heap
        if tracer is NULL_TRACER and metrics is NULL_METRICS:
            # Uninstrumented fast path: no span bookkeeping, no per-event
            # wall-clock reads, no try/finally per dispatch.  The dataflow
            # and handshake simulators schedule one action per token, so
            # dispatch overhead is a first-order cost at array scale.
            try:
                if until is math.inf and max_events is None:
                    while heap:
                        time, seq, action = heappop(heap)
                        assert not heap or heap[0][:2] > (time, seq)
                        self.now = time
                        processed += 1
                        action()
                else:
                    while heap:
                        if heap[0][0] > until:
                            break
                        if max_events is not None and processed >= max_events:
                            break
                        time, seq, action = heappop(heap)
                        assert not heap or heap[0][:2] > (time, seq)
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
            while heap:
                if heap[0][0] > until:
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
                            pending=len(heap),
                        )
                    metrics.counter("engine.runaway_guards").inc()
                    break
                time, seq, action = heappop(heap)
                assert not heap or heap[0][:2] > (time, seq)
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
                            "queue_depth": len(heap),
                        }
                        if failed:
                            data["error"] = True
                        tracer.event(time, "engine", "dispatch", **data)
                    if counting:
                        event_counter.inc()
                        depth_gauge.set(len(heap))
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
                    pending=len(heap),
                    wall_s=_time.perf_counter() - run_t0,
                )
        finally:
            self.events_processed += processed
        return processed

    @property
    def pending(self) -> int:
        """How many events are queued."""
        return len(self._heap)
