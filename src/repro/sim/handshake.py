"""Signal-level self-timed pipelines: request/acknowledge handshaking.

Where :mod:`repro.sim.selftimed` computes completion times by recurrence,
this module simulates the *protocol* Seitz-style self-timed cells actually
run, one signal event at a time, on the discrete-event engine:

* a stage that finishes computing raises ``req`` to its successor (the
  request travels the wire);
* a free successor latches the data, returns ``ack`` (travelling back), and
  starts computing; a busy successor leaves the request pending — the
  sender stays blocked holding its token;
* a stage's slot frees when its own downstream transfer is acknowledged.

Three flow-control disciplines are modelled, all with *finite* storage —
a stage (or its buffers) can only ever hold a bounded number of tokens,
and a full stage backpressures its producer by withholding the ack:

* **unbuffered** (:class:`_Stage`): one token per stage; the steady-state
  cycle is ``compute + 2 * wire`` — every transfer pays the handshake
  round trip that clocked schemes amortize into the clock period;
* **buffered** (:class:`_BufferedStage`, ``buffered=True``): a one-deep
  output skid buffer decouples the compute slot from the downstream
  round trip, cutting the steady cycle to ``max(compute, 2 * wire)``;
* **credit-based** (:func:`run_credit_pipeline`): the receiver advertises
  a ``credits``-deep input FIFO; the sender spends a credit per token and
  recovers it when the receiver drains a slot, so the steady cycle is
  ``max(compute, 2 * wire / credits)`` — throughput reaches the compute
  bound once the in-flight credits cover the round-trip bandwidth-delay
  product (``credits >= 2 * wire / compute``).

The size-independence claim the paper credits self-timed schemes with —
"time required for a communication event between two cells is independent
of the size of the entire processor array" — holds in every discipline
(each law above involves only per-stage quantities); the disciplines
differ only in how much of the handshake round trip they hide.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import Tracer
from repro.sim.engine import Simulator

ComputeSampler = Callable[[random.Random], float]


@dataclass
class HandshakeResult:
    """Outcome of a handshake pipeline run."""

    items: int
    stages: int
    arrival_times: List[float]
    events_processed: int
    wire_delay: float

    @property
    def completion_time(self) -> float:
        return self.arrival_times[-1] if self.arrival_times else 0.0

    @property
    def steady_cycle_time(self) -> float:
        """Inter-arrival time at the sink over the second half of the run.

        Degenerate runs are well-defined: a single arrival (one item, or
        an empty run) has no inter-arrival interval, so the first item's
        latency — ``completion_time`` — stands in for the cycle; two or
        three arrivals use the mean inter-arrival gap over the whole run
        (too short for a fill/steady split, but never the old
        fill-latency-polluted ``completion / n``).
        """
        n = len(self.arrival_times)
        if n <= 1:
            return self.completion_time
        if n < 4:
            return (self.arrival_times[-1] - self.arrival_times[0]) / (n - 1)
        half = n // 2
        tail = self.arrival_times[half:]
        return (tail[-1] - tail[0]) / (len(tail) - 1)


class _Stage:
    """One pipeline stage's handshake state machine."""

    __slots__ = (
        "index", "compute", "computing", "holding",
        "pending", "downstream", "upstream", "sim", "wire",
        "metrics", "pending_since",
    )

    def __init__(
        self,
        index: int,
        compute: Callable[[], float],
        sim: Simulator,
        wire: float,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.index = index
        self.compute = compute
        self.computing = False
        self.holding = False          # finished token awaiting downstream ack
        self.pending: Optional[Any] = None
        self.downstream: Optional["_Stage"] = None
        self.upstream: Optional["_Stage"] = None
        self.sim = sim
        self.wire = wire
        self.metrics = metrics
        self.pending_since = 0.0

    # -- incoming request -------------------------------------------------
    def on_req(self, data: Any) -> None:
        if self.computing or self.holding:
            if self.pending is not None:
                raise AssertionError(
                    f"stage {self.index}: protocol violation — second request "
                    f"arrived before the first was latched"
                )
            self.pending = data
            self.pending_since = self.sim.now
            return
        self._observe_stall(0.0)
        self._latch(data)

    def _observe_stall(self, stall: float) -> None:
        self.metrics.histogram("handshake.stall_time").observe(stall)

    def _latch(self, data: Any) -> None:
        self.computing = True
        if self.upstream is not None:
            self.sim.schedule(self.wire, self.upstream.on_ack)
        duration = self.compute()
        self.metrics.histogram("handshake.service_time").observe(duration)
        self.sim.schedule(duration, lambda: self._compute_done(data))

    def _compute_done(self, data: Any) -> None:
        self.computing = False
        self.holding = True
        if self.downstream is not None:
            self.sim.schedule(self.wire, lambda: self.downstream.on_req(data))

    # -- incoming acknowledge ---------------------------------------------
    def on_ack(self) -> None:
        self.holding = False
        if self.pending is not None and not self.computing:
            data, self.pending = self.pending, None
            # The request waited for this stage to free up — stall time.
            self._observe_stall(self.sim.now - self.pending_since)
            self._latch(data)


class _BufferedStage(_Stage):
    """A stage with a one-deep output skid buffer (the zipcpu-style
    valid/ready interlock): a finished token moves into the buffer, which
    owns the downstream request/ack round trip, freeing the compute slot
    to latch the next input immediately.  ``holding`` now means the
    compute slot is blocked behind a still-full skid (two tokens resident:
    one in the skid awaiting the ack, one finished in the slot).

    Steady-state law (tested): the cycle drops from the unbuffered
    ``compute + 2 * wire`` to ``max(compute, 2 * wire)`` — the buffer
    hides the handshake round trip whenever compute dominates, at the
    price of one extra token of storage per stage.
    """

    __slots__ = ("skid_full", "held")

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.skid_full = False        # skid token awaiting downstream ack
        self.held: Optional[Any] = None  # finished token stuck in the slot

    def _push_skid(self, data: Any) -> None:
        self.skid_full = True
        if self.downstream is not None:
            self.sim.schedule(self.wire, lambda: self.downstream.on_req(data))

    def _compute_done(self, data: Any) -> None:
        self.computing = False
        if not self.skid_full:
            self._push_skid(data)
        else:
            self.holding = True
            self.held = data
        if not self.holding and self.pending is not None:
            queued, self.pending = self.pending, None
            self._observe_stall(self.sim.now - self.pending_since)
            self._latch(queued)

    def on_ack(self) -> None:
        self.skid_full = False
        if self.holding:
            self.holding = False
            held, self.held = self.held, None
            self._push_skid(held)
        if self.pending is not None and not self.computing and not self.holding:
            data, self.pending = self.pending, None
            self._observe_stall(self.sim.now - self.pending_since)
            self._latch(data)


class _Source(_Stage):
    """Injects a fixed list of items as fast as acks allow.

    Re-entrancy note (audited for the zero-wire-delay case): every signal
    traversal — including ``on_ack`` — arrives as a *scheduled* event even
    at ``wire == 0``, never as a synchronous call from inside
    ``_try_send``.  ``_try_send`` sets ``holding`` before scheduling the
    request, and ``on_ack`` clears it before retrying, so a send can never
    interleave with itself; the engine's FIFO tie-break makes the order of
    same-timestamp events deterministic.  The ``on_req`` protocol
    assertion in :class:`_Stage` would trip on any double-send — the
    zero-delay pinning tests drive exactly that path.
    """

    __slots__ = ("items", "next_index")

    def __init__(self, items: List[Any], sim: Simulator, wire: float) -> None:
        super().__init__(-1, lambda: 0.0, sim, wire)
        self.items = items
        self.next_index = 0

    def start(self) -> None:
        self._try_send()

    def _try_send(self) -> None:
        if self.next_index >= len(self.items) or self.holding:
            return
        data = self.items[self.next_index]
        self.next_index += 1
        self.holding = True
        if self.downstream is not None:
            self.sim.schedule(self.wire, lambda: self.downstream.on_req(data))

    def on_ack(self) -> None:
        self.holding = False
        self._try_send()


class _Sink(_Stage):
    """Accepts everything immediately, recording arrival times."""

    __slots__ = ("arrivals",)

    def __init__(self, sim: Simulator, wire: float) -> None:
        super().__init__(10**9, lambda: 0.0, sim, wire)
        self.arrivals: List[Tuple[float, Any]] = []

    def on_req(self, data: Any) -> None:
        self.arrivals.append((self.sim.now, data))
        if self.upstream is not None:
            self.sim.schedule(self.wire, self.upstream.on_ack)


class _JoinStage:
    """A mesh cell: fires when *all* upstream ports have data, signals all
    downstream ports, frees when all of them have acknowledged."""

    __slots__ = (
        "key", "compute", "computing", "holding", "pending", "acks_missing",
        "downstream", "upstream_count", "upstream_acks", "sim", "wire",
        "metrics", "first_req_time",
    )

    def __init__(
        self,
        key: Any,
        compute: Callable[[], float],
        sim: Simulator,
        wire: float,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.key = key
        self.compute = compute
        self.computing = False
        self.holding = False
        self.pending: dict = {}          # port -> data waiting to be latched
        self.acks_missing = 0
        self.downstream: List[Tuple[Any, "_JoinStage"]] = []  # (port name at target, stage)
        self.upstream_acks: List[Callable[[], None]] = []
        self.upstream_count = 0
        self.sim = sim
        self.wire = wire
        self.metrics = metrics
        self.first_req_time: Optional[float] = None

    def on_req(self, port: Any, data: Any) -> None:
        if port in self.pending:
            raise AssertionError(
                f"stage {self.key}: second request on port {port!r} before latch"
            )
        if not self.pending:
            self.first_req_time = self.sim.now
        self.pending[port] = data
        self._try_latch()

    def _try_latch(self) -> None:
        if self.computing or self.holding:
            return
        if len(self.pending) < self.upstream_count:
            return
        inputs = self.pending
        self.pending = {}
        self.computing = True
        for ack in self.upstream_acks:
            self.sim.schedule(self.wire, ack)
        duration = self.compute()
        # Join stall: from the first port's request to all ports ready
        # and the stage free — the wait one slow neighbor inflicts.
        if self.first_req_time is not None:
            self.metrics.histogram("handshake.stall_time").observe(
                self.sim.now - self.first_req_time
            )
        self.metrics.histogram("handshake.service_time").observe(duration)
        self.first_req_time = None
        self.sim.schedule(duration, lambda: self._compute_done(inputs))

    def _compute_done(self, inputs: dict) -> None:
        self.computing = False
        if not self.downstream:
            self.holding = False
            self._try_latch()
            return
        self.holding = True
        self.acks_missing = len(self.downstream)
        token = inputs  # pass the joined inputs downstream
        for port, stage in self.downstream:
            self.sim.schedule(
                self.wire, lambda p=port, s=stage: s.on_req(p, token)
            )

    def on_ack(self) -> None:
        self.acks_missing -= 1
        if self.acks_missing <= 0:
            self.holding = False
            self._try_latch()


class _CreditStage:
    """One stage of a credit-flow-controlled pipeline.

    The stage owns a ``depth``-deep *input* FIFO its upstream sender has
    credits against.  Popping a slot (into the compute latch) sends a
    credit back upstream after the wire delay; sending downstream spends
    one of this stage's own credits, and a finished token whose credits
    are exhausted parks in the output latch, blocking the compute slot —
    that wait is the backpressure stall the metrics record.
    """

    __slots__ = (
        "index", "compute", "depth", "fifo", "computing", "output_held",
        "credits", "downstream", "upstream", "sim", "wire", "metrics",
        "held_since",
    )

    def __init__(
        self,
        index: int,
        compute: Callable[[], float],
        depth: int,
        sim: Simulator,
        wire: float,
        metrics: MetricsRegistry = NULL_METRICS,
    ) -> None:
        self.index = index
        self.compute = compute
        self.depth = depth
        self.fifo: List[Any] = []
        self.computing = False
        self.output_held: Optional[Tuple[Any]] = None  # 1-tuple: token may be None
        self.credits = 0
        self.downstream: Optional["_CreditStage"] = None
        self.upstream: Optional["_CreditStage"] = None
        self.sim = sim
        self.wire = wire
        self.metrics = metrics
        self.held_since = 0.0

    # -- incoming token ----------------------------------------------------
    def on_token(self, data: Any) -> None:
        self.fifo.append(data)
        if len(self.fifo) > self.depth:
            raise AssertionError(
                f"credit stage {self.index}: input FIFO overflow "
                f"({len(self.fifo)} > {self.depth}) — a sender spent a "
                f"credit it did not hold"
            )
        self._try_start()

    def _try_start(self) -> None:
        if self.computing or self.output_held is not None or not self.fifo:
            return
        data = self.fifo.pop(0)
        # Draining a FIFO slot returns its credit to the sender.
        if self.upstream is not None:
            self.sim.schedule(self.wire, self.upstream.on_credit)
        self.computing = True
        duration = self.compute()
        self.metrics.histogram("handshake.service_time").observe(duration)
        self.sim.schedule(duration, lambda: self._compute_done(data))

    def _compute_done(self, data: Any) -> None:
        self.computing = False
        self._try_send(data)

    def _try_send(self, data: Any) -> None:
        if self.credits > 0:
            self.credits -= 1
            self.metrics.histogram("handshake.stall_time").observe(0.0)
            if self.downstream is not None:
                self.sim.schedule(
                    self.wire, lambda: self.downstream.on_token(data)
                )
            self._try_start()
        else:
            self.output_held = (data,)
            self.held_since = self.sim.now

    # -- incoming credit ---------------------------------------------------
    def on_credit(self) -> None:
        self.credits += 1
        if self.output_held is not None:
            (data,) = self.output_held
            self.output_held = None
            self.metrics.histogram("handshake.stall_time").observe(
                self.sim.now - self.held_since
            )
            self.credits -= 1
            if self.downstream is not None:
                self.sim.schedule(
                    self.wire, lambda: self.downstream.on_token(data)
                )
            self._try_start()


class _CreditSource(_CreditStage):
    """Injects items as fast as its credit balance allows (bursting up to
    the full credit count, as credit flow control permits)."""

    __slots__ = ("items", "next_index")

    def __init__(self, items: List[Any], sim: Simulator, wire: float) -> None:
        super().__init__(-1, lambda: 0.0, 1, sim, wire)
        self.items = items
        self.next_index = 0

    def start(self) -> None:
        self._pump()

    def _pump(self) -> None:
        while self.next_index < len(self.items) and self.credits > 0:
            data = self.items[self.next_index]
            self.next_index += 1
            self.credits -= 1
            if self.downstream is not None:
                self.sim.schedule(
                    self.wire, lambda d=data: self.downstream.on_token(d)
                )

    def on_credit(self) -> None:
        self.credits += 1
        self._pump()


class _CreditSink(_CreditStage):
    """Drains every arriving token immediately, returning its credit."""

    __slots__ = ("arrivals",)

    def __init__(
        self, depth: int, sim: Simulator, wire: float
    ) -> None:
        super().__init__(10**9, lambda: 0.0, depth, sim, wire)
        self.arrivals: List[Tuple[float, Any]] = []

    def on_token(self, data: Any) -> None:
        self.arrivals.append((self.sim.now, data))
        if self.upstream is not None:
            self.sim.schedule(self.wire, self.upstream.on_credit)


def run_credit_pipeline(
    n_stages: int,
    items: int,
    compute_sampler: ComputeSampler,
    wire_delay: float = 0.1,
    credits: int = 2,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> HandshakeResult:
    """Push ``items`` tokens through ``n_stages`` credit-flow stages.

    Every receiver advertises a ``credits``-deep input FIFO; a sender
    spends one credit per token and recovers it (one wire delay later)
    when the receiver drains the slot.  Steady-state law (tested): the
    cycle is ``max(compute, 2 * wire / credits)`` — each credit's return
    loop takes one wire hop out and one back, and ``credits`` of them
    pipeline the loop, so once ``credits >= 2 * wire / compute`` the
    cycle reaches the ``compute`` bound.
    """
    if n_stages < 1 or items < 1:
        raise ValueError("need at least one stage and one item")
    if wire_delay < 0:
        raise ValueError("wire delay must be non-negative")
    if credits < 1:
        raise ValueError("need at least one credit")
    rng = random.Random(seed)
    sim = Simulator(tracer=tracer, metrics=metrics)

    source = _CreditSource(list(range(items)), sim, wire_delay)
    stages = [
        _CreditStage(
            i, lambda: compute_sampler(rng), credits, sim, wire_delay, sim.metrics
        )
        for i in range(n_stages)
    ]
    sink = _CreditSink(credits, sim, wire_delay)
    chain: List[_CreditStage] = [source, *stages, sink]
    for a, b in zip(chain, chain[1:]):
        a.downstream = b
        b.upstream = a
        a.credits = b.depth  # sender starts with the receiver's full depth

    source.start()
    sim.run(max_events=items * n_stages * 30 + 1000)
    if len(sink.arrivals) != items:
        raise AssertionError(
            f"credit pipeline stalled: {len(sink.arrivals)}/{items} delivered"
        )
    data_order = [d for _t, d in sink.arrivals]
    if data_order != sorted(data_order):
        raise AssertionError("credit pipeline reordered items")
    return HandshakeResult(
        items=items,
        stages=n_stages,
        arrival_times=[t for t, _d in sink.arrivals],
        events_processed=sim.events_processed,
        wire_delay=wire_delay,
    )


def run_handshake_wavefront(
    rows: int,
    cols: int,
    waves: int,
    compute_sampler: ComputeSampler,
    wire_delay: float = 0.1,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> HandshakeResult:
    """A self-timed 2D wavefront mesh at the signal level.

    Cell ``(r, c)`` joins requests from its north and west neighbors (edge
    cells from the injector), computes, and requests south and east.  The
    corner cell ``(rows-1, cols-1)`` reports wave completions.  Same law as
    the 1D pipeline: steady cycle ~= compute + 2 * wire round trip, size-
    independent — but with join synchronization, one slow cell now stalls
    two downstream neighbors directly.
    """
    if rows < 1 or cols < 1 or waves < 1:
        raise ValueError("need a non-empty mesh and at least one wave")
    if wire_delay < 0:
        raise ValueError("wire delay must be non-negative")
    rng = random.Random(seed)
    sim = Simulator(tracer=tracer, metrics=metrics)

    cells: dict = {}
    for r in range(rows):
        for c in range(cols):
            cells[(r, c)] = _JoinStage(
                (r, c), lambda: compute_sampler(rng), sim, wire_delay, sim.metrics
            )
    # Corner sink records completions and acks immediately.
    arrivals: List[Tuple[float, Any]] = []

    class _CornerSink:
        def __init__(self) -> None:
            self.upstream_ack: Optional[Callable[[], None]] = None

        def on_req(self, port: Any, data: Any) -> None:
            arrivals.append((sim.now, data))
            if self.upstream_ack is not None:
                sim.schedule(wire_delay, self.upstream_ack)

    sink = _CornerSink()

    # Wire the mesh: (r, c) -> (r+1, c) and (r, c+1).
    for r in range(rows):
        for c in range(cols):
            stage = cells[(r, c)]
            for target in ((r + 1, c), (r, c + 1)):
                if target in cells:
                    down = cells[target]
                    port = ("n", None) if target[0] == r + 1 else ("w", None)
                    down.upstream_count += 1
                    down.upstream_acks.append(stage.on_ack)
                    stage.downstream.append((port, down))
            if (r, c) == (rows - 1, cols - 1):
                sink.upstream_ack = stage.on_ack
                stage.downstream.append((("out", None), sink))

    # The injector drives the top-left cell with `waves` tokens; boundary
    # cells with a missing north/west input get it from the injector too —
    # modelled by giving boundary cells a reduced upstream_count (only real
    # neighbors counted above) and injecting the origin.
    origin = cells[(0, 0)]
    injected = {"count": 0}

    def inject() -> None:
        if injected["count"] >= waves:
            return
        injected["count"] += 1
        origin.on_req(("inject", None), injected["count"] - 1)

    origin.upstream_count += 1
    origin.upstream_acks.append(lambda: sim.schedule(0.0, inject))
    sim.schedule(0.0, inject)

    sim.run(max_events=waves * rows * cols * 30 + 1000)
    if len(arrivals) != waves:
        raise AssertionError(
            f"wavefront stalled: {len(arrivals)}/{waves} waves completed"
        )
    return HandshakeResult(
        items=waves,
        stages=rows * cols,
        arrival_times=[t for t, _d in arrivals],
        events_processed=sim.events_processed,
        wire_delay=wire_delay,
    )


def run_handshake_pipeline(
    n_stages: int,
    items: int,
    compute_sampler: ComputeSampler,
    wire_delay: float = 0.1,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
    buffered: bool = False,
) -> HandshakeResult:
    """Push ``items`` tokens through ``n_stages`` self-timed stages.

    ``buffered=True`` gives every stage a one-deep output skid buffer
    (:class:`_BufferedStage`), cutting the steady cycle from
    ``compute + 2 * wire`` to ``max(compute, 2 * wire)``.

    With ``metrics``, per-latch compute durations land in the
    ``handshake.service_time`` histogram and per-request blocking waits in
    ``handshake.stall_time``; a ``tracer`` additionally records the
    engine's per-event dispatch spans.
    """
    if n_stages < 1 or items < 1:
        raise ValueError("need at least one stage and one item")
    if wire_delay < 0:
        raise ValueError("wire delay must be non-negative")
    rng = random.Random(seed)
    sim = Simulator(tracer=tracer, metrics=metrics)

    stage_cls = _BufferedStage if buffered else _Stage
    source = _Source(list(range(items)), sim, wire_delay)
    stages = [
        stage_cls(i, lambda: compute_sampler(rng), sim, wire_delay, sim.metrics)
        for i in range(n_stages)
    ]
    sink = _Sink(sim, wire_delay)
    chain: List[_Stage] = [source, *stages, sink]
    for a, b in zip(chain, chain[1:]):
        a.downstream = b
        b.upstream = a

    source.start()
    sim.run(max_events=items * n_stages * 20 + 1000)
    if len(sink.arrivals) != items:
        raise AssertionError(
            f"pipeline stalled: {len(sink.arrivals)}/{items} items delivered"
        )
    # Items must come out in order (FIFO property of the protocol).
    data_order = [d for _t, d in sink.arrivals]
    if data_order != sorted(data_order):
        raise AssertionError("handshake pipeline reordered items")
    return HandshakeResult(
        items=items,
        stages=n_stages,
        arrival_times=[t for t, _d in sink.arrivals],
        events_processed=sim.events_processed,
        wire_delay=wire_delay,
    )
