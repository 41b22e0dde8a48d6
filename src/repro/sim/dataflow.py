"""Self-timed *functional* execution of systolic programs.

:mod:`repro.sim.selftimed` and :mod:`repro.sim.handshake` model the paper's
Section I timing arguments (tandem recurrences, request/acknowledge
protocols) but never execute a real workload.  This module closes that gap:
a :class:`SelfTimedProgramSimulator` runs any :class:`~repro.arrays.
systolic.SystolicProgram` data-driven on the discrete-event engine — each
cell fires its wave ``k`` as soon as it has finished wave ``k-1`` and every
predecessor's wave ``k-1`` token has arrived, with a per-(cell, wave)
service time.

The functional claim this realizes is the self-timed half of the paper's
equivalence: because every cell consumes exactly the generation ``k-1``
value on each input edge, the computation is the ideal lockstep semantics
(assumption A1) regardless of service-time variation — self-timing changes
*when* things happen, never *what* is computed.  The differential checker
(:mod:`repro.check.differential`) asserts exactly that, against the ideal
executor, the clocked simulator, and the hybrid executor.

Timing-wise the run obeys the tandem recurrence

``start[c][k] = max(finish[c][k-1], max_pred finish[pred][k-1] + wire)``

generalized from a line to any COMM graph, in one of two flow-control
regimes selected by ``channel_capacity``:

* ``channel_capacity=None`` (default) — unbounded FIFOs, the pure dataflow
  idealization (the ``blocking=False`` case of :func:`repro.sim.selftimed.
  simulate_selftimed_line`): a sender never waits for its consumers.
* ``channel_capacity=k`` — every COMM edge is a depth-``k`` FIFO (the wire
  counts as part of the channel's storage).  A cell may start wave ``w``
  only once each successor has *consumed* its generation ``w-k`` token,
  which in marked-graph/max-plus terms adds a capacity back-edge to the
  forward recurrence:

  ``start[c][w] >= start[succ][w-k+1]``  for every successor, ``w >= k``.

  This is backpressure: a slow consumer stalls its producers once the
  channel fills, and the stall propagates upstream — the finite-local-
  buffer contract real self-timed arrays run (and the reason the paper's
  Section I cites FIFO queueing between cells as the cost of self-timed
  layouts).  ``k=1`` on a *cyclic* COMM graph is a zero-token marked-graph
  cycle and deadlocks; the simulator rejects it with
  :class:`ChannelDeadlockError` instead of hanging.

The checker verifies the engine-driven makespan against the recurrence
computed directly (compiled and scalar) in both regimes.  The helpers
every evaluator of that recurrence shares live here too (the COMM
lowering to dense channel arrays is the graph's own,
:meth:`~repro.graphs.comm.CommGraph.lowering`): the capacity normalizer
(:func:`channel_depths`), the service resolver (:func:`service_rows`),
the zero-token cycle check (:func:`zero_token_order`) and the scalar
oracle (:func:`recurrence_scalar`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

import numpy as np

from repro.arrays.systolic import SystolicProgram
from repro.graphs.comm import CommGraph, Lowering
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.engine import Simulator

CellId = Hashable
EdgeKey = Tuple[CellId, CellId]

#: Service-time callback: ``(cell, wave) -> duration``.  Deterministic
#: callables keep runs reproducible; see :func:`constant_service` and
#: :func:`hashed_service`.
ServiceTime = Callable[[CellId, int], float]

#: Flow-control spec: ``None`` (unbounded), a uniform int depth, or a
#: per-edge ``{(src, dst): depth}`` map (absent edges are unbounded).
CapacitySpec = Optional[Union[int, Mapping[EdgeKey, int]]]


class ChannelDeadlockError(RuntimeError):
    """Capacity-1 channels on a cyclic COMM graph can never make progress.

    Marked-graph liveness requires every directed cycle to carry at least
    one token of slack; with ``channel_capacity=1`` the credit back-edge
    ``start[c][w] >= start[succ][w]`` has dependency distance zero, so a
    COMM cycle becomes a zero-token cycle: each cell on it waits for the
    next to fire the *same* wave first.  Raised eagerly (at construction /
    kernel entry) instead of letting the event engine stall mid-run, and
    only ever by :func:`zero_token_order`.

    ``cycle`` is the witness: the COMM edges of one such cycle in cycle
    order — exactly what :func:`repro.sta.flow.detect_deadlock` returns.
    """

    def __init__(self, cycle: List[EdgeKey]) -> None:
        super().__init__(
            f"capacity-1 channels form a directed COMM cycle {cycle!r}: a "
            "zero-token marked-graph cycle (deadlock); raise some capacity "
            "on the cycle to >= 2"
        )
        self.cycle = cycle


def constant_service(duration: float) -> ServiceTime:
    """Every (cell, wave) takes exactly ``duration``.

    The returned callable carries a ``constant_duration`` attribute so the
    compiled recurrence kernel (:mod:`repro.sim.compiled`) can skip
    tabulating a full (cell, wave) service matrix.  A negative or
    non-finite duration raises ``ValueError``, as in :func:`service_rows`.
    """
    _checked_service(duration, "")

    def service(cell: CellId, wave: int) -> float:
        return duration

    service.constant_duration = float(duration)  # type: ignore[attr-defined]
    return service


def per_cell_service(durations: Mapping[CellId, float]) -> ServiceTime:
    """Each cell takes its own wave-invariant duration.

    This is the heterogeneous-cell model the static flow analyzer
    (:mod:`repro.sta.flow`) works over: cycle-time bounds only exist when
    service times are wave-invariant, and per-cell constants are exactly
    that regime.  The returned callable carries a ``cell_durations``
    attribute so the compiled recurrence kernel can build its per-cell
    service column without tabulating a full (cell, wave) matrix.  A
    negative or non-finite duration raises ``ValueError`` naming its cell.
    """
    table = {cell: float(d) for cell, d in durations.items()}
    for cell, duration in table.items():
        _checked_service(duration, f" for {cell!r}")

    def service(cell: CellId, wave: int) -> float:
        return table[cell]

    service.cell_durations = table  # type: ignore[attr-defined]
    return service


def hashed_service(
    normal: float, worst: float, worst_probability: float, seed: int = 0
) -> ServiceTime:
    """The two-speed cell model of Section I, keyed deterministically on
    ``(seed, cell, wave)`` — stable across processes and iteration orders,
    like :func:`repro.sim.faults._stable_unit_noise`."""
    if normal <= 0 or worst < normal:
        raise ValueError("need 0 < normal <= worst")
    if not 0.0 <= worst_probability <= 1.0:
        raise ValueError("worst_probability must be a probability")
    from repro.sim.faults import _stable_unit_noise

    def sample(cell: CellId, wave: int) -> float:
        u = (_stable_unit_noise(seed, cell, wave) + 1.0) / 2.0  # [0, 1)
        return worst if u < worst_probability else normal

    return sample


def service_rows(
    cells: Sequence[CellId], service: Any
) -> Callable[[int], np.ndarray]:
    """The one service-spec resolver: ``rows(k)`` is wave ``k``'s per-cell
    service vector, in ``cells`` order.

    A number, a ``{cell: duration}`` map, or a callable carrying
    ``constant_duration`` / ``cell_durations`` (:func:`constant_service`,
    :func:`per_cell_service`) is wave-invariant: it resolves once to a
    column that every row returns.  A 2-D ``(waves, cells)`` array is a
    service table: row ``k`` is wave ``k``, checked once when resolved.
    Any other ``(cell, wave) -> duration`` callable is called once per
    cell for each requested row, in cell order, and never while resolving
    — a service that draws from an RNG keeps its stream.  A negative or
    non-finite duration raises ``ValueError`` naming it, when the column,
    the table or the row is resolved.
    """
    if isinstance(service, np.ndarray) and service.ndim == 2:
        if service.shape[1] != len(cells):
            raise ValueError(f"service table has {service.shape[1]} columns for {len(cells)} cells")
        table = _checked_services(np.asarray(service, dtype=np.float64), "")
        return lambda k: table[k]
    if isinstance(service, (int, float)):
        column = np.full(len(cells), float(service))
    elif isinstance(service, Mapping):
        column = np.asarray([float(service[c]) for c in cells], dtype=np.float64)
    elif getattr(service, "constant_duration", None) is not None:
        column = np.full(len(cells), float(service.constant_duration))
    elif getattr(service, "cell_durations", None) is not None:
        durations = service.cell_durations
        column = np.asarray([float(durations[c]) for c in cells], dtype=np.float64)
    else:

        def row(k: int) -> np.ndarray:
            values = np.asarray([service(c, k) for c in cells], dtype=np.float64)
            return _checked_services(values, f" in wave {k}")

        return row
    _checked_services(column, "")
    return lambda k: column


def _checked_services(values: np.ndarray, where: str) -> np.ndarray:
    """``values``, if all are finite and non-negative (NaN fails both)."""
    bad = ~((values >= 0.0) & (values < np.inf))
    if bad.any():
        value = float(values[bad][0])
        kind = "negative" if np.isfinite(value) else "non-finite"
        raise ValueError(f"{kind} service time {value!r}{where}")
    return values


def _checked_service(value: float, where: str) -> None:
    """:func:`_checked_services` for one duration."""
    if not 0.0 <= value < math.inf:
        _checked_services(np.array([value], dtype=np.float64), where)


def channel_depths(comm: CommGraph, capacity: CapacitySpec) -> np.ndarray:
    """The one capacity normalizer: each COMM channel's depth, in
    ``comm.edges()`` order, with 0 for an unbounded channel.

    ``None`` is all zeros and a uniform int is that depth everywhere; a
    per-edge map must name COMM edges with depths ``>= 1`` (absent edges
    stay unbounded).  Invalid specs raise ``ValueError``.
    """
    if capacity is None:
        return np.zeros(comm.edge_count, dtype=np.int64)
    if not isinstance(capacity, Mapping):
        depth = int(capacity)
        if depth < 1:
            raise ValueError("channel capacity must be >= 1 (or None)")
        return np.full(comm.edge_count, depth, dtype=np.int64)
    index = comm.edge_index()
    depths = np.zeros(len(index), dtype=np.int64)
    for edge, raw in capacity.items():
        row = index.get(edge)
        if row is None:
            raise ValueError(f"capacity for unknown COMM edge {edge!r}")
        depth = int(raw)
        if depth < 1:
            raise ValueError(
                f"per-edge channel capacity must be >= 1, got {depth} for "
                f"edge {edge!r}"
            )
        depths[row] = depth
    return depths


def zero_token_order(cells: Sequence[CellId], src: Any, dst: Any) -> List[int]:
    """Consumers-first order of the dense cells over the zero-token
    channels ``src[i] -> dst[i]`` (producer to consumer, ids into
    ``cells``): every consumer before its producers, the order the
    same-wave credit term resolves in.

    When those channels close a cycle the marked graph is dead: raises
    :class:`ChannelDeadlockError` carrying the first cycle the depth-first
    search closes (roots in ascending id, out-edges in input order) — the
    one place the error is raised.
    """
    succ: List[List[int]] = [[] for _ in cells]
    for u, v in zip(
        np.asarray(src, dtype=np.int64).tolist(),
        np.asarray(dst, dtype=np.int64).tolist(),
    ):
        succ[u].append(v)
    color = [0] * len(cells)  # 1 = on the search path, 2 = finished
    order: List[int] = []
    for root in range(len(cells)):
        if color[root]:
            continue
        stack: List[Tuple[int, int]] = [(root, 0)]
        path: List[int] = []
        while stack:
            node, child = stack.pop()
            if child == 0:
                color[node] = 1
                path.append(node)
            out = succ[node]
            for j in range(child, len(out)):
                nxt = out[j]
                if color[nxt] == 1:
                    cycle = path[path.index(nxt):]
                    raise ChannelDeadlockError(
                        [
                            (cells[a], cells[b])
                            for a, b in zip(cycle, cycle[1:] + cycle[:1])
                        ]
                    )
                if color[nxt] == 0:
                    stack.append((node, j + 1))
                    stack.append((nxt, 0))
                    break
            else:
                color[node] = 2
                path.pop()
                order.append(node)
    return order


def channel_order(low: Lowering, depths: np.ndarray) -> List[int]:
    """:func:`zero_token_order` over the depth-1 channels of a
    :func:`channel_depths` vector: the one search the stepper, the scalar
    oracle, the event simulator and the static deadlock check share."""
    ones = depths == 1
    if not ones.any():
        return list(range(len(low.cells)))
    return zero_token_order(low.cells, low.chan_src[ones], low.chan_dst[ones])


def recurrence_scalar(
    comm: CommGraph,
    service: ServiceTime,
    wire_delay: float,
    capacity: CapacitySpec,
) -> Iterator[Dict[CellId, float]]:
    """The tandem recurrence evaluated per (cell, wave) in plain Python —
    the scalar oracle of :class:`~repro.sim.compiled.RecurrenceStepper`.
    Yields each wave's ``{cell: finish}`` map, without end.

    Every channel is one case of the same credit term: depth ``d`` reads
    the consumer's start row ``d - 1`` waves back, so depth 1 couples
    starts within a wave and cells resolve consumers-first.  Only bounded
    channels are scanned, so an unbounded run is the bare forward
    recurrence.  A negative or non-finite wire delay or service duration
    raises ``ValueError``, as in :func:`service_rows`.
    """
    if not 0 <= wire_delay < math.inf:
        raise ValueError("wire delay must be non-negative and finite")
    low = comm.lowering()
    cells = low.cells
    depths = channel_depths(comm, capacity)
    order = [cells[i] for i in channel_order(low, depths)]
    preds = {c: [cells[p] for p in row] for c, row in zip(cells, low.pred_rows())}
    # (consumer, lag) per producer: the credit reads lags[lag][consumer].
    credits: Dict[CellId, List[Tuple[CellId, int]]] = {c: [] for c in cells}
    for i in np.flatnonzero(depths).tolist():
        u, v = low.edges[i]
        credits[u].append((v, int(depths[i]) - 1))
    window: deque = deque(maxlen=max(int(depths.max(initial=0)) - 1, 0))
    finish = {c: 0.0 for c in cells}
    k = 0
    while True:
        starts: Dict[CellId, float] = {}
        lags = [starts, *reversed(window)]  # lags[j]: start row of wave k - j
        for c in order:
            start = finish[c]
            if k > 0:
                for p in preds[c]:
                    start = max(start, finish[p] + wire_delay)
            for s, lag in credits[c]:
                if k > lag:
                    start = max(start, lags[lag][s])
            starts[c] = start
        window.append(starts)
        durations = [service(c, k) for c in cells]
        _checked_services(np.asarray(durations, dtype=np.float64), f" in wave {k}")
        finish = {c: starts[c] + d for c, d in zip(cells, durations)}
        yield finish
        k += 1


@dataclass
class DataflowRunResult:
    """Outcome of a self-timed program run: payload plus timing.

    ``channel_capacity``/``stall_time``/``max_occupancy`` describe the
    backpressure regime: under finite capacities, ``stall_time`` maps each
    cell to the total time it sat data-ready but credit-blocked (waiting
    for a consumer to drain a full channel) and ``max_occupancy`` is the
    deepest any channel got, counting the unbounded channels of a
    per-edge map too (a bounded channel never exceeds its depth — the run
    asserts it).  Both stay ``None`` for unbounded runs, whose behaviour
    is byte-identical to the pre-backpressure simulator.
    """

    result: Any
    waves: int
    makespan: float
    events_processed: int
    finish_times: Dict[CellId, float]  # completion of each cell's last wave
    channel_capacity: CapacitySpec = None
    stall_time: Optional[Dict[CellId, float]] = None
    max_occupancy: Optional[int] = None

    @property
    def mean_cycle_time(self) -> float:
        """Makespan per wave — the crude throughput figure."""
        return self.makespan / self.waves if self.waves else 0.0

    @property
    def throughput(self) -> float:
        """Waves completed per unit time (the reciprocal figure sweeps
        plot against channel capacity)."""
        return self.waves / self.makespan if self.makespan > 0 else 0.0

    @property
    def total_stall_time(self) -> float:
        """Summed credit-blocked time across cells (0.0 when unbounded)."""
        return sum(self.stall_time.values()) if self.stall_time else 0.0


class SelfTimedProgramSimulator:
    """Run a systolic program data-driven on the event engine.

    ``service`` supplies the per-(cell, wave) compute time; ``wire_delay``
    is the token propagation time per COMM edge (uniform — the regular-array
    case).  ``channel_capacity`` selects the flow-control regime: ``None``
    keeps every channel an unbounded FIFO (the pure dataflow idealization,
    byte-identical to the historical behaviour), while an integer ``k``
    bounds each COMM edge to ``k`` in-flight generations and stalls
    producers when a channel fills (see the module docstring for the
    marked-graph recurrence this realizes).  Functional behaviour is
    exactly lockstep either way — capacity changes *when* cells fire,
    never *what* they compute.
    """

    def __init__(
        self,
        program: SystolicProgram,
        service: Optional[ServiceTime] = None,
        wire_delay: float = 0.0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        channel_capacity: CapacitySpec = None,
    ) -> None:
        if not 0 <= wire_delay < math.inf:
            raise ValueError("wire delay must be non-negative and finite")
        self._program = program
        self._comm = program.array.comm
        self._service = service if service is not None else constant_service(1.0)
        self._wire_delay = wire_delay
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        if channel_capacity is not None:
            # Validates the spec and refuses a zero-token cycle up front.
            depths = channel_depths(self._comm, channel_capacity)
            if (depths == 1).any():
                channel_order(self._comm.lowering(), depths)
            if isinstance(channel_capacity, Mapping):
                channel_capacity = {
                    edge: int(cap) for edge, cap in channel_capacity.items()
                }
            else:
                channel_capacity = int(channel_capacity)
        # The spec the run and the recurrences evaluate (never handed out).
        self._capacity: CapacitySpec = channel_capacity
        self._compiled: Any = None  # lazy CompiledRecurrence

    @property
    def channel_capacity(self) -> CapacitySpec:
        capacity = self._capacity
        return dict(capacity) if isinstance(capacity, dict) else capacity

    def run(self, waves: Optional[int] = None) -> DataflowRunResult:
        n_waves = waves if waves is not None else self._program.cycles
        if n_waves < 1:
            raise ValueError("need at least one wave")
        pes = self._program.pes
        for pe in pes.values():
            pe.reset()

        sim = Simulator(tracer=self._tracer, metrics=self._metrics)
        schedule = sim.schedule
        low = self._comm.lowering()
        cells = low.cells
        n = len(cells)
        # Per-cell state in lists by dense id, neighbours in the lowering's
        # ascending dense-id rows, so same-time events queue alike in every
        # process.  A channel is its position ``e`` in the lowering's
        # ``fwd`` arrays: cell ``v``'s input channels are ``first[v]`` up
        # to ``first[v + 1]``, and a token on ``e`` fills slot ``e -
        # first[v]`` of its receiver's inbox row.
        preds = low.pred_rows()
        outs = low.out_rows()
        first = low.pred_ptr.tolist()
        src, dst = low.fwd_src.tolist(), low.fwd_dst.tolist()
        pred_cells = [[cells[p] for p in row] for row in preds]
        n_preds = [len(row) for row in preds]
        fires = [pes[c].fire for c in cells]
        service = self._service
        wire = self._wire_delay
        next_wave = [0] * n
        busy = [False] * n
        # Arrived-but-unconsumed tokens: per cell, generation -> one value
        # slot per predecessor followed by the count that has arrived.
        inbox: List[Dict[int, List[Any]]] = [{} for _ in cells]
        finish = [0.0] * n
        tracer = self._tracer
        # Read once: with metrics off, no fire calls a null instrument.
        metered = self._metrics.enabled
        service_hist = self._metrics.histogram("dataflow.service_time")

        # The credit rule: ``limits[e]`` bounds channel ``e`` (None =
        # unbounded) and ``occupancy[e]`` counts its tokens in flight.
        # Only a bounded spec tracks occupancy, stalls or these two
        # histograms.
        capacity = self._capacity
        bounded = capacity is not None
        limit_of = (
            capacity.get if isinstance(capacity, dict) else lambda edge: capacity
        )
        limits = [limit_of((cells[u], cells[v])) for u, v in zip(src, dst)]
        occupancy = [0] * len(src)
        stall = [0.0] * n
        blocked_since: List[Optional[float]] = [None] * n
        max_occupancy = 0
        backpressure = self._metrics if bounded else NULL_METRICS
        stall_hist = backpressure.histogram("dataflow.stall_time")
        occupancy_hist = backpressure.histogram("dataflow.channel_occupancy")

        def try_fire(
            v: int,
            cause: str = "init",
            src: Optional[int] = None,
            src_wave: Optional[int] = None,
        ) -> None:
            # ``cause``/``src`` name the state change that made this call:
            # the *last* enabling event is the binding constraint, so a
            # successful fire's cause is its critical dependency — exactly
            # what trace-driven critical-path extraction walks back over.
            # ``src_wave`` disambiguates credit causes, whose enabling
            # fire is ``src``'s wave ``w - capacity + 1``, not ``w - 1``.
            k = next_wave[v]
            if k >= n_waves or busy[v]:
                return
            # Wave k consumes generation k-1; wave 0 reads the initial
            # (empty) registers and a source reads nothing.
            gen = k - 1 if k and n_preds[v] else None
            if gen is not None:
                box = inbox[v].get(gen)
                if box is None or box[-1] != n_preds[v]:
                    return
            if bounded:
                # Capacity c: wave k needs each successor to have consumed
                # generation k-c, i.e. to have *fired* wave k-c+1 already
                # (``next_wave`` counts fires, so the threshold is k-c+2).
                for e in outs[v]:
                    cap = limits[e]
                    if cap is not None and k >= cap and next_wave[dst[e]] < k - cap + 2:
                        # Data-ready but the channel to this consumer is
                        # full: the stall clock starts at the first blocked
                        # attempt.
                        if blocked_since[v] is None:
                            blocked_since[v] = sim.now
                        return
                t_blocked = blocked_since[v]
                if t_blocked is not None:
                    blocked_since[v] = None
                    stalled = sim.now - t_blocked
                    stall[v] += stalled
                    if metered:
                        stall_hist.observe(stalled)
            if gen is None:
                # Lockstep semantics: an input edge with no token yet
                # written reads as None (the empty register).
                inputs = dict.fromkeys(pred_cells[v])
            else:
                inputs = dict(zip(pred_cells[v], inbox[v].pop(gen)))
                if bounded:
                    # Consuming a generation drains one slot per input edge.
                    for e in range(first[v], first[v + 1]):
                        occupancy[e] -= 1
            outputs = fires[v](inputs)
            cell = cells[v]
            duration = service(cell, k)
            if not 0.0 <= duration < math.inf:
                _checked_service(duration, f" for {cell!r} wave {k}")
            if metered:
                service_hist.observe(duration)
            if tracer.enabled:
                # ``finish`` is the same float expression the engine uses
                # to schedule ``done`` (now + delay), so the recorded
                # chain telescopes to the reported makespan bit for bit.
                now = sim.now
                tracer.event(
                    now, "dataflow", "fire", cell=cell, wave=k,
                    start=now, service=duration, finish=now + duration,
                    cause=cause, src=None if src is None else cells[src],
                    src_wave=src_wave,
                )
            next_wave[v] = k + 1
            busy[v] = True
            if bounded:
                # This fire consumed a generation (and advanced the wave
                # front), which may return credits to the producers.
                # Trampoline through zero-delay events rather than direct
                # recursion so deep pipelines can't blow the stack; the
                # engine's FIFO tie-break keeps same-timestamp order
                # deterministic.
                for p in preds[v]:
                    schedule(0.0, partial(try_fire, p, "credit", v, k))
            schedule(duration, partial(done, v, k, outputs))

        def done(u: int, k: int, outputs: Any) -> None:
            nonlocal max_occupancy
            busy[u] = False
            finish[u] = sim.now
            for e in outs[u]:
                v = dst[e]
                value = outputs.get(cells[v]) if outputs else None
                if bounded:
                    count = occupancy[e] + 1
                    occupancy[e] = count
                    limit = limits[e]
                    if limit is not None and count > limit:
                        raise AssertionError(
                            f"channel ({cells[u]!r} -> {cells[v]!r}) exceeded "
                            f"capacity {limit}: {count} in flight"
                        )
                    if count > max_occupancy:
                        max_occupancy = count
                    if metered:
                        occupancy_hist.observe(float(count))
                schedule(wire, partial(deliver, u, k, v, e - first[v], value))
            try_fire(u, "self")

        def deliver(u: int, gen: int, v: int, slot: int, value: Any) -> None:
            box = inbox[v].get(gen)
            if box is None:
                box = inbox[v][gen] = [None] * n_preds[v] + [0]
            box[slot] = value
            box[-1] += 1
            # Only a token that completes a generation, or one that finds
            # its receiver data-ready but credit-blocked, can fire it.  The
            # blocked case matters even for a later generation's token: it
            # fires the receiver now, ahead of a same-time credit event
            # that has just unblocked it.
            if box[-1] == n_preds[v] or blocked_since[v] is not None:
                try_fire(v, "token", u)

        for v in range(n):
            try_fire(v)
        processed = sim.run(max_events=None)

        short = [c for c, k in zip(cells, next_wave) if k != n_waves]
        if short:
            raise AssertionError(
                f"dataflow run stalled: {len(short)} cells short of "
                f"{n_waves} waves (first: {short[:3]!r})"
            )
        makespan = max(finish, default=0.0)
        result = self._program.read_result(self._program)
        if tracer.enabled:
            tracer.event(
                makespan, "dataflow", "run",
                waves=n_waves, cells=n, makespan=makespan,
                channel_capacity=self.channel_capacity,
            )
        self._metrics.gauge("dataflow.makespan").set(makespan)
        if makespan > 0:
            self._metrics.gauge("dataflow.throughput").set(n_waves / makespan)
        return DataflowRunResult(
            result=result,
            waves=n_waves,
            makespan=makespan,
            events_processed=processed,
            finish_times=dict(zip(cells, finish)),
            channel_capacity=self.channel_capacity,
            stall_time=dict(zip(cells, stall)) if bounded else None,
            max_occupancy=max_occupancy if bounded else None,
        )

    def compiled_recurrence(self):
        """The array-compiled tandem recurrence for this program's COMM
        graph (built once, cached; see
        :class:`repro.sim.compiled.CompiledRecurrence`)."""
        from repro.sim.compiled import CompiledRecurrence

        kernel = self._compiled
        if kernel is None or kernel.comm_version != self._comm.version:
            kernel = CompiledRecurrence(self._comm)
            self._compiled = kernel
        return kernel

    def recurrence_makespan(self, waves: Optional[int] = None) -> float:
        """The tandem-recurrence makespan computed directly (no engine):

        ``finish[c][k] = max(finish[c][k-1], max_pred finish[pred][k-1] +
        wire) + service(c, k)`` — plus, under a finite
        ``channel_capacity=k``, the capacity back-edge
        ``start[c][w] >= start[succ][w-k+1]`` (the marked-graph credit
        constraint; see the module docstring).  The differential checker
        asserts the engine-driven run lands on exactly this value in both
        regimes.

        Evaluated wavefront-at-a-time by the compiled array kernel, which
        performs the identical float operations (``max`` is order-free, the
        single add is unreassociated) — :meth:`recurrence_makespan_scalar`
        is the reference it must equal exactly.
        """
        n_waves = waves if waves is not None else self._program.cycles
        return self.compiled_recurrence().makespan(
            self._service,
            self._wire_delay,
            n_waves,
            capacity=self._capacity,
        )

    def critical_path(self, waves: Optional[int] = None):
        """The dependency chain behind this program's self-timed makespan
        (see :func:`repro.obs.critpath.selftimed_critical_path`): read off
        the recurrence stepper's rows, so the chain's endpoint equals
        :meth:`recurrence_makespan` — and the engine-driven :meth:`run`
        makespan — bit for bit.

        The chain follows the unbounded recurrence; for bounded runs use
        trace-driven extraction (:func:`repro.obs.critpath.
        critical_path_from_trace`), whose ``credit`` cause annotations
        carry the capacity back-edges.
        """
        if self._capacity is not None:
            raise ValueError(
                "critical_path() replays the unbounded recurrence; for a "
                "bounded run record a trace and use "
                "repro.obs.critpath.critical_path_from_trace"
            )
        from repro.obs.critpath import selftimed_critical_path

        n_waves = waves if waves is not None else self._program.cycles
        return selftimed_critical_path(
            self._comm,
            self._service,
            self._wire_delay,
            n_waves,
            reported=self.recurrence_makespan(n_waves),
        )

    def recurrence_makespan_scalar(self, waves: Optional[int] = None) -> float:
        """Reference (per-cell Python loop) evaluation of the tandem
        recurrence — the oracle for :meth:`recurrence_makespan` — honouring
        ``channel_capacity`` exactly like the event engine (see
        :func:`recurrence_scalar`)."""
        n_waves = waves if waves is not None else self._program.cycles
        if n_waves < 1:
            raise ValueError("need at least one wave")
        waves_iter = recurrence_scalar(
            self._comm, self._service, self._wire_delay, self._capacity
        )
        for _ in range(n_waves):
            finish = next(waves_iter)
        return max(finish.values(), default=0.0)
