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
every evaluator of that recurrence shares live here too: the capacity
normalizer (:func:`channel_depths`), the service resolver
(:func:`service_rows`), the zero-token cycle check
(:func:`zero_token_order`) and the scalar oracle
(:func:`recurrence_scalar`).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
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

from repro.arrays.cells import PE
from repro.arrays.systolic import SystolicProgram
from repro.graphs.comm import CommGraph
from repro.obs.metrics import MetricsRegistry
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


def channel_order(comm: CommGraph, depths: np.ndarray) -> List[int]:
    """:func:`zero_token_order` over the depth-1 channels of
    :func:`channel_depths` output (dense ids into ``comm.nodes()``)."""
    ones = np.flatnonzero(depths == 1).tolist()
    if not ones:
        return list(range(comm.node_count))
    cells = comm.nodes()
    index = {c: i for i, c in enumerate(cells)}
    edges = comm.edges()
    return zero_token_order(
        cells,
        [index[edges[i][0]] for i in ones],
        [index[edges[i][1]] for i in ones],
    )


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
    cells = comm.nodes()
    depths = channel_depths(comm, capacity)
    order = [cells[i] for i in channel_order(comm, depths)]
    preds = {c: list(comm.predecessors(c)) for c in cells}
    # (consumer, lag) per producer: the credit reads lags[lag][consumer].
    credits: Dict[CellId, List[Tuple[CellId, int]]] = {c: [] for c in cells}
    edges = comm.edges()
    for i in np.flatnonzero(depths).tolist():
        u, v = edges[i]
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
    deepest any channel got (always ``<= channel_capacity`` — the engine
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


class _ResultFacade:
    """Quacks like a LockstepExecutor for ``SystolicProgram.read_result``
    (which only ever calls ``pe``)."""

    def __init__(self, pes: Mapping[CellId, PE]) -> None:
        self._pes = pes

    def pe(self, cell: CellId) -> PE:
        return self._pes[cell]


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
        self._metrics = metrics
        if channel_capacity is not None:
            # Validates the spec and refuses a zero-token cycle up front.
            depths = channel_depths(self._comm, channel_capacity)
            channel_order(self._comm, depths)
        self._capacity_map: Optional[Dict[EdgeKey, int]] = None
        if isinstance(channel_capacity, Mapping):
            self._capacity_map = {
                edge: int(cap) for edge, cap in channel_capacity.items()
            }
            channel_capacity = None
        elif channel_capacity is not None:
            channel_capacity = int(channel_capacity)
        self._channel_capacity: Optional[int] = channel_capacity
        self._compiled: Any = None  # lazy CompiledRecurrence

    @property
    def channel_capacity(self) -> CapacitySpec:
        if self._capacity_map is not None:
            return dict(self._capacity_map)
        return self._channel_capacity

    @property
    def _capacity(self) -> CapacitySpec:
        """The capacity spec the recurrences evaluate (not copied)."""
        if self._capacity_map is not None:
            return self._capacity_map
        return self._channel_capacity

    def run(self, waves: Optional[int] = None) -> DataflowRunResult:
        n_waves = waves if waves is not None else self._program.cycles
        if n_waves < 1:
            raise ValueError("need at least one wave")
        pes = self._program.pes
        for pe in pes.values():
            pe.reset()

        sim = Simulator(tracer=self._tracer, metrics=self._metrics)
        cells = self._comm.nodes()
        # Neighbours in dense-id order: the COMM graph's sets iterate in
        # hash order, which moves with PYTHONHASHSEED for string cell ids
        # and would reorder same-time events (and the traced critical path).
        dense = {c: i for i, c in enumerate(cells)}.__getitem__
        preds: Dict[CellId, Tuple[CellId, ...]] = {
            c: tuple(sorted(self._comm.predecessors(c), key=dense)) for c in cells
        }
        succs: Dict[CellId, Tuple[CellId, ...]] = {
            c: tuple(sorted(self._comm.successors(c), key=dense)) for c in cells
        }
        # Per-cell progress: next wave to fire, busy-until flag, and the
        # arrived-but-unconsumed tokens per generation.
        next_wave: Dict[CellId, int] = {c: 0 for c in cells}
        busy: Dict[CellId, bool] = {c: False for c in cells}
        inbox: Dict[CellId, Dict[int, Dict[CellId, Any]]] = {c: {} for c in cells}
        finish_times: Dict[CellId, float] = {c: 0.0 for c in cells}
        tracer = self._tracer
        service_hist = (
            self._metrics.histogram("dataflow.service_time")
            if self._metrics is not None
            else None
        )

        # Backpressure state — only materialized for finite capacities so
        # the unbounded path stays byte-identical (same events, same
        # floats) to the historical simulator.
        capacity = self._channel_capacity
        cap_map = self._capacity_map
        bounded = capacity is not None or cap_map is not None
        outstanding: Dict[Tuple[CellId, CellId], int] = {}
        stall_time: Optional[Dict[CellId, float]] = None
        blocked_since: Dict[CellId, float] = {}
        max_occupancy = 0
        stall_hist = occupancy_hist = None
        if bounded:
            outstanding = {(u, v): 0 for u, v in self._comm.edges()}
            stall_time = {c: 0.0 for c in cells}
            if self._metrics is not None:
                stall_hist = self._metrics.histogram("dataflow.stall_time")
                occupancy_hist = self._metrics.histogram(
                    "dataflow.channel_occupancy"
                )

        def ready(cell: CellId) -> bool:
            k = next_wave[cell]
            if k >= n_waves or busy[cell]:
                return False
            if k == 0:
                return True  # wave 0 consumes the initial (empty) registers
            pending = inbox[cell].get(k - 1, {})
            return all(src in pending for src in preds[cell])

        def credit_ready(cell: CellId) -> bool:
            # Capacity k: wave w needs each successor to have consumed
            # generation w-k, i.e. to have *fired* wave w-k+1 already
            # (``next_wave`` counts fires, so the threshold is w-k+2).
            k = next_wave[cell]
            if cap_map is not None:
                # Heterogeneous depths: each outgoing edge applies its own
                # threshold; edges absent from the map are unbounded.
                for s in succs[cell]:
                    cap_e = cap_map.get((cell, s))
                    if (
                        cap_e is not None
                        and k >= cap_e
                        and next_wave[s] < k - cap_e + 2
                    ):
                        return False
                return True
            if k < capacity:
                return True
            floor = k - capacity + 2
            for s in succs[cell]:
                if next_wave[s] < floor:
                    return False
            return True

        def try_fire(
            cell: CellId,
            cause: str = "init",
            src: Optional[CellId] = None,
            src_wave: Optional[int] = None,
        ) -> None:
            # ``cause``/``src`` name the state change that made this call:
            # the *last* enabling event is the binding constraint, so a
            # successful fire's cause is its critical dependency — exactly
            # what trace-driven critical-path extraction walks back over.
            # ``src_wave`` disambiguates credit causes, whose enabling
            # fire is ``src``'s wave ``w - capacity + 1``, not ``w - 1``.
            if not ready(cell):
                return
            k = next_wave[cell]
            if bounded and not credit_ready(cell):
                # Data-ready but the channel to some consumer is full:
                # the stall clock starts at the first blocked attempt.
                blocked_since.setdefault(cell, sim.now)
                return
            if bounded:
                t_blocked = blocked_since.pop(cell, None)
                if t_blocked is not None:
                    stalled = sim.now - t_blocked
                    stall_time[cell] += stalled
                    if stall_hist is not None:
                        stall_hist.observe(stalled)
            inputs: Dict[CellId, Any] = (
                inbox[cell].pop(k - 1, {}) if k > 0 else {}
            )
            if bounded and k > 0:
                # Consuming generation k-1 drains one slot per input edge.
                for p in preds[cell]:
                    outstanding[(p, cell)] -= 1
            # Lockstep semantics: an input edge with no token yet written
            # reads as None (the empty register before the first latch).
            fire_inputs = {src_c: inputs.get(src_c) for src_c in preds[cell]}
            outputs = pes[cell].fire(fire_inputs)
            duration = self._service(cell, k)
            if not 0.0 <= duration < math.inf:
                _checked_service(duration, f" for {cell!r} wave {k}")
            if service_hist is not None:
                service_hist.observe(duration)
            if tracer.enabled:
                # ``finish`` is the same float expression the engine uses
                # to schedule ``done`` (now + delay), so the recorded
                # chain telescopes to the reported makespan bit for bit.
                tracer.event(
                    sim.now, "dataflow", "fire", cell=cell, wave=k,
                    start=sim.now, service=duration,
                    finish=sim.now + duration, cause=cause, src=src,
                    src_wave=src_wave,
                )
            next_wave[cell] = k + 1
            busy[cell] = True
            if bounded:
                # This fire consumed a generation (and advanced the wave
                # front), which may return credits to the producers.
                # Trampoline through zero-delay events rather than direct
                # recursion so deep pipelines can't blow the stack; the
                # engine's FIFO tie-break keeps same-timestamp order
                # deterministic.
                for p in preds[cell]:
                    sim.schedule(
                        0.0,
                        (lambda pp=p, w=k: try_fire(pp, "credit", cell, w)),
                    )

            def deliver(dst: CellId, value: Any, gen: int = k) -> None:
                inbox[dst].setdefault(gen, {})[cell] = value
                try_fire(dst, "token", cell)

            def done() -> None:
                nonlocal max_occupancy
                busy[cell] = False
                finish_times[cell] = sim.now
                for dst in succs[cell]:
                    value = outputs.get(dst) if outputs else None
                    if bounded:
                        count = outstanding[(cell, dst)] + 1
                        outstanding[(cell, dst)] = count
                        limit = (
                            capacity
                            if cap_map is None
                            else cap_map.get((cell, dst))
                        )
                        if limit is not None and count > limit:
                            raise AssertionError(
                                f"channel ({cell!r} -> {dst!r}) exceeded "
                                f"capacity {limit}: {count} in flight"
                            )
                        if count > max_occupancy:
                            max_occupancy = count
                        if occupancy_hist is not None:
                            occupancy_hist.observe(float(count))
                    sim.schedule(
                        self._wire_delay,
                        (lambda d=dst, v=value: deliver(d, v)),
                    )
                try_fire(cell, "self")

            sim.schedule(duration, done)

        for cell in cells:
            try_fire(cell)
        processed = sim.run(max_events=None)

        fired = [c for c in cells if next_wave[c] != n_waves]
        if fired:
            raise AssertionError(
                f"dataflow run stalled: {len(fired)} cells short of "
                f"{n_waves} waves (first: {fired[:3]!r})"
            )
        makespan = max(finish_times.values(), default=0.0)
        result = self._program.read_result(_ResultFacade(pes))
        if tracer.enabled:
            tracer.event(
                makespan, "dataflow", "run",
                waves=n_waves, cells=len(cells), makespan=makespan,
                channel_capacity=self.channel_capacity,
            )
        if self._metrics is not None:
            self._metrics.gauge("dataflow.makespan").set(makespan)
            if makespan > 0:
                self._metrics.gauge("dataflow.throughput").set(
                    n_waves / makespan
                )
        return DataflowRunResult(
            result=result,
            waves=n_waves,
            makespan=makespan,
            events_processed=processed,
            finish_times=finish_times,
            channel_capacity=self.channel_capacity,
            stall_time=stall_time,
            max_occupancy=(max_occupancy if bounded else None),
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
        if self._channel_capacity is not None or self._capacity_map is not None:
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
