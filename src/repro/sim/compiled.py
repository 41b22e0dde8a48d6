"""Array-compiled simulation kernels.

The scalar simulators (:mod:`repro.sim.clocked` and the per-cell tandem
recurrence of :mod:`repro.sim.dataflow`) interpret the object graph one
(cell, tick) at a time — O(cells x ticks) Python dispatch.  The analyses
that matter at paper scale (A5 violation sets on 4096-cell meshes,
Monte-Carlo sweeps, the scaling benches) repeat those runs over a *fixed
structure*, so this module splits them into

* a one-time **compile** step that lowers a program + schedule + wire
  model into dense numpy index arrays (sender/receiver ids per directed
  edge, per-edge data-path lag, per-cell clock offsets, captured
  predecessor orders), and
* **vectorized execute** steps that evaluate all latch generations and
  the full :class:`~repro.sim.clocked.TimingViolation` set in O(edges x
  ticks) array operations, or step the self-timed max-plus recurrence a
  wave at a time.

The clocked side has exactly one latch scan: both
:class:`CompiledClockedKernel` (a program under any schedule) and
:class:`CompiledTimingKernel` (bare arrays at million-cell scale)
subclass :class:`_LatchKernel`, which evaluates the A5 latch decision
over edge blocks, keeps only the violating entries, orders them with
one lexsort, and builds the violation list.  The kernels differ only in
where sender tick times come from (the affine closed form, or a
``tick_time`` table for jittered schedules) and in how a violation
names its edge (cell ids, or ints).

The self-timed side has exactly one evaluator: :class:`RecurrenceStepper`
over a :class:`CompiledRecurrence` (forward edges with a per-edge wire,
credit edges lagged ``depth - 1`` waves).  The program recurrence of
:mod:`repro.sim.dataflow`, the steady-state detector of
:mod:`repro.sta.flow`, the hybrid controller barrier of
:mod:`repro.sim.hybrid_sim` (per-edge wire = handshake cost, plus one
leading zero-cost wave), the Section VII line and wavefront of
:mod:`repro.sim.selftimed` (each cell skewed by its distance from the
input) and the self-timed critical path of :mod:`repro.obs.critpath`
all lower onto it.

Every kernel is an *exact* replacement, not an approximation: the same
float64 operations in the same order as the scalar reference, so payloads,
makespans, and violation lists are byte-identical.  The scalar paths stay
in the tree as the oracle (``run_scalar``, ``timing_scalar``,
``recurrence_makespan_scalar``) and the differential/property suites
assert the agreement.

Functional payload execution of a *clean* clocked run of an acyclic
program additionally delegates to the stream evaluator in
:mod:`repro.sim.batch` (lockstep semantics factor per cell); dirty runs,
cyclic programs and PEs outside the stream algebra replay events in
exact scalar order using the latch matrix.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Hashable,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from repro.arrays.systolic import SystolicProgram
from repro.graphs.comm import CommGraph
from repro.graphs.csr import CSRAdjacency
from repro.obs.spans import SpanTracer
from repro.sim import batch
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import (
    ClockedRunResult,
    TimingViolation,
    _ExecutorFacade,
)

CellId = Hashable
EdgeKey = Tuple[CellId, CellId]

#: Matches the scalar latch scan's guard band (``clocked.py``).
_LATCH_TOL = 1e-12


@dataclass(frozen=True)
class TimingResult:
    """Timing-only outcome of a clocked evaluation: the A5 violation set
    (in exact scalar event order) plus the makespan — what the scaling
    benches and the static analyses need when no payload execution is
    wanted (or possible, at 10^6 cells)."""

    violations: List[TimingViolation]
    makespan: float
    ticks: int

    @property
    def clean(self) -> bool:
        return not self.violations


class _Clock(NamedTuple):
    """Tick times for one scan of ``ticks`` ticks.

    With ``table is None`` the clock is affine: tick ``k`` of cell ``c``
    is at ``offsets[c] + k * period``, the scalar arithmetic.  Otherwise
    ``table[c, k]`` is ``tick_time(c, k)`` for every tick any latch can
    reach (at least ``ticks`` columns).  ``makespan`` is the latest tick
    time, floored at zero like the scalar running maximum."""

    ticks: int
    offsets: np.ndarray
    period: float
    table: Optional[np.ndarray]
    makespan: float

    def time(self, cells: np.ndarray, ks: np.ndarray) -> np.ndarray:
        """Times of ticks ``ks`` at ``cells`` (broadcast together); only
        entries with ``ks >= 0`` are meaningful."""
        if self.table is None:
            return self.offsets[cells] + ks * self.period
        return self.table[cells, np.maximum(ks, 0)]


def _order_violation_entries(
    slot: np.ndarray,
    dst: np.ndarray,
    e_idx: np.ndarray,
    k_idx: np.ndarray,
    t_vals: np.ndarray,
) -> np.ndarray:
    """Permutation putting violating (edge, tick) entries into exact
    scalar order.

    The scalar event loop visits events sorted by (time, tick, cell
    insertion index) and, within an event, predecessors in captured slot
    order.  Since (time, tick, cell) uniquely identifies an event, a
    lexsort of the violating entries alone on (t, k, dst, slot)
    reproduces that order without ranking every (cell, tick) event —
    which is what lets violation extraction stream per edge block."""
    return np.lexsort((slot[e_idx], dst[e_idx], k_idx, t_vals))


class _LatchKernel:
    """The A5 latch scan shared by both clocked kernels.

    Subclasses store directed edges grouped by receiver: ``_src`` and
    ``_dst`` are dense cell ids, ``_slot`` is the edge's position in its
    receiver's predecessor list, and ``_lag`` is its data-path lag.
    ``_offsets`` and ``_period`` give each cell's affine clock, and
    violations name their edges through the cell sequence ``_labels``.
    A subclass whose tick times need a table overrides :meth:`_clock`.
    """

    _src: np.ndarray
    _dst: np.ndarray
    _slot: np.ndarray
    _lag: np.ndarray
    _offsets: np.ndarray
    _period: float
    _labels: Sequence[Any]

    def _clock(self, n_ticks: int) -> _Clock:
        """The affine clock of ``n_ticks`` ticks."""
        if n_ticks < 1:
            raise ValueError("need at least one tick")
        # max over {offsets[c] + k * period} is attained at the argmax of
        # each term and computed by the same float64 add, so the closed
        # form equals the scalar running maximum bit for bit.
        makespan = (
            max(0.0, float(self._offsets.max() + (n_ticks - 1) * self._period))
            if len(self._offsets)
            else 0.0
        )
        return _Clock(n_ticks, self._offsets, self._period, None, makespan)

    def _latch(
        self, lo: int, hi: int, clock: _Clock
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(t_latch, g)`` for directed edges ``[lo, hi)``: per (edge,
        receiver tick), the latch time and the latched sender generation.
        This is the vectorized ``_latched_sender_tick`` — identical floor
        estimate, identical downward scan with the same tolerance — and
        each entry depends only on its own edge, so any edge blocking
        yields the same generations."""
        src = self._src[lo:hi, None]
        lag = self._lag[lo:hi, None]
        t_latch = clock.time(self._dst[lo:hi, None], np.arange(clock.ticks))
        estimate = np.floor((t_latch - self._offsets[src] - lag) / self._period)
        g = estimate.astype(np.int64) + 3  # covers ~1.5 periods of jitter
        thresh = t_latch + _LATCH_TOL
        while True:
            late = (g >= 0) & (clock.time(src, g) + lag > thresh)
            if not late.any():
                return t_latch, g
            g -= late

    def _scan(
        self, clock: _Clock, edge_block: Optional[int]
    ) -> Tuple[TimingResult, Optional[np.ndarray]]:
        """The violation list in exact scalar order, plus the makespan.

        The latch scan streams over blocks of ``edge_block`` directed
        edges (one block of every edge for ``None``) and keeps only the
        violating entries, so peak memory is O(block x ticks).  When one
        block held every edge, its latch matrix comes back too (else
        ``None``)."""
        if edge_block is not None and edge_block < 1:
            raise ValueError("edge_block must be positive")
        n_edges = len(self._src)
        block = edge_block if edge_block is not None else max(n_edges, 1)
        expected = np.arange(clock.ticks, dtype=np.int64) - 1
        g = np.empty((0, clock.ticks), dtype=np.int64)
        parts: List[Tuple[np.ndarray, ...]] = []
        for lo in range(0, n_edges, block):
            t_latch, g = self._latch(lo, min(lo + block, n_edges), clock)
            mask = g != expected[None, :]
            # Tick 0 expects -1; a latch of -1 (or below) is not a
            # violation there (both sides pre-first-tick), matching the
            # scalar guard.
            mask[:, 0] &= g[:, 0] >= 0
            if mask.any():
                e_off, k_off = np.nonzero(mask)
                parts.append(
                    (e_off + lo, k_off, t_latch[e_off, k_off], g[e_off, k_off])
                )
        violations: List[TimingViolation] = []
        if parts:
            e_idx, k_idx, t_vals, g_vals = (np.concatenate(p) for p in zip(*parts))
            perm = _order_violation_entries(
                self._slot, self._dst, e_idx, k_idx, t_vals
            )
            e_idx = e_idx[perm]
            labels = self._labels
            violations = [
                TimingViolation(
                    edge=(labels[u], labels[v]),
                    receiver_tick=k,
                    expected_sender_tick=k - 1,
                    actual_sender_tick=gen,
                )
                for u, v, k, gen in zip(
                    self._src[e_idx].tolist(),
                    self._dst[e_idx].tolist(),
                    k_idx[perm].tolist(),
                    g_vals[perm].tolist(),
                )
            ]
        timing = TimingResult(
            violations=violations, makespan=clock.makespan, ticks=clock.ticks
        )
        return timing, (g if block >= n_edges else None)


class CompiledClockedKernel(_LatchKernel):
    """A :class:`~repro.sim.clocked.ClockedArraySimulator` lowered to
    arrays: compile once, run many times.

    ``edge_delay`` is the simulator's per-directed-edge data propagation
    delay (wire model plus hold padding), so the kernel and the scalar
    path consume the *same* precomputed lags.
    """

    def __init__(
        self,
        program: SystolicProgram,
        schedule: ClockSchedule,
        delta: float,
        edge_delay: Mapping[EdgeKey, float],
    ) -> None:
        comm: CommGraph = program.array.comm
        self._program = program
        self._schedule = schedule
        self.comm_version = comm.version
        cells = comm.nodes()
        self._cells: List[CellId] = cells
        self._labels = cells
        index = {c: i for i, c in enumerate(cells)}
        # Captured once: the scalar path iterates a fresh set copy per
        # event, which is order-stable within a process, so one snapshot
        # reproduces the scalar input-dict and violation order exactly.
        self._preds: Dict[CellId, Tuple[CellId, ...]] = {
            c: tuple(comm.predecessors(c)) for c in cells
        }
        self._succs: Dict[CellId, Tuple[CellId, ...]] = {
            c: tuple(comm.successors(c)) for c in cells
        }
        src_ids: List[int] = []
        dst_ids: List[int] = []
        lags: List[float] = []
        slots: List[int] = []
        edge_id: Dict[EdgeKey, int] = {}
        for c in cells:
            for j, u in enumerate(self._preds[c]):
                edge_id[(u, c)] = len(src_ids)
                src_ids.append(index[u])
                dst_ids.append(index[c])
                lags.append(delta + edge_delay[(u, c)])
                slots.append(j)
        self._src = np.asarray(src_ids, dtype=np.int64)
        self._dst = np.asarray(dst_ids, dtype=np.int64)
        self._lag = np.asarray(lags, dtype=np.float64)
        self._slot = np.asarray(slots, dtype=np.int64)
        self._edge_id = edge_id
        self._offsets = np.asarray(
            [schedule.offset(c) for c in cells], dtype=np.float64
        )
        self._period = schedule.period
        # A plain ClockSchedule is affine (offset + k * period); subclasses
        # such as JitteredSchedule override tick_time and take the tick
        # table.
        self._affine = type(schedule) is ClockSchedule
        # Producers-first cell order for stream-executing clean runs (None
        # = not yet probed; False = outside the stream algebra, replay).
        self._stream_order: Any = None

    # ------------------------------------------------------------------
    # timing analysis
    # ------------------------------------------------------------------
    def _tick_matrix(self, n_ticks: int) -> np.ndarray:
        """``T[c, k] = tick_time(c, k)``: the schedule's own tick times,
        for schedules without the affine closed form."""
        tick_time = self._schedule.tick_time
        T = np.empty((len(self._cells), n_ticks), dtype=np.float64)
        for i, c in enumerate(self._cells):
            row = T[i]
            for k in range(n_ticks):
                row[k] = tick_time(c, k)
        return T

    def _clock(self, n_ticks: int) -> _Clock:
        """The affine clock, or for a schedule that overrides
        ``tick_time`` a tick table wide enough for every latch."""
        clock = super()._clock(n_ticks)
        if self._affine:
            return clock
        T = self._tick_matrix(n_ticks)
        makespan = max(0.0, float(T.max())) if T.size else 0.0
        if len(self._src):
            # The scan starts every entry at its floor estimate + 3 and
            # only moves down; the estimate is monotone in the latch time
            # (same float64 operations as ``_latch``), so each edge
            # reaches furthest at its receiver's latest tick.  Table
            # entries at equal (cell, k) are identical whatever the width.
            latest = T.max(axis=1)[self._dst]
            reach = np.floor(
                (latest - self._offsets[self._src] - self._lag) / self._period
            ).max()
            T = self._tick_matrix(max(int(reach) + 3, n_ticks - 1) + 1)
        return clock._replace(table=T, makespan=makespan)

    def timing(
        self, ticks: Optional[int] = None, edge_block: Optional[int] = None
    ) -> TimingResult:
        """Violations + makespan without payload execution.

        ``edge_block`` streams the latch scan over edge blocks of that
        size: peak memory is O(block x ticks) instead of O(edges x
        ticks), and the result — violation list contents, order, and
        makespan — is bit-identical for every block size (the property
        suite drives this across random block sizes).
        """
        n_ticks = ticks if ticks is not None else self._program.cycles
        return self._scan(self._clock(n_ticks), edge_block)[0]

    # ------------------------------------------------------------------
    # functional execution
    # ------------------------------------------------------------------
    def _replay(self, clock: _Clock, g: np.ndarray) -> Any:
        """Event-order functional replay using the latch matrix — exact
        scalar semantics for dirty runs and programs the stream evaluator
        cannot express."""
        n_ticks = clock.ticks
        n_cells = len(self._cells)
        T = clock.time(np.arange(n_cells)[:, None], np.arange(n_ticks))
        # The scalar event order: by time, then tick, then cell position.
        order = np.lexsort(
            (
                np.repeat(np.arange(n_cells, dtype=np.int64), n_ticks),
                np.tile(np.arange(n_ticks, dtype=np.int64), n_cells),
                T.ravel(),
            )
        )
        pes = self._program.pes
        cells = self._cells
        cell_seq = (order // n_ticks).tolist()
        tick_seq = (order % n_ticks).tolist()
        g_rows = g.tolist()
        history: List[List[Any]] = [
            [None] * n_ticks for _ in range(len(self._src))
        ]
        edge_id = self._edge_id
        pred_info = [
            [(u, edge_id[(u, c)]) for u in self._preds[c]] for c in cells
        ]
        succ_info = [
            [(v, edge_id[(c, v)]) for v in self._succs[c]] for c in cells
        ]
        fires = [pes[c].fire for c in cells]
        for ci, k in zip(cell_seq, tick_seq):
            inputs: Dict[CellId, Any] = {}
            for u, e in pred_info[ci]:
                gen = g_rows[e][k]
                inputs[u] = history[e][gen] if 0 <= gen < n_ticks else None
            outputs = fires[ci](inputs)
            for v, e in succ_info[ci]:
                history[e][k] = outputs.get(v) if outputs else None
        return self._program.read_result(_ExecutorFacade(pes))

    def _execute(
        self, clock: _Clock, timing: TimingResult, g: Optional[np.ndarray]
    ) -> Any:
        """The functional half of :meth:`run`: stream-execute a clean run
        of an acyclic program the stream algebra covers, replay anything
        else."""
        pes = self._program.pes
        if timing.clean and self._stream_order is None:
            # Imported here so that ``import repro`` does not load the
            # event simulator module.
            from repro.sim.dataflow import ChannelDeadlockError, zero_token_order

            self._stream_order = False
            if batch.supports(pes, self._cells):
                try:
                    # Consumers first over the COMM edges; a cycle (the
                    # bidirectional sorter) needs per-tick interleaving.
                    order = zero_token_order(self._cells, self._src, self._dst)
                    self._stream_order = [self._cells[i] for i in order[::-1]]
                except ChannelDeadlockError:
                    pass
        if timing.clean and self._stream_order is not False:
            try:
                batch.execute_streams(
                    pes, self._stream_order, self._preds, self._succs, clock.ticks
                )
                return self._program.read_result(_ExecutorFacade(pes))
            except batch.BatchUnsupported:
                self._stream_order = False
                for pe in pes.values():
                    pe.reset()  # discard any partial stream state
        # A dirty blocked run never held the whole latch matrix.
        if g is None:
            g = self._latch(0, len(self._src), clock)[1]
        return self._replay(clock, g)

    def run(
        self,
        ticks: Optional[int] = None,
        tracer: Optional[Any] = None,
        edge_block: Optional[int] = None,
    ) -> ClockedRunResult:
        """Byte-identical to the scalar ``ClockedArraySimulator.run``:
        same result payload, same violation list (contents *and* order),
        same makespan.

        One path: build the clock, scan the latches (streamed per
        ``edge_block`` edges, see :meth:`timing`), then stream-execute a
        clean acyclic run or replay it in scalar event order.  A dirty
        blocked run rescans every edge at once for the replay.  An
        enabled ``tracer`` records one span per phase under
        ``compiled.run``; without one the spans are no-ops.
        """
        n_ticks = ticks if ticks is not None else self._program.cycles
        spans = tracer if isinstance(tracer, SpanTracer) else SpanTracer(tracer)
        for pe in self._program.pes.values():
            pe.reset()
        with spans.span(
            "compiled.run",
            ticks=n_ticks,
            cells=len(self._cells),
            edge_block=edge_block,
        ):
            with spans.span("compiled.tick_matrix"):
                clock = self._clock(n_ticks)
            with spans.span("compiled.latch_scan") as h:
                timing, g = self._scan(clock, edge_block)
                h.annotate(count=len(timing.violations))
            with spans.span("compiled.execute"):
                result = self._execute(clock, timing, g)
        return ClockedRunResult(
            result=result,
            violations=timing.violations,
            ticks=n_ticks,
            makespan=timing.makespan,
        )


def compile_clocked(simulator: Any) -> CompiledClockedKernel:
    """Lower a :class:`~repro.sim.clocked.ClockedArraySimulator` into its
    array kernel (also available as ``simulator.compiled()``)."""
    return simulator.compiled()


# ----------------------------------------------------------------------
# array-only timing kernel (million-cell scale)
# ----------------------------------------------------------------------
class CompiledTimingKernel(_LatchKernel):
    """Pure timing analysis straight from arrays — the large-N kernel.

    :class:`CompiledClockedKernel` is lowered from a full
    ``SystolicProgram`` (PEs, payload closures, hashable cell ids) and
    pays a Python-speed walk of the object graph per compile.  At 10^6
    cells that walk *is* the runtime, so this kernel skips the object
    graph entirely: it is built from a
    :class:`~repro.graphs.csr.CSRAdjacency` plus per-cell clock offsets
    under an affine schedule (``offset + k * period``) and a per-edge
    data-path lag.  Cells are the dense ints ``0..n-1``; reported
    violation edges are ``(src, dst)`` int pairs.

    :meth:`timing` is the latch scan both clocked kernels share (the
    scalar simulator's ``_latched_sender_tick``: floor estimate, +3
    guard, downward scan with the 1e-12 tolerance), in one block or
    streamed per edge block; :meth:`timing_scalar` is the per-event
    Python oracle the differential suites compare against at
    co-runnable sizes.  :meth:`arrays` / :meth:`from_arrays` round-trip
    the kernel through raw numpy buffers so
    :class:`~repro.analysis.shared.SharedArena` can ship it to worker
    processes without pickling.
    """

    def __init__(
        self,
        adjacency: CSRAdjacency,
        offsets: Any,
        period: float,
        lag: Any = 0.0,
    ) -> None:
        offsets_arr = np.ascontiguousarray(np.asarray(offsets, dtype=np.float64))
        n = adjacency.n_cells
        if offsets_arr.shape != (n,):
            raise ValueError(
                f"offsets shape {offsets_arr.shape} != ({n},) cells"
            )
        if not period > 0:
            raise ValueError("period must be positive")
        indptr = np.ascontiguousarray(adjacency.indptr, dtype=np.int64)
        indices = np.ascontiguousarray(adjacency.indices, dtype=np.int64)
        counts = np.diff(indptr)
        self._indptr = indptr
        self._src = indices
        self._dst = np.repeat(np.arange(n, dtype=np.int64), counts)
        # Slot = position within the receiver's predecessor list (CSR
        # row order), mirroring the captured-order tie-break of the
        # program kernel.
        self._slot = np.arange(len(indices), dtype=np.int64) - np.repeat(
            indptr[:-1], counts
        )
        lag_arr = np.asarray(lag, dtype=np.float64)
        if lag_arr.ndim == 0:
            lag_arr = np.broadcast_to(lag_arr, indices.shape)
        elif lag_arr.shape != indices.shape:
            raise ValueError(
                f"lag shape {lag_arr.shape} != ({len(indices)},) edges"
            )
        self._lag = np.ascontiguousarray(lag_arr)
        self._offsets = offsets_arr
        self._period = float(period)
        self._labels = range(n)

    @property
    def n_cells(self) -> int:
        return len(self._offsets)

    @property
    def n_edges(self) -> int:
        return len(self._src)

    def timing(
        self, n_ticks: int, edge_block: Optional[int] = None
    ) -> TimingResult:
        """The full violation set (exact scalar order) and makespan.

        ``edge_block`` bounds peak memory at O(block x ticks); any block
        size — including the default single block — yields a
        bit-identical result."""
        return self._scan(self._clock(n_ticks), edge_block)[0]

    def timing_scalar(self, n_ticks: int) -> TimingResult:
        """Per-event Python reference: the scalar simulator's event loop
        (events sorted by time, tick, cell; predecessors in CSR row
        order) with the same latch scan — the oracle :meth:`timing` is
        differentially tested against."""
        if n_ticks < 1:
            raise ValueError("need at least one tick")
        offsets = self._offsets
        period = self._period
        indptr = self._indptr
        indices = self._src
        lag = self._lag
        n = len(offsets)
        events = sorted(
            (offsets[i] + k * period, k, i)
            for i in range(n)
            for k in range(n_ticks)
        )
        violations: List[TimingViolation] = []
        makespan = 0.0
        for t_latch, k, v in events:
            makespan = max(makespan, t_latch)
            expected = k - 1
            for e in range(indptr[v], indptr[v + 1]):
                u = indices[e]
                path_lag = lag[e]
                estimate = int(
                    math.floor((t_latch - offsets[u] - path_lag) / period)
                )
                kk = estimate + 3  # covers jitter up to ~1.5 periods
                while kk >= 0 and offsets[u] + kk * period + path_lag > t_latch + _LATCH_TOL:
                    kk -= 1
                if kk != expected and (kk >= 0 or expected >= 0):
                    violations.append(
                        TimingViolation(
                            edge=(int(u), int(v)),
                            receiver_tick=k,
                            expected_sender_tick=expected,
                            actual_sender_tick=kk,
                        )
                    )
        return TimingResult(
            violations=violations, makespan=float(makespan), ticks=n_ticks
        )

    def arrays(self) -> Dict[str, np.ndarray]:
        """The kernel's defining arrays, keyed for
        :class:`~repro.analysis.shared.SharedArena` shipping.  Scalars
        travel in ``params`` so the manifest stays arrays-only."""
        return {
            "indptr": self._indptr,
            "indices": self._src,
            "offsets": self._offsets,
            "lag": self._lag,
            "params": np.array([self._period], dtype=np.float64),
        }

    @classmethod
    def from_arrays(cls, arrays: Mapping[str, np.ndarray]) -> "CompiledTimingKernel":
        """Rebuild from :meth:`arrays` output (possibly views into a
        shared-memory segment — the big buffers are used zero-copy; only
        the derived ``dst``/``slot`` index arrays are recomputed)."""
        adjacency = CSRAdjacency(
            indptr=np.asarray(arrays["indptr"]),
            indices=np.asarray(arrays["indices"]),
        )
        return cls(
            adjacency,
            arrays["offsets"],
            float(np.asarray(arrays["params"])[0]),
            lag=np.asarray(arrays["lag"]),
        )


# ----------------------------------------------------------------------
# self-timed max-plus recurrence
# ----------------------------------------------------------------------
def _runs(ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(offsets, ids)`` of the runs of equal consecutive ids — the
    ``np.maximum.reduceat`` layout of an edge list grouped by that id."""
    head = np.ones(len(ids), dtype=bool)
    head[1:] = ids[1:] != ids[:-1]
    offsets = np.flatnonzero(head)
    return offsets, ids[offsets]


class CompiledRecurrence:
    """The self-timed max-plus recurrence of a COMM graph, compiled once to
    the dependence arrays :func:`repro.sta.flow.flow_graph` emits:

    ``start[c][k] = max(finish[c][k-1], max_p finish[p][k-1] + wire[p, c],
    max_s start[s][k-d+1])`` and ``finish[c][k] = start[c][k] +
    service(c, k)``

    — forward edges ``p -> c`` with a per-edge wire, and credit edges from
    each consumer ``s`` back to its producer that lag ``d - 1`` waves on a
    depth-``d`` channel.  The channels are kept in COMM edge order
    (grouped by sender: the credit layout, and the order of per-edge wires
    and depths) and grouped by receiver for the forward maxima.

    :class:`RecurrenceStepper` is the one evaluator and :meth:`makespan` a
    stepper run.  ``max`` is order-free and every add is the scalar
    oracle's (:func:`repro.sim.dataflow.recurrence_scalar`), so both agree
    bit for bit in every capacity regime.
    """

    def __init__(self, comm: CommGraph) -> None:
        self.comm_version = comm.version
        self._comm = comm
        self._cells = comm.nodes()
        index = {c: i for i, c in enumerate(self._cells)}
        self._edges = comm.edges()
        self._esrc = np.asarray([index[u] for u, _ in self._edges], dtype=np.int64)
        self._edst = np.asarray([index[v] for _, v in self._edges], dtype=np.int64)
        self._by_dst = np.argsort(self._edst, kind="stable")
        self._fwd_src = self._esrc[self._by_dst]
        self._fwd_starts, self._fwd_cells = _runs(self._edst[self._by_dst])

    def stepper(
        self,
        service: Any,
        wire_delay: Any,
        capacity: Any = None,
    ) -> "RecurrenceStepper":
        """A wave-at-a-time evaluator over this compiled structure (see
        :class:`RecurrenceStepper` for the accepted specs)."""
        return RecurrenceStepper(self, service, wire_delay, capacity=capacity)

    def makespan(
        self,
        service: Any,
        wire_delay: Any,
        n_waves: int,
        capacity: Any = None,
    ) -> float:
        """Makespan after ``n_waves`` waves: one :class:`RecurrenceStepper`
        run."""
        return self.stepper(service, wire_delay, capacity).run(n_waves)


class RecurrenceStepper:
    """Wave-at-a-time evaluation of a :class:`CompiledRecurrence` — the one
    vectorized wave loop.

    ``service`` is any spec :func:`~repro.sim.dataflow.service_rows`
    resolves; ``wire_delay`` is one finite, non-negative delay for every
    channel or a ``{(src, dst): delay}`` map over the COMM edges;
    ``capacity`` is ``None``, a uniform depth, or a per-edge map
    (:func:`~repro.sim.dataflow.channel_depths`).  Channels of one depth
    ``d >= 2`` form one credit group.  Depth-1 channels couple starts
    within a wave and settle in one consumers-first sweep, the scalar
    oracle's rule, in the order :func:`~repro.sim.dataflow.zero_token_order`
    computes (which refuses them up front when they close a cycle).  A
    COMM graph that gained a node or edge after the compile is refused
    with ``ValueError``.

    :attr:`start` and :attr:`finish` are the last wave's rows, indexed
    like ``CompiledRecurrence._cells``; both are freshly allocated per
    wave and never mutated afterwards, so callers may keep references.
    """

    def __init__(
        self,
        compiled: CompiledRecurrence,
        service: Any,
        wire_delay: Any,
        capacity: Any = None,
    ) -> None:
        # Imported here so that ``import repro`` does not load the event
        # simulator module.
        from repro.sim.dataflow import (
            channel_depths,
            service_rows,
            zero_token_order,
        )

        c = compiled
        if c.comm_version != c._comm.version:
            # The capacity spec is read against the live graph's edges.
            raise ValueError(
                "the COMM graph changed since this recurrence was compiled"
            )
        if isinstance(wire_delay, Mapping):
            wires = [float(wire_delay[e]) for e in c._edges]
            wire_delay = np.asarray(wires, dtype=np.float64)[c._by_dst]
        else:
            wires = [wire_delay]
        if not all(0 <= w < math.inf for w in wires):
            raise ValueError("wire delay must be non-negative and finite")
        depths = channel_depths(c._comm, capacity)
        deepest = int(depths.max(initial=0))
        # One credit group per channel depth >= 2; they read earlier
        # waves' start rows, so they apply before the depth-1 sweep.
        self._credits: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for d in np.unique(depths[depths > 1]).tolist():
            sel = np.flatnonzero(depths == d)
            offsets, senders = _runs(c._esrc[sel])
            self._credits.append((d, c._edst[sel], offsets, senders))
        # The depth-1 channels as (producer, consumer) pairs, producers in
        # consumers-first order: each consumer's start is final before any
        # of its producers reads it.
        ones = np.flatnonzero(depths == 1)
        self._sweep = list(zip(c._esrc[ones].tolist(), c._edst[ones].tolist()))
        if self._sweep:
            order = zero_token_order(c._cells, c._esrc[ones], c._edst[ones])
            rank = dict(zip(order, range(len(order))))
            self._sweep.sort(key=lambda e: rank[e[0]])
        self._window: deque = deque(maxlen=max(deepest - 1, 0))
        self._c = c
        self._wire = wire_delay
        self._rows = service_rows(c._cells, service)
        self._start = self._finish = np.zeros(len(c._cells), dtype=np.float64)
        self._k = 0

    @property
    def wave(self) -> int:
        """Number of completed waves."""
        return self._k

    @property
    def start(self) -> np.ndarray:
        """Start row of the last completed wave (zeros before the first
        :meth:`step`)."""
        return self._start

    @property
    def finish(self) -> np.ndarray:
        """Finish row after the last completed wave (zeros before the
        first :meth:`step`)."""
        return self._finish

    def step(self) -> np.ndarray:
        """Advance one wave; returns the new finish vector."""
        c = self._c
        k = self._k
        finish = self._finish
        if k > 0 and len(c._fwd_src):
            arrivals = finish[c._fwd_src] + self._wire
            grouped = np.maximum.reduceat(arrivals, c._fwd_starts)
            start = finish.copy()
            start[c._fwd_cells] = np.maximum(start[c._fwd_cells], grouped)
        else:
            start = finish
        for d, succ, offsets, senders in self._credits:
            if k < d:
                continue
            if start is finish:
                start = finish.copy()
            row = self._window[-(d - 1)]  # start row of wave k - d + 1
            grouped = np.maximum.reduceat(row[succ], offsets)
            start[senders] = np.maximum(start[senders], grouped)
        if k > 0 and self._sweep:
            starts = start.tolist()
            for p, s in self._sweep:
                if starts[s] > starts[p]:
                    starts[p] = starts[s]
            start = np.asarray(starts, dtype=np.float64)
        self._window.append(start)
        self._start = start
        self._finish = start + self._rows(k)
        self._k = k + 1
        return self._finish

    def run(self, n_waves: int) -> float:
        """Makespan after ``n_waves`` further waves."""
        if n_waves < 1:
            raise ValueError("need at least one wave")
        for _ in range(n_waves):
            self.step()
        return float(self._finish.max()) if len(self._finish) else 0.0
