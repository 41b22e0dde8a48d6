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

The self-timed side has exactly one evaluator: :class:`RecurrenceStepper`
over a :class:`CompiledRecurrence` (forward edges with a per-edge wire,
credit edges lagged ``depth - 1`` waves).  The program recurrence of
:mod:`repro.sim.dataflow`, the steady-state detector of
:mod:`repro.sta.flow` and the hybrid controller barrier of
:mod:`repro.sim.hybrid_sim` (per-edge wire = handshake cost, plus one
leading zero-cost wave) all lower onto it.

Every kernel is an *exact* replacement, not an approximation: the same
float64 operations in the same order as the scalar reference, so payloads,
makespans, and violation lists are byte-identical.  The scalar paths stay
in the tree as the oracle (``run_scalar``, ``recurrence_makespan_scalar``)
and the differential/property suites assert the agreement.

Functional payload execution of a *clean* clocked run additionally
delegates to the stream evaluator in :mod:`repro.sim.batch` (lockstep
semantics factor per cell); dirty runs and programs outside the stream
algebra replay events in exact scalar order using the precomputed latch
matrix.
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
    Optional,
    Tuple,
)

import numpy as np

from repro.arrays.systolic import SystolicProgram
from repro.graphs.comm import CommGraph
from repro.graphs.csr import CSRAdjacency
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
    direct lexsort on (t, k, dst, slot) reproduces the rank-based
    ordering of the monolithic path without materializing a global event
    rank — which is what lets violation extraction stream per edge
    block."""
    return np.lexsort((slot[e_idx], dst[e_idx], k_idx, t_vals))


class CompiledClockedKernel:
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
        # such as JitteredSchedule override tick_time and take the generic
        # tabulated path.
        self._affine = type(schedule) is ClockSchedule
        # Stream-execution plan for clean runs (None = not yet probed;
        # False = unsupported, always replay).
        self._stream_order: Any = None

    # ------------------------------------------------------------------
    # timing analysis
    # ------------------------------------------------------------------
    def _tick_matrix(self, n_ticks: int) -> np.ndarray:
        """``T[c, k]`` = absolute time of tick ``k`` at cell ``c``, with
        exactly the scalar arithmetic (``offset + k * period`` per
        element for affine schedules; ``tick_time`` calls otherwise)."""
        n_cells = len(self._cells)
        if self._affine:
            ks = np.arange(n_ticks, dtype=np.float64) * self._period
            return self._offsets[:, None] + ks[None, :]
        tick_time = self._schedule.tick_time
        T = np.empty((n_cells, n_ticks), dtype=np.float64)
        for i, c in enumerate(self._cells):
            row = T[i]
            for k in range(n_ticks):
                row[k] = tick_time(c, k)
        return T

    def latch_matrix(
        self, n_ticks: int, T: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(T, g)``: the tick-time matrix and, per (edge, receiver tick),
        the latched sender generation — the vectorized
        ``_latched_sender_tick`` (identical floor estimate, identical
        downward scan with the same tolerance).  Pass a precomputed ``T``
        (from :meth:`_tick_matrix`) to skip rebuilding it."""
        if T is None:
            T = self._tick_matrix(n_ticks)
        if not len(self._src):
            return T, np.empty((0, n_ticks), dtype=np.int64)
        t_latch = T[self._dst]                      # (E, K)
        off_u = self._offsets[self._src][:, None]
        lag = self._lag[:, None]
        estimate = np.floor((t_latch - off_u - lag) / self._period)
        g = estimate.astype(np.int64) + 3           # covers ~1.5 periods of jitter
        thresh = t_latch + _LATCH_TOL
        if self._affine:
            while True:
                late = (g >= 0) & (off_u + g * self._period + lag > thresh)
                if not late.any():
                    break
                g -= late
        else:
            k_max = max(int(g.max(initial=0)), n_ticks - 1)
            Tall = self._tick_matrix(k_max + 1)
            src_col = self._src[:, None]
            while True:
                jj = np.maximum(g, 0)
                late = (g >= 0) & (Tall[src_col, jj] + lag > thresh)
                if not late.any():
                    break
                g -= late
        return T, g

    def _latch_block(
        self,
        lo: int,
        hi: int,
        n_ticks: int,
        ks_time: Optional[np.ndarray] = None,
        T: Optional[np.ndarray] = None,
        Tall: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`latch_matrix` restricted to directed edges ``[lo, hi)``
        — identical arithmetic on a slice, so streamed evaluation is
        bit-identical to the monolithic matrix while touching only
        O(block x ticks) memory.

        Affine schedules pass ``ks_time`` (``arange(K) * period``); the
        per-entry latch time ``offsets[dst] + ks_time[k]`` is then the
        same float64 add that built ``T`` monolithically.  Non-affine
        schedules pass the full ``T`` plus an oversized ``Tall`` covering
        every reachable generation (the caller bounds it once)."""
        dst = self._dst[lo:hi]
        src = self._src[lo:hi]
        lag = self._lag[lo:hi][:, None]
        off_u = self._offsets[src][:, None]
        if self._affine:
            assert ks_time is not None
            t_latch = self._offsets[dst][:, None] + ks_time[None, :]
        else:
            assert T is not None
            t_latch = T[dst]
        estimate = np.floor((t_latch - off_u - lag) / self._period)
        g = estimate.astype(np.int64) + 3
        thresh = t_latch + _LATCH_TOL
        if self._affine:
            while True:
                late = (g >= 0) & (off_u + g * self._period + lag > thresh)
                if not late.any():
                    break
                g -= late
        else:
            assert Tall is not None
            src_col = src[:, None]
            while True:
                jj = np.maximum(g, 0)
                late = (g >= 0) & (Tall[src_col, jj] + lag > thresh)
                if not late.any():
                    break
                g -= late
        return t_latch, g

    def _violation_entries(
        self,
        n_ticks: int,
        edge_block: int,
        ks_time: Optional[np.ndarray] = None,
        T: Optional[np.ndarray] = None,
        Tall: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Stream the latch scan per edge block, keeping only violating
        (edge, tick, latch time, generation) entries — the full
        ``(E, K)`` matrices never exist at once."""
        expected = np.arange(n_ticks, dtype=np.int64) - 1
        es: List[np.ndarray] = []
        kss: List[np.ndarray] = []
        ts: List[np.ndarray] = []
        gs: List[np.ndarray] = []
        n_edges = len(self._src)
        for lo in range(0, n_edges, edge_block):
            hi = min(lo + edge_block, n_edges)
            t_latch, g = self._latch_block(
                lo, hi, n_ticks, ks_time=ks_time, T=T, Tall=Tall
            )
            mask = g != expected[None, :]
            mask[:, 0] &= g[:, 0] >= 0
            if mask.any():
                e_off, k_idx = np.nonzero(mask)
                es.append(e_off + lo)
                kss.append(k_idx)
                ts.append(t_latch[e_off, k_idx])
                gs.append(g[e_off, k_idx])
        if not es:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty, np.empty(0, dtype=np.float64), empty
        return (
            np.concatenate(es),
            np.concatenate(kss),
            np.concatenate(ts),
            np.concatenate(gs),
        )

    def _materialize_violations(
        self,
        e_idx: np.ndarray,
        k_idx: np.ndarray,
        g_vals: np.ndarray,
        perm: np.ndarray,
    ) -> List[TimingViolation]:
        cells = self._cells
        src, dst = self._src, self._dst
        out: List[TimingViolation] = []
        for j in perm:
            e = int(e_idx[j])
            k = int(k_idx[j])
            out.append(
                TimingViolation(
                    edge=(cells[src[e]], cells[dst[e]]),
                    receiver_tick=k,
                    expected_sender_tick=k - 1,
                    actual_sender_tick=int(g_vals[j]),
                )
            )
        return out

    def timing(
        self, ticks: Optional[int] = None, edge_block: Optional[int] = None
    ) -> TimingResult:
        """Violations + makespan without payload execution.

        With ``edge_block=None`` this is the monolithic
        :meth:`latch_matrix` / :meth:`violations` pair.  With an
        ``edge_block``, the latch scan streams over edge blocks of that
        size: peak memory is O(block x ticks) instead of O(edges x
        ticks), and the result — violation list contents, order, and
        makespan — is bit-identical (the property suite drives this
        across random block sizes).
        """
        n_ticks = ticks if ticks is not None else self._program.cycles
        if n_ticks < 1:
            raise ValueError("need at least one tick")
        if edge_block is not None and edge_block < 1:
            raise ValueError("edge_block must be positive")
        if edge_block is None:
            T, g = self.latch_matrix(n_ticks)
            makespan = max(0.0, float(T.max())) if T.size else 0.0
            return TimingResult(
                violations=self.violations(T, g, n_ticks),
                makespan=makespan,
                ticks=n_ticks,
            )
        ks_time: Optional[np.ndarray] = None
        T = None
        Tall = None
        if self._affine:
            ks_time = np.arange(n_ticks, dtype=np.float64) * self._period
            # max over {offsets[c] + ks[k]} is attained at the argmax of
            # each term and computed by the same float64 add, so the
            # closed form equals float(T.max()) bit for bit.
            makespan = (
                max(0.0, float(self._offsets.max() + ks_time[-1]))
                if len(self._cells)
                else 0.0
            )
        else:
            T = self._tick_matrix(n_ticks)
            makespan = max(0.0, float(T.max())) if T.size else 0.0
            if len(self._src):
                # One generation bound for every block: the initial floor
                # estimate is maximized by the latest latch and the
                # smallest (sender offset + lag).  Tall entries at equal
                # (cell, k) are identical whatever the matrix size.
                head = (self._offsets[self._src] + self._lag).min()
                bound = int(np.floor((T.max() - head) / self._period)) + 3
                Tall = self._tick_matrix(max(bound, n_ticks - 1) + 1)
        e_idx, k_idx, t_vals, g_vals = self._violation_entries(
            n_ticks, edge_block, ks_time=ks_time, T=T, Tall=Tall
        )
        perm = _order_violation_entries(
            self._slot, self._dst, e_idx, k_idx, t_vals
        )
        return TimingResult(
            violations=self._materialize_violations(e_idx, k_idx, g_vals, perm),
            makespan=makespan,
            ticks=n_ticks,
        )

    def _event_order(self, T: np.ndarray, n_ticks: int) -> np.ndarray:
        """Flat (cell * K + tick) event indices sorted exactly like the
        scalar event list: by time, then tick, then cell position."""
        n_cells = len(self._cells)
        k_flat = np.tile(np.arange(n_ticks, dtype=np.int64), n_cells)
        i_flat = np.repeat(np.arange(n_cells, dtype=np.int64), n_ticks)
        return np.lexsort((i_flat, k_flat, T.ravel()))

    def violations(
        self, T: np.ndarray, g: np.ndarray, n_ticks: int
    ) -> List[TimingViolation]:
        """The violation list in exact scalar order: event order (time,
        tick, cell) outermost, captured predecessor order within a cell."""
        if not g.size:
            return []
        ks = np.arange(n_ticks, dtype=np.int64)
        expected = ks - 1
        mask = g != expected[None, :]
        # Tick 0 expects -1; a latch of -1 (or below) is not a violation
        # there (both sides pre-first-tick), matching the scalar guard.
        mask[:, 0] &= g[:, 0] >= 0
        if not mask.any():
            return []
        order = self._event_order(T, n_ticks)
        rank = np.empty(order.shape, dtype=np.int64)
        rank[order] = np.arange(len(order), dtype=np.int64)
        e_idx, k_idx = np.nonzero(mask)
        event_rank = rank[self._dst[e_idx] * n_ticks + k_idx]
        perm = np.lexsort((self._slot[e_idx], event_rank))
        cells = self._cells
        src, dst = self._src, self._dst
        out: List[TimingViolation] = []
        for j in perm:
            e = e_idx[j]
            k = int(k_idx[j])
            out.append(
                TimingViolation(
                    edge=(cells[src[e]], cells[dst[e]]),
                    receiver_tick=k,
                    expected_sender_tick=k - 1,
                    actual_sender_tick=int(g[e, k]),
                )
            )
        return out

    # ------------------------------------------------------------------
    # functional execution
    # ------------------------------------------------------------------
    def _try_stream_order(self) -> Any:
        if self._stream_order is None:
            pes = self._program.pes
            try:
                if not batch.supports(pes, self._cells):
                    raise batch.BatchUnsupported("unhandled PE class")
                self._stream_order = batch.topological_order(
                    self._program.array.comm
                )
            except batch.BatchUnsupported:
                self._stream_order = False
        return self._stream_order

    def _replay(self, T: np.ndarray, g: np.ndarray, n_ticks: int) -> Any:
        """Event-order functional replay using the precomputed latch
        matrix — exact scalar semantics for dirty runs and programs the
        stream evaluator cannot express."""
        pes = self._program.pes
        cells = self._cells
        order = self._event_order(T, n_ticks)
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

    def _finish_streamed(self, pes: Mapping[CellId, Any], n_ticks: int) -> Any:
        """Functional half of a streamed run: stream-execute when clean
        runs allow it, otherwise fall back to the monolithic latch matrix
        for the exact event replay (dirty runs need the full ``g``)."""
        order = self._try_stream_order()
        if order is not False:
            try:
                batch.execute_streams(
                    pes, order, self._preds, self._succs, n_ticks
                )
                return self._program.read_result(_ExecutorFacade(pes))
            except batch.BatchUnsupported:
                self._stream_order = False
                for pe in pes.values():
                    pe.reset()  # discard any partial stream state
        T, g = self.latch_matrix(n_ticks)
        return self._replay(T, g, n_ticks)

    def run(
        self,
        ticks: Optional[int] = None,
        tracer: Optional[Any] = None,
        edge_block: Optional[int] = None,
    ) -> ClockedRunResult:
        """Byte-identical to the scalar ``ClockedArraySimulator.run``:
        same result payload, same violation list (contents *and* order),
        same makespan.

        An enabled ``tracer`` adds per-phase spans (tick-matrix, latch
        scan, violation extraction, execute) around the same arithmetic;
        the default path allocates nothing and is untouched.

        ``edge_block`` streams the timing analysis per edge block (see
        :meth:`timing`): same results, O(block x ticks) peak memory.
        Dirty runs still build the full latch matrix for the replay.
        """
        n_ticks = ticks if ticks is not None else self._program.cycles
        if n_ticks < 1:
            raise ValueError("need at least one tick")
        spans = None
        if tracer is not None and tracer.enabled:
            from repro.obs.spans import SpanTracer

            spans = tracer if isinstance(tracer, SpanTracer) else SpanTracer(tracer)
        pes = self._program.pes
        for pe in pes.values():
            pe.reset()
        if edge_block is not None:
            if spans is None:
                timing = self.timing(n_ticks, edge_block=edge_block)
                if timing.clean:
                    result = self._finish_streamed(pes, n_ticks)
                else:
                    T, g = self.latch_matrix(n_ticks)
                    result = self._replay(T, g, n_ticks)
            else:
                with spans.span(
                    "compiled.run",
                    ticks=n_ticks,
                    cells=len(self._cells),
                    edge_block=edge_block,
                ):
                    with spans.span("compiled.timing_stream") as h:
                        timing = self.timing(n_ticks, edge_block=edge_block)
                        h.annotate(count=len(timing.violations))
                    with spans.span("compiled.execute"):
                        if timing.clean:
                            result = self._finish_streamed(pes, n_ticks)
                        else:
                            T, g = self.latch_matrix(n_ticks)
                            result = self._replay(T, g, n_ticks)
            return ClockedRunResult(
                result=result,
                violations=timing.violations,
                ticks=n_ticks,
                makespan=timing.makespan,
            )
        if spans is None:
            T, g = self.latch_matrix(n_ticks)
            violations = self.violations(T, g, n_ticks)
        else:
            with spans.span("compiled.run", ticks=n_ticks, cells=len(self._cells)):
                with spans.span("compiled.tick_matrix"):
                    T = self._tick_matrix(n_ticks)
                with spans.span("compiled.latch_scan"):
                    T, g = self.latch_matrix(n_ticks, T=T)
                with spans.span("compiled.violations") as h:
                    violations = self.violations(T, g, n_ticks)
                    h.annotate(count=len(violations))
                with spans.span("compiled.execute"):
                    result0, makespan0 = self._execute(pes, T, g, n_ticks, violations)
            return ClockedRunResult(
                result=result0,
                violations=violations,
                ticks=n_ticks,
                makespan=makespan0,
            )
        result, makespan = self._execute(pes, T, g, n_ticks, violations)
        return ClockedRunResult(
            result=result,
            violations=violations,
            ticks=n_ticks,
            makespan=makespan,
        )

    def _execute(
        self,
        pes: Mapping[CellId, Any],
        T: np.ndarray,
        g: np.ndarray,
        n_ticks: int,
        violations: List[TimingViolation],
    ) -> Tuple[Any, float]:
        """The functional half of :meth:`run`: stream-execute clean runs,
        replay dirty ones; returns ``(result, makespan)``."""
        makespan = max(0.0, float(T.max())) if T.size else 0.0
        result: Any = None
        ran = False
        if not violations:
            order = self._try_stream_order()
            if order is not False:
                try:
                    batch.execute_streams(
                        pes, order, self._preds, self._succs, n_ticks
                    )
                    result = self._program.read_result(_ExecutorFacade(pes))
                    ran = True
                except batch.BatchUnsupported:
                    self._stream_order = False
                    for pe in pes.values():
                        pe.reset()  # discard any partial stream state
        if not ran:
            result = self._replay(T, g, n_ticks)
        return result, makespan


def compile_clocked(simulator: Any) -> CompiledClockedKernel:
    """Lower a :class:`~repro.sim.clocked.ClockedArraySimulator` into its
    array kernel (also available as ``simulator.compiled()``)."""
    return simulator.compiled()


# ----------------------------------------------------------------------
# array-only timing kernel (million-cell scale)
# ----------------------------------------------------------------------
class CompiledTimingKernel:
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

    The latch arithmetic is exactly the scalar simulator's
    (``_latched_sender_tick``: floor estimate, +3 guard, downward scan
    with the 1e-12 tolerance), evaluated monolithically or streamed per
    edge block (:meth:`timing`); :meth:`timing_scalar` is the per-event
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

    @property
    def n_cells(self) -> int:
        return len(self._offsets)

    @property
    def n_edges(self) -> int:
        return len(self._src)

    def latch_block(
        self, lo: int, hi: int, n_ticks: int, ks_time: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(t_latch, g)`` for directed edges ``[lo, hi)`` — the affine
        latch scan of :meth:`CompiledClockedKernel.latch_matrix` on a
        slice, identical float64 operations."""
        if ks_time is None:
            ks_time = np.arange(n_ticks, dtype=np.float64) * self._period
        dst = self._dst[lo:hi]
        src = self._src[lo:hi]
        lag = self._lag[lo:hi][:, None]
        off_u = self._offsets[src][:, None]
        t_latch = self._offsets[dst][:, None] + ks_time[None, :]
        estimate = np.floor((t_latch - off_u - lag) / self._period)
        g = estimate.astype(np.int64) + 3
        thresh = t_latch + _LATCH_TOL
        while True:
            late = (g >= 0) & (off_u + g * self._period + lag > thresh)
            if not late.any():
                break
            g -= late
        return t_latch, g

    def timing(
        self, n_ticks: int, edge_block: Optional[int] = None
    ) -> TimingResult:
        """The full violation set (exact scalar order) and makespan.

        ``edge_block`` bounds peak memory at O(block x ticks); any block
        size — including the default single monolithic block — yields a
        bit-identical result."""
        if n_ticks < 1:
            raise ValueError("need at least one tick")
        if edge_block is not None and edge_block < 1:
            raise ValueError("edge_block must be positive")
        n_edges = len(self._src)
        block = edge_block if edge_block is not None else max(n_edges, 1)
        ks_time = np.arange(n_ticks, dtype=np.float64) * self._period
        makespan = (
            max(0.0, float(self._offsets.max() + ks_time[-1]))
            if len(self._offsets)
            else 0.0
        )
        expected = np.arange(n_ticks, dtype=np.int64) - 1
        es: List[np.ndarray] = []
        kss: List[np.ndarray] = []
        ts: List[np.ndarray] = []
        gs: List[np.ndarray] = []
        for lo in range(0, n_edges, block):
            hi = min(lo + block, n_edges)
            t_latch, g = self.latch_block(lo, hi, n_ticks, ks_time)
            mask = g != expected[None, :]
            mask[:, 0] &= g[:, 0] >= 0
            if mask.any():
                e_off, k_idx = np.nonzero(mask)
                es.append(e_off + lo)
                kss.append(k_idx)
                ts.append(t_latch[e_off, k_idx])
                gs.append(g[e_off, k_idx])
        if not es:
            return TimingResult(violations=[], makespan=makespan, ticks=n_ticks)
        e_idx = np.concatenate(es)
        k_idx_all = np.concatenate(kss)
        t_vals = np.concatenate(ts)
        g_vals = np.concatenate(gs)
        perm = _order_violation_entries(
            self._slot, self._dst, e_idx, k_idx_all, t_vals
        )
        src, dst = self._src, self._dst
        out: List[TimingViolation] = []
        for j in perm:
            e = int(e_idx[j])
            k = int(k_idx_all[j])
            out.append(
                TimingViolation(
                    edge=(int(src[e]), int(dst[e])),
                    receiver_tick=k,
                    expected_sender_tick=k - 1,
                    actual_sender_tick=int(g_vals[j]),
                )
            )
        return TimingResult(violations=out, makespan=makespan, ticks=n_ticks)

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
    resolves; ``wire_delay`` is one delay for every channel or a
    ``{(src, dst): delay}`` map over the COMM edges; ``capacity`` is
    ``None``, a uniform depth, or a per-edge map
    (:func:`~repro.sim.dataflow.channel_depths`).  Channels of one depth
    form one credit group; depth-1 channels couple starts within a wave
    and are relaxed to a fixpoint, which is exact (it only ever takes
    maxima of floats already present) and is refused up front when they
    close a cycle.  A COMM graph that gained a node or edge after the
    compile is refused with ``ValueError``.

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
        if min(wires, default=0.0) < 0:
            raise ValueError("wire delay must be non-negative")
        depths = channel_depths(c._comm, capacity)
        deepest = int(depths.max(initial=0))
        # One credit group per channel depth, deepest first, so the
        # same-wave depth-1 relaxation runs last, over every other term of
        # the wave.
        self._credits: List[Tuple[int, np.ndarray, np.ndarray, np.ndarray]] = []
        for d in np.unique(depths[depths > 0])[::-1].tolist():
            sel = np.flatnonzero(depths == d)
            src, succ = c._esrc[sel], c._edst[sel]
            offsets, senders = _runs(src)
            if d == 1:
                zero_token_order(c._cells, src, succ)
            self._credits.append((d, succ, offsets, senders))
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
            if d > 1:
                row = self._window[-(d - 1)]  # start row of wave k - d + 1
                grouped = np.maximum.reduceat(row[succ], offsets)
                start[senders] = np.maximum(start[senders], grouped)
            else:
                while True:
                    grouped = np.maximum.reduceat(start[succ], offsets)
                    updated = np.maximum(start[senders], grouped)
                    if np.array_equal(updated, start[senders]):
                        break
                    start[senders] = updated
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
