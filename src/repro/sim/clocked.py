"""Skew-aware execution of systolic programs (the functional meaning of A5).

Each cell fires at its own clock tick times (a :class:`ClockSchedule`); at
tick ``k`` it latches, for every input wire, the most recent value to have
*arrived* by that instant, computes, and drives its outputs, which arrive at
each neighbor after ``delta`` (compute) plus the wire's propagation delay.

Correct synchronization means: the value latched at the receiver's tick
``k`` is the sender's tick ``k-1`` output.  Two failure modes exist, and
both are detected and reported:

* **setup/stale** — the sender's tick ``k-1`` output arrives *after* the
  receiver's tick ``k`` (skew + delays exceed the period): the receiver
  reuses older data.
* **hold/race-through** — the sender's tick ``k`` output arrives *before*
  the receiver's tick ``k`` (the sender's clock leads by more than the data
  path delay): new data overruns the latch.

The period bound of A5 (``sigma + delta + tau``) is exactly what makes both
impossible; the tests drive this simulator on both sides of the bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Hashable, Iterator, List, Mapping, Optional, Tuple

from repro.arrays.systolic import SystolicProgram
from repro.delay.wire import LinearWireModel, WireDelayModel
from repro.graphs.comm import CommGraph
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.clock_distribution import ClockSchedule

CellId = Hashable
EdgeKey = Tuple[CellId, CellId]


@dataclass(frozen=True)
class TimingViolation:
    """One latch event that read the wrong generation of data."""

    edge: EdgeKey
    receiver_tick: int
    expected_sender_tick: int
    actual_sender_tick: int

    @property
    def kind(self) -> str:
        """``race`` (hold violation) or ``stale`` (setup violation)."""
        return "race" if self.actual_sender_tick > self.expected_sender_tick else "stale"


@dataclass
class ClockedRunResult:
    """Outcome of a clocked run: result payload plus timing diagnostics."""

    result: Any
    violations: List[TimingViolation]
    ticks: int
    makespan: float

    @property
    def clean(self) -> bool:
        return not self.violations


class ClockedArraySimulator:
    """Execute a systolic program under a concrete clock schedule."""

    def __init__(
        self,
        program: SystolicProgram,
        schedule: ClockSchedule,
        delta: float = 0.0,
        data_wire_model: Optional[WireDelayModel] = None,
        edge_padding: Optional[Mapping[EdgeKey, float]] = None,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if not 0 <= delta < math.inf:
            raise ValueError("delta must be non-negative and finite")
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._program = program
        self._comm: CommGraph = program.array.comm
        self._schedule = schedule
        self._delta = delta
        self._wire_model = data_wire_model or LinearWireModel(m=0.0 + 1e-12)
        for cell in self._comm.nodes():
            if cell not in schedule.cells():
                raise ValueError(f"cell {cell!r} has no clock schedule (A4)")
        # Precompute data propagation delay per directed edge; hold-fix
        # padding ("adding delay to circuits", Section I) folds in here.
        self._edge_delay: Dict[EdgeKey, float] = {}
        padding = dict(edge_padding or {})
        layout = program.array.layout
        for u, v in self._comm.edges():
            pad = padding.get((u, v), 0.0)
            if not 0 <= pad < math.inf:
                raise ValueError(
                    f"padding on edge {(u, v)!r} must be non-negative and finite"
                )
            self._edge_delay[(u, v)] = (
                self._wire_model.delay(layout.distance(u, v)) + pad
            )
        # Lazily-built array kernel (repro.sim.compiled); rebuilt if the
        # COMM graph changes shape underneath us.
        self._compiled: Optional[Any] = None

    def _latched_sender_tick(self, edge: EdgeKey, receiver_tick: int) -> int:
        """Which sender tick's output is on the wire when the receiver
        latches at its tick ``receiver_tick``?  The largest ``k`` with
        ``send(k) + delta + wire <= recv(receiver_tick)``.

        An affine schedule gives the answer in closed form; schedules with
        bounded per-tick jitter (A8 broken — :mod:`repro.sim.faults`) keep
        tick times monotone, so a short downward scan from the affine
        estimate finds the true latch generation.
        """
        u, v = edge
        t_latch = self._schedule.tick_time(v, receiver_tick)
        lag = self._delta + self._edge_delay[edge]
        estimate = int(
            math.floor(
                (t_latch - self._schedule.offset(u) - lag) / self._schedule.period
            )
        )
        k = estimate + 3  # covers jitter up to ~1.5 periods
        while k >= 0 and self._schedule.tick_time(u, k) + lag > t_latch + 1e-12:
            k -= 1
        return k

    def compiled(self):
        """The array-compiled kernel for this simulator (built once, cached;
        see :class:`repro.sim.compiled.CompiledClockedKernel`)."""
        from repro.sim.compiled import CompiledClockedKernel

        kernel = self._compiled
        if kernel is None or kernel.comm_version != self._comm.version:
            kernel = CompiledClockedKernel(
                self._program, self._schedule, self._delta, self._edge_delay
            )
            self._compiled = kernel
        return kernel

    def run(self, ticks: Optional[int] = None) -> ClockedRunResult:
        """Fire every cell for ``ticks`` ticks (default: the program's cycle
        count), track what each latch actually read, and extract the
        program result.

        Uninstrumented runs go through the array-compiled kernel, which is
        byte-identical to :meth:`run_scalar` (the differential and property
        suites enforce this); tracing or metrics keep the scalar path so
        per-event instrumentation stays exact.
        """
        if not self._tracer.enabled and not self._metrics.enabled:
            return self.compiled().run(ticks)
        return self.run_scalar(ticks)

    def run_compiled(self, ticks: Optional[int] = None) -> ClockedRunResult:
        """Run the array-compiled kernel explicitly, with this simulator's
        tracer attached: the kernel emits per-phase spans (tick-matrix,
        latch-scan, execute) instead of per-event ticks.  The
        result is byte-identical to :meth:`run` either way."""
        return self.compiled().run(ticks, tracer=self._tracer)

    def critical_path(self, ticks: Optional[int] = None):
        """The dependency chain behind this run's makespan (see
        :func:`repro.obs.critpath.clocked_critical_path`): the latest
        (cell, tick) firing's clock history, with the argmax tie broken
        exactly like the scalar event loop.  Its endpoint equals the
        makespan :meth:`run` reports, bit for bit, on both the scalar
        and compiled engines."""
        from repro.obs.critpath import clocked_critical_path

        n_ticks = ticks if ticks is not None else self._program.cycles
        return clocked_critical_path(
            self._schedule, self._comm.nodes(), n_ticks
        )

    def run_scalar(self, ticks: Optional[int] = None) -> ClockedRunResult:
        """The reference interpreter: one Python event per (cell, tick),
        exactly as specified — kept as the oracle for the compiled kernel."""
        n_ticks = ticks if ticks is not None else self._program.cycles
        if n_ticks < 1:
            raise ValueError("need at least one tick")
        pes = self._program.pes
        for pe in pes.values():
            pe.reset()

        # All (cell, tick) firing events in global time order; ties resolved
        # by tick then dense id.  Each event latches its inputs in the
        # lowering's ascending dense-id order, never in hash order.
        low = self._comm.lowering()
        cells = low.cells
        preds, succs = low.pred_rows(), low.succ_rows()
        events = sorted(
            ((self._schedule.tick_time(c, k), k, i, c) for i, c in enumerate(cells) for k in range(n_ticks)),
        )

        history: Dict[EdgeKey, Dict[int, Any]] = {e: {} for e in self._edge_delay}
        violations: List[TimingViolation] = []
        makespan = 0.0
        tracer = self._tracer
        metrics = self._metrics
        violation_counter = metrics.counter("clocked.violations")

        for t_fire, k, i, cell in events:
            makespan = max(makespan, t_fire)
            inputs: Dict[CellId, Any] = {}
            if tracer.enabled:
                tracer.event(t_fire, "tick", "fire", cell=cell, tick=k)
            for p in preds[i]:
                src = cells[p]
                edge = (src, cell)
                latched = self._latched_sender_tick(edge, k)
                expected = k - 1
                if latched != expected and (latched >= 0 or expected >= 0):
                    violation = TimingViolation(
                        edge=edge,
                        receiver_tick=k,
                        expected_sender_tick=expected,
                        actual_sender_tick=latched,
                    )
                    violations.append(violation)
                    if tracer.enabled:
                        tracer.event(
                            t_fire,
                            "violation",
                            violation.kind,
                            cell=cell,
                            edge=edge,
                            receiver_tick=k,
                            expected_sender_tick=expected,
                            actual_sender_tick=latched,
                        )
                    violation_counter.inc()
                inputs[src] = history[edge].get(latched) if latched >= 0 else None
            outputs = pes[cell].fire(inputs)
            for d in succs[i]:
                dst = cells[d]
                value = outputs.get(dst) if outputs else None
                history[(cell, dst)][k] = value

        result = self._program.read_result(self._program)
        if tracer.enabled:
            tracer.event(
                makespan,
                "clocked",
                "run",
                ticks=n_ticks,
                violations=len(violations),
                makespan=makespan,
                cells=len(cells),
            )
        if metrics.enabled:
            per_tick = metrics.histogram("clocked.violations_per_tick")
            by_tick: Dict[int, int] = {}
            for v in violations:
                by_tick[v.receiver_tick] = by_tick.get(v.receiver_tick, 0) + 1
            for k in range(n_ticks):
                per_tick.observe(float(by_tick.get(k, 0)))
            skew_hist = metrics.histogram("clocked.tick_skew")
            for k in range(n_ticks):
                times = [self._schedule.tick_time(c, k) for c in cells]
                skew_hist.observe(max(times) - min(times))
        return ClockedRunResult(
            result=result,
            violations=violations,
            ticks=n_ticks,
            makespan=makespan,
        )

    def edge_lags(self) -> Dict[EdgeKey, float]:
        """The full data-path lag of every directed edge: ``delta`` plus
        wire propagation plus hold-fix padding.  This is the quantity every
        latch decision compares against clock offsets — exposed so the
        static analyzer (:mod:`repro.sta`) can be cross-checked against the
        simulator's own arithmetic (the ``sta-soundness`` oracle asserts
        the two lag computations agree to the bit)."""
        return {edge: self._delta + wire for edge, wire in self._edge_delay.items()}

    def minimum_safe_period(
        self, channel_capacity: Optional[int] = None
    ) -> float:
        """The smallest period for which this schedule's skews cause no
        violations: from the closed-form latch condition,
        ``T > skew(u,v) + delta + tau`` for the setup side on every edge
        (the hold side needs ``offset(u) + delta + wire > offset(v)``, which
        a period cannot fix — it is reported by :meth:`hold_hazards`).

        With ``channel_capacity`` set, the bound also covers *storage*: a
        receiver whose clock trails the sender's by ``d = off(v) - off(u)``
        holds ``1 + ceil(d / T)`` in-flight generations at steady state
        (see :meth:`channel_depths`), so a ``c``-deep channel needs
        ``T >= d / (c - 1)``.  Wave-pipelined designs — where hold-fix
        padding makes large positive ``d`` legal — thus get a genuine,
        finite minimum safe period instead of the unbounded-FIFO model's
        vacuous one; ``c = 1`` on such an edge is unschedulable at any
        period (returns ``inf``)."""
        worst = 0.0
        for (u, v), lag in self.edge_lags().items():
            need = self._schedule.offset(u) - self._schedule.offset(v) + lag
            worst = max(worst, need)
        if channel_capacity is not None:
            if channel_capacity < 1:
                raise ValueError("channel capacity must be >= 1")
            for u, v in self._edge_delay:
                d = self._schedule.offset(v) - self._schedule.offset(u)
                if d <= 1e-12:
                    continue  # receiver does not trail: one slot suffices
                if channel_capacity == 1:
                    return float("inf")
                worst = max(worst, d / (channel_capacity - 1))
        return worst

    def channel_depths(self, ticks: Optional[int] = None) -> Dict[EdgeKey, int]:
        """Peak in-flight token count per edge over a ``ticks``-long run.

        Generation ``g`` occupies edge ``(u, v)`` from the sender's tick
        ``g`` (launch) until the receiver's tick ``g + 1`` (consume).  The
        unbounded-FIFO model ignored this; with finite channels the peak
        depth is the storage the edge's FIFO must actually provide.  For
        an affine schedule the steady-state depth is
        ``1 + ceil((off(v) - off(u)) / T)`` wherever the receiver trails —
        the wave-pipelining occupancy the capacity-aware
        :meth:`minimum_safe_period` bounds."""
        depths: Dict[EdgeKey, int] = {}
        for edge, _, depth in self._occupancy(ticks):
            depths[edge] = max(depths.get(edge, 0), depth)
        return depths

    def channel_overflows(
        self, capacity: int, ticks: Optional[int] = None
    ) -> List[Tuple[EdgeKey, int, int]]:
        """Every ``(edge, generation, depth)`` where the in-flight token
        count exceeds ``capacity`` — the latch events a ``capacity``-deep
        channel physically cannot honour (the sender would stall, or the
        FIFO would drop a generation).  Empty means the run fits the
        finite channels; the ``differential-violations`` oracle drives a
        wave-pipelined serpentine onto both sides of this boundary."""
        if capacity < 1:
            raise ValueError("channel capacity must be >= 1")
        return [hit for hit in self._occupancy(ticks) if hit[2] > capacity]

    def _occupancy(
        self, ticks: Optional[int]
    ) -> Iterator[Tuple[EdgeKey, int, int]]:
        """``(edge, generation, depth)`` in edge, then generation order:
        the in-flight token count as each generation launches, by a
        two-pointer sweep over launch and consume times."""
        n_ticks = ticks if ticks is not None else self._program.cycles
        if n_ticks < 1:
            raise ValueError("need at least one tick")
        for u, v in self._edge_delay:
            launches = [self._schedule.tick_time(u, g) for g in range(n_ticks)]
            consumes = [self._schedule.tick_time(v, g + 1) for g in range(n_ticks)]
            j = 0  # generations consumed so far
            for g, t_launch in enumerate(launches):
                while j < g and consumes[j] <= t_launch + 1e-12:
                    j += 1
                yield (u, v), g, g + 1 - j

    def hold_hazards(self) -> List[EdgeKey]:
        """Edges where the sender's clock leads the receiver's by more than
        the data path delay — race-through no period can repair; the fix is
        added delay (padding) or a better clock layout, as the paper notes
        ("adding delay to circuits")."""
        hazards = []
        for (u, v), lag in self.edge_lags().items():
            if self._schedule.offset(u) + lag < self._schedule.offset(v) - 1e-12:
                hazards.append((u, v))
        return hazards
