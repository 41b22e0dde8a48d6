"""Critical-path forensics: *which chain of events* set the number.

The paper's headline quantities — clocked settling time and self-timed
makespan — are maxima over causal chains: some sequence of clock ticks,
cell firings, and wire hops is the binding constraint, and every other
event had slack.  The simulators report only the final number; this
module reconstructs the chain behind it, three ways:

* :func:`clocked_critical_path` — from the schedule itself (the clocked
  makespan is the latest (cell, tick) firing instant, so the chain is
  that cell's clock history);
* :func:`selftimed_critical_path` — from the start and finish rows of
  the tandem recurrence
  ``start[c][k] = max(finish[c][k-1], max_pred finish[p][k-1] + wire)``
  as :class:`~repro.sim.compiled.RecurrenceStepper` computes them,
  backtracking from the latest finisher (ties go to the lowest dense id);
* :func:`critical_path_from_trace` — from a recorded JSONL trace, using
  the causal ``dataflow/fire`` annotations (``cause``/``src``) or the
  clocked ``tick/fire`` stream.

Exactness is the contract, not an aspiration: every extractor reads
the engine's own floats or performs the *same float operations* as the
engine it explains (no re-summation — the makespan is read off the final
step, never re-accumulated), so :attr:`CriticalPath.exact` is a
bit-for-bit comparison and the property suite holds it at zero diff
over randomized designs on both the scalar and compiled engines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.obs.trace import TraceEvent

CellId = Hashable

__all__ = [
    "CriticalPath",
    "PathStep",
    "clocked_critical_path",
    "critical_path_from_trace",
    "selftimed_critical_path",
]


@dataclass(frozen=True)
class PathStep:
    """One link of the chain: an interval attributed to a cell or wire.

    ``kind`` is one of ``"clock_offset"`` (waiting for a cell's first
    tick), ``"clock_tick"`` (one clock period at a cell), ``"compute"``
    (one cell firing's service time), ``"wire"`` (token propagation
    ``src -> cell``), or ``"credit"`` (a finite channel's backpressure
    wait: the binding event was a *successor* ``src`` starting a wave
    and freeing a channel slot).  ``index`` is the tick/wave the step
    belongs to.
    """

    kind: str
    cell: CellId
    t_start: float
    t_end: float
    src: Optional[CellId] = None
    index: int = 0

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def label(self) -> str:
        if self.kind in ("wire", "credit"):
            return f"{self.src!r}->{self.cell!r}"
        return repr(self.cell)


@dataclass
class CriticalPath:
    """The reconstructed chain plus the makespan it telescopes to.

    ``makespan`` is the chain's own endpoint (``steps[-1].t_end``, or 0
    for an empty chain); ``reported`` is the engine-reported value when
    one was available to cross-check.  :attr:`exact` is bitwise.
    """

    engine: str
    steps: List[PathStep]
    makespan: float
    reported: Optional[float] = None

    @property
    def exact(self) -> bool:
        """Bit-for-bit agreement with the engine-reported value."""
        return self.reported is None or self.reported == self.makespan

    def blame(self) -> List[Tuple[str, str, float, float]]:
        """Per-cell/edge attribution: ``(label, kind, seconds, share)``
        rows sorted by descending share of the end-to-end time."""
        totals: Dict[Tuple[str, str], float] = {}
        for step in self.steps:
            key = (step.label(), step.kind)
            totals[key] = totals.get(key, 0.0) + step.duration
        span = self.makespan if self.makespan > 0 else 0.0
        rows = [
            (label, kind, seconds, (seconds / span) if span else 0.0)
            for (label, kind), seconds in totals.items()
        ]
        rows.sort(key=lambda r: (-r[2], r[0], r[1]))
        return rows


# ----------------------------------------------------------------------
# clocked (schedule-driven) chains
# ----------------------------------------------------------------------
def _clocked_chain(
    tick_time: Callable[[CellId, int], float],
    cells: Sequence[CellId],
    n_ticks: int,
) -> Tuple[List[PathStep], float]:
    """The chain ending at the globally latest (cell, tick) firing.

    Argmax ties break exactly like the scalar run loop: events sorted by
    ``(t, tick, cell position)`` and the max updated on strict ``>``
    keep the first achiever, i.e. the smallest ``(tick, position)``.
    """
    times: Dict[Tuple[int, int], float] = {}
    for i, c in enumerate(cells):
        for k in range(n_ticks):
            times[(i, k)] = tick_time(c, k)
    # Two passes keep the tie-break explicit: find the max (clamped at
    # 0.0, matching the scalar loop's ``makespan = 0.0`` start), then
    # the first (tick, position) that attains it.
    best_t = 0.0
    for t in times.values():
        if t > best_t:
            best_t = t
    candidates = sorted(
        (k, i) for (i, k), t in times.items() if t == best_t
    )
    if not candidates or best_t <= 0.0:
        return [], best_t if best_t > 0.0 else 0.0
    k_star, i_star = candidates[0]
    cell = cells[i_star]
    steps: List[PathStep] = [
        PathStep("clock_offset", cell, 0.0, times[(i_star, 0)], index=0)
    ]
    for k in range(1, k_star + 1):
        steps.append(
            PathStep(
                "clock_tick",
                cell,
                times[(i_star, k - 1)],
                times[(i_star, k)],
                index=k,
            )
        )
    return steps, best_t


def clocked_critical_path(
    schedule: Any,
    cells: Sequence[CellId],
    n_ticks: int,
    reported: Optional[float] = None,
) -> CriticalPath:
    """The chain behind a clocked run's makespan.

    The clocked makespan is ``max over (cell, tick) of tick_time`` —
    both the scalar loop and the compiled kernel compute exactly that —
    so the critical chain is the latest-firing cell's clock history:
    its offset, then one step per period (or per jittered tick) up to
    the final tick.  ``schedule`` is anything with ``tick_time(cell,
    k)`` (a :class:`~repro.sim.clock_distribution.ClockSchedule` or a
    faulted subclass).
    """
    if n_ticks < 1:
        raise ValueError("need at least one tick")
    steps, makespan = _clocked_chain(schedule.tick_time, list(cells), n_ticks)
    return CriticalPath("clocked", steps, makespan, reported)


# ----------------------------------------------------------------------
# self-timed (tandem recurrence) chains
# ----------------------------------------------------------------------
def selftimed_critical_path(
    comm: Any,
    service: Callable[[CellId, int], float],
    wire_delay: float,
    n_waves: int,
    reported: Optional[float] = None,
) -> CriticalPath:
    """The chain behind an unbounded self-timed makespan, read off the
    start and finish rows of :class:`~repro.sim.compiled.RecurrenceStepper`.

    The walk starts at the first cell (in ``comm.nodes()`` order) that
    reaches the largest final finish.  At each wave a start equal to the
    cell's own previous finish keeps the cell; otherwise the binding
    input is the predecessor with the lowest dense id whose ``finish +
    wire`` equals the start.  The endpoint is the stepper's own float, so
    it *is* the reported makespan, bit for bit.
    """
    if n_waves < 1:
        raise ValueError("need at least one wave")
    from repro.sim.compiled import CompiledRecurrence

    cells: List[CellId] = comm.nodes()
    if not cells:
        return CriticalPath("selftimed", [], 0.0, reported)
    stepper = CompiledRecurrence(comm).stepper(service, wire_delay)
    starts: List[List[float]] = []
    finishes: List[List[float]] = []
    for _ in range(n_waves):
        finishes.append(stepper.step().tolist())
        starts.append(stepper.start.tolist())
    dense = {cell: i for i, cell in enumerate(cells)}
    makespan = max(finishes[-1])
    c = finishes[-1].index(makespan)
    steps: List[PathStep] = []
    for k in range(n_waves - 1, -1, -1):
        start = starts[k][c]
        steps.append(PathStep("compute", cells[c], start, finishes[k][c], index=k))
        if k == 0 or start == finishes[k - 1][c]:
            continue
        p = min(
            dense[q]
            for q in comm.predecessors(cells[c])
            if finishes[k - 1][dense[q]] + wire_delay == start
        )
        steps.append(
            PathStep(
                "wire", cells[c], finishes[k - 1][p], start, src=cells[p], index=k
            )
        )
        c = p
    steps.reverse()
    return CriticalPath("selftimed", steps, makespan, reported)


# ----------------------------------------------------------------------
# trace-driven reconstruction
# ----------------------------------------------------------------------
def _from_dataflow_trace(
    fires: List[TraceEvent], reported: Optional[float]
) -> CriticalPath:
    records: Dict[Tuple[CellId, int], TraceEvent] = {}
    for e in fires:
        wave = e.data.get("wave")
        if isinstance(wave, int):
            records.setdefault((e.cell, wave), e)
    if not records:
        raise ValueError("trace has no dataflow/fire events with wave data")
    enriched = all(
        "finish" in e.data and "cause" in e.data for e in records.values()
    )
    if not enriched:
        raise ValueError(
            "dataflow/fire events lack causal annotations (finish/cause); "
            "re-record the trace with this version"
        )
    terminal_key = None
    terminal_finish = 0.0
    for key, e in records.items():
        f = float(e.data["finish"])
        if terminal_key is None or f > terminal_finish:
            terminal_key, terminal_finish = key, f
    assert terminal_key is not None
    steps: List[PathStep] = []
    cell, wave = terminal_key
    while wave >= 0:
        e = records.get((cell, wave))
        if e is None:
            raise ValueError(
                f"trace is missing the fire event for cell {cell!r} wave {wave}"
            )
        start = float(e.data.get("start", e.t))
        fin = float(e.data["finish"])
        steps.append(PathStep("compute", cell, start, fin, index=wave))
        cause = e.data.get("cause")
        if cause == "token":
            src = e.data.get("src")
            src_e = records.get((src, wave - 1))
            if src_e is None:
                raise ValueError(
                    f"trace is missing the fire event for cell {src!r} "
                    f"wave {wave - 1} (cause of {cell!r} wave {wave})"
                )
            steps.append(
                PathStep(
                    "wire",
                    cell,
                    float(src_e.data["finish"]),
                    start,
                    src=src,
                    index=wave,
                )
            )
            cell = src
            wave -= 1
        elif cause == "credit":
            # Backpressure: the binding event was a *successor* starting
            # the wave that freed a channel slot (credits return with
            # zero delay, so the interval is degenerate — the step
            # records the causal hop, not elapsed time).
            src = e.data.get("src")
            src_wave = e.data.get("src_wave")
            if not isinstance(src_wave, int):
                raise ValueError(
                    f"credit-caused fire event for cell {cell!r} wave "
                    f"{wave} lacks src_wave"
                )
            src_e = records.get((src, src_wave))
            if src_e is None:
                raise ValueError(
                    f"trace is missing the fire event for cell {src!r} "
                    f"wave {src_wave} (credit cause of {cell!r} wave {wave})"
                )
            steps.append(
                PathStep(
                    "credit",
                    cell,
                    float(src_e.data.get("start", src_e.t)),
                    start,
                    src=src,
                    index=wave,
                )
            )
            cell, wave = src, src_wave
        elif cause == "init":
            break
        else:
            wave -= 1
    steps.reverse()
    return CriticalPath("selftimed", steps, terminal_finish, reported)


def _from_clocked_trace(
    fires: List[TraceEvent], reported: Optional[float]
) -> CriticalPath:
    # Rebuild per-cell tick histories; stream order is the scalar event
    # order (time, tick, cell position), so "first event achieving the
    # max" reproduces the scalar tie-break.
    ticks: Dict[CellId, Dict[int, float]] = {}
    best: Optional[Tuple[CellId, int]] = None
    best_t = 0.0
    for e in fires:
        tick = e.data.get("tick")
        if not isinstance(tick, int):
            raise ValueError(f"tick/fire event without integer tick: {e!r}")
        ticks.setdefault(e.cell, {})[tick] = e.t
        if e.t > best_t:
            best_t = e.t
            best = (e.cell, tick)
    if best is None:
        return CriticalPath("clocked", [], 0.0, reported)
    cell, k_star = best
    history = ticks[cell]
    steps: List[PathStep] = []
    if 0 in history:
        steps.append(PathStep("clock_offset", cell, 0.0, history[0], index=0))
    for k in range(1, k_star + 1):
        if k - 1 in history and k in history:
            steps.append(
                PathStep("clock_tick", cell, history[k - 1], history[k], index=k)
            )
    return CriticalPath("clocked", steps, best_t, reported)


def critical_path_from_trace(events: Iterable[TraceEvent]) -> CriticalPath:
    """Reconstruct the critical path from a recorded trace.

    Dispatches on what the trace contains: causal ``dataflow/fire``
    events (self-timed engine runs) or ``tick/fire`` events (clocked
    runs).  The final ``dataflow/run`` / ``clocked/run`` summary event,
    when present, supplies the engine-reported makespan for the
    :attr:`CriticalPath.exact` cross-check.  Raises :class:`ValueError`
    for traces with no causal firing events (e.g. span-only traces).
    """
    dataflow_fires: List[TraceEvent] = []
    tick_fires: List[TraceEvent] = []
    reported_selftimed: Optional[float] = None
    reported_clocked: Optional[float] = None
    for e in events:
        if e.cat == "dataflow" and e.kind == "fire":
            dataflow_fires.append(e)
        elif e.cat == "tick" and e.kind == "fire":
            tick_fires.append(e)
        elif e.cat == "dataflow" and e.kind == "run":
            makespan = e.data.get("makespan")
            if isinstance(makespan, (int, float)):
                reported_selftimed = float(makespan)
        elif e.cat == "clocked" and e.kind == "run":
            makespan = e.data.get("makespan")
            if isinstance(makespan, (int, float)):
                reported_clocked = float(makespan)
    if dataflow_fires:
        return _from_dataflow_trace(dataflow_fires, reported_selftimed)
    if tick_fires:
        return _from_clocked_trace(tick_fires, reported_clocked)
    raise ValueError(
        "trace contains no causal firing events "
        "(expected dataflow/fire or tick/fire)"
    )
