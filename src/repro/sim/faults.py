"""Fault injection: what happens when assumption A8 breaks.

Pipelined clocking rests on A8 — "the time for a signal to travel on a
particular path through a buffered clock tree is invariant over time."
Section VI opens with exactly the failure case: "in the absence of the
invariance condition A8, in which case pipelined clocking fails ...", and
prescribes the hybrid scheme.  This module supplies the breakage:

* :class:`JitteredSchedule` — per-(cell, tick) bounded random jitter on
  clock arrival times: the drift of a tree whose path delays wobble between
  events.  Small jitter is absorbed by timing margins; jitter beyond the
  margin produces the stale/race violations the clocked simulator reports.
* :func:`slow_subtree` — a degraded buffer: every cell under a given clock
  tree node receives its ticks late by a fixed amount (aging, local heating,
  a resistive via).  Turns a zero-skew H-tree into a skewed one.
* :func:`summarize_violations` — aggregates the simulator's violation list
  into per-edge counts and first-failure ticks for diagnosis.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, List, Mapping, Tuple

from repro.clocktree.buffered import BufferedClockTree
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import TimingViolation

CellId = Hashable
EdgeKey = Tuple[CellId, CellId]


def _stable_unit_noise(seed: int, cell: CellId, tick: int) -> float:
    """Deterministic noise in [-1, 1) from (seed, cell, tick) — stable
    across processes (unlike ``hash``), so runs are reproducible."""
    digest = hashlib.blake2b(
        f"{seed}|{cell!r}|{tick}".encode(), digest_size=8
    ).digest()
    (value,) = struct.unpack("<Q", digest)
    return (value / 2**63) - 1.0


class JitteredSchedule(ClockSchedule):
    """A clock schedule whose tick times wobble by up to ``amplitude``.

    Wraps a base schedule; tick ``k`` at ``cell`` moves by a deterministic
    pseudo-random offset in ``[-amplitude, amplitude)``.  ``amplitude`` must
    stay below half the period so tick times remain strictly monotone (the
    physical situation: drift, not reordering).
    """

    def __init__(self, base: ClockSchedule, amplitude: float, seed: int = 0) -> None:
        if not 0 <= amplitude < math.inf:
            raise ValueError("amplitude must be non-negative and finite")
        if amplitude >= base.period / 2:
            raise ValueError("amplitude must stay below half the period")
        super().__init__({c: base.offset(c) for c in base.cells()}, base.period)
        self.amplitude = amplitude
        self.seed = seed

    def tick_time(self, cell: CellId, k: int) -> float:
        base_time = super().tick_time(cell, k)
        return base_time + self.amplitude * _stable_unit_noise(self.seed, cell, k)


def slow_subtree(
    buffered: BufferedClockTree,
    node: CellId,
    extra_delay: float,
    cells: Iterable[CellId],
    period: float,
) -> ClockSchedule:
    """A schedule where every cell clocked through ``node`` ticks late.

    Models one degraded buffer feeding a subtree: arrivals below ``node``
    shift by ``extra_delay``; the rest of the tree is untouched.  Returns a
    ready-to-use :class:`ClockSchedule` (offsets only — the drift is
    persistent, so A8 still holds *after* the fault; contrast with
    :class:`JitteredSchedule`).
    """
    if extra_delay < 0:
        raise ValueError("extra delay must be non-negative")
    if node not in buffered.tree:
        raise KeyError(f"{node!r} is not a clock tree node")
    affected = set(buffered.tree.subtree_nodes(node))
    arrivals: Dict[CellId, float] = {}
    for cell in cells:
        shift = extra_delay if cell in affected else 0.0
        arrivals[cell] = buffered.arrival(cell) + shift
    return ClockSchedule(arrivals, period)


@dataclass(frozen=True)
class ViolationSummary:
    """Aggregated view of a clocked run's timing violations."""

    total: int
    stale: int
    race: int
    edges_affected: int
    first_failure_tick: int
    worst_edge: Tuple[EdgeKey, int]  # (edge, violation count)
    last_failure_tick: int = -1
    per_cell: Mapping[CellId, int] = field(default_factory=dict)  # receiver -> count

    @property
    def clean(self) -> bool:
        return self.total == 0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-exportable form sharing the trace layer's conventions
        (edges and cells serialised as their trace representations)."""
        from repro.obs.trace import _jsonable

        worst_edge, worst_count = self.worst_edge
        return {
            "total": self.total,
            "stale": self.stale,
            "race": self.race,
            "edges_affected": self.edges_affected,
            "first_failure_tick": self.first_failure_tick,
            "last_failure_tick": self.last_failure_tick,
            "worst_edge": _jsonable(worst_edge),
            "worst_edge_count": worst_count,
            "per_cell": {
                str(cell): count for cell, count in sorted(
                    self.per_cell.items(), key=lambda kv: str(kv[0])
                )
            },
        }


def summarize_violations(violations: List[TimingViolation]) -> ViolationSummary:
    """Collapse the simulator's violation list into a diagnosis."""
    if not violations:
        return ViolationSummary(
            total=0,
            stale=0,
            race=0,
            edges_affected=0,
            first_failure_tick=-1,
            worst_edge=((None, None), 0),
        )
    per_edge: Dict[EdgeKey, int] = {}
    per_cell: Dict[CellId, int] = {}
    stale = race = 0
    first = min(v.receiver_tick for v in violations)
    last = max(v.receiver_tick for v in violations)
    for v in violations:
        per_edge[v.edge] = per_edge.get(v.edge, 0) + 1
        receiver = v.edge[1]
        per_cell[receiver] = per_cell.get(receiver, 0) + 1
        if v.kind == "stale":
            stale += 1
        else:
            race += 1
    worst = max(per_edge.items(), key=lambda kv: kv[1])
    return ViolationSummary(
        total=len(violations),
        stale=stale,
        race=race,
        edges_affected=len(per_edge),
        first_failure_tick=first,
        worst_edge=worst,
        last_failure_tick=last,
        per_cell=per_cell,
    )
