"""Reassembling spans from the flat :class:`TraceEvent` stream.

Spans add *causality* to the flat JSONL trace without changing its
wire format.  A span is a named interval with a parent, so a recorded
trace can be reassembled into a forest: ``run_trials`` > per-worker
chunk > per-trial, or ``check.suite`` > one span per oracle.  Every
tracer emits them (:meth:`repro.obs.trace.Tracer.span`), each as two
ordinary trace events that any consumer of the flat stream can read
(and skip):

* ``("span", "start")`` with ``data = {id, parent, name, worker, wall_t0,
  attrs}`` — ``t`` is the simulated/logical start time;
* ``("span", "end")`` with ``data = {id, wall_s, status, attrs}`` —
  ``t`` is the logical end time (defaults to the start time for spans
  that measure wall clock only).

Span ids are ``"{worker}:{n}"`` from one counter per tracer; a worker's
tracer, built with its coordinator span as ``parent_id``, prefixes them
with ``"{parent_id}/"``.  So streams from independent workers never
collide, and :func:`assemble_spans` merges them into one forest
regardless of arrival order — the property the multi-worker
``run_trials`` trace relies on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.obs.trace import TraceEvent

__all__ = [
    "Span",
    "assemble_spans",
    "iter_spans",
    "phase_rows",
    "span_index",
]


@dataclass
class Span:
    """One reassembled span: identity, interval, and children."""

    span_id: str
    parent_id: Optional[str]
    name: str
    worker: str
    t_start: float
    t_end: float
    wall_t0: float
    wall_s: Optional[float] = None
    status: str = "open"
    cell: Optional[Hashable] = None
    attrs: Dict[str, Any] = field(default_factory=dict)
    children: List["Span"] = field(default_factory=list)

    @property
    def open(self) -> bool:
        """True when the trace holds a start but no matching end (a
        crashed or truncated recording)."""
        return self.wall_s is None

    def walk(self) -> Iterator["Span"]:
        """Depth-first over this span and its descendants."""
        yield self
        for child in self.children:
            yield from child.walk()


def _seq(span_id: str) -> Tuple[str, int]:
    """Sort key component: split ``"w0:7"`` (or ``"main:2/w0:7"``) into
    its prefix and counter so ordering is numeric, not lexicographic."""
    worker, _, n = span_id.rpartition(":")
    try:
        return (worker, int(n))
    except ValueError:
        return (span_id, -1)


def assemble_spans(events: Iterable[TraceEvent]) -> List[Span]:
    """Reassemble span start/end events into a forest of root spans.

    Deliberately forgiving: non-span events are skipped, an end without
    a start is dropped, a start without an end yields an *open* span,
    and a child whose parent never appears is promoted to a root.  The
    result is a pure function of the event *set* — interleaved
    multi-worker streams produce the same forest regardless of arrival
    order, because children are sorted by ``(t_start, wall_t0, id)``
    rather than stream position.
    """
    # Two passes: all starts first, then all ends.  A merged multi-worker
    # stream can deliver an end before its start; matching ends against
    # the complete start set keeps the forest a function of the event set.
    span_events = [
        e
        for e in events
        if e.cat == "span" and isinstance(e.data.get("id"), str)
    ]
    by_id: Dict[str, Span] = {}
    order: List[Span] = []
    for e in span_events:
        if e.kind != "start":
            continue
        data = e.data
        span_id = data["id"]
        if span_id in by_id:  # duplicate start: keep the first
            continue
        raw_attrs = data.get("attrs")
        span = Span(
            span_id=span_id,
            parent_id=data.get("parent"),
            name=str(data.get("name", "")),
            worker=str(data.get("worker", "")),
            t_start=float(e.t),
            t_end=float(e.t),
            wall_t0=float(data.get("wall_t0", 0.0)),
            cell=e.cell,
            attrs=dict(raw_attrs) if isinstance(raw_attrs, dict) else {},
        )
        by_id[span_id] = span
        order.append(span)
    for e in span_events:
        if e.kind != "end":
            continue
        data = e.data
        span = by_id.get(data["id"])
        if span is None or span.wall_s is not None:
            continue  # orphan or duplicate end
        span.wall_s = float(data.get("wall_s", 0.0))
        span.status = str(data.get("status", "ok"))
        span.t_end = float(e.t)
        end_attrs = data.get("attrs")
        if isinstance(end_attrs, dict):
            span.attrs.update(end_attrs)
    roots: List[Span] = []
    for span in order:
        parent = by_id.get(span.parent_id) if span.parent_id is not None else None
        if parent is None or parent is span:
            roots.append(span)
        else:
            parent.children.append(span)
    key = lambda s: (s.t_start, s.wall_t0, _seq(s.span_id))  # noqa: E731
    for span in by_id.values():
        span.children.sort(key=key)
    roots.sort(key=key)
    return roots


def iter_spans(roots: Iterable[Span]) -> Iterator[Span]:
    """Depth-first over a forest."""
    for root in roots:
        yield from root.walk()


def span_index(roots: Iterable[Span]) -> Dict[str, Span]:
    """Flat ``id -> span`` lookup over a forest."""
    return {s.span_id: s for s in iter_spans(roots)}


def phase_rows(roots: Iterable[Span]) -> List[Tuple[str, int, float, float]]:
    """``(phase, calls, total s, mean s)`` rows for the CLI's ``--metrics``
    phases table: spans keyed by their slash-joined name path
    (``"sweep/n=4"``), repeated spans on one path summed, rows sorted by
    path so parents come before their children.  An open span counts as
    a call of 0 s."""
    totals: Dict[str, Tuple[int, float]] = {}

    def visit(span: Span, path: str) -> None:
        calls, total_s = totals.get(path, (0, 0.0))
        totals[path] = (calls + 1, total_s + (span.wall_s or 0.0))
        for child in span.children:
            visit(child, f"{path}/{child.name}")

    for root in roots:
        visit(root, root.name)
    return [(path, calls, total_s, total_s / calls)
            for path, (calls, total_s) in sorted(totals.items())]
