"""Structured tracing for simulator runs and analysis pipelines.

A tracer receives :class:`TraceEvent` records — (time, category, kind,
cell, payload) — from instrumented code.  Three implementations:

* :class:`NullTracer` — the default everywhere; ``enabled`` is False so
  hot loops skip event construction entirely (zero overhead, and default
  runs stay byte-identical to uninstrumented ones);
* :class:`RecordingTracer` — keeps events in memory for tests and
  programmatic analysis;
* :class:`JsonlTracer` — streams one JSON object per line to a file,
  which ``python -m repro trace`` replays and summarises.

Every tracer also emits *spans* (:meth:`Tracer.span`): named, nested
intervals encoded as two ordinary events each, which
:func:`repro.obs.spans.assemble_spans` reassembles into a forest.

The event schema is deliberately flat so every producer (clocked arrays,
the event engine, the hybrid network, Monte-Carlo loops) shares it:

``t``
    event time — simulated time for simulator events, a step or trial
    index for analysis pipelines (the producer documents which);
``cat`` / ``kind``
    coarse category (``"tick"``, ``"violation"``, ``"engine"``, …) and
    the specific event within it (``"fire"``, ``"stale"``, ``"dispatch"``);
``cell``
    the cell / node / element the event concerns, or ``None``;
``data``
    a small JSON-serialisable payload.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, ContextManager, Dict, Iterator, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One structured observation from an instrumented run."""

    t: float
    cat: str
    kind: str
    cell: Any = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_json_obj(self) -> Dict[str, Any]:
        return {
            "t": self.t,
            "cat": self.cat,
            "kind": self.kind,
            "cell": _jsonable(self.cell),
            "data": {k: _jsonable(v) for k, v in self.data.items()},
        }

    @classmethod
    def from_json_obj(cls, obj: Dict[str, Any]) -> "TraceEvent":
        return cls(
            t=float(obj["t"]),
            cat=obj["cat"],
            kind=obj["kind"],
            cell=_dejsonable(obj.get("cell")),
            data=obj.get("data", {}),
        )


def _jsonable(value: Any):
    """Make cell ids / payload values JSON-serialisable (tuples become
    lists; everything unknown falls back to ``repr``)."""
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def _dejsonable(value: Any):
    """Round-trip helper: JSON arrays come back as tuples so cell ids
    like ``(r, c)`` stay hashable."""
    if isinstance(value, list):
        return tuple(_dejsonable(v) for v in value)
    return value


class SpanHandle:
    """What ``Tracer.span(...)`` yields: the live span's identity plus
    an escape hatch to attach attributes discovered mid-span."""

    __slots__ = ("span_id", "_attrs", "_end_t")

    def __init__(self, span_id: str) -> None:
        self.span_id = span_id
        self._attrs: Dict[str, Any] = {}
        self._end_t: Optional[float] = None

    def annotate(self, **attrs: Any) -> None:
        """Attach attributes to the span's *end* event (e.g. a result
        computed inside the span)."""
        self._attrs.update(attrs)

    def set_end_t(self, t: float) -> None:
        """Record a logical (simulated-time) end distinct from the start."""
        self._end_t = float(t)


class _NullSpan(SpanHandle):
    """A disabled tracer's span: one shared object that is both the
    context manager and the no-op handle it yields."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def _ignore(self, *args: Any, **kwargs: Any) -> None:
        pass

    __exit__ = annotate = set_end_t = _ignore


_NULL_SPAN = _NullSpan("")


class Tracer:
    """Base tracer: records events and spans; subclasses choose the sink.

    ``enabled`` is the zero-overhead switch — instrumented hot loops guard
    on it before building payloads, so a :class:`NullTracer` costs one
    attribute read per loop, nothing more.

    The tracer owns its spans: the open-span stack and one id counter,
    so no two spans of a tracer share an id (``"{worker}:{n}"``).  A
    worker's tracer built with ``parent_id`` roots its spans under that
    coordinator span and prefixes its ids with ``"{parent_id}/"``.
    """

    enabled: bool = True

    def __init__(self, worker: str = "main", parent_id: Optional[str] = None) -> None:
        self.worker = worker
        self.parent_id = parent_id
        self._id_prefix = f"{worker}:" if parent_id is None else f"{parent_id}/{worker}:"
        self._stack: List[str] = []
        self._next = 0

    def event(
        self,
        t: float,
        cat: str,
        kind: str,
        cell: Any = None,
        **data: Any,
    ) -> None:
        self.record(TraceEvent(t=t, cat=cat, kind=kind, cell=cell, data=data))

    def record(self, event: TraceEvent) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def span(
        self, name: str, t: float = 0.0, cell: Any = None, **attrs: Any
    ) -> ContextManager[SpanHandle]:
        """Open a span: the start event is emitted on entry and the end
        event on exit (status ``"error"`` if the body raised).  A disabled
        tracer returns one shared no-op span and allocates nothing."""
        if not self.enabled:
            return _NULL_SPAN
        return self._span(name, t, cell, attrs)

    @contextmanager
    def _span(
        self, name: str, t: float, cell: Any, attrs: Dict[str, Any]
    ) -> Iterator[SpanHandle]:
        span_id = f"{self._id_prefix}{self._next}"
        self._next += 1
        self.event(
            t,
            "span",
            "start",
            cell=cell,
            id=span_id,
            parent=self._stack[-1] if self._stack else self.parent_id,
            name=name,
            worker=self.worker,
            wall_t0=time.time(),
            attrs=attrs,
        )
        self._stack.append(span_id)
        handle = SpanHandle(span_id)
        wall_start = time.perf_counter()
        status = "ok"
        try:
            yield handle
        except BaseException:
            status = "error"
            raise
        finally:
            wall_s = time.perf_counter() - wall_start
            self._stack.pop()
            end_t = handle._end_t if handle._end_t is not None else t
            self.event(
                end_t,
                "span",
                "end",
                cell=cell,
                id=span_id,
                wall_s=wall_s,
                status=status,
                attrs=dict(handle._attrs),
            )

    def close(self) -> None:
        """Release any underlying resources (a no-op for most tracers)."""

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class NullTracer(Tracer):
    """Discards everything; ``enabled`` is False so callers skip payload
    construction and :meth:`span` returns the shared no-op span.  The
    default tracer on every instrumented surface."""

    enabled = False

    def event(self, t, cat, kind, cell=None, **data) -> None:
        pass

    def record(self, event: TraceEvent) -> None:
        pass


#: Shared no-op tracer; instrumented code defaults to this instance.
NULL_TRACER = NullTracer()


class RecordingTracer(Tracer):
    """Keeps every event in memory — for tests and in-process analysis."""

    def __init__(self, worker: str = "main", parent_id: Optional[str] = None) -> None:
        super().__init__(worker, parent_id)
        self.events: List[TraceEvent] = []

    def record(self, event: TraceEvent) -> None:
        self.events.append(event)

    def by_category(self, cat: str) -> List[TraceEvent]:
        return [e for e in self.events if e.cat == cat]

    def by_kind(self, cat: str, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.cat == cat and e.kind == kind]

    def counts(self) -> Dict[tuple, int]:
        """``(cat, kind) -> count`` over everything recorded."""
        out: Dict[tuple, int] = {}
        for e in self.events:
            key = (e.cat, e.kind)
            out[key] = out.get(key, 0) + 1
        return out


class JsonlTracer(Tracer):
    """Streams events to a JSON-lines file as they happen.

    The file is line-buffered JSON — one ``TraceEvent.to_json_obj`` per
    line — so a crashed run still leaves a readable prefix behind.
    """

    def __init__(self, path: str) -> None:
        super().__init__()
        self.path = path
        self._fh = open(path, "w")
        self.events_written = 0

    def record(self, event: TraceEvent) -> None:
        if self._fh is None:
            raise ValueError(f"tracer for {self.path!r} is closed")
        self._fh.write(json.dumps(event.to_json_obj(), allow_nan=False) + "\n")
        self.events_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_trace(path: str) -> Iterator[TraceEvent]:
    """Iterate the events of a JSONL trace file (blank lines skipped)."""
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            yield TraceEvent.from_json_obj(json.loads(line))


def load_trace(path: str) -> List[TraceEvent]:
    """Read a whole JSONL trace into memory."""
    return list(read_trace(path))
