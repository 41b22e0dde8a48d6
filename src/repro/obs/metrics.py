"""Counters, gauges, and fixed-bucket histograms for simulator runs.

A :class:`MetricsRegistry` is the single handle instrumented code takes.
Every surface defaults to ``metrics=None`` and turns it into
:data:`NULL_METRICS` once, so instrumented code calls its instruments
unconditionally: the null registry hands out one shared instrument
whose calls do nothing.  Observations that cost work of their own (a
per-tick histogram, a stall array) test ``metrics.enabled`` first.
Registered instruments:

* :class:`Counter` — monotone event counts (events dispatched, runaway
  guards tripped, violations seen);
* :class:`Gauge` — a last-value-plus-extremes sample (queue depth, cycle
  time);
* :class:`Histogram` — fixed-bucket distribution (skew per tick, service
  times, handshake stall times).  Buckets are inclusive upper edges: a
  value ``v`` lands in the first bucket whose edge satisfies ``v <=
  edge``; values beyond the last edge land in the overflow bucket.
"""

from __future__ import annotations

import bisect
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Sorted ``(key, value)`` label pairs, as carried by every instrument.
LabelPairs = Tuple[Tuple[str, str], ...]


def _labelled_key(name: str, labels: Optional[Mapping[str, str]]) -> str:
    """The registry key for a (name, labels) series: the bare name when
    unlabelled (so pre-existing flat names are untouched), else the
    Prometheus-style ``name{k="v",...}`` with keys sorted."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _label_pairs(labels: Optional[Mapping[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple((k, str(labels[k])) for k in sorted(labels))

#: Geometric default edges spanning the time scales the simulators emit
#: (sub-millisecond handshake wires up to 1e4-unit makespans).
DEFAULT_TIME_BUCKETS: Tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0, 10000.0,
)


class Counter:
    """A monotone counter."""

    __slots__ = ("name", "value", "labels")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.value = 0
        self.labels: LabelPairs = labels

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """Last set value, with the min/max envelope seen so far."""

    __slots__ = ("name", "value", "minimum", "maximum", "samples", "labels")

    def __init__(self, name: str, labels: LabelPairs = ()) -> None:
        self.name = name
        self.value: Optional[float] = None
        self.minimum: Optional[float] = None
        self.maximum: Optional[float] = None
        self.samples = 0
        self.labels: LabelPairs = labels

    def set(self, value: float) -> None:
        self.value = value
        self.samples += 1
        self.minimum = value if self.minimum is None else min(self.minimum, value)
        self.maximum = value if self.maximum is None else max(self.maximum, value)


class Histogram:
    """A fixed-bucket histogram with an overflow bucket.

    ``edges`` are sorted inclusive upper bounds.  ``counts`` has
    ``len(edges) + 1`` entries; the last is the overflow count for values
    strictly above the final edge.
    """

    __slots__ = ("name", "edges", "counts", "total", "sum", "labels")

    def __init__(
        self, name: str, edges: Sequence[float], labels: LabelPairs = ()
    ) -> None:
        if not edges:
            raise ValueError("histogram needs at least one bucket edge")
        ordered = list(edges)
        if ordered != sorted(ordered) or len(set(ordered)) != len(ordered):
            raise ValueError("bucket edges must be strictly increasing")
        self.name = name
        self.edges: List[float] = ordered
        self.counts: List[int] = [0] * (len(ordered) + 1)
        self.total = 0
        self.sum = 0.0
        self.labels: LabelPairs = labels

    def observe(self, value: float) -> None:
        self.counts[bisect.bisect_left(self.edges, value)] += 1
        self.total += 1
        self.sum += value

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def bucket_labels(self) -> List[str]:
        labels = []
        lo = None
        for edge in self.edges:
            labels.append(f"<= {edge:g}" if lo is None else f"({lo:g}, {edge:g}]")
            lo = edge
        labels.append(f"> {self.edges[-1]:g}")
        return labels

    def nonzero_buckets(self) -> List[Tuple[str, int]]:
        return [
            (label, count)
            for label, count in zip(self.bucket_labels(), self.counts)
            if count
        ]


class MetricsRegistry:
    """Create-or-get registry for the three instrument kinds.

    Names are namespaced by convention (``"engine.queue_depth"``,
    ``"handshake.stall_time"``); re-requesting a name returns the same
    instrument, so producers never need to coordinate setup.  An optional
    ``labels`` mapping makes a distinct series per label set (stored
    under the Prometheus-style ``name{k="v"}`` key); unlabelled series
    keep their bare name, so PR-1 snapshot consumers are unaffected.
    """

    enabled: bool = True

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Counter:
        key = _labelled_key(name, labels)
        if key not in self._counters:
            self._counters[key] = Counter(name, _label_pairs(labels))
        return self._counters[key]

    def gauge(
        self, name: str, labels: Optional[Mapping[str, str]] = None
    ) -> Gauge:
        key = _labelled_key(name, labels)
        if key not in self._gauges:
            self._gauges[key] = Gauge(name, _label_pairs(labels))
        return self._gauges[key]

    def histogram(
        self,
        name: str,
        edges: Sequence[float] = DEFAULT_TIME_BUCKETS,
        labels: Optional[Mapping[str, str]] = None,
    ) -> Histogram:
        key = _labelled_key(name, labels)
        if key not in self._histograms:
            self._histograms[key] = Histogram(name, edges, _label_pairs(labels))
        return self._histograms[key]

    def counters(self) -> Dict[str, Counter]:
        """``series key -> Counter`` (keys carry the label suffix)."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def to_dict(self) -> Dict[str, Dict]:
        """A JSON-serialisable snapshot of everything registered."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {
                n: {
                    "value": g.value,
                    "min": g.minimum,
                    "max": g.maximum,
                    "samples": g.samples,
                }
                for n, g in sorted(self._gauges.items())
            },
            "histograms": {
                n: {
                    # Copies, not the live lists: a snapshot must stay
                    # frozen when the instrument keeps observing.
                    "edges": list(h.edges),
                    "counts": list(h.counts),
                    "total": h.total,
                    "mean": h.mean,
                }
                for n, h in sorted(self._histograms.items())
            },
        }

    def render_rows(self) -> List[Tuple[str, str, str]]:
        """``(name, type, summary)`` rows for a plain-text metrics table."""
        rows: List[Tuple[str, str, str]] = []
        for name, c in sorted(self._counters.items()):
            rows.append((name, "counter", str(c.value)))
        for name, g in sorted(self._gauges.items()):
            rows.append(
                (
                    name,
                    "gauge",
                    f"last={g.value:g} min={g.minimum:g} max={g.maximum:g}"
                    if g.samples
                    else "no samples",
                )
            )
        for name, h in sorted(self._histograms.items()):
            rows.append(
                (name, "histogram", f"n={h.total} mean={h.mean:.4g}")
            )
        return rows


class _NullInstrument:
    """The one instrument :data:`NULL_METRICS` hands out: every call is
    a no-op."""

    __slots__ = ()

    def _ignore(self, *args: Any) -> None:
        pass

    inc = set = observe = observe_many = _ignore


_NULL_INSTRUMENT = _NullInstrument()


class _NullMetrics(MetricsRegistry):
    """Records nothing: ``enabled`` is False, it registers no series, and
    every instrument it hands out is the shared no-op."""

    enabled = False

    def counter(self, *args: Any, **kwargs: Any) -> Any:
        return _NULL_INSTRUMENT

    gauge = histogram = counter


#: Shared no-op registry; instrumented code defaults to this instance.
NULL_METRICS: MetricsRegistry = _NullMetrics()
