"""Metrics exposition: JSON snapshots and Prometheus text format.

A :class:`~repro.obs.metrics.MetricsRegistry` lives and dies inside one
process; this module gets its contents *out* — the exposition half of
the observability layer (ROADMAP item 1 wants the repro service to
scrape these).  Two formats:

* :func:`metrics_snapshot` — the registry's ``to_dict()`` wrapped with
  the repo-standard ``meta`` block and validated against
  :data:`~repro.obs.schema.METRICS_SNAPSHOT_SCHEMA`;
  :func:`snapshot_delta` diffs two snapshots (counter increments, new
  histogram observations) for before/after accounting;
* :func:`render_prometheus` — the text exposition format: counters as
  ``_total``, gauges with their min/max envelope, histograms as
  cumulative ``_bucket{le=...}`` series.  Label sets registered via the
  ``labels=`` option come through as proper Prometheus labels.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.obs.metrics import Histogram, LabelPairs, MetricsRegistry
from repro.obs.schema import validate_metrics_snapshot

__all__ = [
    "metrics_snapshot",
    "render_prometheus",
    "snapshot_delta",
    "write_metrics_json",
    "write_metrics_prometheus",
]


def metrics_snapshot(
    registry: MetricsRegistry, emitted_at: Optional[float] = None
) -> Dict[str, Any]:
    """A schema-valid JSON snapshot of everything registered."""
    snapshot = registry.to_dict()
    snapshot["meta"] = {
        "emitted_at": float(emitted_at) if emitted_at is not None else time.time(),
        "repro_version": __version__,
    }
    errors = validate_metrics_snapshot(snapshot)
    if errors:  # a registry cannot produce this; guards future drift
        raise ValueError(f"snapshot failed its own schema: {errors}")
    return snapshot


def snapshot_delta(
    before: Dict[str, Any], after: Dict[str, Any]
) -> Dict[str, Any]:
    """What happened between two snapshots of the *same* registry:
    counter increments, gauge movement, and new histogram observations.
    Series absent from ``before`` are treated as starting from zero."""
    counters = {}
    for name, value in after.get("counters", {}).items():
        delta = value - before.get("counters", {}).get(name, 0)
        if delta:
            counters[name] = delta
    gauges = {}
    for name, g in after.get("gauges", {}).items():
        prev = before.get("gauges", {}).get(name, {})
        if g.get("samples", 0) != prev.get("samples", 0):
            gauges[name] = {
                "value": g.get("value"),
                "new_samples": g.get("samples", 0) - prev.get("samples", 0),
            }
    histograms = {}
    for name, h in after.get("histograms", {}).items():
        prev = before.get("histograms", {}).get(name, {})
        new_total = h.get("total", 0) - prev.get("total", 0)
        if new_total:
            prev_counts = prev.get("counts", [0] * len(h.get("counts", [])))
            histograms[name] = {
                "new_total": new_total,
                "counts": [
                    c - p for c, p in zip(h.get("counts", []), prev_counts)
                ],
            }
    return {"counters": counters, "gauges": gauges, "histograms": histograms}


# ----------------------------------------------------------------------
# Prometheus text format
# ----------------------------------------------------------------------
def _prom_name(namespace: str, name: str) -> str:
    out = []
    for ch in f"{namespace}_{name}" if namespace else name:
        out.append(ch if ch.isalnum() or ch in "_:" else "_")
    return "".join(out)


def _escape(value: Any) -> str:
    return str(value).replace("\\", "\\\\").replace('"', '\\"')


def _prom_labels(pairs: LabelPairs, extra: Optional[List[tuple]] = None) -> str:
    items = list(pairs) + list(extra or [])
    if not items:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in items)
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    return repr(float(value))


def _histogram_lines(base: str, h: Histogram) -> List[str]:
    lines = [f"# TYPE {base} histogram"]
    cumulative = 0
    for edge, count in zip(h.edges, h.counts):
        cumulative += count
        lines.append(
            f"{base}_bucket{_prom_labels(h.labels, [('le', _fmt(edge))])} "
            f"{cumulative}"
        )
    lines.append(
        f"{base}_bucket{_prom_labels(h.labels, [('le', '+Inf')])} {h.total}"
    )
    lines.append(f"{base}_sum{_prom_labels(h.labels)} {_fmt(h.sum)}")
    lines.append(f"{base}_count{_prom_labels(h.labels)} {h.total}")
    return lines


def render_prometheus(
    registry: MetricsRegistry, namespace: str = "repro"
) -> str:
    """The registry in Prometheus text exposition format (one scrape)."""
    lines: List[str] = []
    typed: set = set()
    for c in registry.counters().values():
        base = _prom_name(namespace, c.name) + "_total"
        if base not in typed:
            lines.append(f"# TYPE {base[: -len('_total')]} counter")
            typed.add(base)
        lines.append(f"{base}{_prom_labels(c.labels)} {c.value}")
    for g in registry.gauges().values():
        base = _prom_name(namespace, g.name)
        if base not in typed:
            lines.append(f"# TYPE {base} gauge")
            typed.add(base)
        if g.samples:
            lines.append(f"{base}{_prom_labels(g.labels)} {_fmt(g.value or 0.0)}")
            lines.append(f"{base}_min{_prom_labels(g.labels)} {_fmt(g.minimum or 0.0)}")
            lines.append(f"{base}_max{_prom_labels(g.labels)} {_fmt(g.maximum or 0.0)}")
    for h in registry.histograms().values():
        base = _prom_name(namespace, h.name)
        if base not in typed:
            lines.extend(_histogram_lines(base, h))
            typed.add(base)
        else:  # same metric, another label set: skip the TYPE line
            lines.extend(_histogram_lines(base, h)[1:])
    return "\n".join(lines) + "\n" if lines else ""


# ----------------------------------------------------------------------
# file helpers (the CLI's --metrics-json / --metrics-prom)
# ----------------------------------------------------------------------
def write_metrics_json(registry: MetricsRegistry, path: str) -> Dict[str, Any]:
    import json

    snapshot = metrics_snapshot(registry)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return snapshot


def write_metrics_prometheus(registry: MetricsRegistry, path: str) -> str:
    text = render_prometheus(registry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text
