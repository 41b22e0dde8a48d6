"""Observability: tracing, spans, and metrics for the simulators.

Two instruments, each with a null object that instrumented code uses
when left at its default (every instrumented surface takes
``tracer=None`` / ``metrics=None``, turns them into :data:`NULL_TRACER`
/ :data:`NULL_METRICS` once, and default runs stay byte-identical):

* :mod:`repro.obs.trace` — structured event recording
  (:class:`NullTracer`, :class:`RecordingTracer`, :class:`JsonlTracer`)
  and hierarchical causal spans on the same stream (``tracer.span(...)``;
  a worker's ``RecordingTracer(worker, parent_id)`` grafts its spans
  onto the coordinator's tree across a process-pool boundary).  Spans
  are the one wall-clock timer;
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  behind a :class:`MetricsRegistry` (labelled series supported).

Plus the consumers: :mod:`repro.obs.spans` reassembles span events into
a forest (:func:`assemble_spans`) and :func:`phase_rows` aggregates it
into the CLI's ``--metrics`` phases table, :mod:`repro.obs.replay`
summarises a recorded trace (the ``python -m repro trace`` command),
:mod:`repro.obs.critpath` reconstructs the causal chain behind a
reported makespan, :mod:`repro.obs.dashboard` renders a trace as a
terminal/HTML report, :mod:`repro.obs.export` exposes metrics as
Prometheus text or JSON snapshots, and :mod:`repro.obs.schema`
validates every JSON artifact the layer emits.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "trace": (
        "NULL_TRACER", "JsonlTracer", "NullTracer", "RecordingTracer", "TraceEvent", "Tracer",
        "load_trace", "read_trace",
    ),
    "metrics": (
        "DEFAULT_TIME_BUCKETS", "NULL_METRICS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
    ),
    "replay": ("TraceSummary", "summarize_trace"),
    "spans": ("Span", "assemble_spans", "iter_spans", "phase_rows", "span_index"),
    "critpath": (
        "CriticalPath", "PathStep", "clocked_critical_path", "critical_path_from_trace",
        "selftimed_critical_path",
    ),
    "dashboard": (
        "Dashboard", "build_dashboard", "render_dashboard", "render_dashboard_html",
        "render_dashboard_text",
    ),
    "export": ("metrics_snapshot", "render_prometheus", "snapshot_delta"),
    "schema": (
        "BENCHMARK_RESULT_SCHEMA", "METRICS_SNAPSHOT_SCHEMA", "SPAN_EVENT_SCHEMA",
        "TRACE_EVENT_SCHEMA", "validate", "validate_benchmark_result", "validate_metrics_snapshot",
        "validate_span_event", "validate_trace_event",
    ),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
