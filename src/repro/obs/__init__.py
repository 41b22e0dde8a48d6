"""Observability: tracing, spans, and metrics for the simulators.

Independent instruments, all zero-overhead when left at their defaults
(every instrumented surface takes ``tracer=None`` / ``metrics=None`` and
default runs stay byte-identical):

* :mod:`repro.obs.trace` — structured event recording
  (:class:`NullTracer`, :class:`RecordingTracer`, :class:`JsonlTracer`);
* :mod:`repro.obs.spans` — hierarchical causal spans layered on the
  event stream (:class:`SpanTracer`, :func:`assemble_spans`), with a
  picklable :class:`SpanContext` that survives process-pool boundaries.
  Spans are the one wall-clock timer: :func:`phase_rows` aggregates
  them into the CLI's ``--metrics`` phases table;
* :mod:`repro.obs.metrics` — counters, gauges, fixed-bucket histograms
  behind a :class:`MetricsRegistry` (labelled series supported).

Plus the consumers: :mod:`repro.obs.replay` summarises a recorded trace
(the ``python -m repro trace`` command), :mod:`repro.obs.critpath`
reconstructs the causal chain behind a reported makespan,
:mod:`repro.obs.dashboard` renders a trace as a terminal/HTML report,
:mod:`repro.obs.export` exposes metrics as Prometheus text or JSON
snapshots, and :mod:`repro.obs.schema` validates every JSON artifact the
layer emits.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "trace": (
        "NULL_TRACER", "JsonlTracer", "NullTracer", "RecordingTracer", "TraceEvent", "Tracer",
        "load_trace", "read_trace",
    ),
    "metrics": ("DEFAULT_TIME_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry"),
    "replay": ("TraceSummary", "summarize_trace"),
    "spans": (
        "Span", "SpanContext", "SpanTracer", "assemble_spans", "iter_spans", "phase_rows",
        "span_index",
    ),
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
