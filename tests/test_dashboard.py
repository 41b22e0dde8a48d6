"""Dashboard rendering: the text and HTML reports built from a recorded
trace (span waterfall, phase totals, worker utilization, violation
timeline), plus robustness to traces with no spans at all."""

from repro.obs.dashboard import (
    build_dashboard,
    render_dashboard,
    render_dashboard_html,
    render_dashboard_text,
)
from repro.obs.trace import RecordingTracer
from repro.sta.design import random_design


def _traced_run(seed=0):
    tracer = RecordingTracer()
    sim = random_design(seed, clean=True).simulator(tracer=tracer)
    sim.run()           # causal per-tick events
    sim.run_compiled()  # per-phase spans
    return tracer.events


def _multi_worker_events():
    tracer = RecordingTracer()
    events = []
    with tracer.span("run") as run:
        for w in range(2):
            worker = RecordingTracer(f"w{w}", run.span_id)
            with worker.span("chunk", t=float(w)):
                with worker.span("trial", t=float(w)):
                    pass
            events += worker.events
    return tracer.events + events


class TestBuildDashboard:
    def test_summary_and_spans_present(self):
        dash = build_dashboard(_traced_run())
        assert dash.summary.events > 0
        assert dash.roots  # the compiled.run span tree
        names = {s.name for root in dash.roots for s in root.walk()}
        assert "compiled.run" in names
        assert "compiled.tick_matrix" in names

    def test_phase_rows_aggregate_by_name(self):
        dash = build_dashboard(_traced_run())
        by_name = {name: (calls, total) for name, calls, total in dash.phase_rows}
        assert by_name["compiled.run"][0] == 1
        assert all(total >= 0.0 for _, total in by_name.values())

    def test_worker_rows_for_multi_worker_forest(self):
        dash = build_dashboard(_multi_worker_events())
        workers = {row.worker for row in dash.workers}
        assert workers == {"main", "w0", "w1"}
        for row in dash.workers:
            assert row.busy_s >= 0.0
            assert 0.0 <= row.utilization <= 1.0 + 1e-9

    def test_empty_trace(self):
        dash = build_dashboard([])
        assert dash.roots == []
        text = render_dashboard_text(dash)
        assert "0 events" in text


class TestRenderText:
    def test_sections_present(self):
        text = render_dashboard_text(build_dashboard(_traced_run()))
        assert "events by category" in text
        assert "span waterfall" in text
        assert "violation timeline" in text

    def test_spanless_trace_omits_waterfall(self):
        tracer = RecordingTracer()
        sim = random_design(0, clean=True).simulator(tracer=tracer)
        sim.run()  # scalar path: causal events, no spans
        text = render_dashboard_text(build_dashboard(tracer.events))
        assert "span waterfall" not in text
        assert "events by category" in text

    def test_render_dashboard_convenience(self):
        events = _traced_run()
        assert render_dashboard(events) == render_dashboard_text(
            build_dashboard(events)
        )


class TestRenderHtml:
    def test_self_contained_document(self):
        html = render_dashboard_html(build_dashboard(_traced_run()))
        assert html.startswith("<!DOCTYPE html>")
        assert html.rstrip().endswith("</html>")
        assert "<script" not in html  # static: no JS needed to view

    def test_sections_present(self):
        html = render_dashboard_html(build_dashboard(_traced_run()))
        assert "Span waterfall" in html
        assert "Violation timeline" in html
        assert "Events by category" in html

    def test_worker_utilization_section(self):
        html = render_dashboard_html(build_dashboard(_multi_worker_events()))
        assert "Worker utilization" in html
        assert "w0" in html and "w1" in html

    def test_html_escapes_span_names(self):
        tracer = RecordingTracer()
        with tracer.span("<evil> & co"):
            pass
        html = render_dashboard_html(build_dashboard(tracer.events))
        assert "<evil>" not in html
        assert "&lt;evil&gt;" in html
