"""Unit tests for spans: emission on the tracer, nesting, worker
scoping, and forest reassembly from the flat event stream."""

import pytest

from repro.obs.spans import assemble_spans, iter_spans, phase_rows, span_index
from repro.obs.trace import NULL_TRACER, NullTracer, RecordingTracer, TraceEvent


class TestSpanTracer:
    """Span emission on the tracer itself (``Tracer.span``)."""

    def test_disabled_tracer_emits_nothing(self):
        assert not NULL_TRACER.enabled
        with NULL_TRACER.span("root", attr=1) as handle:
            handle.annotate(ignored=True)  # the null handle swallows this
            handle.set_end_t(5.0)
            assert handle.span_id == ""
        # One shared object is both the context manager and the handle,
        # for every disabled tracer: a disabled span allocates nothing.
        assert NULL_TRACER.span("a") is handle
        assert NullTracer().span("b", t=1.0) is handle

    def test_start_and_end_events_emitted(self):
        tracer = RecordingTracer()
        with tracer.span("compile", t=1.5, foo=7):
            pass
        start, end = tracer.events
        assert (start.cat, start.kind) == ("span", "start")
        assert (end.cat, end.kind) == ("span", "end")
        assert start.data["name"] == "compile"
        assert start.data["attrs"] == {"foo": 7}
        assert start.t == 1.5
        assert end.data["id"] == start.data["id"]
        assert end.data["status"] == "ok"
        assert end.data["wall_s"] >= 0.0

    def test_nesting_sets_parent(self):
        tracer = RecordingTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.span_id != outer.span_id
        starts = [e for e in tracer.events if e.kind == "start"]
        assert starts[0].data["parent"] is None
        assert starts[1].data["parent"] == starts[0].data["id"] == outer.span_id

    def test_error_status_on_raise(self):
        tracer = RecordingTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        end = [e for e in tracer.events if e.kind == "end"][0]
        assert end.data["status"] == "error"

    def test_annotate_lands_in_end_event(self):
        tracer = RecordingTracer()
        with tracer.span("work", first=1) as handle:
            handle.annotate(second=2)
        start = tracer.events[0]
        end = tracer.events[1]
        assert start.data["attrs"] == {"first": 1}
        assert end.data["attrs"] == {"second": 2}

    def test_parent_id_seeds_and_scopes_root_spans(self):
        # A worker's tracer opens its roots under the coordinator span it
        # was given, and scopes its ids under that span's id, so the same
        # worker name in two runs never repeats an id.
        coordinator = RecordingTracer()
        with coordinator.span("map") as handle:
            parent = handle.span_id
        child = RecordingTracer("w0", parent)
        with child.span("chunk"):
            with child.span("trial"):
                pass
        starts = [e for e in child.events if e.kind == "start"]
        assert [e.data["id"] for e in starts] == [f"{parent}/w0:0", f"{parent}/w0:1"]
        assert [e.data["parent"] for e in starts] == [parent, f"{parent}/w0:0"]
        assert {e.data["worker"] for e in starts} == {"w0"}
        (root,) = assemble_spans(coordinator.events + child.events)
        assert [s.name for s in root.walk()] == ["map", "chunk", "trial"]

    def test_ids_are_worker_scoped(self):
        tracer = RecordingTracer("w3")
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ids = [e.data["id"] for e in tracer.events if e.kind == "start"]
        assert ids == ["w3:0", "w3:1"]


class TestAssembleSpans:
    def _events(self, build):
        tracer = RecordingTracer()
        build(tracer)
        return tracer.events

    def test_round_trip_tree(self):
        def build(tracer):
            with tracer.span("root", t=0.0):
                with tracer.span("left", t=1.0):
                    pass
                with tracer.span("right", t=2.0):
                    pass

        roots = assemble_spans(self._events(build))
        assert len(roots) == 1
        root = roots[0]
        assert root.name == "root"
        assert [c.name for c in root.children] == ["left", "right"]
        assert all(not span.open for span in root.walk())

    def test_non_span_events_are_ignored(self):
        tracer = RecordingTracer()
        tracer.event(0.0, "tick", "fire", cell=0, tick=0)
        with tracer.span("only"):
            pass
        tracer.event(9.0, "clocked", "run", makespan=9.0)
        roots = assemble_spans(tracer.events)
        assert [r.name for r in roots] == ["only"]

    def test_missing_end_yields_open_span(self):
        tracer = RecordingTracer()
        with tracer.span("crashed"):
            events = list(tracer.events)  # snapshot before the end lands
        roots = assemble_spans(events)
        assert len(roots) == 1 and roots[0].open
        assert roots[0].status == "open"

    def test_orphan_end_is_dropped(self):
        orphan = TraceEvent(
            t=1.0, cat="span", kind="end", cell=None,
            data={"id": "ghost:0", "wall_s": 0.1, "status": "ok", "attrs": {}},
        )
        assert assemble_spans([orphan]) == []

    def test_orphan_child_is_promoted_to_root(self):
        # A child whose parent never appears in the stream (e.g. the
        # coordinator's file was truncated) must still be visible.
        start = TraceEvent(
            t=0.0, cat="span", kind="start", cell=None,
            data={
                "id": "w0:5", "parent": "main:99", "name": "stranded",
                "worker": "w0", "wall_t0": 0.0, "attrs": {},
            },
        )
        roots = assemble_spans([start])
        assert [r.name for r in roots] == ["stranded"]

    def test_iter_spans_and_index(self):
        def build(tracer):
            with tracer.span("root"):
                with tracer.span("child"):
                    pass

        roots = assemble_spans(self._events(build))
        names = [s.name for s in iter_spans(roots)]
        assert names == ["root", "child"]
        index = span_index(roots)
        assert set(index) == {"main:0", "main:1"}
        assert index["main:1"].name == "child"


class TestPhaseRows:
    def test_nesting_builds_paths(self):
        tracer = RecordingTracer()
        for _ in range(2):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    pass
                with tracer.span("inner"):
                    pass
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        rows = phase_rows(assemble_spans(tracer.events))
        assert [(path, calls) for path, calls, _, _ in rows] == [
            ("outer", 3), ("outer/inner", 5),
        ]
        totals = {path: total for path, _, total, _ in rows}
        # A parent's time includes its children's.
        assert totals["outer"] >= totals["outer/inner"]
        assert all(mean == total / calls for _, calls, total, mean in rows)

    def test_stack_unwinds_on_error(self):
        tracer = RecordingTracer()
        for _ in range(2):
            with tracer.span("outer") as outer:
                with pytest.raises(RuntimeError):
                    with tracer.span("doomed"):
                        raise RuntimeError("boom")
                # A sibling after the failure opens under "outer" again.
                with tracer.span("sibling") as sibling:
                    pass
        # The span after a failure opens at the root again.
        with tracer.span("after"):
            pass
        parents = {
            e.data["id"]: e.data["parent"] for e in tracer.events if e.kind == "start"
        }
        assert parents[sibling.span_id] == outer.span_id
        assert [e.data["parent"] for e in tracer.events if e.kind == "start"][-1] is None
        rows = phase_rows(assemble_spans(tracer.events))
        assert [(path, calls) for path, calls, _, _ in rows] == [
            ("after", 1), ("outer", 2), ("outer/doomed", 2), ("outer/sibling", 2),
        ]
        totals = {path: total for path, _, total, _ in rows}
        assert totals["outer"] >= totals["outer/doomed"]
        assert all(mean == total / calls for _, calls, total, mean in rows)

    def test_open_span_counts_zero_seconds(self):
        tracer = RecordingTracer()
        with tracer.span("crashed"):
            events = list(tracer.events)
        assert phase_rows(assemble_spans(events)) == [("crashed", 1, 0.0, 0.0)]
