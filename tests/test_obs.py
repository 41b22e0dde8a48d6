"""Unit tests for the observability layer: tracing, metrics, and the
mini JSON-schema validator."""

import json

import pytest

from repro.obs.metrics import NULL_METRICS, Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.schema import (
    BENCHMARK_RESULT_SCHEMA,
    validate,
    validate_benchmark_result,
    validate_trace_event,
)
from repro.obs.trace import (
    NULL_TRACER,
    JsonlTracer,
    NullTracer,
    RecordingTracer,
    TraceEvent,
    load_trace,
    read_trace,
)


class TestRecordingTracer:
    def test_records_events(self):
        tracer = RecordingTracer()
        tracer.event(1.0, "tick", "fire", cell="a", tick=3)
        tracer.event(2.0, "violation", "stale", cell="b", receiver_tick=4)
        assert len(tracer.events) == 2
        assert tracer.events[0] == TraceEvent(
            t=1.0, cat="tick", kind="fire", cell="a", data={"tick": 3}
        )

    def test_filters_and_counts(self):
        tracer = RecordingTracer()
        for k in range(3):
            tracer.event(float(k), "tick", "fire", cell=k, tick=k)
        tracer.event(5.0, "violation", "race", cell=1)
        assert len(tracer.by_category("tick")) == 3
        assert len(tracer.by_kind("violation", "race")) == 1
        assert tracer.counts() == {("tick", "fire"): 3, ("violation", "race"): 1}


class TestNullTracer:
    def test_disabled_and_silent(self):
        tracer = NullTracer()
        assert not tracer.enabled
        tracer.event(1.0, "tick", "fire")  # must not raise or record

    def test_shared_instance(self):
        assert isinstance(NULL_TRACER, NullTracer)
        assert not NULL_TRACER.enabled


class TestJsonlTracer:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTracer(path) as tracer:
            tracer.event(0.5, "tick", "fire", cell=(1, 2), tick=0)
            tracer.event(1.5, "violation", "stale", cell="c3", edge=("a", "b"))
        events = load_trace(path)
        assert len(events) == 2
        # Tuple cell ids survive the JSON round trip.
        assert events[0].cell == (1, 2)
        assert events[0].data == {"tick": 0}
        assert events[1].data["edge"] == ["a", "b"]
        assert events[1].t == 1.5

    def test_lines_are_schema_valid_json(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        with JsonlTracer(path) as tracer:
            tracer.event(0.0, "engine", "dispatch", wall_s=0.001, queue_depth=2)
        with open(path) as fh:
            obj = json.loads(fh.readline())
        assert validate_trace_event(obj) == []

    def test_write_after_close_raises(self, tmp_path):
        tracer = JsonlTracer(str(tmp_path / "t.jsonl"))
        tracer.close()
        with pytest.raises(ValueError):
            tracer.event(0.0, "a", "b")

    def test_counts_written_events(self, tmp_path):
        tracer = JsonlTracer(str(tmp_path / "t.jsonl"))
        for k in range(5):
            tracer.event(float(k), "tick", "fire")
        tracer.close()
        assert tracer.events_written == 5
        assert len(list(read_trace(tracer.path))) == 5


class TestCounterGauge:
    def test_counter(self):
        c = Counter("n")
        c.inc()
        c.inc(3)
        assert c.value == 4
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_envelope(self):
        g = Gauge("depth")
        assert g.samples == 0
        for v in (3.0, 1.0, 7.0):
            g.set(v)
        assert g.value == 7.0
        assert g.minimum == 1.0
        assert g.maximum == 7.0
        assert g.samples == 3


class TestHistogram:
    def test_bucket_edges_are_inclusive_upper_bounds(self):
        h = Histogram("t", edges=[1.0, 2.0])
        h.observe(0.5)   # <= 1.0
        h.observe(1.0)   # exactly on an edge -> that bucket
        h.observe(1.001)  # (1.0, 2.0]
        h.observe(2.0)   # on the last edge -> in range
        h.observe(2.5)   # overflow
        assert h.counts == [2, 2, 1]
        assert h.total == 5
        assert h.mean == pytest.approx((0.5 + 1.0 + 1.001 + 2.0 + 2.5) / 5)

    def test_labels_and_nonzero(self):
        h = Histogram("t", edges=[1.0, 2.0])
        assert h.bucket_labels() == ["<= 1", "(1, 2]", "> 2"]
        h.observe(5.0)
        assert h.nonzero_buckets() == [("> 2", 1)]

    def test_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("t", edges=[])
        with pytest.raises(ValueError):
            Histogram("t", edges=[2.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("t", edges=[1.0, 1.0])


class TestMetricsRegistry:
    def test_create_or_get(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("b") is reg.gauge("b")
        assert reg.histogram("c") is reg.histogram("c")

    def test_bool_and_to_dict(self):
        # A fresh registry is truthy: ``metrics or NULL_METRICS`` must
        # never swap a caller's empty registry for the null one.
        reg = MetricsRegistry()
        assert reg and reg.enabled
        reg.counter("events").inc(2)
        reg.gauge("depth").set(4.0)
        reg.histogram("lat", edges=[1.0]).observe(0.5)
        assert reg
        snapshot = reg.to_dict()
        assert snapshot["counters"] == {"events": 2}
        assert snapshot["gauges"]["depth"]["max"] == 4.0
        assert snapshot["histograms"]["lat"]["counts"] == [1, 0]
        json.dumps(snapshot)  # fully serialisable

    def test_render_rows(self):
        reg = MetricsRegistry()
        reg.counter("n").inc()
        rows = reg.render_rows()
        assert rows == [("n", "counter", "1")]


class TestNullMetrics:
    def test_disabled_and_records_nothing(self):
        assert not NULL_METRICS.enabled
        instruments = [
            NULL_METRICS.counter("c"),
            NULL_METRICS.counter("c", labels={"k": "v"}),
            NULL_METRICS.gauge("g"),
            NULL_METRICS.histogram("h", edges=[1.0]),
        ]
        # One shared instrument, whatever the kind or name.
        assert all(i is instruments[0] for i in instruments)
        for instrument in instruments:
            assert instrument.inc() is None
            assert instrument.inc(3) is None
            assert instrument.set(2.5) is None
            assert instrument.observe(0.5) is None
            assert instrument.observe_many([0.1, 0.2]) is None
        assert NULL_METRICS.to_dict() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert NULL_METRICS.render_rows() == []

    def test_fresh_registry_is_not_swapped_for_the_null_one(self):
        from repro.arrays.systolic import build_fir_array
        from repro.sim.dataflow import SelfTimedProgramSimulator
        from repro.sim.engine import Simulator

        metrics = MetricsRegistry()
        sim = Simulator(metrics=metrics)
        sim.schedule(1.0, lambda: None)
        sim.run()
        assert metrics.counters()["engine.events"].value == 1

        metrics = MetricsRegistry()
        program = build_fir_array([1.0, 2.0], [1.0, 0.0, 3.0])
        SelfTimedProgramSimulator(program, metrics=metrics).run()
        assert metrics.histograms()["dataflow.service_time"].total > 0


class TestSchemaValidator:
    def test_type_mismatch(self):
        assert validate(3, {"type": "string"}) == ["$: expected string, got int"]
        assert validate("x", {"type": ["string", "null"]}) == []
        assert validate(None, {"type": ["string", "null"]}) == []

    def test_bool_is_not_number(self):
        assert validate(True, {"type": "number"}) != []
        assert validate(True, {"type": "boolean"}) == []

    def test_required_and_nested(self):
        schema = {
            "type": "object",
            "required": ["a"],
            "properties": {"a": {"type": "array", "items": {"type": "integer"}}},
        }
        assert validate({"a": [1, 2]}, schema) == []
        assert "missing required key 'a'" in validate({}, schema)[0]
        assert "$.a[1]" in validate({"a": [1, "x"]}, schema)[0]

    def test_unsupported_type_raises(self):
        with pytest.raises(ValueError):
            validate(1, {"type": "float"})

    def test_benchmark_result_schema(self):
        good = {
            "name": "x",
            "title": "X",
            "headers": ["a", "b"],
            "rows": [[1, 2.5], ["s", None]],
            "meta": {"emitted_at": 1.0, "repro_version": "1.0.0"},
        }
        assert validate_benchmark_result(good) == []
        assert validate(good, BENCHMARK_RESULT_SCHEMA) == []
        ragged = dict(good, rows=[[1]])
        assert any("1 cells" in e for e in validate_benchmark_result(ragged))
        missing = {k: v for k, v in good.items() if k != "meta"}
        assert validate_benchmark_result(missing) != []
