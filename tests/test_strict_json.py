"""Strict JSON at every boundary a report crosses.

Strict JSON has no NaN or infinity.  The schema validator must refuse
them as a ``"number"``, every JSON writer must refuse to emit them
(``allow_nan=False``), and a non-finite CLI number must exit 2 with an
error line instead of a traceback or a report full of ``NaN``.
"""

import math

import pytest

from repro.analysis.perf import KernelTiming, write_bench_results
from repro.cli import main as cli_main
from repro.obs.export import write_metrics_json
from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate, validate_flow_report, validate_span_event
from repro.obs.trace import JsonlTracer
from repro.sta.design import design_for_workload
from repro.sta.flowreport import build_flow_report

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestValidator:
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_non_finite_is_not_a_number(self, value):
        assert validate(value, {"type": "number"}) == [
            f"$: expected number, got {value!r}"
        ]
        assert validate(value, {"type": ["number", "null"]}) != []

    def test_finite_numbers_still_pass(self):
        for value in (0, -3, 2.5, 1e308, 10**400):
            assert validate(value, {"type": "number"}) == []

    def test_span_events_refuse_nan_and_keep_their_per_kind_keys(self):
        start = {"t": 0.0, "cat": "span", "kind": "start", "cell": None,
                 "data": {"id": "1", "parent": None, "name": "op",
                          "worker": "main", "wall_t0": 0.0, "attrs": {}}}
        end = {"t": 0.0, "cat": "span", "kind": "end", "cell": None,
               "data": {"id": "1", "wall_s": 0.5, "status": "ok", "attrs": {}}}
        assert validate_span_event(start) == []
        assert validate_span_event(end) == []
        nan_end = dict(end, data=dict(end["data"], wall_s=math.nan))
        assert validate_span_event(nan_end) == [
            "$.data.wall_s: expected number, got nan"
        ]
        no_worker = dict(start, data={k: v for k, v in start["data"].items()
                                      if k != "worker"})
        assert validate_span_event(no_worker) == [
            "$.data: missing required key 'worker'"
        ]
        bad_status = dict(end, data=dict(end["data"], status="lost"))
        assert validate_span_event(bad_status) == [
            "$.data.status: unknown status 'lost'"
        ]
        assert validate_span_event(dict(end, kind="middle")) == [
            "$.kind: expected 'start' or 'end', got 'middle'"
        ]

    def test_flow_report_with_a_nan_cycle_time_is_rejected(self):
        comm = design_for_workload("fir", size=3).array.comm
        report = build_flow_report(comm, 1.0, 0.5, 2, simulate=False)
        assert validate_flow_report(report) == []
        report["mcm"]["cycle_time"] = math.nan
        assert any(
            "$.mcm.cycle_time" in e for e in validate_flow_report(report)
        )


class TestWriters:
    def test_trace_writer_refuses_nan(self, tmp_path):
        with JsonlTracer(str(tmp_path / "t.jsonl")) as tracer:
            with pytest.raises(ValueError):
                tracer.event(0.0, "engine", "dispatch", wall_s=math.nan)

    def test_metrics_writer_refuses_nan(self, tmp_path):
        registry = MetricsRegistry()
        registry.gauge("skew").set(math.nan)
        with pytest.raises(ValueError):
            write_metrics_json(registry, str(tmp_path / "m.json"))

    def test_bench_writer_refuses_infinity_before_writing(self, tmp_path):
        out = tmp_path / "bench.json"
        with pytest.raises(ValueError):
            write_bench_results(
                [KernelTiming("k", 4, 4, 1.0, 0.5, math.inf)], str(out)
            )
        assert not out.exists()


@pytest.mark.parametrize("wire", ["nan", "inf"])
@pytest.mark.parametrize("extra", [[], ["--static-only"]])
def test_flow_verb_refuses_a_non_finite_wire(wire, extra, tmp_path, capsys):
    out = tmp_path / "flow.json"
    code = cli_main(["flow", "--workload", "fir", "--size", "3",
                     "--wire", wire, "--json", str(out)] + extra)
    assert code == 2
    assert "wire delay must be non-negative and finite" in capsys.readouterr().err
    assert not out.exists()
