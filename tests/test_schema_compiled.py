"""The compiled schema validator against the interpretive walk it replaced.

``validate`` compiles each schema into nested closures.  The reference
below is the walk it replaced, kept unchanged as the oracle: over real
artifacts of every named schema, corrupted by hypothesis, ``validate`` and
every ``validate_*`` wrapper must return exactly the reference's errors,
in the reference's order.
"""

from __future__ import annotations

import copy
import json
import os
import pathlib
import subprocess
import sys
from collections import OrderedDict
from functools import lru_cache
from typing import Any, Dict, List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import schema

REPO = pathlib.Path(__file__).resolve().parent.parent


def reference_validate(obj: Any, schema_: Dict[str, Any], path: str = "$") -> List[str]:
    """The interpretive walk ``validate`` used before it was compiled."""
    errors: List[str] = []
    types = schema_.get("type")
    if types is not None:
        allowed = [types] if isinstance(types, str) else list(types)
        for t in allowed:
            if t not in schema._TYPE_CHECKS:
                raise ValueError(f"unsupported schema type {t!r}")
        if not any(schema._TYPE_CHECKS[t](obj) for t in allowed):
            got = repr(obj) if isinstance(obj, float) else type(obj).__name__
            errors.append(f"{path}: expected {'/'.join(allowed)}, got {got}")
            return errors
    if isinstance(obj, dict):
        for key in schema_.get("required", []):
            if key not in obj:
                errors.append(f"{path}: missing required key {key!r}")
        for key, subschema in schema_.get("properties", {}).items():
            if key in obj:
                errors.extend(reference_validate(obj[key], subschema, f"{path}.{key}"))
    if isinstance(obj, list) and "items" in schema_:
        for i, item in enumerate(obj):
            errors.extend(reference_validate(item, schema_["items"], f"{path}[{i}]"))
    return errors


# ----------------------------------------------------------------------
# real artifacts, one family per named schema
# ----------------------------------------------------------------------
FAMILIES = {
    "trace": ("TRACE_EVENT_SCHEMA", "validate_trace_event"),
    "span": ("SPAN_EVENT_SCHEMA", "validate_span_event"),
    "benchmark": ("BENCHMARK_RESULT_SCHEMA", "validate_benchmark_result"),
    "check": ("CHECK_REPORT_SCHEMA", "validate_check_report"),
    "sta": ("STA_REPORT_SCHEMA", "validate_sta_report"),
    "eco": ("STA_REPORT_SCHEMA", "validate_sta_report"),
    "metrics": ("METRICS_SNAPSHOT_SCHEMA", "validate_metrics_snapshot"),
    "violations": ("VIOLATION_SUMMARY_SCHEMA", "validate_violation_summary"),
    "flow": ("FLOW_REPORT_SCHEMA", "validate_flow_report"),
}


@lru_cache(maxsize=None)
def _artifacts() -> Dict[str, List[Any]]:
    from repro.check import CheckRegistry, build_report, require
    from repro.obs.export import metrics_snapshot
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import RecordingTracer
    from repro.sim.faults import summarize_violations
    from repro.sta.analyzer import STAAnalyzer
    from repro.sta.design import design_for_workload
    from repro.sta.eco import ECOSession
    from repro.sta.flowreport import build_flow_report

    # A race-prone design: its report carries flagged rows and its
    # simulator run has violations to summarize.
    dirty = design_for_workload("fir", size=4, pad_races=False, period=1.5)
    tracer = RecordingTracer()
    sta_report = STAAnalyzer(dirty, tracer=tracer).report().to_dict()
    session = ECOSession(design_for_workload("matvec", size=3))
    session.set_period(session.design.period * 0.5)
    eco_report = session.report().to_dict()
    spans = RecordingTracer()
    with spans.span("outer", size=3):
        with spans.span("inner"):
            pass
    registry = MetricsRegistry()
    registry.counter("runs").inc(3)
    registry.gauge("depth").set(2.5)
    registry.histogram("wait_s").observe(0.25)
    checks = CheckRegistry()
    checks.register("good", "invariant", "passes", suites=("quick",))(lambda ctx: {"x": 1.5})
    checks.register("bad", "differential", "fails", suites=("quick",))(
        lambda ctx: require(False, "broken")
    )
    comm = design_for_workload("sorter", size=4).array.comm
    service = {c: 1.0 + i % 3 / 4 for i, c in enumerate(comm.nodes())}
    flow = build_flow_report(comm, service, 0.5, 2, design_name="sorter-4", sizing_target=4.0)
    violations = dirty.simulator().run().violations
    bench = json.loads((REPO / "benchmarks/results/ablation_buffer_spacing.json").read_text())
    return {
        "trace": [e.to_json_obj() for e in tracer.events],
        "span": [e.to_json_obj() for e in spans.events],
        "benchmark": [bench],
        "check": [build_report(checks.run("quick", seed=1), suite="quick", seed=1)],
        "sta": [sta_report],
        "eco": [eco_report],
        "metrics": [metrics_snapshot(registry)],
        "violations": [summarize_violations(violations).to_dict()],
        "flow": [flow],
    }


def test_artifacts_are_valid_and_dirty_where_it_matters():
    arts = _artifacts()
    for family, (schema_name, validator) in FAMILIES.items():
        for obj in arts[family]:
            assert getattr(schema, validator)(obj) == [], family
    assert arts["sta"][0]["verdict"] == "violations"
    assert arts["violations"][0]["total"] > 0
    assert arts["flow"][0]["sizing"] is not None
    assert "eco" in arts["eco"][0]


def _paths(obj: Any, prefix=()):
    """Every (container, key) path, with long lists cut to their ends and
    their middle row (an array of rows is checked a column at a time,
    so a middle row counts as much as an end)."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield prefix + (key,)
            yield from _paths(value, prefix + (key,))
    elif isinstance(obj, list):
        keep = sorted({0, 1, len(obj) // 2, len(obj) - 1} & set(range(len(obj))))
        for i in keep:
            yield prefix + (i,)
            yield from _paths(obj[i], prefix + (i,))


#: A row that is a valid STA slack row in every field, but an OrderedDict.
_ORDERED_ROW = OrderedDict(
    [("edge", ["a", "b"]), ("lag", 1.0), ("sigma_ub", 0.5), ("sigma_lb", 0.25),
     ("offset_lead", 0.0), ("setup_slack", 2.0), ("hold_slack", 1.5),
     ("setup_slack_bound", 1.75), ("hold_slack_bound", 1.25), ("flags", [])]
)

#: Besides the plainly bad values, values that pass the row walk's checks
#: but not the whole-array check's exact types (numpy scalars, an int past
#: float range, an OrderedDict row), and a tuple where a list belongs.
_BAD_VALUES = [float("nan"), float("inf"), -float("inf"), True, None, "x", [1.0], {},
               np.float64(1.5), np.float64("nan"), np.int64(3), 10**400, ("a", "b"),
               _ORDERED_ROW]


def _corrupt(obj: Any, path, bad: Any, delete: bool) -> None:
    parent = obj
    for key in path[:-1]:
        parent = parent[key]
    if delete and isinstance(parent, dict):
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(bad)


def _outcome(fn, obj):
    try:
        return fn(obj)
    except Exception as exc:  # both sides must fail the same way
        return (type(exc).__name__, str(exc))


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(sorted(FAMILIES)),
    pick=st.integers(min_value=0),
    edits=st.lists(
        st.tuples(st.integers(min_value=0), st.sampled_from(_BAD_VALUES), st.booleans()),
        min_size=1,
        max_size=3,
    ),
)
def test_compiled_matches_reference_on_corrupted_artifacts(family, pick, edits):
    arts = _artifacts()[family]
    obj = copy.deepcopy(arts[pick % len(arts)])
    for where, bad, delete in edits:
        paths = list(_paths(obj))
        if not paths:
            break
        _corrupt(obj, paths[where % len(paths)], bad, delete)
    schema_name, validator = FAMILIES[family]
    named = getattr(schema, schema_name)
    assert schema.validate(obj, named) == reference_validate(obj, named)
    compiled = _outcome(getattr(schema, validator), obj)
    with mock.patch.object(schema, "validate", reference_validate):
        reference = _outcome(getattr(schema, validator), obj)
    assert compiled == reference


@pytest.mark.parametrize("key", ["lag", "flags", "edge", None])
@pytest.mark.parametrize("bad", _BAD_VALUES, ids=repr)
def test_every_row_of_the_slack_rows_meets_the_reference(key, bad):
    # One bad value at a time, at the first, a middle and the last row;
    # ``None`` replaces the whole row.
    rows = _artifacts()["sta"][0]["edges"]
    for i in sorted({0, len(rows) // 2, len(rows) - 1}):
        obj = copy.deepcopy(_artifacts()["sta"][0])
        _corrupt(obj, ("edges", i) if key is None else ("edges", i, key), bad, False)
        assert schema.validate(obj, schema.STA_REPORT_SCHEMA) == reference_validate(
            obj, schema.STA_REPORT_SCHEMA)


def test_mutated_adhoc_schema_is_never_served_a_stale_compile():
    adhoc = {"type": "object", "properties": {"a": {"type": "number"}}}
    obj = {"a": "x"}
    assert schema.validate(obj, adhoc) == ["$.a: expected number, got str"]
    adhoc["properties"]["a"]["type"] = "string"
    assert schema.validate(obj, adhoc) == []
    adhoc["required"] = ["b"]
    assert schema.validate(obj, adhoc) == ["$: missing required key 'b'"]
    adhoc["properties"]["a"] = {"type": "array", "items": {"type": "integer"}}
    obj = {"a": [1, 2.5], "b": 0}
    assert schema.validate(obj, adhoc, "$root") == reference_validate(obj, adhoc, "$root")
    assert schema.validate(obj, adhoc) == ["$.a[1]: expected integer, got 2.5"]


def test_unsupported_schema_type_raises():
    with pytest.raises(ValueError, match="unsupported schema type 'float'"):
        schema.validate(1, {"type": "float"})
    nested = {"type": "object", "properties": {"a": {"type": ["string", "real"]}}}
    with pytest.raises(ValueError, match="unsupported schema type 'real'"):
        schema.validate({"a": "x"}, nested)
    # Compiling checks the whole schema up front, so a bad type raises
    # even where the object never reaches it.
    with pytest.raises(ValueError, match="unsupported schema type 'real'"):
        schema.validate({}, nested)


def test_named_schemas_compile_on_first_use_not_at_import():
    code = (
        "import repro.obs.schema as s\n"
        "assert len(s._compiled) == 8 and not any(s._compiled.values())\n"
        "s.validate_sta_report({})\n"
        "s.validate({}, {'type': 'object'})\n"
        "assert [k for k, v in s._compiled.items() if v] == [id(s.STA_REPORT_SCHEMA)]\n"
        "node = s._compiled[id(s.STA_REPORT_SCHEMA)]\n"
        "s.validate_sta_report({})\n"
        "assert s._compiled[id(s.STA_REPORT_SCHEMA)] is node\n"
    )
    # Inherit the environment (PYTHONDONTWRITEBYTECODE among it), so the
    # child writes no .pyc into src/.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
