"""A small stdlib-only JSON validator plus the schemas the repo emits.

Two machine-readable artifact families need to stay well-formed for the
perf-trajectory tooling of later PRs:

* ``benchmarks/results/<name>.json`` — benchmark tables with timing
  metadata (:data:`BENCHMARK_RESULT_SCHEMA`);
* JSONL trace lines from :class:`~repro.obs.trace.JsonlTracer`
  (:data:`TRACE_EVENT_SCHEMA`).

The validator speaks a deliberately tiny dialect of JSON Schema —
``type`` (string or list of strings), ``properties`` + ``required`` for
objects, ``items`` for arrays — enough to pin the shapes down without a
dependency.  A ``"number"`` must be finite, as strict JSON has no NaN
or infinity.  Schemas run compiled into nested closures (:func:`validate`).
An array of flat rows (an STA report's slack rows, say) is checked a
column at a time first; only an array that check rejects is walked row
by row, and the walk alone writes the errors.
"""

from __future__ import annotations

import math
from itertools import chain
from operator import itemgetter
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

_TYPE_CHECKS = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "number": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and math.isfinite(v)),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
}


#: A compiled node: its type predicate, its types as errors spell them, and
#: ``walk(obj, path, errors)``.  A *leaf* (a type and nothing else) has no
#: walk: its parent runs the predicate and builds a path only for an error.
_Node = Tuple[Callable[[Any], bool], str, Optional[Callable[[Any, str, List[str]], None]]]


def _any(obj: Any) -> bool:
    return True


def _type_error(path: str, expected: str, obj: Any) -> str:
    got = repr(obj) if isinstance(obj, float) else type(obj).__name__
    return f"{path}: expected {expected}, got {got}"


#: The exact Python types each schema type admits without a closer look:
#: subclasses (``bool`` under ``int`` aside), and floats beyond a
#: finiteness test, are left to the row walk.
_EXACT_TYPES = {
    "object": (dict,),
    "array": (list,),
    "string": (str,),
    "number": (int, float),
    "integer": (int,),
    "boolean": (bool,),
    "null": (type(None),),
}


def _leaf_types(schema: Dict[str, Any]) -> Optional[FrozenSet[type]]:
    """The exact types a schema that holds only a ``type`` admits, or
    ``None`` for any other schema."""
    if set(schema) != {"type"}:
        return None
    types = schema["type"]
    names = [types] if isinstance(types, str) else types
    return frozenset(t for name in names for t in _EXACT_TYPES[name])


def _rows_check(schema: Dict[str, Any]) -> Optional[Callable[[List[Any]], bool]]:
    """A whole-array check for items of ``schema``, when they are flat
    objects: every property required, each a leaf or an array of leaves.
    The check reads the rows a column at a time (one ``itemgetter`` over
    the keys, one type set per column, ``math.isfinite`` over a column
    holding floats); ``True`` means the row walk would find no error,
    ``False`` sends the array down the walk."""
    properties = schema.get("properties", {})
    if (set(schema) != {"type", "required", "properties"} or schema["type"] != "object"
            or not properties or set(schema["required"]) != set(properties)):
        return None
    columns: List[Tuple[FrozenSet[type], bool]] = []
    for sub in properties.values():
        nested = set(sub) == {"type", "items"} and sub["type"] == "array"
        allowed = _leaf_types(sub["items"] if nested else sub)
        if allowed is None:
            return None
        columns.append((allowed, nested))
    keys = list(properties)
    get = itemgetter(*keys) if len(keys) > 1 else lambda row: (row[keys[0]],)

    def check(rows: List[Any]) -> bool:
        if not set(map(type, rows)) <= {dict}:
            return False
        try:
            for (allowed, nested), column in zip(columns, zip(*map(get, rows))):
                if nested:
                    if not set(map(type, column)) <= {list}:
                        return False
                    column = tuple(chain.from_iterable(column))
                kinds = set(map(type, column))
                if not kinds <= allowed or (
                        float in kinds and not all(map(math.isfinite, column))):
                    return False
        except (KeyError, TypeError, OverflowError):
            return False  # a missing key, or a column math.isfinite refuses
        return True

    return check


def _compile(schema: Dict[str, Any]) -> _Node:
    """Compile one mini-schema node, and its children, into closures."""
    test, expected = _any, ""
    types = schema.get("type")
    if types is not None:
        allowed = [types] if isinstance(types, str) else list(types)
        for t in allowed:
            if t not in _TYPE_CHECKS:
                raise ValueError(f"unsupported schema type {t!r}")
        checks = [_TYPE_CHECKS[t] for t in allowed]
        test = checks[0] if len(checks) == 1 else lambda v: any(c(v) for c in checks)
        expected = "/".join(allowed)
    required = tuple(schema.get("required", []))
    required_set = frozenset(required)
    properties = [(k, _compile(sub)) for k, sub in schema.get("properties", {}).items()]
    items = _compile(schema["items"]) if "items" in schema else None
    if not required and not properties and items is None:
        return test, expected, None
    rows_ok = _rows_check(schema["items"]) if items is not None else None

    def walk(obj: Any, path: str, errors: List[str]) -> None:
        if not test(obj):
            errors.append(_type_error(path, expected, obj))
            return
        if isinstance(obj, dict):
            if not obj.keys() >= required_set:
                for key in required:
                    if key not in obj:
                        errors.append(f"{path}: missing required key {key!r}")
            for key, (sub_test, sub_expected, sub_walk) in properties:
                if key in obj:
                    value = obj[key]
                    if sub_walk is not None:
                        sub_walk(value, f"{path}.{key}", errors)
                    elif not sub_test(value):
                        errors.append(_type_error(f"{path}.{key}", sub_expected, value))
        if items is not None and isinstance(obj, list):
            if rows_ok is not None and rows_ok(obj):
                return
            item_test, item_expected, item_walk = items
            for i, item in enumerate(obj):
                if item_walk is not None:
                    item_walk(item, f"{path}[{i}]", errors)
                elif not item_test(item):
                    errors.append(_type_error(f"{path}[{i}]", item_expected, item))

    return test, expected, walk


def validate(obj: Any, schema: Dict[str, Any], path: str = "$") -> List[str]:
    """Validate ``obj`` against the mini-schema; returns error strings
    (empty list means valid).  The schema runs compiled: a ``*_SCHEMA``
    constant once, on first use, and any other dict on every call, so a
    mutated one never meets a stale compile.  An unknown type raises
    ``ValueError``."""
    node = _compiled.get(id(schema))
    if node is None:
        node = _compile(schema)
        if id(schema) in _compiled:
            _compiled[id(schema)] = node
    test, expected, walk = node
    errors: List[str] = []
    if walk is not None:
        walk(obj, path, errors)
    elif not test(obj):
        errors.append(_type_error(path, expected, obj))
    return errors


_SCALAR = {"type": ["string", "number", "boolean", "null"]}

#: Shape of one JSONL trace line (a serialised TraceEvent).
TRACE_EVENT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["t", "cat", "kind", "cell", "data"],
    "properties": {
        "t": {"type": "number"},
        "cat": {"type": "string"},
        "kind": {"type": "string"},
        "data": {"type": "object"},
    },
}

#: Shape of ``benchmarks/results/<name>.json``.
BENCHMARK_RESULT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["name", "title", "headers", "rows", "meta"],
    "properties": {
        "name": {"type": "string"},
        "title": {"type": "string"},
        "headers": {"type": "array", "items": {"type": "string"}},
        "rows": {"type": "array", "items": {"type": "array", "items": _SCALAR}},
        "meta": {
            "type": "object",
            "required": ["emitted_at", "repro_version"],
            "properties": {
                "emitted_at": {"type": "number"},
                "repro_version": {"type": "string"},
                "timing": {"type": "object"},
            },
        },
    },
}


#: Shape of the report ``python -m repro check --json FILE`` writes.
CHECK_REPORT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["suite", "seed", "passed", "counts", "checks", "meta"],
    "properties": {
        "suite": {"type": "string"},
        "seed": {"type": "integer"},
        "passed": {"type": "boolean"},
        "counts": {
            "type": "object",
            "required": ["total", "passed", "failed"],
            "properties": {
                "total": {"type": "integer"},
                "passed": {"type": "integer"},
                "failed": {"type": "integer"},
            },
        },
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "kind", "passed", "duration_s", "details"],
                "properties": {
                    "name": {"type": "string"},
                    "kind": {"type": "string"},
                    "passed": {"type": "boolean"},
                    "duration_s": {"type": "number"},
                    "error": {"type": ["string", "null"]},
                    "details": {"type": "object"},
                },
            },
        },
        "meta": {
            "type": "object",
            "required": ["emitted_at", "repro_version"],
            "properties": {
                "emitted_at": {"type": "number"},
                "repro_version": {"type": "string"},
            },
        },
    },
}

#: Shape of the report ``python -m repro sta --json FILE`` writes.
STA_REPORT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "design", "period", "verdict", "robust",
        "counts", "slack", "edges", "drc", "empirical", "meta",
    ],
    "properties": {
        "design": {"type": "string"},
        "period": {"type": "number"},
        "verdict": {"type": "string"},
        "robust": {"type": "boolean"},
        "counts": {
            "type": "object",
            "required": [
                "edges", "stale", "race", "stale_possible",
                "race_possible", "race_floor", "drc_fail", "drc_warn",
            ],
            "properties": {
                "edges": {"type": "integer"},
                "stale": {"type": "integer"},
                "race": {"type": "integer"},
                "stale_possible": {"type": "integer"},
                "race_possible": {"type": "integer"},
                "race_floor": {"type": "integer"},
                "drc_fail": {"type": "integer"},
                "drc_warn": {"type": "integer"},
            },
        },
        "slack": {
            "type": "object",
            "required": [
                "worst_setup_slack", "worst_hold_slack",
                "min_feasible_period_exact", "min_feasible_period_bound",
            ],
            "properties": {
                "worst_setup_slack": {"type": "number"},
                "worst_hold_slack": {"type": "number"},
                "min_feasible_period_exact": {"type": "number"},
                "min_feasible_period_bound": {"type": "number"},
            },
        },
        "edges": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "edge", "lag", "sigma_ub", "sigma_lb", "offset_lead",
                    "setup_slack", "hold_slack",
                    "setup_slack_bound", "hold_slack_bound", "flags",
                ],
                "properties": {
                    "edge": {"type": "array", "items": {"type": "string"}},
                    "lag": {"type": "number"},
                    "sigma_ub": {"type": "number"},
                    "sigma_lb": {"type": "number"},
                    "offset_lead": {"type": "number"},
                    "setup_slack": {"type": "number"},
                    "hold_slack": {"type": "number"},
                    "setup_slack_bound": {"type": "number"},
                    "hold_slack_bound": {"type": "number"},
                    "flags": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "drc": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["rule", "title", "status", "detail"],
                "properties": {
                    "rule": {"type": "string"},
                    "title": {"type": "string"},
                    "status": {"type": "string"},
                    "detail": {"type": "string"},
                },
            },
        },
        "empirical": {
            "type": ["object", "null"],
            "required": ["max_skew", "model_sigma_ub_max", "within_model"],
            "properties": {
                "max_skew": {"type": "number"},
                "model_sigma_ub_max": {"type": "number"},
                "within_model": {"type": "boolean"},
                "tree_version": {"type": "integer"},
            },
        },
        "meta": {
            "type": "object",
            "required": ["emitted_at", "repro_version"],
            "properties": {
                "emitted_at": {"type": "number"},
                "repro_version": {"type": "string"},
            },
        },
        # Present only on ECO edit-script step reports (optional: not in
        # the required list above).
        "eco": {
            "type": "object",
            "required": ["edit", "target", "dirty_rows", "reuse_fraction"],
            "properties": {
                "edit": {"type": "string"},
                "target": {"type": "string"},
                "dirty_rows": {"type": "integer"},
                "reuse_fraction": {"type": "number"},
            },
        },
    },
}


#: Shape of one serialised span event (a TraceEvent with ``cat ==
#: "span"``); the per-kind payload requirements live in
#: :func:`validate_span_event` (the mini-schema has no conditionals).
SPAN_EVENT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["t", "cat", "kind", "cell", "data"],
    "properties": {
        "t": {"type": "number"},
        "cat": {"type": "string"},
        "kind": {"type": "string"},
        "data": {
            "type": "object",
            "required": ["id"],
            "properties": {
                "id": {"type": "string"},
                "parent": {"type": ["string", "null"]},
                "name": {"type": "string"},
                "worker": {"type": "string"},
                "wall_t0": {"type": "number"},
                "wall_s": {"type": "number"},
                "status": {"type": "string"},
                "attrs": {"type": "object"},
            },
        },
    },
}

#: Shape of :func:`repro.obs.export.metrics_snapshot` output; the
#: per-series payload requirements live in
#: :func:`validate_metrics_snapshot`.
METRICS_SNAPSHOT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": ["counters", "gauges", "histograms", "meta"],
    "properties": {
        "counters": {"type": "object"},
        "gauges": {"type": "object"},
        "histograms": {"type": "object"},
        "meta": {
            "type": "object",
            "required": ["emitted_at", "repro_version"],
            "properties": {
                "emitted_at": {"type": "number"},
                "repro_version": {"type": "string"},
            },
        },
    },
}


#: Shape of ``ViolationSummary.to_dict()`` (repro.sim.faults).
VIOLATION_SUMMARY_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "total", "stale", "race", "edges_affected",
        "first_failure_tick", "last_failure_tick",
        "worst_edge", "worst_edge_count", "per_cell",
    ],
    "properties": {
        "total": {"type": "integer"},
        "stale": {"type": "integer"},
        "race": {"type": "integer"},
        "edges_affected": {"type": "integer"},
        "first_failure_tick": {"type": "integer"},
        "last_failure_tick": {"type": "integer"},
        "worst_edge": {"type": "array"},
        "worst_edge_count": {"type": "integer"},
        "per_cell": {"type": "object"},
    },
}


def validate_trace_event(obj: Any) -> List[str]:
    return validate(obj, TRACE_EVENT_SCHEMA)


#: The payload keys each span-event kind needs (the schema types them).
_SPAN_KEYS = {
    "start": ("parent", "name", "worker", "wall_t0", "attrs"),
    "end": ("wall_s", "status", "attrs"),
}


def validate_span_event(obj: Any) -> List[str]:
    """Schema check for one span start/end event, including the per-kind
    payload the mini-schema cannot express: starts need ``parent``,
    ``name``, ``worker``, ``wall_t0``, and ``attrs``; ends need
    ``wall_s``, a known ``status``, and ``attrs``."""
    errors = validate(obj, SPAN_EVENT_SCHEMA)
    if errors:
        return errors
    if obj["cat"] != "span":
        errors.append(f"$.cat: expected 'span', got {obj['cat']!r}")
    kind, data = obj["kind"], obj["data"]
    if kind not in _SPAN_KEYS:
        errors.append(f"$.kind: expected 'start' or 'end', got {kind!r}")
    for key in _SPAN_KEYS.get(kind, ()):
        if key not in data:
            errors.append(f"$.data: missing required key {key!r}")
    if kind == "end" and data.get("status", "ok") not in ("ok", "error"):
        errors.append(f"$.data.status: unknown status {data['status']!r}")
    return errors


def validate_metrics_snapshot(obj: Any) -> List[str]:
    """Schema check for a metrics snapshot, including the per-series
    invariants: counters are non-bool integers, gauges carry their
    value/min/max/samples envelope, and each histogram has exactly one
    more count than it has edges."""
    errors = validate(obj, METRICS_SNAPSHOT_SCHEMA)
    if errors:
        return errors
    for name, value in obj["counters"].items():
        if not isinstance(value, int) or isinstance(value, bool):
            errors.append(f"$.counters.{name}: expected integer")
    for name, g in obj["gauges"].items():
        if not isinstance(g, dict):
            errors.append(f"$.gauges.{name}: expected object")
            continue
        missing = [k for k in ("value", "min", "max", "samples") if k not in g]
        if missing:
            errors.append(f"$.gauges.{name}: missing {missing}")
    for name, h in obj["histograms"].items():
        if not isinstance(h, dict):
            errors.append(f"$.histograms.{name}: expected object")
            continue
        missing = [k for k in ("edges", "counts", "total", "mean") if k not in h]
        if missing:
            errors.append(f"$.histograms.{name}: missing {missing}")
            continue
        if not isinstance(h["edges"], list) or not isinstance(h["counts"], list):
            errors.append(f"$.histograms.{name}: edges/counts must be arrays")
        elif len(h["counts"]) != len(h["edges"]) + 1:
            errors.append(
                f"$.histograms.{name}: {len(h['counts'])} counts for "
                f"{len(h['edges'])} edges (expected edges + 1)"
            )
    return errors


def validate_check_report(obj: Any) -> List[str]:
    """Schema check plus the cross-field consistency the mini-schema can't
    express: the counts must agree with the per-check rows, and the overall
    verdict must agree with the failure count."""
    errors = validate(obj, CHECK_REPORT_SCHEMA)
    if not errors:
        failed = sum(1 for c in obj["checks"] if not c["passed"])
        counts = obj["counts"]
        if counts["total"] != len(obj["checks"]):
            errors.append(
                f"$.counts.total: {counts['total']} != "
                f"{len(obj['checks'])} check rows"
            )
        if counts["failed"] != failed:
            errors.append(
                f"$.counts.failed: {counts['failed']} != {failed} failing rows"
            )
        if counts["passed"] != counts["total"] - failed:
            errors.append(
                f"$.counts.passed: {counts['passed']} != "
                f"{counts['total'] - failed}"
            )
        if obj["passed"] != (failed == 0):
            errors.append(
                f"$.passed: {obj['passed']} disagrees with {failed} failures"
            )
    return errors


def validate_sta_report(obj: Any) -> List[str]:
    """Schema check plus the cross-field invariants of an STA report: the
    verdict must agree with the violation counts, the counts must agree
    with the per-edge rows, and DRC statuses must be from the fixed set."""
    errors = validate(obj, STA_REPORT_SCHEMA)
    if not errors:
        counts = obj["counts"]
        if counts["edges"] != len(obj["edges"]):
            errors.append(
                f"$.counts.edges: {counts['edges']} != {len(obj['edges'])} rows"
            )
        for key, flag in (
            ("stale", "stale"), ("race", "race"),
            ("stale_possible", "stale-possible"),
            ("race_possible", "race-possible"),
            ("race_floor", "race-floor"),
        ):
            seen = sum(1 for e in obj["edges"] if flag in e["flags"])
            if counts[key] != seen:
                errors.append(
                    f"$.counts.{key}: {counts[key]} != {seen} flagged rows"
                )
        drc_fail = sum(1 for r in obj["drc"] if r["status"] == "fail")
        if counts["drc_fail"] != drc_fail:
            errors.append(
                f"$.counts.drc_fail: {counts['drc_fail']} != {drc_fail} fail rows"
            )
        for i, r in enumerate(obj["drc"]):
            if r["status"] not in ("pass", "fail", "warn", "skip"):
                errors.append(f"$.drc[{i}].status: unknown status {r['status']!r}")
        dirty = counts["stale"] + counts["race"] + counts["drc_fail"] > 0
        if obj["verdict"] not in ("clean", "violations"):
            errors.append(f"$.verdict: unknown verdict {obj['verdict']!r}")
        elif (obj["verdict"] == "violations") != dirty:
            errors.append(
                f"$.verdict: {obj['verdict']!r} disagrees with counts "
                f"(stale {counts['stale']}, race {counts['race']}, "
                f"drc_fail {counts['drc_fail']})"
            )
        if obj["robust"] and obj["verdict"] != "clean":
            errors.append("$.robust: true on a non-clean report")
        eco = obj.get("eco")
        if eco is not None:
            if not 0.0 <= eco["reuse_fraction"] <= 1.0:
                errors.append(
                    f"$.eco.reuse_fraction: {eco['reuse_fraction']} outside [0, 1]"
                )
            if eco["dirty_rows"] > counts["edges"]:
                errors.append(
                    f"$.eco.dirty_rows: {eco['dirty_rows']} exceeds "
                    f"{counts['edges']} edges"
                )
    return errors


def validate_violation_summary(obj: Any) -> List[str]:
    """Schema check plus the arithmetic invariants of a violation summary:
    stale + race = total, and the per-cell counts sum to the total."""
    errors = validate(obj, VIOLATION_SUMMARY_SCHEMA)
    if not errors:
        if obj["stale"] + obj["race"] != obj["total"]:
            errors.append(
                f"$.total: stale ({obj['stale']}) + race ({obj['race']}) "
                f"!= total ({obj['total']})"
            )
        per_cell_sum = sum(obj["per_cell"].values())
        if per_cell_sum != obj["total"]:
            errors.append(
                f"$.per_cell: counts sum to {per_cell_sum}, "
                f"expected total {obj['total']}"
            )
        if obj["total"] > 0 and obj["first_failure_tick"] > obj["last_failure_tick"]:
            errors.append(
                "$.first_failure_tick: exceeds last_failure_tick"
            )
    return errors


#: Shape of the report ``python -m repro flow --json FILE`` (and
#: ``python -m repro sta --flow FILE``) writes: the static max-plus
#: analysis of a self-timed array — deadlock verdict, maximum cycle
#: mean with its critical-cycle blame rows, the agreement block (the
#: exact certificate of the MCM and the simulator cross-check), transient
#: bounds, and (when a target was given) the minimal buffer sizing.
FLOW_REPORT_SCHEMA: Dict[str, Any] = {
    "type": "object",
    "required": [
        "design", "cells", "comm_edges", "wire_delay", "capacity",
        "deadlock", "mcm", "agreement", "transient", "sizing", "meta",
    ],
    "properties": {
        "design": {"type": "string"},
        "cells": {"type": "integer"},
        "comm_edges": {"type": "integer"},
        "wire_delay": {"type": "number"},
        "capacity": {"type": "string"},
        "deadlock": {
            "type": "object",
            "required": ["dead", "cycle"],
            "properties": {
                "dead": {"type": "boolean"},
                "cycle": {
                    "type": "array",
                    "items": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "mcm": {
            "type": ["object", "null"],
            "required": [
                "cycle_time", "throughput", "weight", "tokens",
                "iterations", "critical_cycle",
            ],
            "properties": {
                "cycle_time": {"type": "number"},
                "throughput": {"type": "number"},
                "weight": {"type": "number"},
                "tokens": {"type": "integer"},
                "iterations": {"type": "integer"},
                "critical_cycle": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["label", "kind", "seconds", "share"],
                        "properties": {
                            "label": {"type": "string"},
                            "kind": {"type": "string"},
                            "seconds": {"type": "number"},
                            "share": {"type": "number"},
                        },
                    },
                },
            },
        },
        "agreement": {
            "type": ["object", "null"],
            "required": [
                "certificate", "simulated_cycle_time", "max_abs_diff",
                "exact",
            ],
            "properties": {
                "certificate": {
                    "type": "object",
                    "required": ["verified", "failed", "exact_mean", "edges_checked"],
                    "properties": {
                        "verified": {"type": "boolean"},
                        "failed": {"type": ["string", "null"]},
                        "exact_mean": {"type": ["string", "null"]},
                        "edges_checked": {"type": "integer"},
                    },
                },
                "simulated_cycle_time": {"type": ["number", "null"]},
                "max_abs_diff": {"type": "number"},
                "exact": {"type": "boolean"},
            },
        },
        "transient": {
            "type": ["object", "null"],
            "required": [
                "period", "waves_run", "c_lo", "c_hi",
                "makespan_checks", "makespan_max_err",
            ],
            "properties": {
                "period": {"type": "integer"},
                "waves_run": {"type": "integer"},
                "c_lo": {"type": "number"},
                "c_hi": {"type": "number"},
                "makespan_checks": {"type": "integer"},
                "makespan_max_err": {"type": "number"},
            },
        },
        "sizing": {
            "type": ["object", "null"],
            "required": [
                "target", "cycle_time", "total_capacity", "mcm_calls",
                "capacities",
            ],
            "properties": {
                "target": {"type": "number"},
                "cycle_time": {"type": "number"},
                "total_capacity": {"type": "integer"},
                "mcm_calls": {"type": "integer"},
                "capacities": {
                    "type": "array",
                    "items": {"type": "array", "items": _SCALAR},
                },
            },
        },
        "meta": {
            "type": "object",
            "required": ["emitted_at", "repro_version"],
            "properties": {
                "emitted_at": {"type": "number"},
                "repro_version": {"type": "string"},
            },
        },
    },
}


def validate_flow_report(obj: Any) -> List[str]:
    """Schema check plus the cross-field invariants of a flow report:
    a deadlocked design has no MCM/agreement/transient blocks (and vice
    versa), the deadlock cycle is non-empty exactly when dead, blame
    shares lie in [0, 1], agreement ``exact`` means a verified
    certificate and a zero diff, a certificate names a failed condition
    exactly when it does not verify, and a sizing block (when present)
    meets its own target."""
    errors = validate(obj, FLOW_REPORT_SCHEMA)
    if errors:
        return errors
    dead = obj["deadlock"]["dead"]
    if dead != bool(obj["deadlock"]["cycle"]):
        errors.append(
            f"$.deadlock.cycle: {'empty' if dead else 'non-empty'} "
            f"disagrees with dead={dead}"
        )
    if dead and obj["mcm"] is not None:
        errors.append("$.mcm: present on a deadlocked design")
    if not dead and obj["mcm"] is None:
        errors.append("$.mcm: missing on a live design")
    mcm = obj["mcm"]
    if mcm is not None:
        for i, step in enumerate(mcm["critical_cycle"]):
            if not 0.0 <= step["share"] <= 1.0:
                errors.append(
                    f"$.mcm.critical_cycle[{i}].share: "
                    f"{step['share']} outside [0, 1]"
                )
        if mcm["cycle_time"] > 0 and mcm["tokens"] <= 0:
            errors.append("$.mcm.tokens: must be positive on a finite MCM")
    agreement = obj["agreement"]
    if agreement is not None:
        if dead:
            errors.append("$.agreement: present on a deadlocked design")
        elif agreement["exact"] and agreement["max_abs_diff"] != 0.0:
            errors.append(
                f"$.agreement.exact: true with max_abs_diff "
                f"{agreement['max_abs_diff']}"
            )
        cert = agreement["certificate"]
        if cert["verified"] == (cert["failed"] is not None):
            errors.append("$.agreement.certificate: verified iff no failed condition")
        if agreement["exact"] and not cert["verified"]:
            errors.append("$.agreement.exact: true with an unverified certificate")
    sizing = obj["sizing"]
    if sizing is not None and sizing["cycle_time"] > sizing["target"]:
        errors.append(
            f"$.sizing.cycle_time: {sizing['cycle_time']} exceeds "
            f"target {sizing['target']}"
        )
    return errors


def validate_benchmark_result(obj: Any) -> List[str]:
    """Schema check plus the cross-field invariant a mini-schema can't
    express: every row is as wide as the header."""
    errors = validate(obj, BENCHMARK_RESULT_SCHEMA)
    if not errors:
        width = len(obj["headers"])
        for i, row in enumerate(obj["rows"]):
            if len(row) != width:
                errors.append(
                    f"$.rows[{i}]: has {len(row)} cells, expected {width}"
                )
    return errors


#: One compile slot per ``*_SCHEMA`` constant, filled on its first use.  An
#: ``id`` stays unique here because the module keeps its constants alive.
_compiled: Dict[int, Optional[_Node]] = {
    id(v): None for k, v in list(globals().items()) if k.endswith("_SCHEMA")
}
