"""Layer spans for the traced run, recorded from the benchmark's own files.

The traced run swaps each layer's public functions, at the module attribute
where the *caller* looks the name up, for a wrapper that opens a span around
the original.  A callee reached from inside another layer (``pad_for_races``
from ``design_for_workload``, ``mcm_howard`` from ``analyze_flow``) is thus
a child span, and a layer's self time is its spans' durations minus the
part their children cover.  Each op is one root span whose self time is the
``other`` row: the benchmark's glue plus library code no layer claims.  By
construction the layer self times and ``other`` add up to the op wall time.

Spans stay in memory and are written out once, when the run ends.  The
program under test is never edited: :meth:`Instrumentation.uninstall` puts
every original back, so untraced rounds run the untouched code.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

#: Every layer, with the end-to-end metric it should move and the
#: workloads where it should not move.  ``other`` is the op span's self time.
LAYERS: List[Tuple[str, str, str]] = [
    ("import", "cli latency_p50_ms; setup_s everywhere",
     "ops_per_s of signoff/eco/simulate"),
    ("cli", "cli latency_p50_ms", "signoff, eco, simulate"),
    ("clocktree", "signoff latency_p50_ms", "eco (setup only), simulate"),
    ("sta.design", "signoff ops_per_s", "simulate"),
    ("sta.slack", "signoff latency_p50_ms", "simulate"),
    ("sta.drc", "signoff latency_p50_ms, cli", "eco, simulate"),
    ("sta.report", "signoff latency_p50_ms, cli", "eco, simulate"),
    ("obs.schema", "signoff latency_p50_ms, cli", "eco, simulate"),
    ("sta.flow", "signoff and eco latency_p90_ms, simulate ops_per_s", "-"),
    ("sta.flowreport", "signoff latency_p90_ms", "eco, simulate"),
    ("sta.eco", "eco latency_p50_ms", "signoff, simulate"),
    ("sim.compiled", "simulate cell_waves_per_s", "eco"),
    ("sim.dataflow", "simulate latency_p90_ms", "signoff, eco"),
    ("sim.hybrid", "simulate ops_per_s", "signoff, eco"),
    ("sim.selftimed", "simulate ops_per_s", "signoff, eco"),
    ("other", "-", "-"),
]

#: Counts recorded at the layer boundaries (``sim.cell_waves`` and the
#: eco ratios are derived in :meth:`SpanRecorder.layer_metrics`).
COUNTS = (
    "sta.slack.rows",
    "sta.flow.howard_iterations",
    "sta.flow.graph_edges",
    "sta.eco.dirty_rows",
)

_ECO_EDITS = ("repad_edge", "retarget_wire", "resize_buffer",
              "graft_subtree", "set_period", "set_channel_capacity")
_ECO_QUERIES = ("worst_setup_slack", "worst_hold_slack",
                "minimum_feasible_period", "counts", "timing_clean",
                "robust_clean", "flow", "analysis", "summary", "report")


def _sites() -> List[Tuple[str, str, str]]:
    """(module, attribute path, layer) for every wrapped lookup site."""
    sites = [
        ("repro.sta.design", "build_scheme", "clocktree"),
        ("repro.sta.design", "BufferedClockTree", "clocktree"),
        ("repro.clocktree.buffered", "BufferedClockTree.max_skew", "clocktree"),
        ("repro.sta", "design_for_workload", "sta.design"),
        ("repro.sta.design", "design_for_workload", "sta.design"),
        ("repro.sta.drc", "run_drc", "sta.drc"),
        ("repro.sta.analyzer", "run_drc", "sta.drc"),
        ("repro.sta.eco", "run_drc", "sta.drc"),
        ("repro.sta.analyzer", "build_report", "sta.report"),
        ("repro.sta.eco", "build_report", "sta.report"),
        ("repro.sta.report", "STAReport.to_dict", "sta.report"),
        ("repro.obs.schema", "validate_sta_report", "obs.schema"),
        ("repro.obs.schema", "validate_flow_report", "obs.schema"),
        ("repro.sta.flowreport", "validate_flow_report", "obs.schema"),
        ("repro.sta.flowreport", "build_flow_report", "sta.flowreport"),
        ("repro.sim.clocked", "ClockedArraySimulator.run", "sim.compiled"),
        ("repro.sim.dataflow", "SelfTimedProgramSimulator.recurrence_makespan",
         "sim.compiled"),
        ("repro.sim.compiled", "CompiledRecurrence.makespan", "sim.compiled"),
        ("repro.sim.dataflow", "SelfTimedProgramSimulator.run", "sim.dataflow"),
        ("repro.core.hybrid", "build_hybrid", "sim.hybrid"),
        ("repro.sim.hybrid_sim", "simulate_hybrid", "sim.hybrid"),
        ("repro.sim.selftimed", "simulate_selftimed_line", "sim.selftimed"),
        ("repro.sim.selftimed", "simulate_selftimed_wavefront", "sim.selftimed"),
    ]
    for module in ("repro.sta", "repro.sta.slack", "repro.sta.analyzer"):
        sites.append((module, "analyze_slack", "sta.slack"))
        sites.append((module, "minimum_feasible_period", "sta.slack"))
    sites.append(("repro.sta.slack", "pad_for_races", "sta.slack"))
    for name in ("analyze_flow", "flow_graph", "detect_deadlock", "mcm_howard",
                 "mcm_karp", "simulate_steady_state"):
        sites.append(("repro.sta.flow", name, "sta.flow"))
    for name in ("analyze_flow", "mcm_karp", "simulate_steady_state"):
        sites.append(("repro.sta.flowreport", name, "sta.flow"))
    for name in ("flow_graph", "detect_deadlock", "mcm_howard"):
        sites.append(("repro.sta.eco", name, "sta.flow"))
    sites.append(("repro.sta.analyzer", "analyze_flow", "sta.flow"))
    for name in ("__init__",) + _ECO_EDITS + _ECO_QUERIES:
        sites.append(("repro.sta.eco", f"ECOSession.{name}", "sta.eco"))
    return sites


class Span:
    __slots__ = ("id", "parent", "op", "layer", "name", "start", "end",
                 "child_time", "children")

    def __init__(self, sid: int, parent: int, op: int, layer: str, name: str):
        self.id = sid
        self.parent = parent
        self.op = op
        self.layer = layer
        self.name = name
        self.start = time.perf_counter()
        self.end = 0.0
        self.child_time = 0.0
        self.children: Dict[str, int] = defaultdict(int)


class SpanRecorder:
    """Spans, per-layer self time and calls, and boundary counts."""

    def __init__(self) -> None:
        self.spans: List[Tuple[int, int, int, str, str, float, float]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.op_wall_s = 0.0
        self.ops = 0
        self._stack: List[Span] = []
        self._next_id = 0
        self._op = -1

    @property
    def active(self) -> bool:
        """Record only inside an op: oracle checks between ops call the
        same wrapped functions and must not count."""
        return bool(self._stack)

    def enter(self, layer: str, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(self._next_id, parent, self._op, layer, name)
        self._next_id += 1
        self._stack.append(span)
        return span

    def exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:  # pragma: no cover - wrappers always nest
            raise RuntimeError("span stack corrupted")
        duration = span.end - span.start
        self.self_s[span.layer] += duration - span.child_time
        self.calls[span.layer] += 1
        if self._stack:
            parent = self._stack[-1]
            parent.child_time += duration
            parent.children[span.name] += 1
        self.spans.append((span.id, span.parent, span.op, span.layer,
                           span.name, span.start, span.end))

    def begin_op(self, index: int, kind: str) -> Span:
        self._op = index
        return self.enter("other", kind)

    def end_op(self, span: Span) -> None:
        self.exit(span)  # other.calls therefore counts traced ops
        self.op_wall_s += span.end - span.start
        self.ops += 1

    def absorb(self, child: Dict[str, Any]) -> None:
        """Merge a traced child process's report (see ``cli_child.py``)
        into the innermost open span: the child's import and its ``cli``
        root become children of it, and its spans join this run's."""
        parent = self._stack[-1]
        self.self_s["import"] += child["import_s"]
        self.calls["import"] += 1
        for layer, seconds in child["self_s"].items():
            self.self_s[layer] += seconds
        for layer, calls in child["calls"].items():
            self.calls[layer] += calls
        for name, value in child["counts"].items():
            self.counts[name] += value
        parent.child_time += child["import_s"] + child["main_s"]
        offset = self._next_id
        for sid, sparent, _, layer, name, start, end in child["spans"]:
            self.spans.append((
                sid + offset,
                sparent + offset if sparent >= 0 else parent.id,
                self._op, layer, name, start, end,
            ))
        self._next_id += 1 + max((s[0] for s in child["spans"]), default=0)

    # ------------------------------------------------------------------
    def layer_metrics(self) -> Dict[str, float]:
        """``<layer>.calls``/``<layer>.self_s`` for every layer, plus the
        boundary counts and the derived eco ratios."""
        out: Dict[str, float] = {}
        for layer, _, _ in LAYERS:
            out[f"{layer}.calls"] = float(self.calls.get(layer, 0))
            out[f"{layer}.self_s"] = self.self_s.get(layer, 0.0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0.0)
        rows = self.counts.get("eco.rows", 0.0)
        out["sta.eco.reuse_fraction"] = (
            1.0 - self.counts.get("sta.eco.dirty_rows", 0.0) / rows if rows else 0.0
        )
        entries = self.counts.get("eco.flow_entries", 0.0)
        out["sta.eco.flow_reuse_ratio"] = (
            self.counts.get("eco.flow_reused", 0.0) / entries if entries else 0.0
        )
        return out

    def layer_table(self) -> List[Tuple[str, int, float, float]]:
        """(layer, calls, self seconds, share of op wall) per layer."""
        wall = self.op_wall_s or 1.0
        return [
            (layer, int(self.calls.get(layer, 0)), self.self_s.get(layer, 0.0),
             self.self_s.get(layer, 0.0) / wall)
            for layer, _, _ in LAYERS
        ]

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, op, layer, name, start, end in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "op": op, "layer": layer,
                    "name": name, "start_s": start, "end_s": end,
                }) + "\n")

    def export(self, main_s: float, import_s: float) -> Dict[str, Any]:
        """The report a traced child process hands its parent."""
        return {
            "import_s": import_s,
            "main_s": main_s,
            "self_s": dict(self.self_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": self.spans,
        }


# ----------------------------------------------------------------------
# boundary counts
# ----------------------------------------------------------------------
def _count_rows(rec: SpanRecorder, span: Span, result: Any) -> None:
    rec.counts["sta.slack.rows"] += len(result.edges)


def _count_howard(rec: SpanRecorder, span: Span, result: Any) -> None:
    if result is not None:
        rec.counts["sta.flow.howard_iterations"] += result.iterations


def _count_graph(rec: SpanRecorder, span: Span, result: Any) -> None:
    rec.counts["sta.flow.graph_edges"] += result.n_edges


def _count_edit(rec: SpanRecorder, span: Span, result: Any) -> None:
    rec.counts["sta.eco.dirty_rows"] += result.dirty_rows
    rec.counts["eco.rows"] += result.edges


def _count_capacity(rec: SpanRecorder, span: Span, result: Any) -> None:
    _count_edit(rec, span, result)
    # One lowered flow graph per cached flow entry; the edit records the
    # entries it re-solved, so the rest kept their cached solve.
    entries = span.children.get("flow_graph", 0)
    rec.counts["eco.flow_entries"] += entries
    rec.counts["eco.flow_reused"] += entries - result.semantic_dirty_rows


_COUNTERS: Dict[str, Callable[[SpanRecorder, Span, Any], None]] = {
    "analyze_slack": _count_rows,
    "mcm_howard": _count_howard,
    "flow_graph": _count_graph,
    "ECOSession.set_channel_capacity": _count_capacity,
}
for _edit in _ECO_EDITS[:-1]:
    _COUNTERS[f"ECOSession.{_edit}"] = _count_edit


def _wrap(rec: SpanRecorder, layer: str, name: str, fn: Callable) -> Callable:
    count = _COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        if not rec.active:
            return fn(*args, **kwargs)
        span = rec.enter(layer, name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.exit(span)
        if count is not None:
            count(rec, span, result)
        return result

    return traced


class Instrumentation:
    """Install/uninstall the layer wrappers around one recorder."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[Any, str, Any]] = []

    def install(self) -> None:
        for module_name, path, layer in _sites():
            owner: Any = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if outer else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(self.recorder, layer, path, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def render_layer_table(rows: List[Tuple[str, int, float, float]],
                       wall_s: float, ops: int) -> str:
    moves = {layer: (should, should_not) for layer, should, should_not in LAYERS}
    lines = [f"{'layer':<15} {'calls':>8} {'self_s':>10} {'share':>7}  "
             "should move | should not move"]
    for layer, calls, self_s, share in rows:
        should, should_not = moves[layer]
        lines.append(f"{layer:<15} {calls:>8d} {self_s:>10.4f} {share:>7.1%}  "
                     f"{should} | {should_not}")
    total = sum(r[2] for r in rows)
    lines.append(f"{'sum':<15} {'':>8} {total:>10.4f} {'':>7}  "
                 f"op wall {wall_s:.4f} s over {ops} traced ops")
    return "\n".join(lines)
