"""repro.sta — static timing analysis, race detection, and design rules.

The paper's argument is static: period and race safety follow from skew
*bounds*, never from running the array.  This package makes that argument
executable as a linter:

* :mod:`repro.sta.design` — the :class:`Design` bundle (program + clock
  tree + skew model + schedule + discipline) and ready-made/randomized
  design generators;
* :mod:`repro.sta.slack` — vectorized per-edge setup/hold slack in exact
  (schedule) and bound (model) modes, the minimum feasible period
  (monotone bisection), and worst-case hold padding;
* :mod:`repro.sta.drc` — assumptions A1-A11 as pass/fail/warn/skip rules;
* :mod:`repro.sta.analyzer` — the cached, instrumented facade;
* :mod:`repro.sta.eco` — the incremental what-if engine: typed edits
  (repad, reroute, buffer resize, graft, re-clock, channel capacity) with
  per-edit dirty-set derivation, bit-identical to a full re-analysis at
  every step;
* :mod:`repro.sta.flow` — simulation-free *self-timed* analysis: maximum
  cycle mean (Karp oracle + vectorized Howard kernel) with critical-cycle
  blame, static deadlock detection, minimal buffer sizing, and transient
  makespan bounds, all held to bit-exact agreement with the event-driven
  simulator;
* :mod:`repro.sta.flowreport` — the schema-pinned flow report
  (``python -m repro flow``);
* :mod:`repro.sta.tiles` — tiled composition by abutment: pre-characterize
  one tile, stitch an R x C array's analysis from cached summaries plus
  boundary edges, exactly equal to the flat pass;
* :mod:`repro.sta.report` — the schema-pinned JSON report and its CLI
  rendering (``python -m repro sta``).

Soundness contract (enforced by the ``sta-soundness`` oracle in
:mod:`repro.check`): a ``clean`` verdict implies the clocked simulator
runs violation-free, and every simulator-observed violation edge has
non-positive static slack.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "analyzer": ("STAAnalyzer", "analyze"),
    "design": ("Design", "WORKLOADS", "design_for_workload", "random_design"),
    "drc": ("RuleResult", "drc_counts", "drc_failures", "run_drc"),
    "eco": ("ECOSession", "EcoEdit"),
    "flow": (
        "FlowAnalysis", "FlowCycle", "FlowEdge", "FlowGraph", "SizingResult", "SteadyState",
        "analyze_flow", "detect_deadlock", "flow_graph", "mcm_howard", "mcm_karp",
        "minimal_buffer_sizing", "simulate_steady_state", "simulate_steady_state_scalar",
    ),
    "flowreport": ("build_flow_report", "render_flow_report"),
    "report": ("STAReport", "build_report", "render_report"),
    "slack": (
        "EdgeSlack", "SlackAnalysis", "analyze_slack", "edge_lags", "minimum_feasible_period",
        "minimum_feasible_period_closed_form", "pad_for_races",
    ),
    "tiles": ("ArraySummary", "TileSpec", "compose_design", "flat_summary", "stitched_analysis"),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
