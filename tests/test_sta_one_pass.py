"""The static half of a signoff touches each edge a bounded number of times.

``build_report`` renders its rows columnwise from the analysis masks,
``design_for_workload`` derives its race padding and period from one pass
over the unpadded design, and ``STAAnalyzer.minimum_feasible_period``
reads its cached slack vectors.  Each must equal, bit for bit, the public
composition it replaced.
"""

from __future__ import annotations

from typing import Any, Dict, List

import pytest

from repro.sta.analyzer import STAAnalyzer
from repro.sta.design import WORKLOADS, design_for_workload, random_design
from repro.sta.drc import STATUS_FAIL, STATUS_WARN, drc_counts
from repro.sta.report import build_report
from repro.sta.slack import (
    FLAG_RACE,
    FLAG_RACE_FLOOR,
    FLAG_RACE_POSSIBLE,
    FLAG_STALE,
    FLAG_STALE_POSSIBLE,
    FLAGS,
    SIM_TOL,
    minimum_feasible_period,
    pad_for_races,
)

_COUNT_KEYS = {
    FLAG_STALE: "stale",
    FLAG_RACE: "race",
    FLAG_STALE_POSSIBLE: "stale_possible",
    FLAG_RACE_POSSIBLE: "race_possible",
    FLAG_RACE_FLOOR: "race_floor",
}


def _scalar_flags(row) -> List[str]:
    """The five-flag policy, one row at a time from its slack fields."""
    flags = []
    if row.setup_slack < -SIM_TOL:
        flags.append(FLAG_STALE)
    elif row.setup_slack_bound < -SIM_TOL:
        flags.append(FLAG_STALE_POSSIBLE)
    if row.hold_slack <= SIM_TOL:
        flags.append(FLAG_RACE)
    elif row.hold_slack_bound <= SIM_TOL:
        flags.append(FLAG_RACE_POSSIBLE)
    if row.sigma_lb >= row.lag - SIM_TOL:
        flags.append(FLAG_RACE_FLOOR)
    return flags


def _rendered(design, analysis, drc_results, exact, bound) -> Dict[str, Any]:
    """A report rendered row by row from ``SlackAnalysis.rows()``."""
    rows = analysis.rows()
    counts = {"edges": len(rows)}
    for flag in (FLAG_STALE, FLAG_RACE, FLAG_STALE_POSSIBLE,
                 FLAG_RACE_POSSIBLE, FLAG_RACE_FLOOR):
        counts[_COUNT_KEYS[flag]] = sum(1 for r in rows if flag in r.flags)
    counts["drc_fail"] = drc_counts(drc_results)[STATUS_FAIL]
    counts["drc_warn"] = drc_counts(drc_results)[STATUS_WARN]
    clean = counts["stale"] == 0 and counts["race"] == 0 and counts["drc_fail"] == 0
    return {
        "design": design.name,
        "period": design.period,
        "verdict": "clean" if clean else "violations",
        "robust": clean and analysis.robust_clean and counts["drc_warn"] == 0,
        "counts": counts,
        "slack": {
            "worst_setup_slack": analysis.worst_setup_slack,
            "worst_hold_slack": analysis.worst_hold_slack,
            "min_feasible_period_exact": exact,
            "min_feasible_period_bound": bound,
        },
        "edges": [
            {
                "edge": [str(r.edge[0]), str(r.edge[1])],
                "lag": r.lag,
                "sigma_ub": r.sigma_ub,
                "sigma_lb": r.sigma_lb,
                "offset_lead": r.offset_lead,
                "setup_slack": r.setup_slack,
                "hold_slack": r.hold_slack,
                "setup_slack_bound": r.setup_slack_bound,
                "hold_slack_bound": r.hold_slack_bound,
                "flags": list(r.flags),
            }
            for r in rows
        ],
        "drc": [
            {"rule": r.rule, "title": r.title, "status": r.status, "detail": r.detail}
            for r in drc_results
        ],
    }


def test_build_report_equals_a_rendering_of_rows_and_sees_every_flag():
    seen = set()
    for seed in range(20):
        for clean in (True, False):
            design = random_design(seed, clean=clean)
            analyzer = STAAnalyzer(design)
            analysis, drc = analyzer.slack(), analyzer.drc()
            exact = analyzer.minimum_feasible_period("exact")
            bound = analyzer.minimum_feasible_period("bound")
            got = build_report(design, analysis, drc, exact, bound).to_dict()
            del got["meta"], got["empirical"]
            want = _rendered(design, analysis, drc, exact, bound)
            assert got == want, (seed, clean)
            assert list(got["counts"]) == list(want["counts"])
            for row in analysis.rows():
                assert list(row.flags) == _scalar_flags(row)
                seen.update(row.flags)
    assert seen == set(FLAGS)


def _composed(workload, size, scheme, seed, pad_races=True, period=None):
    """``design_for_workload`` spelled as the public calls it replaced."""
    base = design_for_workload(
        workload, size=size, scheme=scheme, seed=seed, pad_races=False, period=1.0
    )
    if pad_races:
        base.edge_padding = pad_for_races(base)
    if period is None:
        period = (1.0 + 0.05) * max(
            minimum_feasible_period(base, mode="bound"),
            minimum_feasible_period(base, mode="exact"),
            1e-9,
        )
    return base.edge_padding, period


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("scheme,seed", [("serpentine", 0), ("kdtree", 3), ("star", 7)])
@pytest.mark.parametrize("pad_races,period", [(True, None), (False, None), (True, 2.5)])
def test_design_for_workload_equals_the_public_composition(
    workload, scheme, seed, pad_races, period
):
    design = design_for_workload(
        workload, size=5, scheme=scheme, seed=seed, pad_races=pad_races, period=period
    )
    padding, want_period = _composed(workload, 5, scheme, seed, pad_races, period)
    assert list(design.edge_padding.items()) == list(padding.items())
    assert design.period == want_period


@pytest.mark.parametrize("seed", range(6))
def test_analyzer_period_equals_the_module_function(seed):
    design = random_design(seed)
    for first in ("exact", "bound"):
        analyzer = STAAnalyzer(design)  # period asked before any slack()
        for mode in (first, "bound" if first == "exact" else "exact"):
            assert analyzer.minimum_feasible_period(mode) == minimum_feasible_period(
                design, mode
            )
    with pytest.raises(ValueError, match="unknown slack mode"):
        STAAnalyzer(design).minimum_feasible_period("typical")


def test_reordered_padding_map_recomputes_and_never_goes_stale():
    design = design_for_workload("matvec", size=4, seed=2)
    analyzer = STAAnalyzer(design)
    before = analyzer.slack()
    assert len(design.edge_padding) > 1
    design.edge_padding = dict(reversed(list(design.edge_padding.items())))
    after = analyzer.slack()
    assert after.lag.tobytes() == before.lag.tobytes()  # same numbers
    edge = next(iter(design.edge_padding))
    design.edge_padding[edge] += 0.25
    assert analyzer.slack().lag.tobytes() != after.lag.tobytes()
