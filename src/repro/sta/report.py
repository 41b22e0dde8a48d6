"""The STA report: one JSON-serializable verdict per design.

The shape is pinned by :data:`repro.obs.schema.STA_REPORT_SCHEMA` and
validated on every CLI emission; the verdict drives the exit code
(``clean`` -> 0, ``violations`` -> 1, analysis errors -> 2 — same contract
as ``python -m repro check``).

A design is ``clean`` when its exact-mode slack vector has no stale or
race edge *and* no design rule fails; bound-mode (worst-case-skew)
problems and DRC warnings leave the verdict clean but are counted and
listed so the caller can gate on robustness separately (``robust`` is the
stricter bit).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro import __version__
from repro.clocktree.buffered import BufferedClockTree
from repro.sta.design import Design, EdgeKey
from repro.sta.drc import RuleResult, STATUS_FAIL, STATUS_WARN, drc_counts
from repro.sta.slack import SlackAnalysis, row_flags
from repro.tables import render_table

VERDICT_CLEAN = "clean"
VERDICT_VIOLATIONS = "violations"


@dataclass
class STAReport:
    """Everything the static pass concluded about one design."""

    design: str
    period: float
    verdict: str
    robust: bool
    counts: Dict[str, int]
    slack_summary: Dict[str, float]
    edges: List[Dict[str, Any]]
    drc: List[Dict[str, str]]
    empirical: Optional[Dict[str, Any]] = None
    meta: Dict[str, Any] = field(default_factory=dict)
    #: Audit record of the ECO edit this report reflects (one report per
    #: edit-script step); absent for plain full-analysis reports.
    eco: Optional[Dict[str, Any]] = None

    @property
    def passed(self) -> bool:
        return self.verdict == VERDICT_CLEAN

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "design": self.design,
            "period": self.period,
            "verdict": self.verdict,
            "robust": self.robust,
            "counts": dict(self.counts),
            "slack": dict(self.slack_summary),
            "edges": [dict(e) for e in self.edges],
            "drc": [dict(r) for r in self.drc],
            "empirical": dict(self.empirical) if self.empirical is not None else None,
            "meta": dict(self.meta),
        }
        if self.eco is not None:
            out["eco"] = dict(self.eco)
        return out


def build_report(
    design: Design,
    analysis: SlackAnalysis,
    drc_results: List[RuleResult],
    min_feasible_exact: float,
    min_feasible_bound: float,
    empirical: Optional[Dict[str, Any]] = None,
) -> STAReport:
    """Assemble the report from the analysis pieces (pure; no I/O).

    Counts come from :meth:`SlackAnalysis.counts`, and the edge rows from
    its columns as lists, zipped once."""
    drc = drc_counts(drc_results)
    counts = {**analysis.counts(), "drc_fail": drc[STATUS_FAIL], "drc_warn": drc[STATUS_WARN]}
    verdict = (
        VERDICT_CLEAN
        if analysis.timing_clean and counts["drc_fail"] == 0
        else VERDICT_VIOLATIONS
    )
    robust = (
        verdict == VERDICT_CLEAN
        and analysis.robust_clean
        and counts["drc_warn"] == 0
    )
    return STAReport(
        design=design.name,
        period=design.period,
        verdict=verdict,
        robust=robust,
        counts=counts,
        slack_summary={
            "worst_setup_slack": analysis.worst_setup_slack,
            "worst_hold_slack": analysis.worst_hold_slack,
            "min_feasible_period_exact": min_feasible_exact,
            "min_feasible_period_bound": min_feasible_bound,
        },
        edges=[
            {
                "edge": [str(u), str(v)],
                "lag": lag,
                "sigma_ub": sigma_ub,
                "sigma_lb": sigma_lb,
                "offset_lead": lead,
                "setup_slack": setup,
                "hold_slack": hold,
                "setup_slack_bound": setup_bound,
                "hold_slack_bound": hold_bound,
                "flags": list(flags),
            }
            for (u, v), flags, lag, sigma_ub, sigma_lb, lead, setup, hold,
            setup_bound, hold_bound in zip(
                analysis.edges, row_flags(analysis.flag_masks()),
                *analysis.columns()
            )
        ],
        drc=[
            {
                "rule": r.rule,
                "title": r.title,
                "status": r.status,
                "detail": r.detail,
            }
            for r in drc_results
        ],
        empirical=empirical,
        meta={"emitted_at": time.time(), "repro_version": __version__},
    )


def empirical_block(
    buffered: BufferedClockTree, edges: Sequence[EdgeKey], analysis: SlackAnalysis
) -> Dict[str, Any]:
    """The report's ``empirical`` block: the buffered realization's largest
    measured arrival-time skew over ``edges`` against the model's largest
    upper bound.  Pass the caller's own edge list: the tree memoizes pair
    ids per list object."""
    max_skew = buffered.max_skew(edges)
    sigma_ub_max = float(analysis.sigma_ub.max()) if len(analysis.edges) else 0.0
    return {
        "max_skew": max_skew,
        "model_sigma_ub_max": sigma_ub_max,
        "within_model": bool(max_skew <= sigma_ub_max + 1e-12),
    }


def render_report(report: STAReport, verbose: bool = False) -> str:
    """Plain-text rendering for the CLI: summary, DRC table, and (with
    ``verbose`` or on a dirty design) the offending slack rows."""
    parts: List[str] = []
    s = report.slack_summary
    parts.append(
        render_table(
            ["design", "period", "verdict", "robust", "edges",
             "worst setup", "worst hold", "min T (exact)", "min T (bound)"],
            [[
                report.design,
                report.period,
                report.verdict,
                "yes" if report.robust else "no",
                report.counts["edges"],
                s["worst_setup_slack"],
                s["worst_hold_slack"],
                s["min_feasible_period_exact"],
                s["min_feasible_period_bound"],
            ]],
            title="static timing",
        )
    )
    parts.append(
        render_table(
            ["rule", "status", "title", "detail"],
            [[r["rule"], r["status"], r["title"], r["detail"]] for r in report.drc],
            title="design rules (A1-A11)",
        )
    )
    flagged = [e for e in report.edges if e["flags"]]
    if flagged and (verbose or report.verdict != VERDICT_CLEAN):
        parts.append(
            render_table(
                ["edge", "lag", "setup", "hold", "setup(b)", "hold(b)", "flags"],
                [[
                    f"{e['edge'][0]}->{e['edge'][1]}",
                    e["lag"],
                    e["setup_slack"],
                    e["hold_slack"],
                    e["setup_slack_bound"],
                    e["hold_slack_bound"],
                    ",".join(e["flags"]),
                ] for e in flagged],
                title=f"flagged edges ({len(flagged)})",
            )
        )
    if report.empirical is not None:
        emp = report.empirical
        parts.append(
            render_table(
                ["empirical max skew", "model sigma_ub max", "within model"],
                [[
                    emp["max_skew"],
                    emp["model_sigma_ub_max"],
                    "yes" if emp["within_model"] else "no",
                ]],
                title="buffered realization vs model",
            )
        )
    return "\n\n".join(parts)
