"""The analyzer facade: slack + DRC + report with observability.

:class:`STAAnalyzer` answers every query from the design as it is at
the call: nothing is kept between queries, so reassigning the period,
the schedule, the skew model, the discipline or the padding, resampling
the buffered tree or editing the COMM graph can never be served a stale
answer.  :meth:`STAAnalyzer.report` computes the slack vectors once and
hands them to DRC, both feasible-period modes and the empirical block.

Instrumentation follows the repo convention — opt-in ``tracer=`` /
``metrics=`` kwargs, zero overhead when absent:

* trace events, category ``sta``: one ``analyze`` event per slack
  computation with the verdict and flag counts;
* metrics: an ``sta.runs`` counter and an ``sta.duration_s`` histogram.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sta.design import Design
from repro.sta.drc import RuleResult, run_drc
from repro.sta.report import STAReport, build_report, empirical_block
from repro.sta.slack import SlackAnalysis, analyze_slack
# Unused here: a perfbench wrap site until ROADMAP item 5, PR A.
from repro.sta.slack import minimum_feasible_period  # noqa: F401


def __getattr__(name: str) -> Any:
    """``analyze_flow``, which perfbench's traced run wraps here; the
    analyzer itself never calls it, and plain ``repro sta`` never loads
    :mod:`repro.sta.flow`."""
    if name == "analyze_flow":
        from repro.sta.flow import analyze_flow

        return analyze_flow
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class STAAnalyzer:
    """Static timing analysis of one design, read as it is at each query."""

    def __init__(
        self,
        design: Design,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.design = design
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS

    def slack(self) -> SlackAnalysis:
        t0 = time.perf_counter()
        with self._tracer.span("sta.slack", design=self.design.name) as h:
            analysis = analyze_slack(self.design)
            h.annotate(edges=len(analysis.edges))
        self._observe(time.perf_counter() - t0, analysis)
        return analysis

    def drc(self) -> List[RuleResult]:
        return run_drc(self.design, self.slack())

    def minimum_feasible_period(self, mode: str = "exact") -> float:
        """:meth:`~repro.sta.slack.SlackAnalysis.minimum_feasible_period`
        of the design's slack vectors."""
        return self.slack().minimum_feasible_period(mode)

    def empirical(self) -> Optional[Dict[str, Any]]:
        """Cross-check of the buffered realization against the abstract
        model (:func:`~repro.sta.report.empirical_block`, plus the
        realization's ``tree_version``).  ``within_model`` false means the
        concrete tree drifted outside the model the rest of the analysis
        assumed (bound-mode conclusions don't transfer to it)."""
        if self.design.buffered is None:
            return None
        return self._empirical(self.slack())

    def _empirical(self, analysis: SlackAnalysis) -> Optional[Dict[str, Any]]:
        buffered = self.design.buffered
        if buffered is None:
            return None
        block = empirical_block(buffered, analysis.edges, analysis)
        return {**block, "tree_version": buffered.version}

    def report(self) -> STAReport:
        """The full report (slack + DRC + feasibility + empirical), all
        read off one computation of the slack vectors."""
        analysis = self.slack()
        return build_report(
            self.design,
            analysis,
            run_drc(self.design, analysis),
            analysis.minimum_feasible_period("exact"),
            analysis.minimum_feasible_period("bound"),
            self._empirical(analysis),
        )

    def _observe(self, duration: float, analysis: SlackAnalysis) -> None:
        self._metrics.counter("sta.runs").inc()
        self._metrics.histogram("sta.duration_s").observe(duration)
        if self._tracer.enabled:
            self._tracer.event(
                0.0,
                "sta",
                "analyze",
                design=self.design.name,
                edges=len(analysis.edges),
                stale=int(analysis.stale_mask.sum()),
                race=int(analysis.race_mask.sum()),
                timing_clean=analysis.timing_clean,
                duration_s=duration,
            )


def analyze(
    design: Design,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> STAReport:
    """One-shot convenience: analyze a design and return its report."""
    return STAAnalyzer(design, tracer=tracer, metrics=metrics).report()
