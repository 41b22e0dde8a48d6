"""The analyzer facade: slack + DRC + report with caching and observability.

:class:`STAAnalyzer` owns the expensive vectors for one design and
memoizes them against a *fingerprint* of everything the math depends on:
the COMM graph's mutation counter, the buffered tree's rebuild counter
(see :attr:`repro.clocktree.buffered.BufferedClockTree.version` — this is
what makes a ``resample()`` visible through the cache), the period, and
the padding map.  Any change to those invalidates every derived quantity
at the next query; nothing else can change them, so hits are safe.

Instrumentation follows the repo convention — opt-in ``tracer=`` /
``metrics=`` kwargs, zero overhead when absent:

* trace events, category ``sta``: one ``analyze`` event per fresh
  computation with the verdict and flag counts;
* metrics: ``sta.runs`` / ``sta.cache_hits`` counters and an
  ``sta.duration_s`` histogram.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sta.design import Design
from repro.sta.drc import RuleResult, run_drc
from repro.sta.report import STAReport, build_report, empirical_block
from repro.sta.slack import SlackAnalysis, analyze_slack
# Unused here: a perfbench wrap site until ROADMAP item 5, PR A.
from repro.sta.slack import minimum_feasible_period  # noqa: F401

if TYPE_CHECKING:  # imported in STAAnalyzer.flow: plain ``repro sta`` never loads it
    from repro.sta.flow import CapacitySpec, FlowAnalysis, ServiceSpec

_Fingerprint = Tuple[Any, ...]


def __getattr__(name: str) -> Any:
    """``analyze_flow``, which perfbench's traced run wraps here; the
    analyzer itself calls it through :mod:`repro.sta.flow`."""
    if name == "analyze_flow":
        from repro.sta.flow import analyze_flow

        return analyze_flow
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class STAAnalyzer:
    """Static timing analysis of one design, cached against its state."""

    def __init__(
        self,
        design: Design,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self.design = design
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._fingerprint: Optional[_Fingerprint] = None
        self._slack: Optional[SlackAnalysis] = None
        self._drc: Optional[List[RuleResult]] = None
        self._empirical: Optional[Dict[str, Any]] = None
        self._flow: Dict[Tuple[Any, ...], FlowAnalysis] = {}

    def _current_fingerprint(self) -> _Fingerprint:
        """Snapshot everything the slack math reads.

        Mutable inputs are captured by *value* (padding and wire-override
        maps, delta, period) or by mutation counter (COMM graph, geometric
        tree, buffered realization), so in-place edits — an ECO session
        repadding an edge, a script poking ``design.delta``, a
        ``set_edge_length`` retune — can never be served a stale report.
        The maps are item tuples in insertion order: equal tuples mean
        equal maps, and a map rebuilt in another order costs one extra
        recompute, never a stale answer.
        """
        d = self.design
        buffered_version = d.buffered.version if d.buffered is not None else -1
        return (
            d.array.comm.version,
            d.tree.version,
            buffered_version,
            d.period,
            d.delta,
            tuple(d.edge_padding.items()),
            tuple(d.wire_overrides.items()),
        )

    def _fresh(self) -> bool:
        """Drop every memo if the design moved; report whether caches hold."""
        fp = self._current_fingerprint()
        if fp != self._fingerprint:
            self._fingerprint = fp
            self._slack = None
            self._drc = None
            self._empirical = None
            self._flow = {}
            return False
        return True

    def slack(self) -> SlackAnalysis:
        hit = self._fresh() and self._slack is not None
        if self._slack is None:
            t0 = time.perf_counter()
            with self._tracer.span("sta.slack", design=self.design.name) as h:
                self._slack = analyze_slack(self.design)
                h.annotate(edges=len(self._slack.edges))
            self._observe(time.perf_counter() - t0, self._slack)
        if hit:
            self._metrics.counter("sta.cache_hits").inc()
            if self._tracer.enabled:
                self._tracer.event(
                    0.0, "sta", "cache_hit", design=self.design.name
                )
        return self._slack

    def drc(self) -> List[RuleResult]:
        self._fresh()
        if self._drc is None:
            self._drc = run_drc(self.design, self.slack())
        return self._drc

    def minimum_feasible_period(self, mode: str = "exact") -> float:
        """:meth:`~repro.sta.slack.SlackAnalysis.minimum_feasible_period` of
        the cached slack vectors (a read that counts no slack cache hit)."""
        self._fresh()
        analysis = self._slack if self._slack is not None else self.slack()
        return analysis.minimum_feasible_period(mode)

    def empirical(self) -> Optional[Dict[str, Any]]:
        """Cross-check of the buffered realization against the abstract
        model (:func:`~repro.sta.report.empirical_block`, plus the
        realization's ``tree_version``).  ``within_model`` false means the
        concrete tree drifted outside the model the rest of the analysis
        assumed (bound-mode conclusions don't transfer to it)."""
        self._fresh()
        buffered = self.design.buffered
        if self._empirical is None and buffered is not None:
            analysis = self.slack()
            block = empirical_block(buffered, analysis.edges, analysis)
            self._empirical = {**block, "tree_version": buffered.version}
        return self._empirical

    def flow(
        self,
        service: ServiceSpec = 1.0,
        wire_delay: float = 0.0,
        capacity: CapacitySpec = None,
    ) -> FlowAnalysis:
        """Self-timed flow analysis of this design's COMM graph, memoized.

        The cache key is the resolved per-cell service vector (by value
        — two specs resolving to the same vector share an entry), the
        wire delay, and the normalized capacity items, all under the
        design fingerprint: a COMM mutation drops every entry, while
        clock-side edits merely rotate the fingerprint (over-
        invalidation, never staleness).
        """
        from repro.sim.dataflow import channel_depths, service_rows
        from repro.sta.flow import analyze_flow

        self._fresh()
        comm = self.design.array.comm
        cells = comm.nodes()
        services = service_rows(cells, service)(0)
        key: Tuple[Any, ...] = (
            services.tobytes(),
            float(wire_delay),
            channel_depths(comm, capacity).tobytes(),
        )
        hit = key in self._flow
        if not hit:
            t0 = time.perf_counter()
            analysis = analyze_flow(comm, service, wire_delay, capacity)
            self._flow[key] = analysis
            duration = time.perf_counter() - t0
            self._metrics.counter("sta.flow_runs").inc()
            self._metrics.histogram("sta.flow_duration_s").observe(duration)
            if self._tracer.enabled:
                self._tracer.event(
                    0.0,
                    "sta",
                    "flow",
                    design=self.design.name,
                    cells=len(cells),
                    dead=analysis.dead,
                    cycle_time=analysis.cycle_time,
                    duration_s=duration,
                )
        else:
            self._metrics.counter("sta.flow_cache_hits").inc()
            if self._tracer.enabled:
                self._tracer.event(
                    0.0, "sta", "flow_cache_hit", design=self.design.name
                )
        return self._flow[key]

    def report(self) -> STAReport:
        """The full report (slack + DRC + feasibility + empirical)."""
        return build_report(
            self.design,
            self.slack(),
            self.drc(),
            self.minimum_feasible_period("exact"),
            self.minimum_feasible_period("bound"),
            self.empirical(),
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
