"""The invariant registry: paper-derived oracles as runnable checks.

Every claim the reproduction makes — the Section III skew bracket, the A5
period decomposition, the Theorem 2/3 growth laws, the Section V-B lower
bound, the clocked/self-timed/hybrid functional equivalence — lives here
as a registered :class:`Check`: a named callable that raises
:class:`CheckFailure` when the codebase stops honouring the claim.  The
``check-suite`` CI job runs the quick suite on every PR, so a regression
in any layer (sim/, core/, clocktree/, analysis/) turns into a named,
diagnosable failure instead of a silent drift.

Three check kinds:

* ``invariant`` — a single-configuration oracle (a bound holds, a sweep is
  flat, a certificate verifies);
* ``differential`` — the same workload through independent execution paths
  (lockstep, clocked, self-timed dataflow, hybrid) must agree;
* ``metamorphic`` — a transformed input (rescaled geometry, re-seeded
  jitter, relabelled ids) must leave results invariant.

Checks registered with ``suites=("quick", "full")`` run everywhere;
``("full",)`` marks the expensive configurations only ``--suite full``
exercises.  Results aggregate into a schema-valid JSON report
(:data:`repro.obs.schema.CHECK_REPORT_SCHEMA`).
"""

from __future__ import annotations

import random
import time as _time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer

SUITES = ("quick", "full")


class CheckFailure(AssertionError):
    """A registered oracle found a violated claim.

    ``details`` carries the concrete numbers for the failure report — the
    measured value, the bound it broke, the configuration that broke it.
    """

    def __init__(self, message: str, **details: Any) -> None:
        super().__init__(message)
        self.details: Dict[str, Any] = details


def require(condition: bool, message: str, **details: Any) -> None:
    """Assert a claim inside a check, attaching diagnosis details."""
    if not condition:
        raise CheckFailure(message, **details)


@dataclass
class CheckContext:
    """Everything a check may depend on: the seed, the suite, and the
    observability handles (failure reports reuse ``repro.obs`` tracing)."""

    seed: int = 0
    suite: str = "quick"
    tracer: Tracer = NULL_TRACER
    metrics: MetricsRegistry = NULL_METRICS

    @property
    def full(self) -> bool:
        return self.suite == "full"

    def rng(self, salt: str) -> random.Random:
        """A deterministic per-check RNG: same seed + salt, same stream,
        independent of check execution order."""
        return random.Random(f"{self.seed}|{salt}")


CheckFunc = Callable[[CheckContext], Dict[str, Any]]


@dataclass(frozen=True)
class Check:
    """One registered oracle."""

    name: str
    kind: str          # "invariant" | "differential" | "metamorphic"
    description: str
    func: CheckFunc
    suites: Tuple[str, ...] = SUITES


@dataclass(frozen=True)
class CheckResult:
    """Outcome of running one check."""

    name: str
    kind: str
    passed: bool
    duration_s: float
    details: Dict[str, Any] = field(default_factory=dict)
    error: Optional[str] = None


class CheckRegistry:
    """Ordered name -> :class:`Check` registry with a decorator interface."""

    KINDS = ("invariant", "differential", "metamorphic")

    def __init__(self) -> None:
        self._checks: Dict[str, Check] = {}

    def register(
        self,
        name: str,
        kind: str,
        description: str,
        suites: Tuple[str, ...] = SUITES,
    ) -> Callable[[CheckFunc], CheckFunc]:
        """Decorator: ``@REGISTRY.register("skew-bracket", "invariant", ...)``."""
        if kind not in self.KINDS:
            raise ValueError(f"unknown check kind {kind!r}")
        if not suites or any(s not in SUITES for s in suites):
            raise ValueError(f"suites must be a non-empty subset of {SUITES}")

        def decorate(func: CheckFunc) -> CheckFunc:
            if name in self._checks:
                raise ValueError(f"check {name!r} already registered")
            self._checks[name] = Check(
                name=name,
                kind=kind,
                description=description,
                func=func,
                suites=tuple(suites),
            )
            return func

        return decorate

    def checks(self, suite: Optional[str] = None) -> List[Check]:
        """All checks, or the ones belonging to ``suite``, in registration
        order (invariants first by module import order)."""
        if suite is None:
            return list(self._checks.values())
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r} (one of {SUITES})")
        return [c for c in self._checks.values() if suite in c.suites]

    def get(self, name: str) -> Check:
        return self._checks[name]

    def __len__(self) -> int:
        return len(self._checks)

    def run(
        self,
        suite: str = "quick",
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        names: Optional[List[str]] = None,
    ) -> List[CheckResult]:
        """Run the suite's checks; never raises for a failing oracle —
        failures become :class:`CheckResult` rows (and trace events)."""
        ctx = CheckContext(
            seed=seed,
            suite=suite,
            tracer=tracer if tracer is not None else NULL_TRACER,
            metrics=metrics if metrics is not None else NULL_METRICS,
        )
        selected = self.checks(suite)
        if names is not None:
            wanted = set(names)
            unknown = wanted - {c.name for c in self._checks.values()}
            if unknown:
                raise KeyError(f"unknown checks: {sorted(unknown)}")
            selected = [c for c in selected if c.name in wanted]
        results: List[CheckResult] = []
        with ctx.tracer.span(
            "check.suite", suite=suite, seed=seed, checks=len(selected)
        ) as suite_handle:
            failures = 0
            for i, check in enumerate(selected):
                if ctx.tracer.enabled:
                    ctx.tracer.event(
                        float(i), "check", "start",
                        name=check.name, check_kind=check.kind,
                    )
                t0 = _time.perf_counter()
                details: Dict[str, Any] = {}
                error: Optional[str] = None
                passed = True
                with ctx.tracer.span(
                    f"check.{check.name}", t=float(i), check_kind=check.kind
                ) as check_handle:
                    try:
                        details = check.func(ctx) or {}
                    except CheckFailure as exc:
                        passed = False
                        error = str(exc)
                        details = dict(exc.details)
                    except Exception as exc:  # a broken check is a failed check
                        passed = False
                        error = f"{type(exc).__name__}: {exc}"
                    check_handle.annotate(passed=passed)
                duration = _time.perf_counter() - t0
                if not passed:
                    failures += 1
                if ctx.tracer.enabled:
                    ctx.tracer.event(
                        float(i), "check", "pass" if passed else "fail",
                        name=check.name, check_kind=check.kind,
                        duration_s=duration, error=error,
                    )
                ctx.metrics.counter("check.runs").inc()
                if not passed:
                    ctx.metrics.counter("check.failures").inc()
                ctx.metrics.histogram("check.duration_s").observe(duration)
                results.append(
                    CheckResult(
                        name=check.name,
                        kind=check.kind,
                        passed=passed,
                        duration_s=duration,
                        details=details,
                        error=error,
                    )
                )
            suite_handle.annotate(failures=failures)
        return results


#: The registry the oracle modules populate at import time.
REGISTRY = CheckRegistry()


def default_registry() -> CheckRegistry:
    """Import every oracle module (registering its checks) and return the
    populated registry."""
    from repro.check import differential, eco, flow, invariants  # noqa: F401
    from repro.check import metamorphic, scaling, sta_soundness  # noqa: F401

    return REGISTRY
