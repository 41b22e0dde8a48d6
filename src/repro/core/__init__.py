"""Core theory: skew models, clock period, theorems, and the lower bound.

This package is the paper's contribution proper, built on the substrates:

* :mod:`repro.core.models` — the difference (A9), summation (A10/A11) and
  physical (Section III, ``m*d + eps*s``) skew models;
* :mod:`repro.core.parameters` — the clock period ``sigma + delta + tau``
  (A5) with equipotential (A6) and pipelined (A7) distribution time;
* :mod:`repro.core.schemes` — a registry of clocking schemes;
* :mod:`repro.core.theorems` — executable forms of Theorems 2, 3 and 6 and
  the Fig. 3(a) counterexample;
* :mod:`repro.core.lower_bound` — the Section V-B proof run as a checkable
  certificate on concrete instances;
* :mod:`repro.core.hybrid` — the Section VI hybrid synchronization scheme.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "models": (
        "DifferenceModel", "PhysicalModel", "SkewModel", "SummationModel", "max_skew_bound",
    ),
    "parameters": (
        "ClockParameters", "clock_period", "equipotential_tau", "pipelined_tau",
        "scheme_parameters",
    ),
    "schemes": ("ClockingScheme", "available_schemes", "build_scheme", "register_scheme"),
    "theorems": (
        "SweepRecord", "fig3a_counterexample_sweep", "theorem2_sweep", "theorem3_sweep",
        "theorem6_bound", "theorem6_sweep",
    ),
    "lower_bound": ("LowerBoundCertificate", "lower_bound_value", "prove_skew_lower_bound"),
    "hybrid": ("HybridScheme", "build_hybrid", "partition_into_elements"),
    "padding": ("ClockingPlan", "compute_hold_padding", "plan_safe_clocking"),
    "disciplines": (
        "DisciplineReport", "PulseModeDiscipline", "SinglePhaseDiscipline", "TwoPhaseDiscipline",
    ),
    "assumptions": ("AssumptionCheck", "audit", "failures"),
    "advisor": ("Recommendation", "classify_structure", "recommend"),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
