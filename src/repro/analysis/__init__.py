"""Analysis utilities: scheme evaluation, growth-law fitting, Monte Carlo.

The paper's results are asymptotic ("constant", "Omega(n)", "sqrt(n)"); the
benchmarks turn measured sweeps into claims via :mod:`repro.analysis.scaling`
(least-squares classification of growth laws), evaluate whole schemes via
:mod:`repro.analysis.skew`, and quantify stochastic experiments via
:mod:`repro.analysis.montecarlo`.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "scaling": ("GrowthFit", "classify_growth", "fit_growth"),
    "skew": ("SchemeEvaluation", "compare_schemes", "evaluate_scheme"),
    "montecarlo": ("CompiledTrialContext", "MonteCarloSummary", "run_trials", "summarize"),
    "crossover": ("Crossover", "find_crossover", "winning_factor"),
    "perf": ("KernelTiming", "run_perf_suite", "speedup_by_kernel", "write_bench_results"),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
