"""Event-driven simulation of synchronization schemes.

Where :mod:`repro.core` reasons with bounds, this package *runs* systems:

* :mod:`repro.sim.engine` — a small discrete-event core (a heap-ordered
  scheduler with FIFO ties);
* :mod:`repro.sim.clock_distribution` — concrete clock tick arrival times at
  every cell, from a buffered tree and a period (pipelined clocking);
* :mod:`repro.sim.clocked` — executes systolic programs at those arrival
  times with real data wire delays, detecting setup (stale) and hold
  (race-through) violations and comparing results against the ideal
  lockstep semantics;
* :mod:`repro.sim.selftimed` — self-timed (handshake) arrays with random
  per-cell compute times (the Section I worst-case-path analysis);
* :mod:`repro.sim.hybrid_sim` — the Section VI element/handshake network;
* :mod:`repro.sim.inverter` — the Section VII 2048-inverter-string chip
  experiment (equipotential vs pipelined clocking).
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "engine": ("Simulator",),
    "clock_distribution": ("ClockSchedule",),
    "clocked": ("ClockedArraySimulator", "ClockedRunResult", "TimingViolation"),
    "compiled": ("CompiledClockedKernel", "CompiledRecurrence"),
    "selftimed": (
        "SelfTimedResult", "simulate_selftimed_line", "simulate_selftimed_wavefront",
        "worst_case_path_probability",
    ),
    "handshake": ("HandshakeResult", "run_handshake_pipeline", "run_handshake_wavefront"),
    "hybrid_exec": ("HybridExecution", "execute_program_hybrid"),
    "two_phase": ("min_two_phase_period", "phase_separation", "two_phase_simulator"),
    "hybrid_sim": ("HybridRunResult", "simulate_hybrid"),
    "inverter": (
        "InverterString", "InverterStringResult", "fixed_yield_cycle_time",
        "paper_calibrated_model",
    ),
    "faults": ("JitteredSchedule", "ViolationSummary", "slow_subtree", "summarize_violations"),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
