"""Event-driven simulation of synchronization schemes.

Where :mod:`repro.core` reasons with bounds, this package *runs* systems:

* :mod:`repro.sim.events` / :mod:`repro.sim.engine` — a small discrete-event
  core (priority queue scheduler);
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

from repro.sim.events import EventQueue
from repro.sim.engine import Simulator
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator, ClockedRunResult, TimingViolation
from repro.sim.compiled import (
    CompiledClockedKernel,
    CompiledRecurrence,
    compile_clocked,
)
from repro.sim.selftimed import (
    SelfTimedResult,
    simulate_selftimed_line,
    simulate_selftimed_wavefront,
    worst_case_path_probability,
)
from repro.sim.handshake import (
    HandshakeResult,
    run_handshake_pipeline,
    run_handshake_wavefront,
)
from repro.sim.hybrid_exec import HybridExecution, execute_program_hybrid
from repro.sim.two_phase import (
    min_two_phase_period,
    phase_separation,
    two_phase_simulator,
)
from repro.sim.hybrid_sim import HybridRunResult, simulate_hybrid
from repro.sim.inverter import (
    InverterString,
    InverterStringResult,
    fixed_yield_cycle_time,
    paper_calibrated_model,
)
from repro.sim.faults import (
    JitteredSchedule,
    ViolationSummary,
    slow_subtree,
    summarize_violations,
)

__all__ = [
    "EventQueue",
    "Simulator",
    "ClockSchedule",
    "ClockedArraySimulator",
    "ClockedRunResult",
    "TimingViolation",
    "CompiledClockedKernel",
    "CompiledRecurrence",
    "compile_clocked",
    "SelfTimedResult",
    "simulate_selftimed_line",
    "worst_case_path_probability",
    "HybridRunResult",
    "simulate_hybrid",
    "InverterString",
    "InverterStringResult",
    "paper_calibrated_model",
    "fixed_yield_cycle_time",
    "JitteredSchedule",
    "ViolationSummary",
    "slow_subtree",
    "summarize_violations",
    "simulate_selftimed_wavefront",
    "HandshakeResult",
    "run_handshake_pipeline",
    "run_handshake_wavefront",
    "HybridExecution",
    "execute_program_hybrid",
    "two_phase_simulator",
    "min_two_phase_period",
    "phase_separation",
]
