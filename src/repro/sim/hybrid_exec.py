"""Executing systolic programs under hybrid synchronization.

Section VI's punchline is that cells can be "designed as if the entire
system were globally clocked" while only the small controller network is
self-timed.  This module makes that concrete: it runs a real systolic
program under a hybrid scheme and produces both

* the **functional result** — identical to the ideal lockstep semantics,
  because the neighbor barrier guarantees that when element ``E`` starts
  global step ``k+1``, every element containing a cell that feeds ``E`` has
  finished step ``k``; and
* the **timing** — per-element start/finish times from the max-plus
  handshake recurrence, whose steady-state cycle is constant in array size.

The dependency guarantee is not just asserted: :meth:`HybridExecution.
verify_dependencies` checks, for every cross-element communication edge and
every step, that the producer's finish time precedes the consumer's next
start time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Hashable, List, Tuple

from repro.arrays.ideal import LockstepExecutor
from repro.arrays.systolic import SystolicProgram
from repro.core.hybrid import HybridScheme, build_hybrid
from repro.sim.hybrid_sim import controller_recurrence

CellId = Hashable
ElementId = Tuple[int, int]


@dataclass
class HybridExecution:
    """Result of one hybrid run: data plus the timing that carried it."""

    result: Any
    steps: int
    start_times: List[Dict[ElementId, float]]   # per step
    finish_times: List[Dict[ElementId, float]]  # per step
    cycle_time: float
    makespan: float
    scheme: HybridScheme

    def verify_dependencies(self) -> bool:
        """Every cross-element edge's producer finishes step ``k`` before
        the consumer starts step ``k+1`` — the condition that makes the
        functional result equal to lockstep."""
        element_of = self.scheme.element_of
        for u, v in self.scheme.array.communicating_pairs():
            eu, ev = element_of[u], element_of[v]
            if eu == ev:
                continue
            for k in range(self.steps - 1):
                if self.finish_times[k][eu] > self.start_times[k + 1][ev] + 1e-9:
                    return False
                if self.finish_times[k][ev] > self.start_times[k + 1][eu] + 1e-9:
                    return False
        return True


def execute_program_hybrid(
    program: SystolicProgram,
    element_size: float = 4.0,
    delta: float = 1.0,
    m: float = 1.0,
    jitter: float = 0.0,
    seed: int = 0,
    steps: int = 0,
) -> HybridExecution:
    """Run ``program`` under a hybrid scheme built over its array.

    ``steps`` defaults to the program's cycle count.  Functional execution
    uses the lockstep interpreter (the barrier makes that exact); timing
    follows the controller recurrence with optional per-step ``jitter``.
    """
    if delta < 0 or m <= 0 or jitter < 0:
        raise ValueError("delta >= 0, m > 0, jitter >= 0 required")
    n_steps = steps if steps > 0 else program.cycles
    scheme = build_hybrid(program.array, element_size=element_size)
    stepper, _, _ = controller_recurrence(scheme, delta, m, jitter, seed)
    eids = list(scheme.elements.keys())
    start_times: List[Dict[ElementId, float]] = []
    finish_times: List[Dict[ElementId, float]] = []
    for _step in range(n_steps):
        finish = stepper.step()
        start_times.append(dict(zip(eids, stepper.start.tolist())))
        finish_times.append(dict(zip(eids, finish.tolist())))

    # Functional execution: the barrier makes hybrid semantics lockstep.
    executor = LockstepExecutor(program.array.comm, program.pes)
    executor.reset()
    executor.run(n_steps)
    result = program.read_result(executor)

    tail = [max(f.values()) for f in finish_times]
    half = n_steps // 2
    if n_steps - half >= 2:
        cycle = (tail[-1] - tail[half]) / (n_steps - 1 - half)
    else:
        cycle = tail[-1] / n_steps
    return HybridExecution(
        result=result,
        steps=n_steps,
        start_times=start_times,
        finish_times=finish_times,
        cycle_time=cycle,
        makespan=tail[-1],
        scheme=scheme,
    )
