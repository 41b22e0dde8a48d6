"""Event-level simulation of the hybrid synchronization network (Fig. 8).

Controllers run a neighbor-barrier handshake: element ``e`` may start its
global step ``k+1`` once it has finished step ``k`` *and* received "done(k)"
from every handshake neighbor.  Within a step, a controller distributes the
local clock (bounded by the element diameter), cells compute (``delta``),
and the controller signals done.

The recurrence

``start[e][k+1] = max(finish[e][k], max_nbr finish[nbr][k] + hs(e, nbr))``
``finish[e][k]  = start[e][k] + local_cost(e)``

is a max-plus linear system whose asymptotic cycle time is bounded by
``local_cost + max handshake`` — all element-local quantities, hence
*constant as the array grows*, which is the Section VI claim the
``bench_fig8_hybrid`` benchmark demonstrates against the equipotential
global clock's linear growth.

It is the self-timed tandem recurrence over the element graph, with the
handshake cost as each edge's wire and the local cost as each element's
service, so :func:`controller_recurrence` lowers it onto the shared
:class:`~repro.sim.compiled.RecurrenceStepper`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.hybrid import HybridScheme
from repro.delay.variation import require_finite
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sim.compiled import CompiledRecurrence, RecurrenceStepper, steady_cycle

ElementId = Tuple[int, int]
ElementPair = Tuple[ElementId, ElementId]


@dataclass(frozen=True)
class HybridRunResult:
    """Measured steady-state behaviour of the hybrid network."""

    elements: int
    steps: int
    completion_time: float
    cycle_time: float
    analytic_cycle_time: float

    @property
    def within_analytic_bound(self) -> bool:
        return self.cycle_time <= self.analytic_cycle_time + 1e-9


def controller_recurrence(
    scheme: HybridScheme,
    delta: float,
    m: float = 1.0,
    jitter: float = 0.0,
    seed: int = 0,
) -> Tuple[RecurrenceStepper, Dict[ElementId, float], Dict[ElementPair, float]]:
    """Lower the controller network to the self-timed recurrence.

    Elements are the cells (in ``scheme.elements`` order), handshake
    neighbours the forward edges with the handshake cost as their wire,
    and an element's local cost — clock down, compute, clock gathering
    up, plus an optional uniform ``jitter`` draw — its service.  Step 0
    already waits on the neighbour handshakes from t = 0, which the
    recurrence's wave 0 does not; the returned stepper has therefore run
    one leading zero-cost wave, and each further :meth:`step` is one
    global step.  The jitter draws come from one RNG stream, one per
    element per step in element order.  A non-finite ``delta``, ``m`` or
    ``jitter`` raises ``ValueError``.

    Returns ``(stepper, base_cost, handshake)``.
    """
    require_finite(delta=delta, m=m, jitter=jitter)
    rng = random.Random(seed)
    eids = list(scheme.elements.keys())
    base_cost: Dict[ElementId, float] = {
        e: 2.0 * m * scheme.local_reach[e] + delta for e in eids
    }
    handshake: Dict[ElementPair, float] = {}
    for a, b in scheme.element_graph.communicating_pairs():
        d = m * scheme.controllers[a].manhattan(scheme.controllers[b])
        handshake[(a, b)] = d
        handshake[(b, a)] = d
    spread = jitter * delta
    # ``rng.uniform(0.0, spread)`` is defined as ``0.0 + spread *
    # rng.random()``, which is exactly ``spread * rng.random()``: the same
    # draw without the per-element Python wrapper.
    draw = rng.random

    def local_cost(e: ElementId, k: int) -> float:
        if not k:
            return 0.0  # the leading wave
        return base_cost[e] + spread * draw() if jitter else base_cost[e]

    stepper = CompiledRecurrence(scheme.element_graph).stepper(local_cost, handshake)
    stepper.step()
    return stepper, base_cost, handshake


def simulate_hybrid(
    scheme: HybridScheme,
    steps: int,
    delta: float,
    m: float = 1.0,
    jitter: float = 0.0,
    seed: int = 0,
    tracer: Optional[Tracer] = None,
    metrics: Optional[MetricsRegistry] = None,
) -> HybridRunResult:
    """Run the controller handshake network for ``steps`` global steps.

    ``jitter`` adds a uniform random extension (up to the given fraction of
    ``delta``) to each element's per-step local cost — self-timed schemes
    absorb such variation without resynchronization, which is part of the
    scheme's robustness story (and would desynchronize pipelined clocking,
    A8).

    With a ``tracer``, every element emits a ``hybrid/step`` event per
    global step (start/finish times) plus a per-step ``hybrid`` /
    ``step_summary`` with the start-time spread (the de-facto skew of the
    handshake barrier); a ``metrics`` registry collects the spread
    histogram and the measured cycle-time gauge.  Defaults keep the run
    byte-identical to the uninstrumented simulator.
    """
    if steps < 2:
        raise ValueError("need at least two steps to measure a cycle")
    if delta < 0 or m <= 0 or jitter < 0:
        raise ValueError("delta >= 0, m > 0, jitter >= 0 required")
    stepper, base_cost, handshake = controller_recurrence(
        scheme, delta, m, jitter, seed
    )
    tracer = tracer if tracer is not None else NULL_TRACER
    metrics = metrics if metrics is not None else NULL_METRICS
    skew_hist = metrics.histogram("hybrid.step_skew")
    eids = list(scheme.elements.keys())
    finish_times = []
    for step in range(steps):
        finish = stepper.step()
        start = stepper.start
        finish_times.append(float(finish.max()))
        if tracer.enabled:
            starts_list = start.tolist()
            finish_list = finish.tolist()
            for e, s, f in zip(eids, starts_list, finish_list):
                tracer.event(
                    f, "hybrid", "step", cell=e,
                    step=step, start=s, finish=f,
                )
            spread = max(starts_list) - min(starts_list)
            tracer.event(
                finish_times[-1], "hybrid", "step_summary",
                step=step, start_spread=spread, makespan=finish_times[-1],
            )
        if metrics.enabled:
            skew_hist.observe(float(start.max()) - float(start.min()))

    cycle = steady_cycle(finish_times)
    analytic = (
        max(base_cost.values())
        + (max(handshake.values()) if handshake else 0.0)
        + jitter * delta
    )
    if tracer.enabled:
        tracer.event(
            finish_times[-1], "hybrid", "run",
            elements=len(eids), steps=steps,
            cycle_time=cycle, analytic_cycle_time=analytic,
        )
    metrics.gauge("hybrid.cycle_time").set(cycle)
    metrics.counter("hybrid.steps").inc(steps)
    return HybridRunResult(
        elements=len(eids),
        steps=steps,
        completion_time=finish_times[-1],
        cycle_time=cycle,
        analytic_cycle_time=analytic,
    )
