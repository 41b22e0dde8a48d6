"""Flow-analysis oracles: the static answers vs the running machine.

Three checks hold :mod:`repro.sta.flow` to the event-driven truth:

* ``differential-mcm`` — the Karp formula value and the Howard
  critical-cycle ratio are both the exact maximum cycle mean correctly
  rounded, so they must be the same float and the exact certificate of
  the Howard answer must verify, at every tested topology, size, and
  capacity regime, on dyadic designs and on services off the dyadic
  grid alike.  On dyadic designs the simulator's measured long-run rate
  is the same rational summed exactly in float, so it must match too —
  zero diff.  The transient side rides along: the closed-form
  :meth:`~repro.sta.flow.SteadyState.makespan_at` and the detection's
  own run stepped on (:meth:`~repro.sta.flow.SteadyState.
  iterated_makespan`) must both be bit-equal to a fresh run of the
  compiled recurrence at extrapolated horizons.
* ``flow-deadlock`` — :func:`~repro.sta.flow.detect_deadlock` must
  agree with the simulator's eager
  :class:`~repro.sim.dataflow.ChannelDeadlockError` on every capacity
  assignment: a cycle reported implies construction refuses, none
  reported implies the run completes.
* ``sizing-minimality`` — :func:`~repro.sta.flow.minimal_buffer_sizing`
  must return capacities that meet the target and are irreducible:
  decrementing any single returned depth either deadlocks the array or
  pushes the cycle time above the target.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from repro.check.registry import REGISTRY, CheckContext, require
from repro.graphs.comm import CommGraph
from repro.sim.dataflow import (
    ChannelDeadlockError,
    SelfTimedProgramSimulator,
    constant_service,
)
from repro.sta.flow import (
    FlowCycle,
    FlowGraph,
    analyze_flow,
    certify_mcm,
    detect_deadlock,
    flow_graph,
    mcm_howard,
    mcm_karp,
    minimal_buffer_sizing,
    simulate_steady_state,
    simulate_steady_state_scalar,
)


def _dyadic_services(ctx: CheckContext, salt: str, cells) -> Dict[Any, float]:
    """Per-cell service times on the 1/8 grid in [1, 2): exact dyadic
    rationals, so every static/dynamic comparison is a bit-equality."""
    rng = ctx.rng(salt)
    return {c: 1.0 + rng.randrange(8) / 8 for c in cells}


def _mesh(side: int) -> CommGraph:
    comm = CommGraph()
    for r in range(side):
        for c in range(side):
            comm.add_node((r, c))
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                comm.add_edge((r, c), (r, c + 1))
            if r + 1 < side:
                comm.add_edge((r, c), (r + 1, c))
    return comm


def _ring(n: int) -> CommGraph:
    comm = CommGraph()
    for i in range(n):
        comm.add_node(i)
    for i in range(n):
        comm.add_edge(i, (i + 1) % n)
    return comm


def _topologies(ctx: CheckContext) -> List[Tuple[str, CommGraph]]:
    sides = (3, 5) if not ctx.full else (3, 5, 8)
    topos: List[Tuple[str, CommGraph]] = [
        (f"mesh{s}", _mesh(s)) for s in sides
    ]
    topos.append(("ring4", _ring(4)))
    if ctx.full:
        topos.append(("ring7", _ring(7)))
    return topos


def _static_mcm(fg: FlowGraph, name: str, cap: Any, draw: str) -> FlowCycle:
    """Howard's answer, required to equal Karp's bit for bit and to
    carry a verified exact certificate."""
    where = dict(topology=name, capacity=cap, services=draw)
    howard = mcm_howard(fg)
    karp = mcm_karp(fg)
    require(howard is not None and karp is not None,
            f"{name}/cap={cap}/{draw}: no cycle found on a cyclic flow graph",
            **where)
    assert howard is not None and karp is not None
    require(howard.cycle_time == karp,
            f"{name}/cap={cap}/{draw}: Howard and Karp disagree",
            howard=howard.cycle_time, karp=karp, **where)
    cert = certify_mcm(fg, howard)
    require(cert.verified, f"{name}/cap={cap}/{draw}: certificate failed",
            failed=cert.failed, **where)
    return howard


@REGISTRY.register(
    "differential-mcm",
    "differential",
    "the static maximum cycle mean (Karp oracle and Howard kernel, whose "
    "exact certificate verifies) is the same float on dyadic and off-grid "
    "services alike, equals the simulator's measured long-run cycle time "
    "bit-for-bit on dyadic designs, and the closed-form steady-state "
    "makespan extrapolation matches the iterated recurrence exactly",
)
def check_differential_mcm(ctx: CheckContext) -> Dict[str, Any]:
    from repro.sim.compiled import CompiledRecurrence
    from repro.sim.dataflow import per_cell_service

    rows = []
    for name, comm in _topologies(ctx):
        cells = comm.nodes()
        service = _dyadic_services(ctx, f"mcm|{name}", cells)
        rng = ctx.rng(f"mcm-off-grid|{name}")
        off_grid = {c: 0.5 + rng.random() for c in cells}
        cyclic = not comm.is_acyclic()
        for cap in (None, 2, 4) if cyclic else (None, 1, 2):
            off = _static_mcm(
                flow_graph(comm, off_grid, 0.3, cap), name, cap, "off-grid"
            )
            howard = _static_mcm(
                flow_graph(comm, service, 0.5, cap), name, cap, "dyadic"
            )
            steady = simulate_steady_state(comm, service, 0.5, cap)
            require(howard.cycle_time == steady.cycle_time,
                    f"{name}/cap={cap}: static MCM != simulated rate",
                    topology=name, capacity=cap,
                    static=howard.cycle_time, simulated=steady.cycle_time)
            scalar = simulate_steady_state_scalar(comm, service, 0.5, cap)
            require(scalar.cycle_time == steady.cycle_time
                    and scalar.period == steady.period,
                    f"{name}/cap={cap}: scalar steady-state oracle "
                    f"diverged from the stepper",
                    topology=name, capacity=cap,
                    scalar=scalar.cycle_time, stepper=steady.cycle_time)
            svc = per_cell_service(service)
            compiled = CompiledRecurrence(comm)
            for horizon in (steady.waves_run + 5, 2 * steady.waves_run + 3):
                predicted = steady.makespan_at(horizon)
                continued = steady.iterated_makespan(horizon)
                iterated = compiled.makespan(
                    svc, 0.5, horizon, capacity=cap
                )
                require(predicted == continued == iterated,
                        f"{name}/cap={cap}: closed-form or continued makespan "
                        f"at {horizon} waves != a fresh recurrence run",
                        topology=name, capacity=cap, horizon=horizon,
                        predicted=predicted, continued=continued,
                        iterated=iterated)
            rows.append({"topology": name, "capacity": cap,
                         "cycle_time": howard.cycle_time,
                         "off_grid_cycle_time": off.cycle_time,
                         "period": steady.period,
                         "iterations": howard.iterations})
    return {"cases": rows}


@REGISTRY.register(
    "flow-deadlock",
    "differential",
    "the static token-free-cycle detector agrees with the simulator's "
    "eager ChannelDeadlockError on every sampled capacity assignment",
)
def check_flow_deadlock(ctx: CheckContext) -> Dict[str, Any]:
    from repro.arrays.systolic import build_fir_array, build_odd_even_sorter

    rng = ctx.rng("flow-deadlock")
    rows = []
    programs = [
        ("fir", build_fir_array([0.5, -0.25], [1.0, 2.0, 3.0])),
        ("sorter", build_odd_even_sorter([3.0, 1.0, 2.0, 0.0])),
    ]
    trials = 12 if not ctx.full else 40
    for name, program in programs:
        comm = program.array.comm
        edges = comm.edges()
        for trial in range(trials):
            cap = {e: rng.randint(1, 3) for e in edges}
            cycle = detect_deadlock(comm, cap)
            raised = False
            try:
                sim = SelfTimedProgramSimulator(
                    program, service=constant_service(1.0), wire_delay=0.5,
                    channel_capacity=cap,
                )
                sim.run()
            except ChannelDeadlockError:
                raised = True
            require(raised == (cycle is not None),
                    f"{name}: static deadlock verdict disagrees with the "
                    f"simulator",
                    workload=name, capacities=repr(cap),
                    static=repr(cycle), simulator_raised=raised)
            if cycle is not None:
                # The witness must be a genuine capacity-1 cycle.
                for (u, v) in cycle:
                    require(cap[(u, v)] == 1,
                            f"{name}: deadlock witness uses a non-unit "
                            f"channel",
                            workload=name, edge=repr((u, v)))
                closure = [u for u, _ in cycle]
                require(len(set(closure)) == len(closure),
                        f"{name}: deadlock witness revisits a cell",
                        workload=name, cycle=repr(cycle))
            rows.append({"workload": name, "trial": trial,
                         "dead": cycle is not None})
    dead = sum(1 for r in rows if r["dead"])
    require(0 < dead < len(rows),
            "sampling never exercised both verdicts — widen the "
            "capacity distribution",
            dead=dead, total=len(rows))
    return {"cases": len(rows), "dead": dead}


@REGISTRY.register(
    "sizing-minimality",
    "metamorphic",
    "minimal_buffer_sizing meets its target and is irreducible: "
    "decrementing any single returned capacity deadlocks the array or "
    "pushes the cycle time above the target",
)
def check_sizing_minimality(ctx: CheckContext) -> Dict[str, Any]:
    rows = []
    topos = [("mesh3", _mesh(3)), ("ring5", _ring(5))]
    if ctx.full:
        topos.append(("mesh5", _mesh(5)))
    for name, comm in topos:
        cells = comm.nodes()
        service = _dyadic_services(ctx, f"sizing|{name}", cells)
        fg_unbounded = flow_graph(comm, service, 0.5, None)
        base = mcm_howard(fg_unbounded)
        assert base is not None
        for slack_num in (0, 1, 3):
            target = base.cycle_time + slack_num / 8
            result = minimal_buffer_sizing(comm, service, 0.5, target)
            require(result.cycle_time <= target,
                    f"{name}: sizing missed its target",
                    topology=name, target=target,
                    achieved=result.cycle_time)
            verdict = analyze_flow(comm, service, 0.5, result.capacities)
            require(not verdict.dead
                    and verdict.cycle_time == result.cycle_time,
                    f"{name}: sizing result re-analysis disagrees",
                    topology=name, reported=result.cycle_time,
                    recomputed=verdict.cycle_time)
            for edge, depth in result.capacities.items():
                if depth <= 1:
                    continue
                trial = dict(result.capacities)
                trial[edge] = depth - 1
                if detect_deadlock(comm, trial) is not None:
                    continue  # decrement deadlocks: reduction is blocked
                shrunk = mcm_howard(flow_graph(comm, service, 0.5, trial))
                assert shrunk is not None
                require(shrunk.cycle_time > target,
                        f"{name}: capacity on {edge!r} is reducible — "
                        f"sizing was not minimal",
                        topology=name, edge=repr(edge), target=target,
                        reduced=shrunk.cycle_time)
            rows.append({"topology": name, "target": target,
                         "cycle_time": result.cycle_time,
                         "total_capacity": result.total_capacity,
                         "mcm_calls": result.mcm_calls})
    return {"cases": rows}
