"""One contract for every entry point of the self-timed recurrence.

The event-driven simulator, the compiled stepper (``makespan`` and
``stepper``), the scalar oracle, the steady-state detectors and the MCM
solvers all evaluate the same max-plus recurrence, so they share one
boundary rule — a horizon below one wave, a negative wire delay or a
negative service duration is a ``ValueError`` in every capacity regime
— and one zero-token cycle
check, whose witness every ``ChannelDeadlockError`` carries: exactly
the cycle :func:`repro.sta.flow.detect_deadlock` reports.
"""

import pytest

from repro.arrays.systolic import (
    SystolicProgram,
    build_fir_array,
    build_odd_even_sorter,
)
from repro.arrays.topologies import ring
from repro.sim.compiled import CompiledRecurrence
from repro.sim.dataflow import (
    ChannelDeadlockError,
    SelfTimedProgramSimulator,
    constant_service,
    recurrence_scalar,
)
from repro.sta.flow import (
    detect_deadlock,
    flow_graph,
    mcm_howard,
    mcm_karp,
    simulate_steady_state,
    simulate_steady_state_scalar,
)

SERVICE = constant_service(1.0)


def _compiled(program):
    return CompiledRecurrence(program.array.comm)


def _sim(program, cap, wire=0.5, service=SERVICE):
    return SelfTimedProgramSimulator(
        program, service=service, wire_delay=wire, channel_capacity=cap
    )


# (program, capacity, waves, wire, service) -> evaluation
HORIZON_ENTRY_POINTS = {
    "makespan": lambda p, cap, n, w, s: _compiled(p).makespan(
        s, w, n, capacity=cap
    ),
    "stepper": lambda p, cap, n, w, s: _compiled(p).stepper(
        s, w, capacity=cap
    ).run(n),
    "recurrence_makespan": lambda p, cap, n, w, s: _sim(
        p, cap, w, s
    ).recurrence_makespan(n),
    "recurrence_makespan_scalar": lambda p, cap, n, w, s: _sim(
        p, cap, w, s
    ).recurrence_makespan_scalar(n),
    "simulator_run": lambda p, cap, n, w, s: _sim(p, cap, w, s).run(n),
}


def _fir_and_capacity(regime):
    program = build_fir_array([0.5, -0.25, 1.0], [1.0, -2.0, 3.0, -4.0])
    comm = program.array.comm
    cap = (
        {e: 2 + i % 3 for i, e in enumerate(comm.edges())}
        if regime == "map"
        else regime
    )
    return program, cap


@pytest.mark.parametrize("regime", [None, 2, "map"])
@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRY_POINTS))
@pytest.mark.parametrize("waves,wire", [(0, 0.5), (-2, 0.5), (3, -1.0)])
def test_empty_horizon_and_negative_wire_raise(entry, regime, waves, wire):
    program, cap = _fir_and_capacity(regime)
    with pytest.raises(ValueError):
        HORIZON_ENTRY_POINTS[entry](program, cap, waves, wire, SERVICE)


def _negative_in_wave_1(cell, wave):
    return -1.0 if wave == 1 else 1.0


@pytest.mark.parametrize("regime", [None, 2, "map"])
@pytest.mark.parametrize("entry", sorted(HORIZON_ENTRY_POINTS))
def test_negative_service_duration_raises(entry, regime):
    program, cap = _fir_and_capacity(regime)
    with pytest.raises(ValueError, match="negative service time"):
        HORIZON_ENTRY_POINTS[entry](program, cap, 3, 0.5, _negative_in_wave_1)


@pytest.mark.parametrize("regime", [None, 2, "map"])
def test_stepper_refuses_a_compile_of_an_older_graph(regime):
    program, cap = _fir_and_capacity(regime)
    comm = program.array.comm
    compiled = _compiled(program)
    comm.add_edge(*comm.edges()[0][::-1])
    assert comm.version != compiled.comm_version
    with pytest.raises(ValueError, match="changed since"):
        compiled.stepper(SERVICE, 0.5, capacity=cap)


def _dead_ring():
    """A one-way ring at uniform depth 1: one zero-token cycle."""
    array = ring(6, bidirectional=False)
    return SystolicProgram(array, {}, 4, lambda executor: None), 1


def _dead_map():
    """A bidirectional sorter whose first channel pair has depth 1."""
    program = build_odd_even_sorter([3.0, -1.0, 4.0, -1.5, 9.0])
    edges = program.array.comm.edges()
    u, v = edges[0]
    cap = {e: 1 if e in ((u, v), (v, u)) else 2 for e in edges}
    return program, cap


# (program, capacity) -> evaluation that must refuse the dead graph
DEADLOCK_ENTRY_POINTS = {
    "simulator": lambda p, cap: _sim(p, cap),
    "makespan": lambda p, cap: _compiled(p).makespan(
        SERVICE, 0.5, 3, capacity=cap
    ),
    "stepper": lambda p, cap: _compiled(p).stepper(SERVICE, 0.5, capacity=cap),
    "recurrence_scalar": lambda p, cap: next(
        recurrence_scalar(p.array.comm, SERVICE, 0.5, cap)
    ),
    "simulate_steady_state": lambda p, cap: simulate_steady_state(
        p.array.comm, 1.0, 0.5, cap
    ),
    "simulate_steady_state_scalar": lambda p, cap: simulate_steady_state_scalar(
        p.array.comm, 1.0, 0.5, cap
    ),
    "mcm_howard": lambda p, cap: mcm_howard(flow_graph(p.array.comm, 1.0, 0.5, cap)),
    "mcm_karp": lambda p, cap: mcm_karp(flow_graph(p.array.comm, 1.0, 0.5, cap)),
}


@pytest.mark.parametrize("case", [_dead_ring, _dead_map], ids=["ring", "map"])
@pytest.mark.parametrize("entry", sorted(DEADLOCK_ENTRY_POINTS))
def test_deadlock_refusals_carry_the_detect_deadlock_witness(case, entry):
    program, cap = case()
    witness = detect_deadlock(program.array.comm, cap)
    assert witness is not None
    with pytest.raises(ChannelDeadlockError) as err:
        DEADLOCK_ENTRY_POINTS[entry](program, cap)
    assert err.value.cycle == witness
    assert repr(witness) in str(err.value)


def test_ring_witness_is_the_whole_ring():
    program, cap = _dead_ring()
    assert detect_deadlock(program.array.comm, cap) == [
        (i, (i + 1) % 6) for i in range(6)
    ]
