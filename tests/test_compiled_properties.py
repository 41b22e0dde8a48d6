"""Property-based tests (hypothesis) for the compiled simulation kernels.

The compiled kernels in :mod:`repro.sim.compiled` promise *identity*,
not approximation: the array-backed clocked kernel must produce the
same ``ClockedRunResult`` — payloads, violation list (contents and
order), tick count, makespan — as the scalar event-driven oracle for
every program/schedule pair, and the recurrence kernel must reproduce
the scalar tandem recurrence exactly.  These tests sweep random
programs, skewed/jittered schedules, and period regimes (from badly
overdriven to comfortably safe) to exercise both the clean stream path
and the violation replay path, plus the ``CompiledTrialContext``
Monte-Carlo cache under serial and threaded execution.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.montecarlo import CompiledTrialContext, run_trials
from repro.arrays.systolic import (
    build_fir_array,
    build_matvec_array,
    build_mesh_matmul,
    build_odd_even_sorter,
)
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator
from repro.sim.dataflow import (
    ChannelDeadlockError,
    SelfTimedProgramSimulator,
    constant_service,
    hashed_service,
    per_cell_service,
)
from repro.sim.faults import JitteredSchedule
from repro.sta.flow import detect_deadlock


# ----------------------------------------------------------------------
# random program / schedule strategies
# ----------------------------------------------------------------------
@st.composite
def random_programs(draw):
    """A random systolic program over random (finite) float payloads."""
    rng = random.Random(draw(st.integers(0, 2**30)))
    kind = draw(st.sampled_from(["fir", "matvec", "sorter", "matmul"]))

    def val():
        return round(rng.uniform(-4.0, 4.0), 3)

    if kind == "fir":
        taps = [val() for _ in range(rng.randint(1, 4))]
        xs = [val() for _ in range(rng.randint(2, 8))]
        return build_fir_array(taps, xs)
    if kind == "matvec":
        n = rng.randint(1, 4)
        a = [[val() for _ in range(n)] for _ in range(n)]
        x = [val() for _ in range(n)]
        return build_matvec_array(a, x)
    if kind == "sorter":
        keys = [val() for _ in range(rng.randint(2, 8))]
        return build_odd_even_sorter(keys)
    n = rng.randint(1, 3)
    a = [[val() for _ in range(n)] for _ in range(n)]
    b = [[val() for _ in range(n)] for _ in range(n)]
    return build_mesh_matmul(a, b)


@st.composite
def clocked_cases(draw):
    """A program plus a schedule spanning overdriven-to-safe regimes."""
    program = draw(random_programs())
    rng = random.Random(draw(st.integers(0, 2**30)))
    cells = program.array.comm.nodes()
    # Random per-cell offsets model an arbitrarily skewed distribution
    # tree; small periods overdrive the array and force violations.
    offsets = {c: rng.uniform(0.0, 4.0) for c in cells}
    period = rng.uniform(0.5, 12.0)
    schedule = ClockSchedule(offsets, period=period)
    if rng.random() < 0.5:
        schedule = JitteredSchedule(
            schedule,
            amplitude=rng.uniform(0.0, 0.45) * period,
            seed=rng.randint(0, 2**20),
        )
    delta = rng.uniform(0.1, 2.0)
    padding = None
    if rng.random() < 0.5:
        padding = {
            e: rng.uniform(0.0, 3.0) for e in program.array.comm.edges()
        }
    return program, schedule, delta, padding


@given(clocked_cases())
@settings(max_examples=60, deadline=None)
def test_compiled_clocked_equals_scalar(case):
    program, schedule, delta, padding = case
    sim = ClockedArraySimulator(
        program, schedule, delta=delta, edge_padding=padding
    )
    compiled = sim.run()
    scalar = sim.run_scalar()
    assert repr(compiled.result) == repr(scalar.result)
    assert compiled.violations == scalar.violations
    assert compiled.ticks == scalar.ticks
    assert compiled.makespan == scalar.makespan


@given(random_programs(), st.data())
@settings(max_examples=40, deadline=None)
def test_compiled_recurrence_equals_scalar(program, data):
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    comm = program.array.comm
    service = rng.choice(
        [
            None,
            constant_service(rng.uniform(0.25, 3.0)),
            hashed_service(0.5, 2.5, 0.4, seed=rng.randint(0, 2**20)),
            per_cell_service({c: rng.uniform(0.25, 3.0) for c in comm.nodes()}),
        ]
    )
    capacity = rng.choice(
        [
            None,
            rng.randint(1, 4),
            {e: rng.choice((1, 2, 3, 4)) for e in comm.edges()},
        ]
    )
    try:
        sim = SelfTimedProgramSimulator(
            program,
            service=service,
            wire_delay=rng.uniform(0.0, 2.0),
            channel_capacity=capacity,
        )
    except ChannelDeadlockError as err:
        assert err.cycle == detect_deadlock(comm, capacity)
        return
    waves = rng.choice([None, rng.randint(1, 9)])
    assert sim.recurrence_makespan(waves) == (
        sim.recurrence_makespan_scalar(waves)
    )


# ----------------------------------------------------------------------
# Monte-Carlo cache
# ----------------------------------------------------------------------
def _build_structure():
    return list(range(8))


@given(st.integers(0, 2**20), st.integers(4, 16))
@settings(max_examples=25, deadline=None)
def test_run_trials_identical_with_and_without_cache(base_seed, n_trials):
    def uncached(seed):
        table = _build_structure()
        rng = random.Random(seed)
        return table[rng.randrange(len(table))] + rng.random()

    ctx = CompiledTrialContext(_build_structure)

    def cached(seed):
        table = ctx.get()
        rng = random.Random(seed)
        return table[rng.randrange(len(table))] + rng.random()

    for workers in (None, 2):
        a = run_trials(uncached, n_trials, base_seed=base_seed, workers=workers)
        b = run_trials(cached, n_trials, base_seed=base_seed, workers=workers)
        assert a == b
