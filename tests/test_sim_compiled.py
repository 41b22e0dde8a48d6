"""The array-compiled simulation kernels vs their scalar oracles.

Deterministic (non-hypothesis) coverage of :mod:`repro.sim.compiled` and
:mod:`repro.sim.batch`: exact clocked equivalence across regimes and
workloads, the stream/replay split, the tandem recurrence, the hybrid
max-plus step, and the ``CompiledTrialContext`` Monte-Carlo cache.  The
randomized sweep lives in ``test_compiled_properties.py``.
"""

import dataclasses

import pytest

from repro.analysis.montecarlo import CompiledTrialContext, run_trials
from repro.arrays.systolic import (
    SystolicProgram,
    build_fir_array,
    build_matvec_array,
    build_mesh_matmul,
    build_odd_even_sorter,
)
from repro.arrays.topologies import linear_array, mesh
from repro.clocktree.buffered import BufferedClockTree
from repro.clocktree.builders import serpentine_clock
from repro.core.padding import plan_safe_clocking
from repro.delay.variation import BoundedUniformVariation
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator
from repro.sim.compiled import (
    CompiledClockedKernel,
    CompiledRecurrence,
    compile_clocked,
)
from repro.sim.dataflow import (
    SelfTimedProgramSimulator,
    constant_service,
    hashed_service,
    recurrence_scalar,
)
from repro.sim.faults import JitteredSchedule


def _programs(include_matmul=True):
    progs = [
        ("fir", build_fir_array([0.5, -1.25, 2.0], [1.0, -2.0, 3.5, 0.25, -0.5])),
        ("matvec", build_matvec_array(
            [[1.0, -2.0, 0.5], [0.0, 3.0, -1.0], [2.5, 0.25, 1.0]],
            [1.0, -1.0, 2.0],
        )),
        ("sorter", build_odd_even_sorter([3.0, -1.0, 2.5, 0.0, -4.0])),
    ]
    if include_matmul:
        progs.append(("matmul", build_mesh_matmul(
            [[1.0, 2.0], [3.0, 4.0]], [[5.0, -6.0], [-7.0, 8.0]],
        )))
    return progs


def _setup(program, seed=11, delta=1.0):
    tree = serpentine_clock(program.array)
    buffered = BufferedClockTree(
        tree,
        buffer_spacing=1.0,
        wire_variation=BoundedUniformVariation(m=1.0, epsilon=0.1, seed=seed),
    )
    cells = program.array.comm.nodes()
    probe = ClockSchedule.from_buffered_tree(buffered, 1.0, cells)
    plan = plan_safe_clocking(program.array, probe, delta=delta)
    return buffered, cells, plan


def _assert_identical(compiled, scalar):
    assert repr(compiled.result) == repr(scalar.result)
    assert compiled.violations == scalar.violations  # contents AND order
    assert compiled.ticks == scalar.ticks
    assert compiled.makespan == scalar.makespan


@pytest.mark.parametrize("name,program", _programs())
def test_compiled_clocked_matches_scalar_all_regimes(name, program):
    delta = 1.0
    buffered, cells, plan = _setup(program, delta=delta)
    period = plan.min_safe_period * 1.05 + 1e-6
    safe = ClockSchedule.from_buffered_tree(buffered, period, cells)
    tight = ClockSchedule.from_buffered_tree(buffered, 0.5 * period, cells)
    jittered = JitteredSchedule(safe, amplitude=0.3 * period, seed=7)
    for schedule, padding in [
        (safe, plan.padding),
        (tight, None),
        (jittered, plan.padding),
    ]:
        sim = ClockedArraySimulator(
            program, schedule, delta=delta, edge_padding=padding
        )
        _assert_identical(sim.run(), sim.run_scalar())


def test_clean_compiled_run_is_lockstep_equal():
    for name, program in _programs():
        cells = program.array.comm.nodes()
        schedule = ClockSchedule({c: 0.0 for c in cells}, period=10.0)
        sim = ClockedArraySimulator(program, schedule, delta=1.0)
        run = sim.run()
        assert run.clean
        assert repr(run.result) == repr(program.run_lockstep())


def test_stream_path_engages_for_acyclic_and_not_for_cyclic():
    for name, program in _programs():
        cells = program.array.comm.nodes()
        schedule = ClockSchedule({c: 0.0 for c in cells}, period=10.0)
        sim = ClockedArraySimulator(program, schedule, delta=1.0)
        sim.run()
        kernel = sim.compiled()
        if name == "sorter":  # bidirectional COMM graph — replay path
            assert kernel._stream_order is False
        else:
            assert kernel._stream_order not in (None, False)


def test_compiled_kernel_cached_and_explicit_ticks():
    name, program = _programs(include_matmul=False)[0]
    cells = program.array.comm.nodes()
    schedule = ClockSchedule({c: 0.0 for c in cells}, period=10.0)
    sim = ClockedArraySimulator(program, schedule, delta=1.0)
    assert sim.compiled() is sim.compiled()  # cached per comm version
    assert compile_clocked(sim) is sim.compiled()
    assert isinstance(sim.compiled(), CompiledClockedKernel)
    ticks = program.cycles + 3
    _assert_identical(sim.run(ticks=ticks), sim.run_scalar(ticks=ticks))
    with pytest.raises(ValueError):
        sim.run(ticks=0)


def test_instrumented_run_uses_scalar_path():
    from repro.obs.trace import RecordingTracer

    name, program = _programs(include_matmul=False)[0]
    cells = program.array.comm.nodes()
    schedule = ClockSchedule({c: 0.0 for c in cells}, period=10.0)
    plain = ClockedArraySimulator(program, schedule, delta=1.0)
    tracer = RecordingTracer()
    traced = ClockedArraySimulator(program, schedule, delta=1.0, tracer=tracer)
    _assert_identical(traced.run(), plain.run())
    assert tracer.events  # the scalar path emitted per-event spans


def test_compiled_spans_same_for_blocked_and_unblocked_runs():
    from repro.obs.spans import assemble_spans
    from repro.obs.trace import RecordingTracer

    name, program = _programs(include_matmul=False)[0]
    buffered, cells, plan = _setup(program)
    tight = ClockSchedule.from_buffered_tree(
        buffered, 0.5 * plan.min_safe_period + 1e-6, cells
    )
    kernel = ClockedArraySimulator(program, tight, delta=1.0).compiled()
    trees = []
    for block in (None, 1):
        tracer = RecordingTracer()
        run = kernel.run(tracer=tracer, edge_block=block)
        assert not run.clean  # the replay path runs under the execute span
        trees.append(
            [(s.name, [c.name for c in s.children])
             for s in assemble_spans(tracer.events)]
        )
    assert trees[0] == trees[1] == [
        ("compiled.run",
         ["compiled.tick_matrix", "compiled.latch_scan", "compiled.execute"]),
    ]


def _one_way(array):
    """A bare program over ``array``: the recurrence with no payload."""
    return SystolicProgram(array, {}, 8, lambda executor: None)


def test_recurrence_compiled_matches_scalar():
    # Beside the unbounded programs, two long same-wave credit chains: at
    # capacity 1 every channel is a depth-1 credit, which the stepper
    # settles in one consumers-first sweep per wave.
    cases = [(program, None) for _, program in _programs()] + [
        (_one_way(linear_array(512, bidirectional=False)), 1),
        (_one_way(mesh(32, 32, bidirectional=False)), 1),
    ]
    for program, capacity in cases:
        comm = program.array.comm
        for service in (
            None,  # default constant 1.0
            constant_service(2.5),
            hashed_service(1.0, 4.0, 0.3, seed=3),
        ):
            sim = SelfTimedProgramSimulator(
                program, service=service, wire_delay=0.5,
                channel_capacity=capacity,
            )
            for waves in (None, 1, 2, 7):
                assert sim.recurrence_makespan(waves) == (
                    sim.recurrence_makespan_scalar(waves)
                )
            # Every wave's finish row, not only its maximum.
            service = service or constant_service(1.0)
            stepper = CompiledRecurrence(comm).stepper(service, 0.5, capacity)
            scalar = recurrence_scalar(comm, service, 0.5, capacity)
            for _ in range(7):
                assert stepper.step().tolist() == list(next(scalar).values())


def test_recurrence_matches_engine_run():
    for name, program in _programs():
        sim = SelfTimedProgramSimulator(
            program, service=hashed_service(1.0, 3.0, 0.2, seed=9),
            wire_delay=0.25,
        )
        run = sim.run()
        assert abs(run.makespan - sim.recurrence_makespan()) <= 1e-9


# ----------------------------------------------------------------------
# CompiledTrialContext
# ----------------------------------------------------------------------
def _structure():
    return {"built": True, "values": [1.0, 2.0, 3.0]}


def test_trial_context_builds_once_per_thread():
    calls = []

    def build():
        calls.append(1)
        return object()

    ctx = CompiledTrialContext(build)
    first = ctx.get()
    assert ctx.get() is first
    assert len(calls) == 1


def test_trial_context_pickles_without_contents():
    import pickle

    ctx = CompiledTrialContext(_structure)
    ctx.get()
    clone = pickle.loads(pickle.dumps(ctx))
    assert clone.get() == _structure()
    assert clone.get() is not ctx.get()


def test_run_trials_summary_identical_with_and_without_cache():
    def uncached_trial(seed):
        structure = _structure()  # rebuilt every trial
        return structure["values"][seed % 3] * seed

    ctx = CompiledTrialContext(_structure)

    def cached_trial(seed):
        return ctx.get()["values"][seed % 3] * seed

    for workers in (None, 2):
        a = run_trials(uncached_trial, 12, base_seed=5, workers=workers)
        b = run_trials(cached_trial, 12, base_seed=5, workers=workers)
        assert a == b
