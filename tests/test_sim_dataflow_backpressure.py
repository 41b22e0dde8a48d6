"""Finite-channel (backpressure) semantics of the self-timed stack.

Covers the capacity-k contract end to end: the ``channel_capacity=None``
default stays byte-identical to the historical unbounded model (golden
values pinned below), every capacity agrees across the event-driven
engine, the scalar bounded recurrence, and the compiled marked-graph
kernel, zero-token cycles deadlock eagerly, and the clocked layer's
occupancy model (``channel_depths`` / ``channel_overflows`` /
capacity-aware ``minimum_safe_period``) brackets wave-pipelined
schedules from both sides.
"""

import math
import os
import subprocess
import sys
import textwrap

import pytest

from repro.arrays.systolic import (
    build_fir_array,
    build_mesh_matmul,
    build_odd_even_sorter,
)
from repro.obs.critpath import critical_path_from_trace
from repro.obs.trace import RecordingTracer
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator
from repro.sim.dataflow import (
    ChannelDeadlockError,
    SelfTimedProgramSimulator,
    hashed_service,
)


def _fir_program():
    return build_fir_array(
        [0.5, -0.25, 1.0, 0.125],
        [1.0, -2.0, 3.0, -4.0, 5.0, -6.0, 7.0, -8.0],
    )


def _fir_sim(capacity):
    return SelfTimedProgramSimulator(
        _fir_program(),
        service=hashed_service(1.0, 3.0, 0.2, seed=7),
        wire_delay=0.25,
        channel_capacity=capacity,
    )


def _sorter_sim(capacity):
    return SelfTimedProgramSimulator(
        build_odd_even_sorter([3.0, -1.0, 4.0, -1.5, 9.0, -2.6, 5.0, -3.5]),
        service=hashed_service(1.0, 2.0, 0.3, seed=11),
        wire_delay=0.5,
        channel_capacity=capacity,
    )


class TestGoldenUnbounded:
    """``channel_capacity=None`` must stay byte-identical to the
    pre-backpressure simulator: these values were recorded against the
    unbounded implementation before capacities existed."""

    def test_fir_golden(self):
        run = _fir_sim(None).run()
        assert repr(run.makespan) == "48.25"
        assert run.events_processed == 297
        assert run.result == [
            0.5, -1.25, 3.0, -4.625, 6.25, -7.875,
            9.5, -11.125, 8.25, -7.125, -1.0,
        ]
        assert run.channel_capacity is None
        assert run.stall_time is None
        assert run.max_occupancy is None

    def test_fir_golden_recurrences(self):
        sim = _fir_sim(None)
        assert repr(sim.recurrence_makespan()) == "48.25"
        assert repr(sim.recurrence_makespan_scalar()) == "48.25"

    def test_sorter_golden(self):
        run = _sorter_sim(None).run()
        assert repr(run.makespan) == "19.5"
        assert run.events_processed == 198
        assert run.result == [-3.5, -2.6, -1.5, -1.0, 3.0, 4.0, 5.0, 9.0]


class TestGoldenBounded:
    """Bounded runs are pinned too: the event count, each cell's stall
    time and the deepest channel, recorded against the dict-keyed
    simulator before its dense-id rewrite."""

    def test_fir_capacity_one_golden(self):
        run = _fir_sim(1).run()
        assert repr(run.makespan) == "67.25"
        assert run.events_processed == 432
        assert run.max_occupancy == 1
        assert run.stall_time == {
            "src": 28.25, 0: 18.25, 1: 16.5, 2: 14.5, 3: 5.25, "snk": 0.0,
        }
        assert list(run.stall_time) == ["src", 0, 1, 2, 3, "snk"]

    def test_fir_capacity_two_golden(self):
        run = _fir_sim(2).run()
        assert repr(run.makespan) == "50.75"
        assert run.events_processed == 432
        assert run.max_occupancy == 2
        assert run.stall_time == {
            "src": 4.25, 0: 5.0, 1: 8.75, 2: 10.0, 3: 2.5, "snk": 0.0,
        }

    def test_sorter_capacity_two_golden(self):
        run = _sorter_sim(2).run()
        assert repr(run.makespan) == "19.5"
        assert run.events_processed == 324
        assert run.max_occupancy == 2
        assert run.stall_time == {c: 0.0 for c in range(8)}


class TestRetryRule:
    """A delivered token retries its receiver even when it is not the
    token the receiver waits on, if the receiver is data-ready but
    credit-blocked: a later-generation token can then fire it before a
    same-time zero-delay credit event does.  Both witnesses were recorded
    against the simulator that retried on every token."""

    def test_fire_causes_follow_every_token_retry(self):
        tracer = RecordingTracer()
        SelfTimedProgramSimulator(
            build_fir_array([0.5, -0.25], [1.0, -2.0]),
            service=hashed_service(1.0, 3.0, 0.25, seed=67),
            wire_delay=1.0,
            tracer=tracer,
            channel_capacity={(0, 1): 1, (1, "snk"): 2},
        ).run()
        fires = [
            (e.cell, e.data["wave"], e.data["cause"], e.data["src"],
             e.data["src_wave"])
            for e in tracer.by_kind("dataflow", "fire")
        ]
        assert fires[19] == (0, 3, "token", "src", None)
        assert fires == [
            ("src", 0, "init", None, None), (0, 0, "init", None, None),
            (1, 0, "init", None, None), ("snk", 0, "init", None, None),
            ("src", 1, "self", None, None), ("snk", 1, "token", 1, None),
            ("src", 2, "self", None, None), (1, 1, "token", 0, None),
            (0, 1, "credit", 1, 1), ("src", 3, "self", None, None),
            ("src", 4, "self", None, None), ("snk", 2, "token", 1, None),
            (1, 2, "token", 0, None), (0, 2, "credit", 1, 2),
            ("src", 5, "self", None, None), ("src", 6, "self", None, None),
            ("snk", 3, "token", 1, None), ("src", 7, "self", None, None),
            (1, 3, "token", 0, None), (0, 3, "token", "src", None),
            ("src", 8, "self", None, None), ("snk", 4, "token", 1, None),
            (1, 4, "token", 0, None), (0, 4, "credit", 1, 4),
            ("src", 9, "self", None, None), ("src", 10, "self", None, None),
            ("snk", 5, "token", 1, None), (1, 5, "token", 0, None),
            (0, 5, "credit", 1, 5), ("src", 11, "self", None, None),
            ("src", 12, "self", None, None), (1, 6, "token", 0, None),
            (0, 6, "credit", 1, 6), ("snk", 6, "self", None, None),
            (1, 7, "token", 0, None), (0, 7, "credit", 1, 7),
            ("snk", 7, "self", None, None), (1, 8, "token", 0, None),
            (0, 8, "credit", 1, 8), ("snk", 8, "self", None, None),
            (1, 9, "credit", "snk", 8), (0, 9, "credit", 1, 9),
            ("snk", 9, "self", None, None), (1, 10, "credit", "snk", 9),
            (0, 10, "credit", 1, 10), ("snk", 10, "self", None, None),
            (1, 11, "credit", "snk", 10), (0, 11, "credit", 1, 11),
            ("snk", 11, "self", None, None), (1, 12, "self", None, None),
            (0, 12, "credit", 1, 12), ("snk", 12, "token", 1, None),
        ]

    def test_occupancy_follows_every_token_retry(self):
        run = SelfTimedProgramSimulator(
            build_fir_array([0.5, -0.25, 1.0], [1.0, -2.0, 3.0, -4.0, 5.0, -6.0]),
            service=hashed_service(1.0, 3.0, 0.25, seed=141),
            wire_delay=1.0,
            channel_capacity={(0, 1): 3, (1, 2): 3, (2, "snk"): 3},
        ).run(17)
        assert run.max_occupancy == 8
        assert run.events_processed == 221
        assert run.makespan == 39.0


class TestCapacitySemantics:
    @pytest.mark.parametrize("capacity", [1, 2, 3, 5])
    def test_three_paths_agree_fir(self, capacity):
        sim = _fir_sim(capacity)
        run = sim.run()
        assert run.makespan == sim.recurrence_makespan()
        assert run.makespan == sim.recurrence_makespan_scalar()

    @pytest.mark.parametrize("capacity", [2, 3, 5])
    def test_three_paths_agree_cyclic(self, capacity):
        sim = _sorter_sim(capacity)
        run = sim.run()
        assert run.makespan == sim.recurrence_makespan()
        assert run.makespan == sim.recurrence_makespan_scalar()

    def test_results_unchanged_by_capacity(self):
        reference = _fir_sim(None).run().result
        for capacity in (1, 2, 4):
            assert _fir_sim(capacity).run().result == reference

    def test_makespan_monotone_in_capacity(self):
        spans = [_fir_sim(c).run().makespan for c in (1, 2, 3, 5, None)]
        assert spans == sorted(spans, reverse=True)

    def test_wide_capacity_bitwise_unbounded(self):
        unbounded = _fir_sim(None)
        unbounded_run = unbounded.run()
        wide = _fir_sim(_fir_program().cycles)
        wide_run = wide.run()
        assert wide_run.makespan == unbounded_run.makespan
        assert wide_run.finish_times == unbounded_run.finish_times
        assert wide.recurrence_makespan() == unbounded.recurrence_makespan()

    def test_capacity_one_cyclic_deadlocks_everywhere(self):
        with pytest.raises(ChannelDeadlockError):
            _sorter_sim(1)

    def test_capacity_one_cyclic_compiled_deadlocks(self):
        sim = _sorter_sim(None)
        program = build_odd_even_sorter(
            [3.0, -1.0, 4.0, -1.5, 9.0, -2.6, 5.0, -3.5]
        )
        with pytest.raises(ChannelDeadlockError):
            sim.compiled_recurrence().makespan(
                hashed_service(1.0, 2.0, 0.3, seed=11),
                0.5,
                program.cycles,
                capacity=1,
            )

    def test_rejects_bad_capacity(self):
        with pytest.raises(ValueError):
            _fir_sim(0)
        with pytest.raises(ValueError):
            _fir_sim(-2)


class TestStallAccounting:
    def test_bounded_run_reports_stalls_and_occupancy(self):
        run = _fir_sim(1).run()
        assert run.channel_capacity == 1
        assert run.max_occupancy is not None and run.max_occupancy <= 1
        assert run.stall_time is not None
        assert all(v >= 0.0 for v in run.stall_time.values())
        # Capacity 1 on this workload genuinely stalls producers.
        assert run.total_stall_time > 0.0

    def test_occupancy_bounded_by_capacity(self):
        for capacity in (1, 2, 3):
            run = _fir_sim(capacity).run()
            assert run.max_occupancy <= capacity

    def test_throughput_property(self):
        run = _fir_sim(2).run()
        assert run.throughput == pytest.approx(
            run.waves / run.makespan
        )

    def test_trace_carries_credit_causes(self):
        tracer = RecordingTracer()
        sim = SelfTimedProgramSimulator(
            _fir_program(),
            service=hashed_service(1.0, 3.0, 0.2, seed=7),
            wire_delay=0.25,
            channel_capacity=1,
            tracer=tracer,
        )
        run = sim.run()
        causes = {
            e.data.get("cause")
            for e in tracer.events
            if e.cat == "dataflow" and e.kind == "fire"
        }
        assert "credit" in causes
        cp = critical_path_from_trace(tracer.events)
        assert cp.exact
        assert cp.makespan == run.makespan

    def test_critical_path_method_rejects_bounded(self):
        with pytest.raises(ValueError):
            _fir_sim(2).critical_path()


class TestClockedOccupancy:
    def _wave_pipelined_sim(self, lag=3.0, period=1.0):
        # A two-cell chain whose receiver's clock trails the sender's by
        # several periods: legal (hold-safe), but multiple generations
        # are in flight on the wire — the wave-pipelined regime.
        program = build_fir_array([1.0, 2.0], [1.0, -1.0, 2.0, -2.0, 3.0])
        cells = program.array.comm.nodes()
        offsets = {c: float(i) * lag for i, c in enumerate(cells)}
        schedule = ClockSchedule(offsets, period=period)
        return program, ClockedArraySimulator(program, schedule, delta=0.25)

    def test_channel_depths_match_steady_formula(self):
        _program, sim = self._wave_pipelined_sim(lag=3.0, period=1.0)
        depths = sim.channel_depths()
        # Receiver trails by 3.0 at period 1.0: 1 + ceil(3.0 / 1.0) = 4.
        assert max(depths.values()) == 4

    def test_channel_overflows_bracket_capacity(self):
        _program, sim = self._wave_pipelined_sim(lag=3.0, period=1.0)
        assert sim.channel_overflows(4) == []
        shallow = sim.channel_overflows(2)
        assert shallow
        assert all(depth > 2 for _edge, _gen, depth in shallow)

    def test_capacity_aware_msp_is_finite_and_genuine(self):
        _program, sim = self._wave_pipelined_sim(lag=3.0, period=1.0)
        plain = sim.minimum_safe_period()
        capped = sim.minimum_safe_period(channel_capacity=4)
        assert math.isfinite(capped)
        # d/(c-1) = 3.0/3 = 1.0 dominates this schedule's setup need.
        assert capped == pytest.approx(max(plain, 1.0))

    def test_capacity_one_unschedulable_when_trailing(self):
        _program, sim = self._wave_pipelined_sim(lag=3.0, period=1.0)
        assert sim.minimum_safe_period(channel_capacity=1) == math.inf

    def test_capacity_ignored_without_trailing_receiver(self):
        program = build_fir_array([1.0, 2.0], [1.0, -1.0, 2.0])
        cells = program.array.comm.nodes()
        schedule = ClockSchedule({c: 0.0 for c in cells}, period=5.0)
        sim = ClockedArraySimulator(program, schedule, delta=0.25)
        assert sim.minimum_safe_period(
            channel_capacity=1
        ) == sim.minimum_safe_period()
        assert max(sim.channel_depths().values()) <= 1
        assert sim.channel_overflows(1) == []

    def test_rejects_bad_capacity(self):
        _program, sim = self._wave_pipelined_sim()
        with pytest.raises(ValueError):
            sim.minimum_safe_period(channel_capacity=0)
        with pytest.raises(ValueError):
            sim.channel_overflows(0)


class TestMeshWorkload:
    def test_matmul_capacity_sweep_agrees(self):
        a = [[1.0, 2.0], [3.0, -1.0]]
        b = [[0.5, -0.5], [1.5, 2.5]]
        program = build_mesh_matmul(a, b)
        service = hashed_service(1.0, 3.0, 0.25, seed=3)
        reference = SelfTimedProgramSimulator(
            program, service=service, wire_delay=0.5
        ).run()
        prev = math.inf
        for capacity in (1, 2, 3):
            sim = SelfTimedProgramSimulator(
                program, service=service, wire_delay=0.5,
                channel_capacity=capacity,
            )
            run = sim.run()
            assert run.makespan == sim.recurrence_makespan()
            assert run.makespan == sim.recurrence_makespan_scalar()
            assert run.result == reference.result
            assert run.makespan <= prev
            assert run.makespan >= reference.makespan
            prev = run.makespan


_HASH_WITNESS = textwrap.dedent("""
    from repro.arrays.systolic import build_matvec_array
    from repro.obs.trace import RecordingTracer
    from repro.sim.dataflow import SelfTimedProgramSimulator, hashed_service
    program = build_matvec_array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [1, -1, 2])
    tracer = RecordingTracer()
    SelfTimedProgramSimulator(
        program, hashed_service(1.0, 3.0, 0.25, seed=1), wire_delay=0.25,
        tracer=tracer, channel_capacity=2,
    ).run()
    for event in tracer.by_kind("dataflow", "fire"):
        print(repr(event.cell), event.data["wave"], event.data["cause"], event.t)
""")


# The self-timed critical path of the same program: on equal arrivals
# the binding predecessor is the lowest dense id, not the first in set
# order.
_CRITPATH_WITNESS = textwrap.dedent("""
    from repro.arrays.systolic import build_matvec_array
    from repro.sim.dataflow import SelfTimedProgramSimulator, hashed_service
    program = build_matvec_array([[1, 2, 3], [4, 5, 6], [7, 8, 9]], [1, -1, 2])
    cp = SelfTimedProgramSimulator(
        program, service=hashed_service(1.0, 3.0, 0.25, seed=1),
        wire_delay=0.25,
    ).critical_path()
    for step in cp.steps:
        print(step.kind, repr(step.cell), repr(step.src), step.index)
""")


# A re-clocked matvec whose receivers each latch several inputs: one
# receiver event's violations come in sender dense-id order, and the
# compiled kernel's list equals the scalar one.
_CLOCKED_WITNESS = textwrap.dedent("""
    from repro.sta.design import design_for_workload
    design = design_for_workload("matvec", size=6, seed=0, pad_races=False)
    sim = design.with_period(design.period / 2).simulator()
    scalar, compiled = sim.run_scalar(), sim.run()
    assert scalar.violations == compiled.violations
    print(len(scalar.violations))
    print(repr(scalar.violations), repr(scalar.result))
    print(repr(compiled.violations), repr(compiled.result))
""")


def _under_hash_seeds(script):
    """``script``'s stdout under ``PYTHONHASHSEED`` 1, 2 and 3."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    runs = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    return runs


class TestHashSeedIndependentOrder:
    """Matvec's cell ids include strings (``'ysrc'``, ``('a', i)``), whose
    set order moves with ``PYTHONHASHSEED``; same-time events must queue,
    and one receiver's inputs latch, in dense-id order instead, so a
    trace or a violation list is the same in every process."""

    def test_fire_sequence_is_the_same_under_every_hash_seed(self):
        runs = _under_hash_seeds(_HASH_WITNESS)
        assert runs[0].count("\n") > 9
        assert runs[0] == runs[1] == runs[2]

    def test_selftimed_critical_path_is_the_same_under_every_hash_seed(self):
        runs = _under_hash_seeds(_CRITPATH_WITNESS)
        assert runs[0].count("wire") > 2
        assert runs[0] == runs[1] == runs[2]

    def test_clocked_violation_order_is_the_same_under_every_hash_seed(self):
        runs = _under_hash_seeds(_CLOCKED_WITNESS)
        assert runs[0].startswith("161\n")
        assert runs[0] == runs[1] == runs[2]
