"""Regressions for input holes: non-finite times and CLI numbers.

Each case once produced an answer from a meaningless input.  A NaN
service on one cell of a 3x3 mesh gave a live design with cycle time 1.5,
and the simulator cross-check then ran 100,000 waves before it gave up;
an infinite service gave cycle time ``inf``.  ``flow --target inf`` failed
its own report schema with a traceback, ``--target nan`` blamed an
unreachable cycle, and ``--size 0`` or ``--size -3`` analyzed a design
built from a silently substituted size.  In the self-timed stack a NaN
wire lost every ``max`` (a line of 4 cells and 10 waves finished at
10.0), negative samples gave negative completion times, ``worst_time=nan``
counted no hits, and the event simulator failed its heap check with a
bare ``AssertionError``.  Now each input raises ``ValueError`` where it
enters, and the CLI exits 2 with an error line.
"""

import math

import numpy as np
import pytest

from repro.arrays.systolic import build_fir_array
from repro.arrays.topologies import mesh
from repro.cli import main as cli_main
from repro.sim.compiled import CompiledRecurrence
from repro.sim.dataflow import (
    SelfTimedProgramSimulator,
    constant_service,
    per_cell_service,
    recurrence_scalar,
    service_rows,
)
from repro.sim.engine import Simulator
from repro.sim.selftimed import (
    simulate_selftimed_line,
    simulate_selftimed_wavefront,
)
from repro.sta.design import design_for_workload
from repro.sta.flow import analyze_flow, minimal_buffer_sizing
from repro.sta.flowreport import build_flow_report


def _mesh_with_service(value):
    comm = mesh(3, 3).comm
    service = {c: 1.0 for c in comm.nodes()}
    service[(0, 0)] = value
    return comm, service


class TestServiceTimes:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_cell_service_is_refused(self, value):
        comm, service = _mesh_with_service(value)
        with pytest.raises(ValueError, match=f"service time {value!r}"):
            analyze_flow(comm, service, 0.5, 2)
        with pytest.raises(ValueError, match=f"service time {value!r}"):
            build_flow_report(comm, service, 0.5, 2, design_name="mesh-3")

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_a_non_finite_uniform_service_is_refused(self, value):
        comm = mesh(3, 3).comm
        with pytest.raises(ValueError, match="non-finite service time"):
            analyze_flow(comm, value, 0.5, 2)

    def test_a_per_wave_row_names_the_value_and_the_wave(self):
        cells = mesh(2, 2).comm.nodes()
        rows = service_rows(cells, lambda c, k: math.nan if k == 2 else 1.0)
        assert rows(1).tolist() == [1.0] * 4
        with pytest.raises(ValueError, match="non-finite service time nan in wave 2"):
            rows(2)

    def test_negative_services_keep_their_message(self):
        cells = mesh(2, 2).comm.nodes()
        with pytest.raises(ValueError, match="negative service time -1.0$"):
            service_rows(cells, -1.0)
        rows = service_rows(cells, lambda c, k: -0.5)
        with pytest.raises(ValueError, match="negative service time -0.5 in wave 0"):
            rows(0)

    def test_finite_services_resolve_unchanged(self):
        comm, service = _mesh_with_service(2.5)
        column = service_rows(comm.nodes(), service)(0)
        assert column.tolist() == [service[c] for c in comm.nodes()]
        assert column.dtype == np.float64


    def test_a_service_table_is_checked_once_and_read_by_wave(self):
        cells = mesh(2, 2).comm.nodes()
        table = np.arange(8.0).reshape(2, 4)
        rows = service_rows(cells, table)
        assert rows(1).tolist() == [4.0, 5.0, 6.0, 7.0]
        table[0, 2] = math.nan
        with pytest.raises(ValueError, match="non-finite service time nan$"):
            service_rows(cells, table)
        table[0, 2] = -1.0
        with pytest.raises(ValueError, match="negative service time -1.0$"):
            service_rows(cells, table)
        with pytest.raises(ValueError, match="3 columns for 4 cells"):
            service_rows(cells, np.ones((2, 3)))

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_service_constructors_refuse_non_finite_durations(self, value):
        with pytest.raises(ValueError, match=f"non-finite service time {value!r}$"):
            constant_service(value)
        with pytest.raises(
            ValueError, match=f"non-finite service time {value!r} for 'b'$"
        ):
            per_cell_service({"a": 1.0, "b": value})

    def test_a_non_finite_fire_duration_is_refused(self):
        program = build_fir_array([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        sim = SelfTimedProgramSimulator(
            program, service=lambda cell, wave: math.nan if wave == 1 else 1.0
        )
        with pytest.raises(ValueError, match="non-finite service time nan for .* wave 1"):
            sim.run()


class TestSelfTimedTimes:
    """Non-finite wires and thresholds, and bad samples, in the self-timed
    stack."""

    @pytest.mark.parametrize("wire", [math.nan, math.inf, -1.0])
    def test_every_recurrence_entry_refuses_the_wire(self, wire):
        program = build_fir_array([1.0, 2.0], [1.0, 2.0, 3.0, 4.0])
        comm = program.array.comm
        compiled = CompiledRecurrence(comm)
        message = "wire delay must be non-negative and finite"
        with pytest.raises(ValueError, match=message):
            simulate_selftimed_line(4, 10, lambda rng: 1.0, wire_delay=wire)
        with pytest.raises(ValueError, match=message):
            SelfTimedProgramSimulator(program, wire_delay=wire)
        with pytest.raises(ValueError, match=message):
            compiled.makespan(1.0, wire, 5)
        with pytest.raises(ValueError, match=message):
            compiled.makespan(1.0, {e: wire for e in comm.edges()}, 5)
        with pytest.raises(ValueError, match=message):
            next(recurrence_scalar(comm, constant_service(1.0), wire, None))

    @pytest.mark.parametrize(
        "sample,message",
        [(-1.0, "negative service time -1.0"), (math.nan, "non-finite service time nan")],
    )
    def test_samples_are_refused(self, sample, message):
        with pytest.raises(ValueError, match=message):
            simulate_selftimed_line(4, 10, lambda rng: sample)
        with pytest.raises(ValueError, match=message):
            simulate_selftimed_wavefront(2, 3, 10, lambda rng: sample)

    @pytest.mark.parametrize("worst", [math.nan, math.inf])
    def test_worst_time_must_be_finite(self, worst):
        with pytest.raises(ValueError, match="worst_time must be finite"):
            simulate_selftimed_line(4, 10, lambda rng: 1.0, worst_time=worst)
        with pytest.raises(ValueError, match="worst_time must be finite"):
            simulate_selftimed_wavefront(2, 3, 10, lambda rng: 1.0, worst_time=worst)

    def test_the_event_engine_refuses_a_nan_time(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(math.nan, lambda: None)
        with pytest.raises(ValueError):
            sim.schedule_at(math.nan, lambda: None)
        assert sim.run() == 0


@pytest.mark.parametrize("target", [math.nan, math.inf, -math.inf, 0.0])
def test_buffer_sizing_refuses_a_target_that_is_not_positive_and_finite(target):
    comm = mesh(2, 2).comm
    with pytest.raises(ValueError, match="positive and finite"):
        minimal_buffer_sizing(comm, 1.0, 0.5, target)


@pytest.mark.parametrize("size", [0, -3])
def test_a_design_needs_a_positive_size(size):
    with pytest.raises(ValueError, match=f"at least 1, got {size}"):
        design_for_workload("fir", size=size)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["flow", "--workload", "fir", "--size", "4", "--target", "inf"],
         "target cycle time must be positive and finite, got inf"),
        (["flow", "--workload", "fir", "--size", "4", "--target", "nan"],
         "target cycle time must be positive and finite, got nan"),
        (["sta", "--workload", "fir", "--size", "0"], "at least 1, got 0"),
        (["sta", "--workload", "fir", "--size", "-3"], "at least 1, got -3"),
        (["flow", "--size", "0"], "at least 1, got 0"),
    ],
)
def test_cli_number_holes_exit_2(argv, message, tmp_path, capsys):
    out = tmp_path / "out.json"
    assert cli_main(argv + ["--json", str(out)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags,name",
    [
        (["--element", "inf"], "element_size"),
        (["--element", "nan"], "element_size"),
        (["--delta", "nan"], "delta"),
        (["--delta", "inf"], "delta"),
    ],
)
def test_hybrid_cli_refuses_non_finite_numbers(flags, name, capsys):
    """``hybrid --element inf`` once reported a one-element scheme, and a
    NaN element size or a non-finite ``--delta`` failed on internal
    values; each now exits 2 naming the parameter."""
    assert cli_main(["hybrid", "--size", "8", *flags]) == 2
    err = capsys.readouterr().err
    assert f"error: {name} must be finite" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "flags,message",
    [
        (["--repeats", "0"], "--repeats must be at least 1, got 0"),
        (["--repeats", "-1"], "--repeats must be at least 1, got -1"),
        (["--workers", "0"], "--workers must be at least 1, got 0"),
        (["--edge-block", "0"], "--edge-block must be at least 1, got 0"),
        (["--trials", "1"], "--trials must be at least 2, got 1"),
        (["--sides", "16,0"], "--sides must be at least 1, got 0"),
        (["--scale-sides", "-4"], "--scale-sides must be at least 1, got -4"),
    ],
)
def test_bench_refuses_a_bad_count_before_timing_anything(
    flags, message, tmp_path, capsys, monkeypatch
):
    """``bench --repeats 0`` once timed every row, printed ``inf`` and
    ``nan`` speedups and then failed the schema; ``--trials 1`` and
    ``--workers 0`` failed only at the Monte-Carlo row, after every other
    row was timed."""
    import repro.analysis.perf as perf

    def never(**kwargs):
        raise AssertionError("bench timed rows before refusing its flags")

    monkeypatch.setattr(perf, "run_perf_suite", never)
    out = tmp_path / "bench.json"
    assert cli_main(["bench", "--sides", "16", *flags, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()
