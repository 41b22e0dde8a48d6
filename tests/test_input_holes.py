"""Regressions for input holes: non-finite service times and CLI numbers.

Each case once produced an answer from a meaningless input.  A NaN
service on one cell of a 3x3 mesh gave a live design with cycle time 1.5,
and the simulator cross-check then ran 100,000 waves before it gave up;
an infinite service gave cycle time ``inf``.  ``flow --target inf`` failed
its own report schema with a traceback, ``--target nan`` blamed an
unreachable cycle, and ``--size 0`` or ``--size -3`` analyzed a design
built from a silently substituted size.  Now each input raises
``ValueError`` where it enters, and the CLI exits 2 with an error line.
"""

import math

import numpy as np
import pytest

from repro.arrays.topologies import mesh
from repro.cli import main as cli_main
from repro.sim.dataflow import service_rows
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
