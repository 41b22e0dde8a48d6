"""The array forms of the static signoff, pinned to their scalar oracles.

A cold signoff builds its slack vectors, its A9 worst ``d`` and its
equidistance check as array expressions over the COMM graph's cached
lowering.  Each is held here, bit for bit, to the per-edge or per-pair
scalar it replaced, which stays in the library as the oracle:
:meth:`Design.edge_lag`, :meth:`ClockTree.path_difference` and
:meth:`ClockTree.root_distance`, and the scalar :meth:`WireDelayModel.delay`.
"""

import dataclasses
import random

import numpy as np
import pytest

from repro.arrays.model import ProcessorArray
from repro.core.assumptions import check_a9_equidistance
from repro.delay.buffer import InverterPairModel
from repro.delay.wire import ElmoreWireModel, LinearWireModel
from repro.geometry.layout import Layout
from repro.geometry.point import Point
from repro.graphs.comm import CommGraph
from repro.sta.design import design_for_workload, random_design
from repro.sta.eco import ECOSession
from repro.sta.slack import analyze_slack, edge_lags

SCHEMES = ("serpentine", "kdtree", "star")


def bits(values):
    return np.asarray(values, dtype=np.float64).tobytes()


def scalar_lags(design):
    return [design.edge_lag(e) for e in design.edges()]


class TestEdgeLags:
    @pytest.mark.parametrize("seed", range(16))
    def test_random_designs(self, seed):
        design = random_design(seed)
        assert bits(edge_lags(design)) == bits(scalar_lags(design))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_padded_designs(self, scheme):
        design = design_for_workload("sorter", size=9, scheme=scheme, seed=5,
                                     m=1.3, eps=0.2, delta=0.7)
        assert design.edge_padding
        assert bits(edge_lags(design)) == bits(scalar_lags(design))
        assert bits(analyze_slack(design).lag) == bits(scalar_lags(design))

    @pytest.mark.parametrize("seed", range(4))
    def test_after_wire_retargets(self, seed):
        rng = random.Random(seed)
        session = ECOSession(random_design(100 + seed))
        edges = session.design.edges()
        for edge in rng.sample(edges, len(edges) // 2):
            session.retarget_wire(edge, rng.choice((rng.uniform(0.0, 5.0), 3)))
        design = session.design
        assert len(design.wire_overrides) == len(edges) // 2
        assert bits(edge_lags(design)) == bits(scalar_lags(design))
        assert bits(session.analysis().lag) == bits(edge_lags(design))

    def test_elmore_wire_model(self):
        base = design_for_workload("matvec", size=5, scheme="kdtree", seed=2)
        design = dataclasses.replace(base, wire_model=ElmoreWireModel(
            r=0.7, c=1.3, driver_resistance=0.25, load_capacitance=0.4))
        design.wire_overrides[design.edges()[3]] = 2.75
        lags = edge_lags(design)
        assert bits(lags) == bits(scalar_lags(design))
        assert not np.array_equal(lags, edge_lags(base))


class TestWireFormula:
    @pytest.mark.parametrize("model", [
        LinearWireModel(m=1.7e-3),
        ElmoreWireModel(r=0.3, c=2.1, driver_resistance=0.9, load_capacitance=0.05),
    ])
    def test_vector_formula_is_the_scalar_delay(self, model):
        rng = random.Random(7)
        lengths = [0.0, 1, 3] + [rng.uniform(0.0, 40.0) for _ in range(200)]
        vector = model.formula(np.array(lengths, dtype=np.float64))
        assert bits(vector) == bits([model.delay(x) for x in lengths])
        with pytest.raises(ValueError, match="non-negative"):
            model.delay(-1e-300)


class TestTreeMetrics:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a9_worst_d_is_the_scalar_max(self, scheme):
        design = design_for_workload("matmul", size=7, scheme=scheme, seed=9)
        array, tree = design.array, design.tree
        worst = max(tree.path_difference(a, b) for a, b in array.communicating_pairs())
        d, _ = tree.path_metrics_batch(array.comm.lowering().edges)
        assert bits([d.max()]) == bits([worst])
        check = check_a9_equidistance(array, tree)
        assert check.detail == f"worst communicating-pair d = {worst:.4g}"

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_equidistance_spread_is_the_scalar_spread(self, scheme):
        design = design_for_workload("fir", size=12, scheme=scheme, seed=4)
        tree, cells = design.tree, design.array.comm.nodes()
        distances = [tree.root_distance(c) for c in cells]
        spread = max(distances) - min(distances)
        assert tree.is_equidistant(iter(cells), spread)
        assert not tree.is_equidistant(cells, float(np.nextafter(spread, -1.0)))
        assert tree.is_equidistant([])


class TestLowering:
    def test_edges_is_a_fresh_list(self):
        graph = CommGraph([(0, 1), (1, 2), (2, 1)])
        edges = graph.edges()
        edges.append((5, 6))
        edges[0] = (9, 9)
        assert graph.edges() == [(0, 1), (1, 2), (2, 1)]
        assert graph.edges() is not graph.edges()
        pairs = graph.communicating_pairs()
        pairs.clear()
        assert graph.communicating_pairs() == [(0, 1), (1, 2)]

    def test_lowering_follows_the_version_and_is_read_only(self):
        graph = CommGraph([("a", "b"), ("b", "c")])
        low = graph.lowering()
        assert graph.lowering() is low
        assert low.edges == tuple(graph.edges())
        for arr in (low.chan_src, low.chan_dst, low.by_dst, low.fwd_src, low.fwd_dst):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1
        graph.add_edge("c", "a")
        fresh = graph.lowering()
        assert fresh is not low
        assert fresh.edges == (("a", "b"), ("b", "c"), ("c", "a"))
        assert fresh.chan_src.tolist() == [0, 1, 2]
        assert fresh.chan_dst.tolist() == [1, 2, 0]
        assert graph.edge_index() == {e: i for i, e in enumerate(fresh.edges)}
        graph.add_edge("c", "a")  # already there: the version stays
        assert graph.lowering() is fresh

    def test_edge_distances_are_the_layout_distances(self):
        rng = random.Random(3)
        layout = Layout({i: Point(rng.uniform(-9, 9), rng.choice((rng.randint(-9, 9), 0.5)))
                         for i in range(12)})
        comm = CommGraph([(i, (i * 5 + 1) % 12) for i in range(12)])
        array = ProcessorArray(comm, layout)
        expected = [layout.distance(u, v) for u, v in comm.edges()]
        assert bits(array.edge_distances()) == bits(expected)
        assert not array.edge_distances().flags.writeable
        comm.add_edge(0, 6)
        expected = [layout.distance(u, v) for u, v in comm.edges()]
        assert bits(array.edge_distances()) == bits(expected)


def test_stage_draws_are_the_sample_stream():
    a = InverterPairModel(nominal=0.8, bias=0.05, variance=0.01, seed=11)
    b = InverterPairModel(nominal=0.8, bias=0.05, variance=0.01, seed=11)
    for _ in range(50):
        buf = a.sample_stage()
        assert (buf.delay_rise, buf.delay_fall) == b.draw()
