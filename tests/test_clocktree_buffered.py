"""Unit tests for buffered (pipelined) clock trees — assumptions A7/A8."""

import math

import numpy as np
import pytest

from repro.arrays.topologies import hex_array, linear_array, mesh
from repro.clocktree.buffered import BufferedClockTree
from repro.clocktree.builders import kdtree_clock, star_clock
from repro.clocktree.htree import htree_for_array
from repro.clocktree.spine import spine_clock
from repro.delay.buffer import InverterPairModel
from repro.delay.variation import (
    BoundedUniformVariation,
    GaussianVariation,
    NoVariation,
    SpatialGradientVariation,
)


def buffered_spine(n, eps=0.2, seed=1, spacing=1.0):
    array = linear_array(n)
    return array, BufferedClockTree(
        spine_clock(array),
        buffer_spacing=spacing,
        wire_variation=BoundedUniformVariation(m=1.0, epsilon=eps, seed=seed),
        buffer_model=InverterPairModel(nominal=spacing, seed=seed),
    )


class TestConstruction:
    def test_buffer_count_scales_with_wire_length(self):
        _a1, b1 = buffered_spine(16)
        _a2, b2 = buffered_spine(64)
        assert b2.buffer_count > b1.buffer_count

    def test_zero_length_edges_free(self):
        array = linear_array(4)
        tree = spine_clock(array)  # taps have zero length
        b = BufferedClockTree(tree, wire_variation=NoVariation())
        for cell in range(4):
            station = ("tap", cell)
            assert b.arrival(cell) == b.arrival(station)

    def test_rejects_bad_spacing(self):
        array = linear_array(4)
        with pytest.raises(ValueError):
            BufferedClockTree(spine_clock(array), buffer_spacing=0)

    @pytest.mark.parametrize("spacing", [math.inf, math.nan])
    def test_rejects_non_finite_spacing(self, spacing):
        # inf made tau() inf; NaN failed converting a segment count.
        with pytest.raises(ValueError, match="buffer spacing must be finite"):
            BufferedClockTree(spine_clock(linear_array(4)), buffer_spacing=spacing)


class TestTauConstancy:
    def test_tau_independent_of_size(self):
        taus = []
        for n in (16, 128, 1024):
            _a, b = buffered_spine(n, eps=0.2, seed=3)
            taus.append(b.tau())
        assert max(taus) - min(taus) <= 0.25  # bounded by segment + buffer max

    def test_tau_bounded_by_segment_plus_buffer(self):
        _a, b = buffered_spine(256, eps=0.2)
        # Max per-segment: wire (<= 1.2 per unit) + buffer (~1).
        assert b.tau() <= 1.2 + 1.1

    def test_latency_grows_linearly(self):
        _a1, b1 = buffered_spine(64)
        _a2, b2 = buffered_spine(256)
        assert b2.latency() / b1.latency() == pytest.approx(4.0, rel=0.15)


class TestEmpiricalSkew:
    def test_neighbor_skew_constant_on_spine(self):
        skews = []
        for n in (32, 256, 1024):
            array, b = buffered_spine(n, eps=0.2, seed=2)
            skews.append(b.max_skew(array.communicating_pairs()))
        assert max(skews) <= 2.5  # s=1 -> at most (m+eps)*1 + buffer ~ 2.2
        assert max(skews) - min(skews) <= 0.5

    def test_skew_bounded_by_summation_model(self):
        # Empirical skew <= (m + eps) * s + buffer asymmetry contribution.
        array, b = buffered_spine(64, eps=0.3, seed=5)
        tree = b.tree
        for a_cell, b_cell in array.communicating_pairs():
            s = tree.path_length(a_cell, b_cell)
            assert b.skew(a_cell, b_cell) <= (1.0 + 0.3) * s + 2.0 + 1e-9

    def test_zero_variation_zero_skew_on_htree(self):
        array = mesh(4, 4)
        b = BufferedClockTree(
            htree_for_array(array),
            wire_variation=NoVariation(m=1.0),
            buffer_model=InverterPairModel(nominal=1.0),
        )
        assert b.max_skew(array.communicating_pairs()) <= 1e-9

    def test_variation_breaks_htree_equidistance(self):
        array = mesh(8, 8)
        b = BufferedClockTree(
            htree_for_array(array),
            wire_variation=BoundedUniformVariation(m=1.0, epsilon=0.3, seed=4),
        )
        assert b.max_skew(array.communicating_pairs()) > 0.1

    def test_empty_pairs(self):
        _a, b = buffered_spine(4)
        assert b.max_skew([]) == 0.0


class TestDeterminismAndA8:
    def test_same_seed_same_arrivals(self):
        a1, b1 = buffered_spine(32, seed=11)
        _a2, b2 = buffered_spine(32, seed=11)
        assert all(b1.arrival(c) == b2.arrival(c) for c in range(32))

    def test_resample_changes_arrivals(self):
        array, b = buffered_spine(32, seed=11)
        before = [b.arrival(c) for c in range(32)]
        b.resample(99)
        after = [b.arrival(c) for c in range(32)]
        assert before != after

    def test_pulse_distortion_zero_without_bias(self):
        _a, b = buffered_spine(32)
        assert b.max_pulse_distortion() == pytest.approx(0.0)

    def test_pulse_distortion_accumulates_with_bias(self):
        array = linear_array(64)
        b = BufferedClockTree(
            spine_clock(array),
            wire_variation=NoVariation(),
            buffer_model=InverterPairModel(nominal=1.0, bias=0.1),
        )
        assert b.pulse_distortion(63) == pytest.approx(0.1 * 63, rel=0.05)

    def test_events_in_flight(self):
        _a, b = buffered_spine(256)
        depth = b.events_in_flight(period=4.0)
        assert depth > 10  # genuinely pipelined
        with pytest.raises(ValueError):
            b.events_in_flight(0)


def per_segment_realization(tree, spacing, wire_variation, buffer_model):
    """The per-segment loop the realization was, kept as its oracle: each
    edge in insertion order, each segment left to right, one wire sample
    at the segment's midpoint and one stage draw per segment."""
    wire_variation.reset()
    buffer_model.reset()
    rise_at, fall_at = {tree.root: 0.0}, {tree.root: 0.0}
    delays = []
    for node in tree.nodes()[1:]:
        parent = tree.parent(node)
        length = tree.edge_length(node)
        rise_total = fall_total = 0.0
        if length > 0:
            segments = max(1, math.ceil(length / spacing - 1e-12))
            p0, p1 = tree.position(parent), tree.position(node)
            x0, y0, dx, dy = p0.x, p0.y, p1.x - p0.x, p1.y - p0.y
            for i in range(segments):
                frac = (i + 0.5) / segments
                wire = length / segments * wire_variation.sample_at(
                    x0 + dx * frac, y0 + dy * frac)
                rise, fall = buffer_model.draw()
                rise_total += wire + rise
                fall_total += wire + fall
                delays.append(wire + max(rise, fall))
        rise_at[node] = rise_at[parent] + rise_total
        fall_at[node] = fall_at[parent] + fall_total
    return rise_at, fall_at, delays


def _bits(values):
    return np.asarray(list(values), dtype=np.float64).view(np.uint64).tolist()


ORACLE_TREES = {
    "kdtree-mesh5x3": (lambda: kdtree_clock(mesh(5, 3)), 0.75),
    "star-hex3x4": (lambda: star_clock(hex_array(3, 4)), 1.0),
    "spine-linear9": (lambda: spine_clock(linear_array(9), tap_length=0.4), 0.3),
    "htree-mesh4x4": (lambda: htree_for_array(mesh(4, 4)), 2.5),
}
ORACLE_WIRES = {
    "none": lambda: NoVariation(m=1.25),
    "uniform": lambda: BoundedUniformVariation(m=1.0, epsilon=0.3, seed=5),
    "gauss": lambda: GaussianVariation(m=0.9, sigma=0.2, seed=5),
    "gradient": lambda: SpatialGradientVariation(m=1.0, gx=0.03, gy=-0.02,
                                                 sigma=0.05, seed=5),
}


class TestBulkRealizationMatchesPerSegmentLoop:
    @pytest.mark.parametrize("variance", [0.0, 0.02])
    @pytest.mark.parametrize("wire", sorted(ORACLE_WIRES))
    @pytest.mark.parametrize("tree_name", sorted(ORACLE_TREES))
    def test_arrivals_segment_delays_and_buffer_count(self, tree_name, wire, variance):
        build, spacing = ORACLE_TREES[tree_name]
        tree = build()

        def stages():
            return InverterPairModel(nominal=0.8 * spacing, bias=0.05,
                                     variance=variance, seed=3)

        buffered = BufferedClockTree(tree, buffer_spacing=spacing,
                                     wire_variation=ORACLE_WIRES[wire](),
                                     buffer_model=stages())
        for seed in (None, 11):
            oracle_wire, oracle_stage = ORACLE_WIRES[wire](), stages()
            if seed is not None:
                buffered.resample(seed)
                oracle_wire.resample(seed)
                oracle_stage = oracle_stage.reseeded(seed)
            rise, fall, delays = per_segment_realization(
                tree, spacing, oracle_wire, oracle_stage)
            nodes = tree.nodes()
            assert _bits(buffered.arrival(n, True) for n in nodes) == _bits(rise.values())
            assert _bits(buffered.arrival(n, False) for n in nodes) == _bits(fall.values())
            assert _bits(buffered._segment_delays) == _bits(delays)
            assert buffered.buffer_count == len(delays) > 0
            assert buffered.tau() == max(delays)
            assert buffered.latency() == max(rise.values())

    def test_a_grown_tree_rebuilds_over_its_new_segments(self):
        tree = kdtree_clock(mesh(3, 3))
        wire = SpatialGradientVariation(m=1.0, gx=0.1, sigma=0.1, seed=1)
        buffered = BufferedClockTree(tree, buffer_spacing=0.5, wire_variation=wire)
        leaf = tree.leaves()[0]
        tree.add_children([(leaf, "g1", tree.position(leaf).translated(1.5, 0.5), None),
                           ("g1", "g2", tree.position(leaf).translated(2.0, 2.0), 0.7)])
        tree.set_edge_length(tree.nodes()[1], 3.3)
        rise, _fall, delays = per_segment_realization(
            tree, 0.5, SpatialGradientVariation(m=1.0, gx=0.1, sigma=0.1, seed=1),
            InverterPairModel(nominal=0.5))
        assert _bits(buffered.arrival(n) for n in tree.nodes()) == _bits(rise.values())
        assert _bits(buffered._segment_delays) == _bits(delays)
