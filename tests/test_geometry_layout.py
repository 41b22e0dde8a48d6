"""Unit tests for layouts and wires (assumptions A2/A3 accounting)."""

import random

import numpy as np
import pytest

from repro.geometry.layout import Layout, Wire
from repro.geometry.point import ORIGIN, Point


def grid_layout(rows, cols):
    return Layout({(r, c): Point(c, r) for r in range(rows) for c in range(cols)})


class TestWire:
    def test_length_is_polyline_manhattan(self):
        wire = Wire("a", "b", (Point(0, 0), Point(2, 0), Point(2, 2)))
        assert wire.length == 4
        assert wire.area == 4  # unit width (A3)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            Wire("a", "b", (Point(0, 0),))


class TestLayoutBasics:
    def test_place_and_lookup(self):
        layout = Layout()
        layout.place("a", Point(1, 2))
        assert layout["a"] == Point(1, 2)
        assert "a" in layout
        assert "b" not in layout
        assert len(layout) == 1

    def test_place_all_and_positions_copy(self):
        layout = Layout()
        layout.place_all({"a": Point(0, 0), "b": Point(1, 0)})
        positions = layout.positions()
        positions["a"] = Point(9, 9)
        assert layout["a"] == Point(0, 0)

    def test_cells_and_iter(self):
        layout = grid_layout(2, 2)
        assert set(layout.cells()) == set(iter(layout))

    def test_distance(self):
        layout = grid_layout(2, 3)
        assert layout.distance((0, 0), (1, 2)) == 3
        assert layout.euclidean_distance((0, 0), (0, 2)) == 2

    def test_wire_registration_requires_placed_endpoints(self):
        layout = Layout({"a": Point(0, 0)})
        with pytest.raises(KeyError):
            layout.add_wire(Wire("a", "b", (Point(0, 0), Point(1, 0))))

    def test_route_straight(self):
        layout = Layout({"a": Point(0, 0), "b": Point(2, 1)})
        wire = layout.route_straight("a", "b")
        assert wire.length == 3
        assert layout.wire_area == 3
        assert len(layout.wires) == 1


class TestLayoutGeometry:
    def test_bounding_box_includes_cell_margin(self):
        layout = grid_layout(2, 2)
        box = layout.bounding_box()
        # cells at 0..1 plus half-unit margin each side
        assert box.width == 2 and box.height == 2

    def test_area_of_single_cell(self):
        layout = Layout({"a": Point(0, 0)})
        assert layout.area == 1.0  # exactly the unit cell (A2)

    def test_cell_area_counts_cells(self):
        assert grid_layout(3, 4).cell_area == 12

    def test_aspect_ratio(self):
        assert grid_layout(1, 8).aspect_ratio == 8.0
        assert grid_layout(4, 4).aspect_ratio == 1.0

    def test_diameter(self):
        assert grid_layout(3, 3).diameter == 6.0  # (2+1) + (2+1)

    def test_empty_layout_has_no_box(self):
        with pytest.raises(ValueError):
            Layout().bounding_box()


class TestWellSpaced:
    def test_unit_grid_is_well_spaced(self):
        assert grid_layout(5, 5).is_well_spaced()

    def test_overlap_detected(self):
        layout = Layout({"a": Point(0, 0), "b": Point(0.5, 0.2)})
        assert not layout.is_well_spaced()

    def test_exact_spacing_is_accepted(self):
        layout = Layout({"a": Point(0, 0), "b": Point(1.0, 0)})
        assert layout.is_well_spaced(1.0)

    def test_custom_separation(self):
        layout = Layout({"a": Point(0, 0), "b": Point(1.0, 0)})
        assert not layout.is_well_spaced(1.5)

    def test_rejects_nonpositive_separation(self):
        with pytest.raises(ValueError):
            grid_layout(2, 2).is_well_spaced(0)

    def test_large_sparse_layout(self):
        layout = Layout({i: Point(3.0 * i, 0) for i in range(200)})
        assert layout.is_well_spaced()

    def test_two_cells_on_one_shared_point_overlap(self):
        layout = Layout()
        layout.place("a", ORIGIN)
        layout.place("b", ORIGIN)
        assert not layout.is_well_spaced()

    def test_agrees_with_all_pairs_chebyshev(self):
        """Random layouts, integer and float coordinates, negative ones,
        separations 0.3-2.0, and pairs within an ulp of the threshold."""
        rng = random.Random(20240611)
        for _ in range(500):
            sep = rng.choice((1.0, rng.uniform(0.3, 2.0)))
            limit = sep - 1e-9
            layout = Layout()
            for i in range(rng.randint(2, 24)):
                if rng.random() < 0.5:
                    p = Point(rng.randint(-6, 6), rng.randint(-6, 6))
                else:
                    p = Point(rng.uniform(-6, 6), rng.uniform(-6, 6))
                layout.place(("c", i), p)
                if rng.random() < 0.3:  # a neighbour near the threshold
                    gap = rng.choice((np.nextafter(limit, 0.0), limit,
                                      np.nextafter(limit, 9.0)))
                    sign = rng.choice((1.0, -1.0))
                    q = (Point(p.x + sign * gap, p.y + rng.uniform(-gap, gap))
                         if rng.random() < 0.5 else
                         Point(p.x + rng.uniform(-gap, gap), p.y + sign * gap))
                    layout.place(("n", i), q)
            points = [layout[c] for c in layout.cells()]
            expected = all(
                max(abs(p.x - q.x), abs(p.y - q.y)) >= limit
                for i, p in enumerate(points) for q in points[i + 1:])
            assert layout.is_well_spaced(sep) == expected


class TestTransforms:
    def test_translated_moves_cells_and_wires(self):
        layout = Layout({"a": Point(0, 0), "b": Point(1, 0)})
        layout.route_straight("a", "b")
        moved = layout.translated(2, 3)
        assert moved["a"] == Point(2, 3)
        assert moved.wires[0].path[0] == Point(2, 3)
        assert moved.wire_area == layout.wire_area

    def test_scaled(self):
        layout = Layout({"a": Point(1, 1), "b": Point(2, 1)})
        layout.route_straight("a", "b")
        big = layout.scaled(3.0)
        assert big["b"] == Point(6, 3)
        assert big.wires[0].length == 3 * layout.wires[0].length

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            grid_layout(2, 2).scaled(0)
