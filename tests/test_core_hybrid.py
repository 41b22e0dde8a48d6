"""Unit tests for the Section VI hybrid synchronization scheme."""

import math

import pytest

from repro.arrays.topologies import hex_array, linear_array, mesh
from repro.clocktree.tree import ClockTree
from repro.core.hybrid import build_hybrid, partition_into_elements


def _scanline_spine(array, eid, cells, controller):
    """An element's local clock as a tree: a spine from the controller
    through the cells in scanline order, a tap station per cell."""
    ordered = sorted(cells, key=lambda c: (array.layout[c].y, array.layout[c].x))
    tree = ClockTree(("ctrl", eid), controller)
    entries, previous = [], ("ctrl", eid)
    for i, cell in enumerate(ordered):
        station = ("ltap", eid, i)
        position = array.layout[cell]
        entries += [(previous, station, position, None), (station, cell, position, 0.0)]
        previous = station
    tree.add_children(entries)
    return tree


class TestPartition:
    def test_block_membership(self):
        array = mesh(8, 8)
        elements = partition_into_elements(array, 4.0)
        assert len(elements) == 4
        assert all(len(cells) == 16 for cells in elements.values())

    def test_every_cell_assigned_once(self):
        array = mesh(6, 6)
        elements = partition_into_elements(array, 4.0)
        assigned = [c for cells in elements.values() for c in cells]
        assert sorted(assigned) == sorted(array.comm.nodes())

    def test_element_diameter_bounded(self):
        array = mesh(16, 16)
        elements = partition_into_elements(array, 4.0)
        for cells in elements.values():
            xs = [array.layout[c].x for c in cells]
            ys = [array.layout[c].y for c in cells]
            assert max(xs) - min(xs) < 4.0
            assert max(ys) - min(ys) < 4.0

    def test_rejects_nonpositive_size(self):
        with pytest.raises(ValueError):
            partition_into_elements(mesh(4, 4), 0)


class TestBuildHybrid:
    def test_element_graph_connects_neighbors(self):
        scheme = build_hybrid(mesh(8, 8), element_size=4.0)
        assert scheme.element_graph.node_count == 4
        # 2x2 element grid: 4 adjacencies
        assert len(scheme.element_graph.communicating_pairs()) == 4

    def test_local_reach_is_the_spine_trees_longest_path(self):
        """Each element's reach is, bit for bit, the longest
        root-to-leaf path of its scanline spine built as a clock tree."""
        arrays = [mesh(8, 8), mesh(9, 5), hex_array(6, 5), linear_array(13)]
        for array in arrays:
            for size in (1.0, 1.5, 2.5, 4.0, 5.5):
                scheme = build_hybrid(array, element_size=size)
                assert set(scheme.local_reach) == set(scheme.elements)
                for eid, cells in scheme.elements.items():
                    tree = _scanline_spine(array, eid, cells, scheme.controllers[eid])
                    assert all(c in tree for c in cells)
                    assert (scheme.local_reach[eid].hex()
                            == tree.longest_root_to_leaf().hex()), (array.name, size, eid)

    def test_controllers_inside_blocks(self):
        scheme = build_hybrid(mesh(8, 8), element_size=4.0)
        for eid, ctrl in scheme.controllers.items():
            bx, by = eid
            assert bx * 4.0 <= ctrl.x <= (bx + 1) * 4.0
            assert by * 4.0 <= ctrl.y <= (by + 1) * 4.0

    def test_works_on_hex(self):
        scheme = build_hybrid(hex_array(8, 8), element_size=4.0)
        assert scheme.element_count() == 4

    def test_works_on_linear(self):
        scheme = build_hybrid(linear_array(32), element_size=4.0)
        assert scheme.element_count() == 8
        # chain of elements
        assert len(scheme.element_graph.communicating_pairs()) == 7


class TestCycleTimeModel:
    def test_constant_as_array_grows(self):
        cycles = []
        for n in (8, 16, 32):
            scheme = build_hybrid(mesh(n, n), element_size=4.0)
            cycles.append(scheme.cycle_time(delta=1.0))
        assert max(cycles) == pytest.approx(min(cycles))

    def test_grows_with_element_size(self):
        small = build_hybrid(mesh(16, 16), element_size=2.0).cycle_time(delta=1.0)
        large = build_hybrid(mesh(16, 16), element_size=8.0).cycle_time(delta=1.0)
        assert large > small

    def test_local_distribution_bounded_by_element(self):
        scheme = build_hybrid(mesh(32, 32), element_size=4.0)
        # serpentine local spine through 16 cells: <= ~16 + detours
        assert scheme.max_local_distribution() <= 2 * 16 + 4

    def test_controller_distance_bounded(self):
        scheme = build_hybrid(mesh(32, 32), element_size=4.0)
        assert scheme.max_controller_distance() <= 2 * 4.0

    def test_single_element_has_no_handshake(self):
        scheme = build_hybrid(mesh(4, 4), element_size=8.0)
        assert scheme.max_controller_distance() == 0.0

    def test_largest_element(self):
        scheme = build_hybrid(mesh(8, 8), element_size=4.0)
        assert scheme.largest_element() == 16

    def test_rejects_bad_cycle_args(self):
        scheme = build_hybrid(mesh(4, 4), element_size=2.0)
        with pytest.raises(ValueError):
            scheme.cycle_time(delta=-1)
        with pytest.raises(ValueError):
            scheme.cycle_time(delta=1, m=0)


class TestNonFiniteParameters:
    """An infinite element size once made one element of any array, a
    NaN one failed on an internal float-to-int conversion, and a
    non-finite ``delta`` or ``m`` gave a NaN or infinite cycle time."""

    @pytest.mark.parametrize("size", [math.inf, math.nan])
    def test_partition_refuses_a_non_finite_element_size(self, size):
        with pytest.raises(ValueError, match=f"^element_size must be finite, got {size!r}$"):
            partition_into_elements(mesh(4, 4), size)

    @pytest.mark.parametrize("kwargs,name", [
        ({"delta": math.nan}, "delta"),
        ({"delta": math.inf}, "delta"),
        ({"delta": 1.0, "m": math.inf}, "m"),
        ({"delta": 1.0, "m": math.nan}, "m"),
    ])
    def test_cycle_time_refuses_non_finite_parameters(self, kwargs, name):
        scheme = build_hybrid(mesh(4, 4), element_size=2.0)
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            scheme.cycle_time(**kwargs)
