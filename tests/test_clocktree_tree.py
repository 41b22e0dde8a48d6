"""Unit tests for the CLK tree structure and its d/s path metrics."""

import math

import pytest

from repro.clocktree.tree import ClockTree
from repro.geometry.point import Point


def small_tree():
    """Root with two subtrees of different depths and edge lengths.

          root(0,0)
          /        \\
       a(2,0)      b(0,3)
        /  \\         \\
    c(3,0) d(2,2)    e(0,6)
    """
    t = ClockTree("root", Point(0, 0))
    t.add_child("root", "a", Point(2, 0))
    t.add_child("root", "b", Point(0, 3))
    t.add_child("a", "c", Point(3, 0))
    t.add_child("a", "d", Point(2, 2))
    t.add_child("b", "e", Point(0, 6))
    return t


class TestConstruction:
    def test_default_length_is_manhattan(self):
        t = small_tree()
        assert t.edge_length("a") == 2
        assert t.edge_length("d") == 2

    def test_explicit_length_overrides(self):
        t = ClockTree("r", Point(0, 0))
        t.add_child("r", "x", Point(1, 0), length=5.0)
        assert t.edge_length("x") == 5.0

    def test_zero_length_allowed(self):
        t = ClockTree("r", Point(0, 0))
        t.add_child("r", "x", Point(0, 0), length=0.0)
        assert t.root_distance("x") == 0.0

    def test_binary_arity_enforced(self):
        t = small_tree()
        with pytest.raises(ValueError):
            t.add_child("a", "z", Point(9, 9))

    def test_relaxed_arity(self):
        t = ClockTree("r", Point(0, 0), max_children=3)
        for i in range(3):
            t.add_child("r", i, Point(i + 1, 0))
        assert len(t.children("r")) == 3

    def test_duplicate_node_rejected(self):
        t = small_tree()
        with pytest.raises(ValueError):
            t.add_child("b", "a", Point(1, 1))

    def test_unknown_parent_rejected(self):
        t = small_tree()
        with pytest.raises(KeyError):
            t.add_child("nope", "x", Point(0, 0))

    def test_negative_length_rejected(self):
        t = small_tree()
        with pytest.raises(ValueError):
            t.add_child("e", "x", Point(0, 7), length=-1)

    def test_root_has_no_parent_edge(self):
        with pytest.raises(ValueError):
            small_tree().edge_length("root")


def _state(t):
    store = t.dense_store
    return (t.nodes(), t.children_map(), [t.position(n) for n in t.nodes()],
            store.parent.tolist(), store.depth.tolist(), store.rd.tolist(),
            store.length.tolist(), store.x.tolist(), store.y.tolist())


class TestAddChildren:
    ENTRIES = [("root", "a", Point(2, 0), None), ("root", "b", Point(0, 3), None),
               ("a", "c", Point(3, 0), None), ("a", "d", Point(2, 2), 0.25),
               ("b", "e", Point(0, 6), None)]

    def test_batch_equals_one_node_at_a_time(self):
        batch = ClockTree("root", Point(0, 0))
        batch.add_children(self.ENTRIES)
        single = ClockTree("root", Point(0, 0))
        for entry in self.ENTRIES:
            single.add_child(*entry)
        assert _state(batch) == _state(single)
        assert batch.dense_store.max_depth == single.dense_store.max_depth == 2
        batch.validate()

    def test_version_moves_once_per_batch(self):
        t = ClockTree("root", Point(0, 0))
        t.add_children(self.ENTRIES)
        assert t.version == 1
        t.add_children([])
        assert t.version == 1
        t.add_children(("e", f"x{i}", Point(0, 7 + i), None) for i in range(1))
        assert t.version == 2

    def test_batch_grows_from_existing_nodes_and_its_own(self):
        t = small_tree()
        t.add_children([("e", "f", Point(0, 8), None), ("f", "g", Point(1, 8), None),
                        ("c", "h", Point(3, 1), 4.0)])
        assert t.root_distance("g") == 3 + 3 + 2 + 1
        assert t.root_distance("h") == 2 + 1 + 4.0
        assert t.depth("g") == 4 and t.parent("g") == "f"
        assert t.lca("g", "h") == "root"

    @pytest.mark.parametrize("bad, error, match", [
        (("a", "c", Point(9, 9), None), ValueError, "'c' is already in the tree"),
        (("x1", "x2", Point(9, 9), None), ValueError, "'x2' is already in the tree"),
        (("zz", "x3", Point(9, 9), None), KeyError, "'zz' is not in the tree"),
        (("x1", "x3", Point(9, 9), None), ValueError, "'x1' already has 2 children"),
        (("e", "x3", Point(9, 9), -1.0), ValueError, "non-negative and finite"),
        (("e", "x3", Point(9, 9), math.inf), ValueError, "non-negative and finite"),
        (("e", "x3", Point(math.nan, 9), 1.0), ValueError, "position of node 'x3'"),
        (("e", "x3", Point(9, -math.inf), 1.0), ValueError, "position of node 'x3'"),
    ])
    def test_a_refused_batch_leaves_the_tree_unchanged(self, bad, error, match):
        # The bad entry comes last: an earlier entry is its parent, or
        # fills the parent it names.
        t = small_tree()
        before, version = _state(t), t.version
        batch = [("e", "x1", Point(0, 7), None), ("x1", "x2", Point(0, 8), None),
                 ("x1", "x9", Point(1, 7), None), bad]
        with pytest.raises(error, match=match):
            t.add_children(batch)
        assert _state(t) == before and t.version == version
        t.validate()

    def test_the_first_bad_entry_names_the_refusal(self):
        t = small_tree()
        with pytest.raises(KeyError, match="'zz'"):
            t.add_children([("zz", "x", Point(0, 0), None), ("a", "b", Point(0, 0), None)])

    def test_non_finite_root_position_rejected(self):
        for root in (Point(math.inf, 0.0), Point(0.0, math.nan)):
            with pytest.raises(ValueError, match="root_position must be finite"):
                ClockTree("r", root)

    def test_non_finite_position_with_a_length_rejected(self):
        t = small_tree()
        with pytest.raises(ValueError, match="position of node 'x' must be finite"):
            t.add_child("e", "x", Point(math.nan, 0.0), length=1.0)
        assert "x" not in t

    def test_non_finite_position_without_a_length_names_the_length(self):
        t = small_tree()
        with pytest.raises(ValueError, match="edge length must be non-negative and finite"):
            t.add_child("e", "x", Point(math.nan, 0.0))


class TestStructureQueries:
    def test_len_contains_iter(self):
        t = small_tree()
        assert len(t) == 6
        assert "c" in t and "z" not in t
        assert set(iter(t)) == {"root", "a", "b", "c", "d", "e"}

    def test_leaves(self):
        assert set(small_tree().leaves()) == {"c", "d", "e"}

    def test_parent_children(self):
        t = small_tree()
        assert t.parent("c") == "a"
        assert t.parent("root") is None
        assert set(t.children("a")) == {"c", "d"}

    def test_children_map_matches(self):
        t = small_tree()
        cmap = t.children_map()
        assert set(cmap["root"]) == {"a", "b"}
        assert cmap["e"] == []

    def test_depth(self):
        t = small_tree()
        assert t.depth("root") == 0
        assert t.depth("d") == 2

    def test_subtree_nodes(self):
        t = small_tree()
        assert set(t.subtree_nodes("a")) == {"a", "c", "d"}

    def test_validate_passes(self):
        small_tree().validate()


class TestPathMetrics:
    def test_root_distance(self):
        t = small_tree()
        assert t.root_distance("root") == 0
        assert t.root_distance("c") == 3  # 2 + 1
        assert t.root_distance("e") == 6  # 3 + 3

    def test_lca(self):
        t = small_tree()
        assert t.lca("c", "d") == "a"
        assert t.lca("c", "e") == "root"
        assert t.lca("a", "c") == "a"
        assert t.lca("root", "e") == "root"

    def test_path_length_sums_to_lca(self):
        t = small_tree()
        # c: 1 from a; d: 2 from a.
        assert t.path_length("c", "d") == 3
        # c: 3 from root; e: 6 from root.
        assert t.path_length("c", "e") == 9

    def test_path_length_to_self_is_zero(self):
        t = small_tree()
        assert t.path_length("d", "d") == 0

    def test_path_length_ancestor(self):
        t = small_tree()
        assert t.path_length("root", "c") == 3

    def test_path_difference(self):
        t = small_tree()
        assert t.path_difference("c", "e") == 3
        assert t.path_difference("c", "d") == 1

    def test_s_dominates_d(self):
        t = small_tree()
        nodes = t.nodes()
        for a in nodes:
            for b in nodes:
                assert t.path_length(a, b) >= t.path_difference(a, b) - 1e-12

    def test_longest_root_to_leaf(self):
        assert small_tree().longest_root_to_leaf() == 6

    def test_total_wire_length(self):
        assert small_tree().total_wire_length() == 2 + 3 + 1 + 2 + 3

    def test_is_equidistant(self):
        t = ClockTree("r", Point(0, 0))
        t.add_child("r", "a", Point(1, 0))
        t.add_child("r", "b", Point(0, 1))
        assert t.is_equidistant(["a", "b"])
        assert not t.is_equidistant(["r", "a"])
        assert t.is_equidistant([])
