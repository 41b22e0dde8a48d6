"""The live lifting LCA index: incremental growth, subtree queries, and
in-place edge retunes.

The index shares the tree's :class:`DenseTreeStore` and extends its
binary-lifting table lazily — ``add_child`` and ``set_edge_length`` must
never force a rebuild, and every query must agree bit for bit with the
scalar per-pair parent walk (``path_difference`` / ``path_length``).
"""

import random

import numpy as np
import pytest

from repro.clocktree.lca import LiftingLCAIndex
from repro.clocktree.tree import ClockTree
from repro.geometry.point import Point


def random_tree(seed, n=60):
    rng = random.Random(seed)
    tree = ClockTree("root", Point(0.0, 0.0))
    nodes = ["root"]
    for k in range(n):
        parent = rng.choice(
            [node for node in nodes if len(tree.children(node)) < 2]
        )
        node = f"n{k}"
        tree.add_child(
            parent, node,
            Point(rng.uniform(-5, 5), rng.uniform(-5, 5)),
            rng.uniform(0.1, 3.0),
        )
        nodes.append(node)
    return tree, nodes


def walk_oracle(tree, pairs):
    """``(d, s)`` from the scalar LCA walk, one pair at a time."""
    return (
        np.array([tree.path_difference(a, b) for a, b in pairs]),
        np.array([tree.path_length(a, b) for a, b in pairs]),
    )


def sample_pairs(rng, nodes, k=40):
    return [(rng.choice(nodes), rng.choice(nodes)) for _ in range(k)]


def test_path_metrics_agree_with_walk_oracle():
    tree, nodes = random_tree(1)
    rng = random.Random(11)
    pairs = sample_pairs(rng, nodes)
    live = tree.lca_index()
    d1, s1 = live.path_metrics(pairs)
    d2, s2 = walk_oracle(tree, pairs)
    assert d1.tobytes() == d2.tobytes()
    assert s1.tobytes() == s2.tobytes()


def test_index_extends_incrementally_across_growth():
    tree, nodes = random_tree(2, n=20)
    live = tree.lca_index()
    rng = random.Random(3)
    live.path_metrics(sample_pairs(rng, nodes))  # force a first sync
    for round_no in range(4):
        for k in range(15):
            parent = rng.choice(
                [n for n in tree.nodes() if len(tree.children(n)) < 2]
            )
            node = f"g{round_no}.{k}"
            tree.add_child(parent, node, Point(0.0, 0.0), rng.uniform(0.1, 2.0))
            nodes.append(node)
        # the SAME index object answers correctly after growth (no rebuild)
        assert tree.lca_index() is live
        pairs = sample_pairs(rng, nodes)
        d1, s1 = live.path_metrics(pairs)
        d2, s2 = walk_oracle(tree, pairs)
        assert d1.tobytes() == d2.tobytes()
        assert s1.tobytes() == s2.tobytes()


def brute_in_subtree(tree, ancestor):
    return set(tree.subtree_nodes(ancestor))


def test_subtree_queries_match_brute_force():
    tree, nodes = random_tree(4)
    live = tree.lca_index()
    rng = random.Random(5)
    for node in rng.sample(nodes, 10):
        inside = brute_in_subtree(tree, node)
        nid = live.node_id(node)
        ids = live.node_ids(nodes)
        mask = live.in_subtree_ids(nid, ids)
        assert {n for n, m in zip(nodes, mask) if m} == inside
        # interval-based mask agrees with the lifting-based test
        full_mask = live.subtree_mask(nid)
        assert {live.node(i) for i in np.flatnonzero(full_mask)} == inside
        assert live.subtree_size(nid) == len(inside)


def test_pairs_through_node_is_xor_of_membership():
    tree, nodes = random_tree(6)
    live = tree.lca_index()
    rng = random.Random(7)
    pairs = sample_pairs(rng, nodes)
    a_ids = live.node_ids([a for a, _ in pairs])
    b_ids = live.node_ids([b for _, b in pairs])
    node = nodes[len(nodes) // 2]
    inside = brute_in_subtree(tree, node)
    expected = np.array(
        [(a in inside) != (b in inside) for a, b in pairs], dtype=bool
    )
    got = live.pairs_through_node(live.node_id(node), a_ids, b_ids)
    assert got.tobytes() == expected.tobytes()


def test_set_edge_length_shifts_subtree_and_metrics():
    tree, nodes = random_tree(8)
    node = nodes[5]
    inside = brute_in_subtree(tree, node)
    before = {n: tree.root_distance(n) for n in nodes}
    v0 = tree.version
    tree.set_edge_length(node, 10.0)
    assert tree.version > v0
    assert tree.edge_length(node) == 10.0
    for n in nodes:
        if n in inside:
            assert tree.root_distance(n) != before[n]
        else:
            assert tree.root_distance(n) == before[n]
    # metrics recompute correctly through the live index afterwards
    rng = random.Random(9)
    pairs = sample_pairs(rng, nodes)
    d1, s1 = tree.lca_index().path_metrics(pairs)
    d2, s2 = walk_oracle(tree, pairs)
    assert d1.tobytes() == d2.tobytes()
    assert s1.tobytes() == s2.tobytes()


def test_set_edge_length_validation():
    tree, _ = random_tree(10, n=5)
    with pytest.raises(ValueError):
        tree.set_edge_length("root", 1.0)
    with pytest.raises(KeyError):
        tree.set_edge_length("missing", 1.0)
    with pytest.raises(ValueError):
        tree.set_edge_length("n0", -1.0)


def test_cold_build_is_vectorized_equivalent():
    """The perf row's correctness half: a fresh LiftingLCAIndex over the
    dense store answers exactly like the scalar parent walk."""
    tree, nodes = random_tree(14, n=200)
    rng = random.Random(15)
    pairs = sample_pairs(rng, nodes, k=120)
    fresh = LiftingLCAIndex(tree.dense_store)
    d1, s1 = fresh.path_metrics(pairs)
    d2, s2 = walk_oracle(tree, pairs)
    assert d1.tobytes() == d2.tobytes()
    assert s1.tobytes() == s2.tobytes()


@pytest.mark.parametrize("scheme", ["serpentine", "kdtree", "star"])
def test_kept_intervals_match_a_fresh_dfs_across_grafts(scheme):
    """Appends extend the preorder intervals in place.  After every graft
    batch (half of the parents drawn from freshly grafted nodes, so grafts
    nest under grafts) the kept intervals, sizes and masks equal a cold
    DFS build over the same store, and membership equals the scalar walk."""
    from repro.sta.design import design_for_workload

    tree = design_for_workload("matvec", size=4, scheme=scheme).tree
    live = tree.lca_index()
    live.subtree_size(0)  # build the intervals before the first graft
    rng = random.Random(f"kept-intervals|{scheme}")
    grafted = 0
    for _ in range(20):
        for _ in range(rng.randint(1, 4)):
            open_nodes = [
                n for n in tree.nodes() if len(tree.children(n)) < tree.max_children
            ]
            parent = rng.choice(open_nodes[-4:] if rng.random() < 0.5 else open_nodes)
            tree.add_child(parent, f"g{grafted}", Point(0.0, 0.0), rng.uniform(0.1, 2.0))
            grafted += 1
        fresh = LiftingLCAIndex(tree.dense_store)
        for nid in range(len(tree)):
            assert live.subtree_interval(nid) == fresh.subtree_interval(nid)
            assert live.subtree_size(nid) == fresh.subtree_size(nid)
        nodes = tree.nodes()
        ids = live.node_ids(nodes)
        for nid in rng.sample(range(len(tree)), 5):
            assert live.subtree_mask(nid).tobytes() == fresh.subtree_mask(nid).tobytes()
            inside = brute_in_subtree(tree, live.node(nid))
            mask = live.in_subtree_ids(nid, ids)
            assert {n for n, m in zip(nodes, mask) if m} == inside
    assert grafted > 40
