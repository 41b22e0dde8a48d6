"""CompiledSkewSampler: vectorized Monte-Carlo trials vs the scalar walk.

One seeded uniform vector feeds both paths, so agreement is required to
be exact — which is what lets the pooled Monte-Carlo bench claim
bit-identical summaries while replacing the whole execution stack.
"""

import math

import numpy as np
import pytest

from repro.arrays.topologies import linear_array, mesh
from repro.clocktree.builders import kdtree_clock
from repro.clocktree.htree import htree_for_array
from repro.clocktree.sampler import CompiledSkewSampler
from repro.clocktree.spine import spine_clock


@pytest.fixture(scope="module")
def sampler():
    array = mesh(8, 8)
    return CompiledSkewSampler.from_tree(
        htree_for_array(array), array.communicating_pairs()
    )


class TestScalarAgreement:
    @pytest.mark.parametrize("seed", [0, 1, 17, 1234])
    def test_vector_equals_scalar(self, sampler, seed):
        assert sampler.sample_max_skew(seed) == sampler.sample_max_skew_scalar(seed)

    def test_different_seeds_differ(self, sampler):
        assert sampler.sample_max_skew(0) != sampler.sample_max_skew(1)

    def test_same_seed_is_deterministic(self, sampler):
        assert sampler.sample_max_skew(42) == sampler.sample_max_skew(42)


class TestStructure:
    def test_counts(self, sampler):
        assert sampler.n_nodes == len(htree_for_array(mesh(8, 8)).nodes())
        assert sampler.n_pairs == len(mesh(8, 8).communicating_pairs())
        # Zero-length edges contribute no segments, so the only structural
        # guarantee is that positive-length edges were all sliced.
        assert 0 < sampler.n_segments

    def test_arrivals_root_zero_and_positive(self, sampler):
        arrival = sampler.arrivals(3)
        assert arrival[0] == 0.0
        assert np.all(arrival[1:] > 0.0)

    def test_no_pairs_gives_zero_skew(self):
        array = mesh(2, 2)
        sampler = CompiledSkewSampler.from_tree(htree_for_array(array), [])
        assert sampler.sample_max_skew(0) == 0.0

    def test_negative_epsilon_rejected(self):
        array = mesh(2, 2)
        with pytest.raises(ValueError):
            CompiledSkewSampler.from_tree(
                htree_for_array(array), [], epsilon=-0.1
            )

    def test_bad_buffer_spacing_rejected(self):
        array = mesh(2, 2)
        with pytest.raises(ValueError):
            CompiledSkewSampler.from_tree(
                htree_for_array(array), [], buffer_spacing=0.0
            )


    @pytest.mark.parametrize("kwargs, match", [
        ({"buffer_delay": math.nan}, "buffer_delay must be finite"),
        ({"buffer_delay": math.inf}, "buffer_delay must be finite"),
        ({"buffer_spacing": math.inf}, "buffer spacing must be finite"),
        ({"buffer_spacing": math.nan}, "buffer spacing must be finite"),
        ({"epsilon": math.nan}, "epsilon must be finite"),
        ({"m": math.inf}, "m must be finite"),
    ])
    def test_non_finite_parameters_rejected(self, kwargs, match):
        # Each used to compile, and a trial then read a NaN skew.
        array = mesh(2, 2)
        with pytest.raises(ValueError, match=match):
            CompiledSkewSampler.from_tree(
                htree_for_array(array), array.communicating_pairs(), **kwargs
            )


def per_node_structure(tree, spacing):
    """The per-node compile loop ``from_tree`` replaced: the oracle of its
    structure arrays."""
    nodes = tree.nodes()
    index = {node: i for i, node in enumerate(nodes)}
    parent, depth, seg_ptr, seg_len = [0], [0], [0, 0], []
    for node in nodes[1:]:
        p = index[tree.parent(node)]
        parent.append(p)
        depth.append(depth[p] + 1)
        length = tree.edge_length(node)
        if length > 0:
            segments = max(1, math.ceil(length / spacing - 1e-12))
            seg_len.extend([length / segments] * segments)
        seg_ptr.append(len(seg_len))
    return parent, depth, seg_ptr, seg_len


@pytest.mark.parametrize("build, spacing", [
    (lambda: htree_for_array(mesh(4, 4)), 2.5),
    (lambda: kdtree_clock(mesh(5, 3)), 0.75),
    (lambda: spine_clock(linear_array(9), tap_length=0.4), 0.3),
])
def test_structure_matches_the_per_node_loop(build, spacing):
    tree = build()
    pairs = [(a, b) for a, b in zip(tree.nodes()[::2], tree.nodes()[1::3])]
    sampler = CompiledSkewSampler.from_tree(tree, pairs, buffer_spacing=spacing)
    parent, depth, seg_ptr, seg_len = per_node_structure(tree, spacing)
    assert sampler._parent.tolist() == parent and sampler._depth.tolist() == depth
    assert sampler._seg_ptr.tolist() == seg_ptr
    assert sampler._seg_len.view(np.uint64).tolist() == (
        np.array(seg_len, dtype=np.float64).view(np.uint64).tolist())
    index = {node: i for i, node in enumerate(tree.nodes())}
    assert sampler._pair_a.tolist() == [index[a] for a, _ in pairs]
    assert sampler._pair_b.tolist() == [index[b] for _, b in pairs]
