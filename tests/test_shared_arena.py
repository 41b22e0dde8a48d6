"""SharedArena / SharedTrialArena: zero-pickle structure shipping.

The arena's contract: attached views equal the source arrays exactly, a
pickled trial stays O(manifest) bytes no matter the payload size, and a
process-pool Monte-Carlo run over arena trials is bit-identical to the
serial path.
"""

import multiprocessing
import pickle

import numpy as np
import pytest

from repro.analysis.montecarlo import run_trials
from repro.analysis.shared import (
    ArenaHandle,
    SharedArena,
    SharedMemoryTrial,
    SharedTrialArena,
)
from repro.arrays.topologies import mesh
from repro.clocktree.htree import htree_for_array
from repro.clocktree.sampler import CompiledSkewSampler


def _source_arrays():
    rng = np.random.default_rng(0)
    return {
        "a": rng.uniform(size=100),
        "b": np.arange(37, dtype=np.int64),
        "c": rng.uniform(size=(5, 7)),
    }


def _sampler():
    array = mesh(6, 6)
    return CompiledSkewSampler.from_tree(
        htree_for_array(array), array.communicating_pairs()
    )


def _build(arrays) -> CompiledSkewSampler:
    return CompiledSkewSampler.from_arrays(arrays)


def _run(state: CompiledSkewSampler, seed: int) -> float:
    return state.sample_max_skew(seed)


class TestSharedArena:
    def test_views_equal_source(self):
        source = _source_arrays()
        with SharedArena(source) as arena:
            attached = arena.arrays()
            for key, value in source.items():
                assert np.array_equal(attached[key], value)
                assert attached[key].dtype == value.dtype
                assert attached[key].shape == value.shape

    def test_views_are_read_only(self):
        with SharedArena(_source_arrays()) as arena:
            view = arena.arrays()["a"]
            with pytest.raises(ValueError):
                view[0] = 1.0

    def test_handle_pickles_small(self):
        big = {"x": np.zeros(1_000_000)}
        with SharedArena(big) as arena:
            assert len(pickle.dumps(arena.handle)) < 1024

    def test_alignment(self):
        with SharedArena(_source_arrays()) as arena:
            for spec in arena.handle.specs:
                assert spec.offset % 64 == 0

    def test_close_is_idempotent(self):
        arena = SharedArena(_source_arrays())
        arena.close()
        arena.close()  # must not raise

    def test_handle_reattaches_in_same_process(self):
        source = _source_arrays()
        with SharedArena(source) as arena:
            handle = ArenaHandle(name=arena.name, specs=arena.handle.specs)
            again = handle.arrays()
            assert np.array_equal(again["c"], source["c"])

    def test_empty_arena_allowed(self):
        with SharedArena({}) as arena:
            assert arena.arrays() == {}

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_refuses_a_start_method_other_than_fork(self, method, monkeypatch):
        # Each spawned worker would run its own resource tracker and unlink
        # the segment when it exits.
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda: method)
        with pytest.raises(RuntimeError, match=f"not {method!r}"):
            SharedArena(_source_arrays())

    def test_builds_under_fork(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_start_method", lambda: "fork")
        with SharedArena(_source_arrays()) as arena:
            assert set(arena.arrays()) == {"a", "b", "c"}


class TestSharedMemoryTrial:
    def test_trial_pickles_small_and_runs(self):
        sampler = _sampler()
        arena = SharedTrialArena(sampler.arrays())
        try:
            trial = arena.trial(_build, _run)
            assert isinstance(trial, SharedMemoryTrial)
            assert len(pickle.dumps(trial)) < 2048
            for seed in (0, 3):
                assert trial(seed) == sampler.sample_max_skew(seed)
        finally:
            arena.close()

    def test_round_trip_through_pickle(self):
        sampler = _sampler()
        arena = SharedTrialArena(sampler.arrays())
        try:
            trial = pickle.loads(pickle.dumps(arena.trial(_build, _run)))
            assert trial(7) == sampler.sample_max_skew(7)
        finally:
            arena.close()


class TestRunTrialsIdentity:
    @pytest.mark.parametrize("executor,workers", [
        ("thread", 2), ("thread", 4), ("process", 2),
    ])
    def test_pool_summary_is_bit_identical(self, executor, workers):
        sampler = _sampler()
        serial = run_trials(sampler.sample_max_skew, 10, base_seed=5)
        arena = SharedTrialArena(sampler.arrays())
        try:
            trial = arena.trial(_build, _run)
            pooled = run_trials(
                trial, 10, base_seed=5, workers=workers, executor=executor
            )
        finally:
            arena.close()
        assert pooled == serial  # frozen dataclass: field-wise bit equality
