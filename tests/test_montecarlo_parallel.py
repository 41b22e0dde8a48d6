"""Determinism of the parallel Monte-Carlo backend.

``workers=N`` must be a pure wall-clock optimization: summaries are
required to be *bit-identical* to the serial path (same values in the
same seed order feeding the same summarization), for any worker count,
for both pool flavours, with tracer events intact.
"""

import multiprocessing
import os

import pytest

from repro.analysis.montecarlo import (
    CompiledTrialContext,
    MonteCarloSummary,
    MonteCarloTelemetry,
    _seed_chunks,
    run_trials,
    run_trials_traced,
    summarize,
)
from repro.obs.spans import assemble_spans
from repro.obs.trace import RecordingTracer


def _trial(seed: int) -> float:
    # Deterministic, seed-sensitive, cheap.
    return float((seed * 2654435761) % 1009) / 7.0


class TestParallelDeterminism:
    def test_workers_4_equals_serial_exactly(self):
        serial = run_trials(_trial, 25, base_seed=11)
        parallel = run_trials(_trial, 25, base_seed=11, workers=4)
        assert serial == parallel  # frozen dataclass: field-wise bit equality

    @pytest.mark.parametrize("workers", [2, 3, 5, 8, 25, 40])
    def test_any_worker_count_is_bit_identical(self, workers):
        serial = run_trials(_trial, 25, base_seed=0)
        parallel = run_trials(_trial, 25, base_seed=0, workers=workers)
        assert serial == parallel

    def test_process_pool_matches_serial(self):
        serial = run_trials(_trial, 8, base_seed=3)
        parallel = run_trials(_trial, 8, base_seed=3, workers=2, executor="process")
        assert serial == parallel

    def test_workers_1_takes_serial_path(self):
        assert run_trials(_trial, 6) == run_trials(_trial, 6, workers=1)


def _build_pid() -> int:
    return os.getpid()


_PID_CONTEXT = CompiledTrialContext(_build_pid)


def _built_in(seed: int) -> float:
    """The pid of the process whose factory call built this trial's
    structure."""
    return float(_PID_CONTEXT.get())


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork", reason="workers must be forked"
)
def test_forked_workers_inherit_a_context_warmed_in_the_coordinator():
    assert _PID_CONTEXT.get() == os.getpid()
    summary = run_trials(_built_in, 8, workers=2, executor="process")
    assert summary.minimum == summary.maximum == os.getpid()


class TestSeedPartitioning:
    def test_chunks_cover_range_in_order(self):
        for n, workers in [(25, 4), (8, 8), (7, 3), (2, 16), (100, 7)]:
            chunks = _seed_chunks(5, n, workers)
            seeds = [
                first + i for first, count in chunks for i in range(count)
            ]
            assert seeds == list(range(5, 5 + n))

    def test_partition_is_schedule_independent(self):
        assert _seed_chunks(0, 10, 3) == _seed_chunks(0, 10, 3)


class TestTracing:
    def test_parallel_run_emits_trial_and_summary_events(self):
        tracer = RecordingTracer()
        summary = run_trials(_trial, 9, base_seed=2, workers=3, tracer=tracer)
        trials = [e for e in tracer.events if e.kind == "trial"]
        assert len(trials) == 9
        assert [e.data["seed"] for e in trials] == list(range(2, 11))
        assert [e.data["value"] for e in trials] == [_trial(2 + i) for i in range(9)]
        (final,) = [e for e in tracer.events if e.kind == "summary"]
        assert final.data["mean"] == summary.mean

    def test_parallel_trace_values_match_serial_trace(self):
        serial_tracer, parallel_tracer = RecordingTracer(), RecordingTracer()
        run_trials(_trial, 10, tracer=serial_tracer)
        run_trials(_trial, 10, workers=4, tracer=parallel_tracer)
        extract = lambda tr: [
            (e.t, e.data["seed"], e.data["value"])
            for e in tr.events
            if e.kind == "trial"
        ]
        assert extract(serial_tracer) == extract(parallel_tracer)


class TestValidationAndSummarize:
    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError):
            run_trials(_trial, 4, workers=0)
        with pytest.raises(ValueError):
            run_trials(_trial, 4, workers=-2)

    def test_unknown_executor_rejected(self):
        # Refused up front, serial runs included, before any trial runs.
        def never(seed):
            raise AssertionError("a trial ran")

        for workers in (None, 1, 2):
            for run in (run_trials, run_trials_traced):
                with pytest.raises(ValueError, match="unknown executor"):
                    run(never, 4, workers=workers, executor="fiber")

    def test_run_trials_delegates_to_summarize(self):
        values = [_trial(s) for s in range(7, 19)]
        assert run_trials(_trial, 12, base_seed=7) == summarize(values)

    def test_summarize_still_validates(self):
        with pytest.raises(ValueError):
            summarize([1.0])

    def test_summary_shape(self):
        summary = run_trials(_trial, 5, workers=2)
        assert isinstance(summary, MonteCarloSummary)
        assert summary.trials == 5
        assert summary.ci_low <= summary.mean <= summary.ci_high


class TestTracedRuns:
    def test_traced_summary_is_bit_identical_to_untraced(self):
        plain = run_trials(_trial, 16, base_seed=4, workers=3)
        traced, _telemetry = run_trials_traced(
            _trial, 16, base_seed=4, workers=3, tracer=RecordingTracer()
        )
        assert plain == traced

    def test_traced_process_pool_matches_serial(self):
        plain = run_trials(_trial, 8, base_seed=1)
        traced, _telemetry = run_trials_traced(
            _trial, 8, base_seed=1, workers=2, executor="process",
            tracer=RecordingTracer(),
        )
        assert plain == traced

    def test_multi_worker_trace_is_one_span_forest(self):
        tracer = RecordingTracer()
        run_trials_traced(_trial, 12, base_seed=0, workers=3, tracer=tracer)
        roots = assemble_spans(tracer.events)
        assert len(roots) == 1  # one coherent trace, not per-worker shards
        root = roots[0]
        assert root.name == "montecarlo.run_trials"
        child_names = [c.name for c in root.children]
        assert "montecarlo.map" in child_names
        assert "montecarlo.reduce" in child_names
        chunks = [
            s for s in root.walk() if s.name == "montecarlo.chunk"
        ]
        assert {c.worker for c in chunks} == {"w0", "w1", "w2"}
        trials = [s for s in root.walk() if s.name == "montecarlo.trial"]
        assert len(trials) == 12
        assert all(s.wall_s is not None for s in root.walk())  # no open spans

    @pytest.mark.parametrize("workers, executor, chunks", [
        (None, "thread", 1), (3, "thread", 3), (2, "process", 2),
    ])
    def test_run_trials_records_the_span_tree(self, workers, executor, chunks):
        tracer = RecordingTracer()
        run_trials(
            _trial, 9, base_seed=2, workers=workers, executor=executor,
            tracer=tracer,
        )
        (root,) = assemble_spans(tracer.events)
        assert root.name == "montecarlo.run_trials"
        spans = list(root.walk())
        assert len([s for s in spans if s.name == "montecarlo.chunk"]) == chunks
        trials = [s for s in spans if s.name == "montecarlo.trial"]
        assert sorted(s.attrs["seed"] for s in trials) == list(range(2, 11))
        values = {
            e.data["seed"]: e.data["value"]
            for e in tracer.events if e.kind == "trial"
        }
        assert all(s.attrs["value"] == values[s.attrs["seed"]] for s in trials)

    def test_two_runs_on_one_tracer_are_two_trees(self):
        # Span ids come from the tracer, and worker ids are scoped under
        # their map span, so a second run neither reuses the first run's
        # ids nor loses its spans when the forest is assembled.
        tracer = RecordingTracer()
        run_trials_traced(_trial, 4, base_seed=0, tracer=tracer)
        run_trials_traced(
            _trial, 4, base_seed=10, workers=2, executor="process",
            tracer=tracer,
        )
        ids = [e.data["id"] for e in tracer.events if e.kind == "start"]
        assert len(ids) == len(set(ids))
        roots = assemble_spans(tracer.events)
        assert [r.name for r in roots] == ["montecarlo.run_trials"] * 2
        for root, first in zip(roots, (0, 10)):
            trials = [s for s in root.walk() if s.name == "montecarlo.trial"]
            assert sorted(s.attrs["seed"] for s in trials) == list(range(first, first + 4))

    def test_trial_events_stay_in_seed_order(self):
        tracer = RecordingTracer()
        summary, _ = run_trials_traced(
            _trial, 9, base_seed=2, workers=3, tracer=tracer
        )
        trials = [e for e in tracer.events if e.kind == "trial"]
        assert [e.data["seed"] for e in trials] == list(range(2, 11))
        (final,) = [e for e in tracer.events if e.kind == "summary"]
        assert final.data["mean"] == summary.mean

    def test_telemetry_chunk_accounting(self):
        _, telemetry = run_trials_traced(
            _trial, 10, base_seed=0, workers=4, tracer=RecordingTracer()
        )
        assert isinstance(telemetry, MonteCarloTelemetry)
        assert telemetry.workers == 4
        assert len(telemetry.chunks) == 4
        assert sum(c.trials for c in telemetry.chunks) == 10
        assert all(c.run_s >= 0.0 for c in telemetry.chunks)
        assert telemetry.run_s >= 0.0
        assert telemetry.wall_s > 0.0

    def test_untraced_call_still_returns_telemetry(self):
        summary, telemetry = run_trials_traced(_trial, 6, workers=2)
        assert summary == run_trials(_trial, 6, workers=2)
        assert len(telemetry.chunks) == 2

    def test_traced_rejects_bad_args(self):
        with pytest.raises(ValueError):
            run_trials_traced(_trial, 1)
        with pytest.raises(ValueError):
            run_trials_traced(_trial, 4, workers=0)


class TestPickleCostAttribution:
    """Regression: the coordinator's one-time trial pickle used to be
    smeared evenly across chunk telemetry (``pickle_s / len(chunks)``),
    which misattributed a fixed coordinator cost as per-worker work."""

    def test_process_pool_records_pickle_once_not_per_chunk(self):
        _, telemetry = run_trials_traced(
            _trial, 12, base_seed=0, workers=3, executor="process"
        )
        assert telemetry.pickle_once_s > 0.0
        assert all(c.pickle_s == 0.0 for c in telemetry.chunks)

    def test_aggregate_property_is_once_plus_chunks(self):
        _, telemetry = run_trials_traced(
            _trial, 12, base_seed=0, workers=3, executor="process"
        )
        assert telemetry.pickle_s == telemetry.pickle_once_s + sum(
            c.pickle_s for c in telemetry.chunks
        )
        assert telemetry.pickle_s == telemetry.pickle_once_s

    def test_thread_pool_pays_no_pickle(self):
        _, telemetry = run_trials_traced(
            _trial, 8, base_seed=0, workers=2, executor="thread"
        )
        assert telemetry.pickle_once_s == 0.0
        assert telemetry.pickle_s == 0.0

    def test_serial_path_pays_no_pickle(self):
        _, telemetry = run_trials_traced(_trial, 4, base_seed=0)
        assert telemetry.pickle_once_s == 0.0
        assert telemetry.pickle_s == 0.0
