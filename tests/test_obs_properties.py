"""Property-based tests (hypothesis) for the observability layer.

Two families of invariants:

* **span forests** — serializing span events through the JSONL encoding
  and reassembling must reproduce the forest exactly, and reassembly
  must not depend on event arrival order (the multi-worker merge in
  ``run_trials_traced`` interleaves chunk streams arbitrarily);
* **critical paths** — the reconstructed dependency chain must end at
  the simulator-reported makespan bit-for-bit on randomized designs,
  for the clocked engine (scalar and compiled) and the self-timed
  recurrence.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.spans import assemble_spans, iter_spans
from repro.obs.trace import RecordingTracer, TraceEvent
from repro.sim.dataflow import SelfTimedProgramSimulator, hashed_service
from repro.sta.design import random_design


# ----------------------------------------------------------------------
# random span forests
# ----------------------------------------------------------------------
def _random_forest_events(seed: int, n_spans: int) -> list:
    """Emit a random (but deterministic in ``seed``) nested span forest
    across several workers and return the flat event list (one tracer
    per worker, their events concatenated as ``run_trials`` merges them)."""
    rng = random.Random(seed)
    tracers = [RecordingTracer(f"w{w}") for w in range(rng.randint(1, 3))]

    def emit(tracer: RecordingTracer, budget: int, depth: int) -> int:
        while budget > 0:
            budget -= 1
            with tracer.span(f"s{rng.randint(0, 5)}", t=rng.random() * 10):
                if depth < 3 and budget > 0 and rng.random() < 0.5:
                    budget = emit(tracer, budget, depth + 1)
        return budget

    remaining = n_spans
    for tracer in tracers:
        take = rng.randint(0, remaining)
        emit(tracer, take, 0)
        remaining -= take
    return [e for tracer in tracers for e in tracer.events]


def _forest_shape(roots):
    """A structural fingerprint: identity, interval, and child order."""
    def shape(span):
        return (
            span.span_id, span.parent_id, span.name, span.worker,
            span.t_start, span.t_end, span.wall_s, span.status,
            tuple(shape(c) for c in span.children),
        )

    return tuple(shape(r) for r in roots)


class TestSpanForestProperties:
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_json_round_trip_is_identity(self, seed, n):
        events = _random_forest_events(seed, n)
        decoded = [
            TraceEvent.from_json_obj(e.to_json_obj()) for e in events
        ]
        assert _forest_shape(assemble_spans(decoded)) == _forest_shape(
            assemble_spans(events)
        )

    @given(seed=st.integers(0, 10_000), n=st.integers(0, 12),
           shuffle_seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_assembly_is_arrival_order_independent(self, seed, n, shuffle_seed):
        events = _random_forest_events(seed, n)
        shuffled = list(events)
        random.Random(shuffle_seed).shuffle(shuffled)
        assert _forest_shape(assemble_spans(shuffled)) == _forest_shape(
            assemble_spans(events)
        )

    @given(seed=st.integers(0, 10_000), n=st.integers(1, 12))
    @settings(max_examples=40, deadline=None)
    def test_every_span_is_reachable_exactly_once(self, seed, n):
        events = _random_forest_events(seed, n)
        roots = assemble_spans(events)
        starts = [e for e in events if e.kind == "start"]
        walked = [s.span_id for s in iter_spans(roots)]
        assert sorted(walked) == sorted(e.data["id"] for e in starts)
        assert len(set(walked)) == len(walked)


# ----------------------------------------------------------------------
# critical path == makespan over randomized designs
# ----------------------------------------------------------------------
class TestCriticalPathProperties:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_clocked_path_equals_both_engine_makespans(self, seed):
        design = random_design(seed)
        sim = design.simulator()
        cp = sim.critical_path()
        assert cp.makespan == sim.run_scalar().makespan  # bitwise
        assert cp.makespan == sim.compiled().run().makespan

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_selftimed_path_equals_recurrence_makespan(self, seed):
        design = random_design(seed)
        service = hashed_service(1.0, 3.0, 0.3, seed)
        sim = SelfTimedProgramSimulator(
            design.program, service=service, wire_delay=0.25
        )
        cp = sim.critical_path()
        assert cp.makespan == sim.recurrence_makespan_scalar()  # bitwise
        assert cp.makespan == sim.recurrence_makespan()
