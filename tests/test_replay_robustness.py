"""Regression tests: ``summarize_trace`` must digest traces from other
repo versions — unknown ``(cat, kind)`` pairs, span events, malformed
payloads — without crashing, and the skew/violation views must quietly
skip what they cannot interpret."""

import pytest

from repro.obs.replay import _as_float, _as_int, summarize_trace
from repro.obs.trace import RecordingTracer, TraceEvent


def _ev(t, cat, kind, cell=None, **data):
    return TraceEvent(t=t, cat=cat, kind=kind, cell=cell, data=data)


class TestLenientReaders:
    def test_as_int(self):
        assert _as_int(3) == 3
        assert _as_int(3.0) == 3
        assert _as_int("3") == 3
        assert _as_int(3.5) is None
        assert _as_int("x") is None
        assert _as_int(None) is None
        assert _as_int(True) is None  # bools are not ticks
        assert _as_int([1]) is None

    def test_as_float(self):
        assert _as_float(2.5) == 2.5
        assert _as_float("2.5") == 2.5
        assert _as_float(None) is None
        assert _as_float(True) is None
        assert _as_float("nope") is None


class TestUnknownEvents:
    def test_unknown_cat_kind_pairs_are_counted_not_fatal(self):
        events = [
            _ev(0.0, "tick", "fire", cell=(0, 0), tick=0),
            _ev(1.0, "future", "mystery", payload={"deep": [1, 2]}),
            _ev(2.0, "future", "mystery"),
        ]
        summary = summarize_trace(events)
        assert summary.events == 3
        rows = {(cat, kind): n for cat, kind, n, _f, _l in summary.category_rows}
        assert rows[("future", "mystery")] == 2
        assert rows[("tick", "fire")] == 1

    def test_span_events_are_summarised_without_interpretation(self):
        tracer = RecordingTracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        summary = summarize_trace(list(tracer.events))
        rows = {(cat, kind): n for cat, kind, n, _f, _l in summary.category_rows}
        assert rows[("span", "start")] == 2
        assert rows[("span", "end")] == 2
        assert summary.skew_samples == 0  # spans never feed the skew view
        assert summary.violation_timeline == []

    def test_empty_trace(self):
        summary = summarize_trace([])
        assert summary.events == 0
        assert summary.t_min == 0.0 and summary.t_max == 0.0
        assert summary.category_rows == []


class TestMalformedPayloads:
    def test_fire_events_without_tick_are_skipped_from_skew(self):
        events = [
            _ev(0.0, "tick", "fire", cell=(0, 0), tick=0),
            _ev(0.5, "tick", "fire", cell=(0, 1), tick=0),
            _ev(1.0, "tick", "fire", cell=(1, 0)),           # no tick key
            _ev(1.5, "tick", "fire", cell=(1, 1), tick="??"),  # junk tick
        ]
        summary = summarize_trace(events)
        assert summary.skew_samples == 1  # only the well-formed pair
        assert summary.max_skew == pytest.approx(0.5)

    def test_hybrid_steps_with_junk_start_are_skipped(self):
        events = [
            _ev(0.0, "hybrid", "step", step=0, start=0.0),
            _ev(0.2, "hybrid", "step", step=0, start=0.3),
            _ev(0.4, "hybrid", "step", step=1, start="soon"),
            _ev(0.6, "hybrid", "step", step=1),
        ]
        summary = summarize_trace(events)
        assert summary.skew_samples == 1
        assert summary.max_skew == pytest.approx(0.3)

    def test_violations_with_non_numeric_tick_use_sentinel(self):
        events = [
            _ev(1.0, "violation", "stale", receiver_tick=4),
            _ev(1.1, "violation", "race", receiver_tick="corrupt"),
            _ev(1.2, "violation", "stale"),  # no tick at all
        ]
        summary = summarize_trace(events)
        timeline = {tick: (stale, race) for tick, stale, race in summary.violation_timeline}
        assert timeline[4] == (1, 0)
        assert timeline[-1] == (1, 1)  # sentinel bucket for the malformed two
        assert summary.total_violations == 3

    def test_boolean_tick_is_not_a_tick(self):
        events = [
            _ev(0.0, "tick", "fire", tick=True),
            _ev(0.1, "tick", "fire", tick=True),
        ]
        summary = summarize_trace(events)
        assert summary.skew_samples == 0

    def test_mixed_known_and_unknown_preserves_known_views(self):
        events = [
            _ev(0.0, "tick", "fire", cell=(0, 0), tick=0),
            _ev(0.4, "tick", "fire", cell=(0, 1), tick=0),
            _ev(0.5, "exotic", "thing", blob=object.__class__.__name__),
            _ev(0.6, "violation", "stale", receiver_tick=2),
        ]
        summary = summarize_trace(events)
        assert summary.skew_samples == 1
        assert summary.total_violations == 1
        assert summary.t_max == pytest.approx(0.6)
