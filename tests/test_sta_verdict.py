"""One clocked verdict: ``SlackAnalysis`` owns the flag policy, the counts,
the feasible periods and the summary, and every other reader agrees with
it — the report, the module functions, the ECO session and the tile
stitcher."""

import math

import pytest

from repro.sta.analyzer import STAAnalyzer
from repro.sta.design import random_design
from repro.sta.slack import (
    ArraySummary,
    SlackAnalysis,
    analyze_slack,
    minimum_feasible_period,
)
from repro.sta.tiles import (
    TileSpec,
    compose_design,
    flat_summary,
    stitched_analysis,
    tile_cache_clear,
    tile_cache_info,
)

COUNT_KEYS = ["edges", "stale", "race", "stale_possible", "race_possible", "race_floor"]


@pytest.fixture(autouse=True)
def fresh_cache():
    tile_cache_clear()
    yield
    tile_cache_clear()


def test_counts_periods_and_summary_match_the_report():
    mostly_stale = 0
    for seed in range(16):
        design = random_design(seed)
        exact = minimum_feasible_period(design, "exact")
        base = exact if exact > 0.0 else design.period
        for factor in (0.2, 0.7, 1.0, 1.6):
            d = design.with_period(base * factor)
            analysis = analyze_slack(d)
            report = STAAnalyzer(d).report()
            counts = analysis.counts()
            assert list(counts) == COUNT_KEYS
            assert counts == {k: report.counts[k] for k in COUNT_KEYS}
            mostly_stale += counts["stale"] > counts["edges"] // 2
            for mode in ("exact", "bound"):
                assert analysis.minimum_feasible_period(mode) == minimum_feasible_period(d, mode)
            summary = analysis.summary()
            assert isinstance(summary, ArraySummary)
            assert summary == ArraySummary(
                period=d.period,
                edges=len(analysis.edges),
                worst_setup_slack=analysis.worst_setup_slack,
                worst_hold_slack=analysis.worst_hold_slack,
                min_feasible_period_exact=report.slack_summary["min_feasible_period_exact"],
                min_feasible_period_bound=report.slack_summary["min_feasible_period_bound"],
                timing_clean=analysis.timing_clean,
                robust_clean=analysis.robust_clean,
                counts=counts,
            )
            assert summary.worst_setup_slack == report.slack_summary["worst_setup_slack"]
            assert summary.worst_hold_slack == report.slack_summary["worst_hold_slack"]
    assert mostly_stale > 0  # the short periods do flag most edges stale


def test_flag_masks_are_computed_once():
    analysis = analyze_slack(random_design(3, clean=False))
    masks = analysis.flag_masks()
    assert analysis.flag_masks() is masks
    assert analysis.stale_mask is masks[0] and analysis.race_mask is masks[2]
    assert analysis.race_floor_mask is masks[4]


def test_from_vectors_is_the_constructor_analyze_slack_uses():
    design = random_design(5)
    full = analyze_slack(design)
    rebuilt = SlackAnalysis.from_vectors(
        design.period, list(full.edges), full.lag.copy(), full.offset_lead.copy(),
        full.sigma_ub.copy(), full.sigma_lb.copy(),
    )
    assert rebuilt.edges == full.edges
    for name in ("lag", "sigma_ub", "sigma_lb", "offset_lead", "setup_exact",
                 "hold_exact", "setup_bound", "hold_bound"):
        array = getattr(rebuilt, name)
        assert array.tobytes() == getattr(full, name).tobytes(), name
        assert not array.flags.writeable


def _period_sweep(spec, rows, cols):
    full = analyze_slack(compose_design(spec, rows, cols, 1.0))
    smallest = min(h for h in full.hold_exact.tolist() if h > 0.0)
    largest = float((full.sigma_ub + full.lag).max())
    lo, hi = 0.25 * smallest, 1.25 * largest
    return [lo + (hi - lo) * k / 23 for k in range(24)]


@pytest.mark.parametrize("rows, cols", [(1, 1), (1, 4)])
def test_stitched_equals_flat_across_a_period_sweep(rows, cols):
    spec = TileSpec(rows=4, cols=4)
    seen = []
    for period in _period_sweep(spec, rows, cols):
        flat = flat_summary(compose_design(spec, rows, cols, period))
        assert stitched_analysis(spec, rows, cols, period) == flat
        seen.append((flat.counts["stale"], flat.counts["stale_possible"]))
    assert seen[0][0] > 0 and seen[-1] == (0, 0)
    assert any(possible > 0 for _, possible in seen)


@pytest.mark.parametrize("warm", [False, True])
@pytest.mark.parametrize("period", [math.nan, math.inf, 0.0, -5.0])
def test_stitched_analysis_refuses_what_compose_design_refuses(period, warm):
    spec = TileSpec(rows=4, cols=4)
    if warm:
        stitched_analysis(spec, 2, 2, 10.0)
    entries = tile_cache_info()["entries"]
    message = "clock period must be positive and finite"
    with pytest.raises(ValueError, match=message):
        compose_design(spec, 2, 2, period)
    with pytest.raises(ValueError, match=message):
        stitched_analysis(spec, 2, 2, period)
    assert tile_cache_info()["entries"] == entries
