"""ECOSession unit tests: typed edits, dirty sets, and bit-exactness.

The incremental engine's contract: after ANY sequence of edits, every
array, extremum, and verdict it serves is bit-identical to a full
``analyze_slack`` over its mutated design.  These tests exercise each
typed edit, the lazy extremum trackers (including edits that relax the
current worst edge), the external-mutation guard, and the per-step
report's ``eco`` audit block.
"""

import dataclasses

import numpy as np
import pytest

from repro.delay.wire import LinearWireModel
from repro.geometry.point import Point
from repro.obs.schema import validate_sta_report
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator
from repro.sim.faults import JitteredSchedule
from repro.sta.design import design_for_workload, random_design
from repro.sta.eco import ECOSession
from repro.sta.slack import analyze_slack, minimum_feasible_period

ARRAYS = (
    "lag", "sigma_ub", "sigma_lb", "offset_lead",
    "setup_exact", "hold_exact", "setup_bound", "hold_bound",
)


def make_design(**kwargs):
    return design_for_workload("fir", size=5, scheme="serpentine", **kwargs)


def assert_bit_identical(session):
    full = analyze_slack(session.design)
    incremental = session.analysis()
    assert incremental.edges == full.edges
    for name in ARRAYS:
        a, b = getattr(incremental, name), getattr(full, name)
        assert a.tobytes() == b.tobytes(), name
    assert session.worst_setup_slack() == full.worst_setup_slack
    assert session.worst_hold_slack() == full.worst_hold_slack
    for mode in ("exact", "bound"):
        assert session.minimum_feasible_period(mode) == minimum_feasible_period(
            session.design, mode
        ), mode


def test_fresh_session_matches_oracle():
    session = ECOSession(make_design())
    assert_bit_identical(session)
    assert session.edits == []


def test_repad_edge_dirties_one_row():
    session = ECOSession(make_design())
    edge = session.design.edges()[0]
    edit = session.repad_edge(edge, 0.4)
    assert edit.op == "repad_edge"
    assert edit.dirty_rows == 1
    assert edit.edges == len(session.design.edges())
    assert 0.0 < edit.reuse_fraction < 1.0
    assert_bit_identical(session)
    # pad 0 removes the entry instead of storing a zero
    session.repad_edge(edge, 0.0)
    assert edge not in session.design.edge_padding
    assert_bit_identical(session)


def test_retarget_wire_overrides_layout_distance():
    session = ECOSession(make_design())
    edge = session.design.edges()[1]
    lag_before = session.design.edge_lag(edge)
    edit = session.retarget_wire(edge, 50.0)
    assert edit.dirty_rows == 1
    assert session.design.edge_lag(edge) > lag_before
    assert_bit_identical(session)


def test_resize_buffer_dirties_only_subtree_pairs():
    session = ECOSession(make_design())
    tree = session.design.tree
    # a mid-chain node: some COMM pairs inside, some outside its subtree
    node = tree.dense_store.nodes[len(tree) // 2]
    edit = session.resize_buffer(node, 1.7)
    assert 0 < edit.dirty_rows < edit.edges
    assert edit.semantic_dirty_rows <= edit.dirty_rows
    assert_bit_identical(session)


def test_graft_then_resize_above_graft_point():
    session = ECOSession(make_design())
    tree = session.design.tree
    parent = next(n for n in tree.nodes() if len(tree.children(n)) < 2)
    from repro.geometry.point import Point

    edit = session.graft_subtree(
        [(parent, "spare:a", Point(0.5, 0.5), 0.3),
         ("spare:a", "spare:b", Point(1.0, 0.5), 0.3)]
    )
    assert edit.dirty_rows == 0 and edit.reuse_fraction == 1.0
    assert "spare:b" in tree.nodes()
    assert_bit_identical(session)
    # a resize above the graft point must see the new topology
    session.resize_buffer("spare:a", 0.9)
    assert_bit_identical(session)


def test_set_period_is_zero_dirty_and_exact():
    session = ECOSession(make_design())
    period = session.design.period
    edit = session.set_period(period * 1.5)
    assert edit.dirty_rows == 0
    assert session.design.period == period * 1.5
    assert_bit_identical(session)
    session.set_period(period * 0.4)  # likely dirty verdict, still exact
    assert_bit_identical(session)


def test_relaxing_the_worst_edge_rescans_lazily():
    session = ECOSession(make_design())
    analysis = analyze_slack(session.design)
    worst = analysis.edges[int(analysis.setup_exact.argmin())]
    # make it much worse, then relax it back below other edges: both the
    # champion-update and champion-dirtied tracker paths run
    session.retarget_wire(worst, 80.0)
    assert_bit_identical(session)
    session.retarget_wire(worst, 0.0)
    assert_bit_identical(session)
    # and the hold side: pad the current min-lag edge away and back
    hold_worst = analysis.edges[int(analysis.hold_exact.argmin())]
    session.repad_edge(hold_worst, 5.0)
    assert_bit_identical(session)
    session.repad_edge(hold_worst, 0.0)
    assert_bit_identical(session)


def test_apply_dispatch_and_unknown_op():
    session = ECOSession(make_design())
    edge = session.design.edges()[0]
    edit = session.apply("repad_edge", edge=edge, pad=0.2)
    assert edit.op == "repad_edge"
    with pytest.raises(ValueError, match="unknown ECO op"):
        session.apply("delete_cell", cell=edge[0])


def test_invalid_edits_raise():
    session = ECOSession(make_design())
    edge = session.design.edges()[0]
    with pytest.raises(ValueError):
        session.repad_edge(edge, -0.1)
    with pytest.raises(KeyError):
        session.repad_edge(("nope", "nope"), 0.1)
    with pytest.raises(ValueError):
        session.retarget_wire(edge, -1.0)
    with pytest.raises(ValueError):
        session.set_period(0.0)


def test_external_mutation_is_detected():
    session = ECOSession(make_design())
    session.design.array.comm.add_node("intruder")
    with pytest.raises(RuntimeError, match="mutated outside"):
        session.repad_edge(session.design.edges()[0], 0.1)

    session = ECOSession(make_design())
    from repro.geometry.point import Point

    parent = next(
        n
        for n in session.design.tree.nodes()
        if len(session.design.tree.children(n)) < 2
    )
    session.design.tree.add_child(parent, "intruder", Point(0.0, 0.0))
    with pytest.raises(RuntimeError, match="mutated outside"):
        session.set_period(session.design.period * 1.1)


def test_report_carries_eco_block_and_validates():
    session = ECOSession(make_design())
    first = session.report()
    assert first.eco is None
    assert validate_sta_report(first.to_dict()) == []
    edge = session.design.edges()[0]
    session.repad_edge(edge, 0.3)
    report = session.report()
    assert report.eco is not None
    assert report.eco["edit"] == "repad_edge"
    assert report.eco["dirty_rows"] == 1
    assert 0.0 <= report.eco["reuse_fraction"] <= 1.0
    assert validate_sta_report(report.to_dict()) == []


def test_counts_and_summary_match_full_analysis():
    session = ECOSession(make_design())
    session.set_period(session.design.period * 0.5)  # force violations
    full = analyze_slack(session.design)
    counts = session.counts()
    assert counts["edges"] == len(full.edges)
    assert counts["stale"] == int(np.count_nonzero(full.stale_mask))
    assert counts["race"] == int(np.count_nonzero(full.race_mask))
    assert session.timing_clean() == full.timing_clean
    assert session.robust_clean() == full.robust_clean
    summary = session.summary()
    assert summary["worst_setup_slack"] == full.worst_setup_slack


def test_wire_override_blocks_simulator():
    session = ECOSession(make_design())
    session.retarget_wire(session.design.edges()[0], 2.0)
    with pytest.raises(ValueError, match="wire_overrides"):
        session.design.simulator()


def test_random_design_session_stays_exact_through_mixed_edits():
    session = ECOSession(random_design(7, clean=True))
    edges = session.design.edges()
    session.repad_edge(edges[0], 0.25)
    session.retarget_wire(edges[-1], 1.5)
    node = session.design.tree.dense_store.nodes[-1]
    session.resize_buffer(node, 2.0)
    session.set_period(session.design.period * 1.2)
    assert_bit_identical(session)
    assert len(session.edits) == 4


def _open_tree_node(design):
    return next(n for n in design.tree.nodes() if len(design.tree.children(n)) < 2)


NON_FINITE_BOUNDARIES = {
    "schedule-offset": lambda d, x: ClockSchedule({"a": x}, 1.0),
    "tree-add-child": lambda d, x: d.tree.add_child(
        _open_tree_node(d), "spare:0", Point(0.0, 0.0), x
    ),
    "tree-set-edge-length": lambda d, x: d.tree.set_edge_length(d.tree.nodes()[-1], x),
    "design-padding": lambda d, x: dataclasses.replace(d, edge_padding={d.edges()[0]: x}),
    "design-wire-override": lambda d, x: dataclasses.replace(
        d, wire_overrides={d.edges()[0]: x}
    ),
    "eco-repad": lambda d, x: ECOSession(d).repad_edge(d.edges()[0], x),
    "wire-model-m": lambda d, x: LinearWireModel(m=x),
    "simulator-delta": lambda d, x: ClockedArraySimulator(d.program, d.schedule, delta=x),
    "simulator-padding": lambda d, x: ClockedArraySimulator(
        d.program, d.schedule, edge_padding={d.edges()[0]: x}
    ),
    "jitter-amplitude": lambda d, x: JitteredSchedule(d.schedule, x),
}


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("site", sorted(NON_FINITE_BOUNDARIES))
def test_non_finite_values_rejected_at_the_boundary(site, value):
    """A NaN passes every ``x < 0`` test; each boundary must refuse it
    (and infinity) instead of letting it reach a verdict."""
    with pytest.raises(ValueError, match="finite"):
        NON_FINITE_BOUNDARIES[site](make_design(), value)
