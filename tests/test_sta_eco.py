"""ECOSession unit tests: typed edits, dirty sets, and bit-exactness.

The incremental engine's contract: after ANY sequence of edits, every
array, extremum, and verdict it serves is bit-identical to a full
``analyze_slack`` over its mutated design.  These tests exercise each
typed edit, the lazy extremum trackers (including edits that relax the
current worst edge), the external-mutation guard, and the per-step
report's ``eco`` audit block.
"""

import dataclasses
import random
import re

import numpy as np
import pytest

from repro.delay.wire import LinearWireModel
from repro.geometry.point import Point
from repro.obs.schema import validate_sta_report
from repro.obs.trace import RecordingTracer
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator
from repro.sim.faults import JitteredSchedule
from repro.check.eco import random_edit
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


def test_a_refused_graft_leaves_tree_session_and_log_unchanged():
    session = ECOSession(design_for_workload("fir", size=5, seed=0))
    tree = session.design.tree
    n = next(n for n in tree.nodes() if len(tree.children(n)) < 2)
    nodes, version = tree.nodes(), tree.version
    log = [e.to_dict() for e in session.edits]
    worst = session.worst_setup_slack()
    with pytest.raises(ValueError, match="'spare:0' is already in the tree"):
        session.graft_subtree([(n, "spare:0", Point(0.0, 0.0), 0.5)] * 2)
    assert tree.nodes() == nodes and tree.version == version
    assert [e.to_dict() for e in session.edits] == log
    assert session.worst_setup_slack() == worst
    assert validate_sta_report(session.report().to_dict()) == []
    # The session still takes edits, the same graft once among them.
    edit = session.graft_subtree([(n, "spare:0", Point(0.0, 0.0), 0.5)])
    assert edit.op == "graft_subtree" and len(tree) == len(nodes) + 1
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


SUMMARY_KEYS = [
    "edges", "stale", "race", "stale_possible", "race_possible", "race_floor",
    "worst_setup_slack", "worst_hold_slack", "min_feasible_period_exact",
    "min_feasible_period_bound", "timing_clean", "robust_clean", "edits_applied",
]


def test_counts_and_summary_match_full_analysis():
    session = ECOSession(make_design())
    session.set_period(session.design.period * 0.5)  # force violations
    rng = random.Random(11)
    graft_serial = [0]
    for step in range(30):
        if step:
            random_edit(rng, session, graft_serial)
        full = analyze_slack(session.design)
        counts = session.counts()
        assert counts == full.counts()
        assert counts["edges"] == len(full.edges)
        assert counts["stale"] == int(np.count_nonzero(full.stale_mask))
        assert counts["race"] == int(np.count_nonzero(full.race_mask))
        assert session.timing_clean() == full.timing_clean
        assert session.robust_clean() == full.robust_clean
        summary = session.summary()
        assert list(summary) == SUMMARY_KEYS
        assert summary == {
            **full.counts(),
            "worst_setup_slack": full.worst_setup_slack,
            "worst_hold_slack": full.worst_hold_slack,
            "min_feasible_period_exact": minimum_feasible_period(session.design, "exact"),
            "min_feasible_period_bound": minimum_feasible_period(session.design, "bound"),
            "timing_clean": full.timing_clean,
            "robust_clean": full.robust_clean,
            "edits_applied": step + 1,
        }


def test_channel_capacities_hold_every_capacity_edit():
    session = ECOSession(design_for_workload("matvec", size=4, scheme="serpentine"))
    edges = session.design.edges()
    rng = random.Random(5)
    script = [(edges[3], 2), (edges[3], 2), (edges[1], 2**60), (edges[3], 3),
              (edges[0], 1), (edges[1], 2**60)]
    script += [(rng.choice(edges), rng.choice((1, 2, 3, 2**60))) for _ in range(20)]
    expected = {}
    for edge, depth in script:
        session.set_channel_capacity(edge, depth)
        expected[edge] = depth
        assert session.channel_capacities == expected
    # One depth vector in COMM edge order backs the map.
    assert list(session.channel_capacities) == [e for e in edges if e in expected]


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


def _subtree_reference(session, node):
    """Dirty rows (an endpoint inside) and semantic rows (exactly one
    endpoint inside) from the scalar subtree walk."""
    inside = set(session.design.tree.subtree_nodes(node))
    flags = [(a in inside, b in inside) for a, b in session.design.edges()]
    return sum(a or b for a, b in flags), sum(a != b for a, b in flags)


@pytest.mark.parametrize("scheme", ["serpentine", "kdtree", "star"])
def test_resize_dirty_counts_match_the_subtree_walk(scheme):
    session = ECOSession(design_for_workload("matvec", size=5, scheme=scheme))
    tree = session.design.tree
    rng = random.Random(f"resize-dirty|{scheme}")
    for step in range(12):
        if step % 3 == 2:  # graft, then resize the edge above the graft point
            open_nodes = [
                n for n in tree.dense_store.nodes[1:]
                if len(tree.children(n)) < tree.max_children
            ]
            node = rng.choice(open_nodes)
            session.graft_subtree([(node, f"spare:{step}", Point(0.0, 0.0), 0.4)])
        else:
            node = rng.choice(tree.dense_store.nodes[1:])
        edit = session.resize_buffer(node, rng.uniform(0.5, 3.0))
        assert (edit.dirty_rows, edit.semantic_dirty_rows) == _subtree_reference(
            session, node
        )
    assert_bit_identical(session)


@pytest.mark.parametrize(
    "period, message",
    [
        (0.0, "period must be positive"),
        (-1.0, "period must be positive"),
        (float("nan"), "clock period must be positive and finite"),
        (float("inf"), "clock period must be positive and finite"),
    ],
    ids=["zero", "negative", "nan", "inf"],
)
def test_set_period_refuses_a_bad_period(period, message):
    session = ECOSession(make_design())
    design = session.design
    with pytest.raises(ValueError, match=f"^{message}$"):
        session.set_period(period)
    assert session.design is design and session.edits == []


@pytest.mark.parametrize(
    "mapping, what", [("edge_padding", "padding"), ("wire_overrides", "wire override")]
)
@pytest.mark.parametrize("bad", [-0.5, float("nan"), float("inf")], ids=["neg", "nan", "inf"])
def test_with_period_refuses_a_value_made_invalid_in_place(mapping, what, bad):
    design = design_for_workload("matvec", size=4, scheme="serpentine")
    edges = design.edges()
    values = getattr(design, mapping)
    values.clear()
    for edge in reversed(edges):  # dict order is not edge order
        values[edge] = 0.25
    values[edges[2]] = -1.0
    values[edges[5]] = bad
    # the first bad entry in dict order is named, as the per-edge loop did
    message = f"{what} on edge {edges[5]!r} must be non-negative and finite"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        design.with_period(design.period * 1.1)
    values[edges[2]] = values[edges[5]] = "0.25"  # not a number: refused as before
    with pytest.raises(TypeError):
        design.with_period(design.period * 1.1)


def test_reclocked_jittered_design_gets_a_plain_schedule():
    design = make_design()
    jittered = dataclasses.replace(
        design, schedule=JitteredSchedule(design.schedule, design.period / 8, seed=3)
    )
    period = design.period * 1.25
    reclocked = jittered.with_period(period)
    assert type(reclocked.schedule) is ClockSchedule
    assert reclocked.period == period
    cells = list(design.schedule.cells())
    assert list(reclocked.schedule.cells()) == cells
    for cell in cells:
        offset = design.schedule.offset(cell)
        assert reclocked.schedule.offset(cell) == offset
        assert reclocked.schedule.tick_time(cell, 3) == offset + 3 * period


def test_audit_log_equals_the_records_the_edits_returned():
    tracer = RecordingTracer()
    session = ECOSession(
        design_for_workload("matvec", size=4, scheme="serpentine"), tracer=tracer
    )
    design = session.design
    tree, edges = design.tree, design.edges()
    parent = next(
        n for n in tree.dense_store.nodes[1:] if len(tree.children(n)) < 2
    )
    session.flow(1.0, 0.5)  # a flow memo, so capacity edits re-solve or keep
    steps = [
        lambda: session.repad_edge(edges[0], 0.3),
        lambda: session.retarget_wire(edges[1], 2.5),
        lambda: session.resize_buffer(tree.dense_store.nodes[len(tree) // 2], 1.7),
        lambda: session.graft_subtree(
            [(parent, "spare:a", Point(0.5, 0.5), 0.3),
             ("spare:a", "spare:b", Point(1.0, 0.5), 0.3)]
        ),
        lambda: session.resize_buffer("spare:a", 0.9),  # a resize after a graft
        lambda: session.resize_buffer(parent, 2.2),  # and one above it
        lambda: session.set_period(session.design.period * 1.25),
        lambda: session.set_channel_capacity(edges[2], 2),
        lambda: session.set_channel_capacity(edges[2], 2),  # the same depth again
        lambda: session.set_channel_capacity(edges[3], 2**60),
        lambda: session.set_channel_capacity(edges[2], 3),
        lambda: session.repad_edge(edges[0], 0.0),
    ]
    returned = []
    for step in steps:
        edit = step()
        returned.append(edit)
        assert session.report().eco == edit.to_dict()
        event = tracer.by_kind("eco", "edit")[-1]
        assert event.t == float(len(returned))
        assert event.data["target"] == edit.target
    assert returned[9].target.endswith(f"depth={2**60}")
    assert returned[8].semantic_dirty_rows == 0
    log = session.edits
    assert log == returned
    for got, want in zip(log, returned):
        assert (got.op, got.target, got.dirty_rows, got.semantic_dirty_rows,
                got.edges, got.reuse_fraction) == (
            want.op, want.target, want.dirty_rows, want.semantic_dirty_rows,
            want.edges, want.reuse_fraction)
    assert {edit.op for edit in log} == {
        "repad_edge", "retarget_wire", "resize_buffer", "graft_subtree",
        "set_period", "set_channel_capacity",
    }
    assert session.summary()["edits_applied"] == len(steps)
    assert_bit_identical(session)
