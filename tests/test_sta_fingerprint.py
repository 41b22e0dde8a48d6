"""Regression tests: STAAnalyzer sees every mutable input of its design.

Two bugs are pinned.  A fingerprint once captured the padding map but
missed other in-place mutations (``delta``, a clock-tree edge retune, an
ECO wire override); a later fingerprint missed reassigned schedules,
skew models and disciplines.  Either way the analyzer kept serving a
stale report after the design changed under it.  The analyzer now keeps
nothing between queries: each test mutates one input and requires a
fresh, *different* quantity, or a report equal to a fresh analyzer's.
"""

from repro.core.disciplines import SinglePhaseDiscipline
from repro.core.models import PhysicalModel
from repro.sim.clock_distribution import ClockSchedule
from repro.sta.analyzer import STAAnalyzer
from repro.sta.design import design_for_workload


def make_analyzer():
    design = design_for_workload("fir", size=5, scheme="serpentine", seed=0)
    return design, STAAnalyzer(design)


def test_padding_mutation_invalidates():
    design, analyzer = make_analyzer()
    before = analyzer.slack()
    edge = design.edges()[0]
    design.edge_padding[edge] = design.edge_padding.get(edge, 0.0) + 0.7
    after = analyzer.slack()
    assert after is not before
    i = design.edges().index(edge)
    assert after.lag[i] != before.lag[i]


def test_delta_mutation_invalidates():
    # The seed failure: delta is read by every slack row but was only in
    # the fingerprint as part of the analyzer's construction-time state;
    # an in-place `design.delta = x` kept serving the old report.
    design, analyzer = make_analyzer()
    before = analyzer.slack()
    design.delta = design.delta + 0.5
    after = analyzer.slack()
    assert after is not before
    assert abs((after.lag[0] - before.lag[0]) - 0.5) < 1e-12


def test_wire_override_mutation_invalidates():
    design, analyzer = make_analyzer()
    before = analyzer.slack()
    edge = design.edges()[0]
    design.wire_overrides[edge] = 25.0
    after = analyzer.slack()
    assert after is not before
    i = design.edges().index(edge)
    assert after.lag[i] > before.lag[i]


def test_tree_edge_retune_invalidates():
    design, analyzer = make_analyzer()
    before = analyzer.slack()
    leaf = design.tree.leaves()[0]
    design.tree.set_edge_length(leaf, design.tree.edge_length(leaf) + 2.0)
    after = analyzer.slack()
    assert after is not before
    assert after.sigma_ub.tobytes() != before.sigma_ub.tobytes()


def _report(analyzer):
    out = analyzer.report().to_dict()
    out["meta"].pop("emitted_at")
    return out


def _after_reassignment(reassign):
    """The analyzer's report after ``reassign(design)``, and a fresh
    analyzer's; the analyzer answered one report before the change."""
    design, analyzer = make_analyzer()
    before = _report(analyzer)
    reassign(design)
    return before, _report(analyzer), _report(STAAnalyzer(design))


def test_reassigned_schedule_is_seen():
    def shift_every_other_cell(design):
        design.schedule = ClockSchedule(
            {c: design.schedule.offset(c) + (0.9 * design.period if i % 2 else 0.0)
             for i, c in enumerate(design.array.comm.nodes())},
            design.period,
        )

    before, after, fresh = _after_reassignment(shift_every_other_cell)
    assert (before["verdict"], fresh["verdict"]) == ("clean", "violations")
    assert after == fresh


def test_reassigned_model_is_seen():
    def widen(design):
        design.model = PhysicalModel(m=1.0, eps=0.5)

    before, after, fresh = _after_reassignment(widen)
    assert after == fresh
    assert after != before


def test_reassigned_discipline_is_seen():
    def hold(design):
        design.discipline = SinglePhaseDiscipline(t_hold=5.0)

    before, after, fresh = _after_reassignment(hold)
    assert after == fresh
    assert fresh["counts"]["drc_warn"] != before["counts"]["drc_warn"]
