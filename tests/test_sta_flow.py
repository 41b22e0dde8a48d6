"""Unit tests for the static flow analyzer (:mod:`repro.sta.flow`).

Covers the token-weighted graph build, the Karp/Howard MCM solvers, the
exact certificate of a Howard answer, the static deadlock detector,
minimal buffer sizing, the steady-state simulator and its closed-form
transient extrapolation, ``ECOSession.set_channel_capacity``
incremental reuse, the schema-validated flow report, and — the
handshake cross-check — the signal-level pipeline disciplines'
measured ``steady_cycle_time`` against their marked-graph MCM models.
"""

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.graphs.comm import CommGraph
from repro.obs.schema import validate_flow_report
from repro.sim.compiled import CompiledRecurrence
from repro.sim.dataflow import per_cell_service
from repro.sim.handshake import run_credit_pipeline, run_handshake_pipeline
from repro.sta.design import design_for_workload, random_design
from repro.sta.eco import ECOSession
from repro.sta.flow import (
    FlowEdge,
    FlowGraph,
    analyze_flow,
    certify_mcm,
    detect_deadlock,
    flow_graph,
    mcm_howard,
    mcm_karp,
    minimal_buffer_sizing,
    simulate_steady_state,
    simulate_steady_state_scalar,
)
from repro.sta.flowreport import build_flow_report, render_flow_report


def _pipeline(n):
    comm = CommGraph()
    for i in range(n):
        comm.add_node(i)
    for i in range(n - 1):
        comm.add_edge(i, i + 1)
    return comm


def _ring(n):
    comm = CommGraph()
    for i in range(n):
        comm.add_node(i)
    for i in range(n):
        comm.add_edge(i, (i + 1) % n)
    return comm


def _mesh(side):
    comm = CommGraph()
    for r in range(side):
        for c in range(side):
            comm.add_node((r, c))
    for r in range(side):
        for c in range(side):
            if c + 1 < side:
                comm.add_edge((r, c), (r, c + 1))
            if r + 1 < side:
                comm.add_edge((r, c), (r + 1, c))
    return comm


# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------
class TestFlowGraph:
    def test_unbounded_pipeline_has_self_and_forward_edges_only(self):
        comm = _pipeline(3)
        fg = flow_graph(comm, 1.5, 0.25)
        kinds = [e.kind for e in fg.edges]
        assert kinds.count("compute") == 3
        assert kinds.count("forward") == 2
        assert kinds.count("credit") == 0
        for e in fg.edges:
            if e.kind == "compute":
                assert e.src == e.dst and e.tokens == 1 and e.weight == 1.5
            else:
                assert e.tokens == 1 and e.weight == 0.25 + 1.5

    def test_finite_capacity_adds_credit_back_edges(self):
        comm = _pipeline(3)
        fg = flow_graph(comm, 1.0, 0.0, 3)
        credits = [e for e in fg.edges if e.kind == "credit"]
        assert len(credits) == 2
        for e in credits:
            assert e.tokens == 2  # depth - 1

    def test_per_edge_capacity_map(self):
        comm = _pipeline(3)
        cap = {(0, 1): 1, (1, 2): 4}
        fg = flow_graph(comm, 1.0, 0.0, cap)
        tokens = sorted(
            e.tokens for e in fg.edges if e.kind == "credit"
        )
        assert tokens == [0, 3]

    def test_unknown_edge_in_capacity_map_rejected(self):
        comm = _pipeline(2)
        with pytest.raises((KeyError, ValueError)):
            flow_graph(comm, 1.0, 0.0, {(7, 8): 2})


# ----------------------------------------------------------------------
# MCM solvers
# ----------------------------------------------------------------------
class TestMCM:
    def test_unbounded_mcm_is_max_service(self):
        comm = _pipeline(4)
        service = {0: 1.0, 1: 1.875, 2: 1.25, 3: 1.5}
        fg = flow_graph(comm, service, 0.5)
        cycle = mcm_howard(fg)
        assert cycle is not None
        assert cycle.cycle_time == 1.875
        assert mcm_karp(fg) == 1.875

    def test_karp_equals_howard_on_meshes_and_rings(self):
        for comm in (_mesh(3), _mesh(4), _ring(5)):
            cells = comm.nodes()
            service = {c: 1.0 + (i % 8) / 8 for i, c in enumerate(cells)}
            # Capacity 1 on the (acyclic) meshes exercises the zero-token
            # contraction; on the ring it would deadlock.
            for cap in (None, 1, 2, 4) if comm.is_acyclic() else (None, 2, 4):
                fg = flow_graph(comm, service, 0.5, cap)
                howard = mcm_howard(fg)
                assert howard is not None
                assert howard.cycle_time == mcm_karp(fg)
                cert = certify_mcm(fg, howard)
                assert cert.verified, cert.failed
                assert cert.mean[0] / cert.mean[1] == howard.cycle_time
                assert cert.edges > 0

    def test_cycle_weight_token_ratio_is_consistent(self):
        fg = flow_graph(_mesh(3), 1.25, 0.5, 2)
        cycle = mcm_howard(fg)
        assert cycle is not None
        assert cycle.tokens > 0
        assert cycle.cycle_time == cycle.weight / cycle.tokens

    def test_warm_start_reaches_same_answer(self):
        fg = flow_graph(_mesh(4), 1.375, 0.5, 2)
        cold = mcm_howard(fg)
        assert cold is not None
        warm = mcm_howard(fg, warm_start=cold.policy)
        assert warm is not None
        assert warm.cycle_time == cold.cycle_time


def _exact_mcm(fg):
    """Karp's theorem over Fractions on a unit-token graph: the exact
    maximum cycle mean, with no float in the loop."""
    assert (fg.etokens == 1).all()
    edges = list(zip(fg.esrc.tolist(), fg.edst.tolist(),
                     map(Fraction, fg.eweight.tolist())))
    n = fg.n_cells
    walks = [[Fraction(0)] * n]
    for _ in range(n):
        row = [None] * n
        for u, v, w in edges:
            prev = walks[-1][u]
            if prev is not None and (row[v] is None or prev + w > row[v]):
                row[v] = prev + w
        walks.append(row)
    return max(
        min((walks[n][v] - walks[k][v]) / (n - k)
            for k in range(n) if walks[k][v] is not None)
        for v in range(n) if walks[n][v] is not None
    )


def _max_simple_cycle_mean(fg):
    """Every simple cycle of the graph enumerated, its mean in Fractions:
    the MCM is attained on a simple cycle, whatever the token counts."""
    out = {}
    for i, (u, v) in enumerate(zip(fg.esrc.tolist(), fg.edst.tolist())):
        out.setdefault(u, []).append((v, i))
    weight = [Fraction(x) for x in fg.eweight.tolist()]
    tokens = fg.etokens.tolist()
    means = []

    def extend(start, u, on, w, t):
        # Cycles through ``start`` that visit only larger ids: each
        # simple cycle is found once, from its smallest node.
        for v, i in out.get(u, ()):
            if v == start:
                means.append((w + weight[i]) / (t + tokens[i]))
            elif v > start and v not in on:
                on.add(v)
                extend(start, v, on, w + weight[i], t + tokens[i])
                on.remove(v)

    for start in range(fg.n_cells):
        extend(start, start, {start}, Fraction(0), 0)
    return max(means)


class TestCertificate:
    @staticmethod
    def _solved_mesh():
        comm = _mesh(6)
        service = {c: 1.0 + (i * 3 % 8) / 8 for i, c in enumerate(comm.nodes())}
        fg = flow_graph(comm, service, 0.5, 2)
        cycle = mcm_howard(fg)
        assert cycle is not None and certify_mcm(fg, cycle).verified
        return fg, cycle

    def test_one_ulp_lower_cycle_time_fails_the_lower_bound(self):
        fg, cycle = self._solved_mesh()
        lower = math.nextafter(cycle.cycle_time, -math.inf)
        cert = certify_mcm(fg, replace(cycle, cycle_time=lower))
        assert not cert.verified
        assert cert.failed.startswith("lower-bound:")

    def test_non_maximal_cycle_fails_the_upper_bound(self):
        fg, cycle = self._solved_mesh()
        cheap = int(np.argmin(fg.services))
        loop = np.flatnonzero((fg.esrc == cheap) & (fg.edst == cheap))
        fake = replace(cycle, edge_ids=(int(loop[0]),),
                       cycle_time=float(fg.services[cheap]))
        cert = certify_mcm(fg, fake)
        # The self-loop is a genuine cycle with that exact mean, so only
        # the upper bound can refuse it.
        assert cert.mean == float(fg.services[cheap]).as_integer_ratio()
        assert cert.failed.startswith("upper-bound:")

    def test_a_cycle_solved_on_another_graph_is_refused(self):
        fg, cycle = self._solved_mesh()
        # Same topology and edge ids, one service raised off the critical
        # cycle: the old answer's state proves nothing about this graph.
        comm = _mesh(6)
        service = {c: 1.0 + (i * 3 % 8) / 8 for i, c in enumerate(comm.nodes())}
        service[(5, 5)] = 4.0
        other = flow_graph(comm, service, 0.5, 2)
        cert = certify_mcm(other, cycle)
        assert cert.failed.startswith("lower-bound:")
        assert certify_mcm(other, mcm_howard(other)).verified

    def test_unconverged_policy_fails_the_upper_bound(self):
        fg, cycle = self._solved_mesh()
        st = cycle.state
        # Every node on its own compute self-loop: a valid policy whose
        # best cycle is the max-service cell, but whose potentials are
        # not a proof — forward edges violate them.
        self_loops = np.flatnonzero(st.src == st.dst)
        assert len(self_loops) == len(st.policy)
        stale = replace(cycle, state=st._replace(policy=self_loops))
        cert = certify_mcm(fg, stale)
        assert cert.failed.startswith("upper-bound: edge")

    def test_non_dyadic_mesh_certifies_and_karp_is_exact(self):
        comm = _mesh(6)
        service = {c: 0.1 * (1 + n % 7) for n, c in enumerate(comm.nodes())}
        report = build_flow_report(comm, service, 0.3, 2, simulate=False)
        agreement = report["agreement"]
        assert agreement["exact"] and agreement["certificate"]["verified"]
        exact = Fraction(6305039478318695, 2**53)
        assert report["mcm"]["cycle_time"] == float(exact)
        assert agreement["certificate"]["exact_mean"] == (
            f"{exact.numerator}/{exact.denominator}"
        )
        fg = flow_graph(comm, service, 0.3, 2)
        assert _exact_mcm(fg) == exact
        # Karp sums in integers and divides once: the exact mean, rounded.
        assert mcm_karp(fg) == float(exact)

    def test_non_dyadic_random_designs_match_cycle_enumeration(self):
        graphs = 0
        for seed in range(20):
            comm = random_design(seed).array.comm
            if comm.node_count > 16:
                continue
            rng = random.Random(seed)
            service = {c: rng.random() for c in comm.nodes()}
            for wire in (0.1, 0.3, 0.7, 1.3):
                for cap in (None, 1, 2, 3):
                    if detect_deadlock(comm, cap) is not None:
                        continue
                    fg = flow_graph(comm, service, wire, cap)
                    exact = float(_max_simple_cycle_mean(fg))
                    cycle = mcm_howard(fg)
                    cert = certify_mcm(fg, cycle)
                    case = (seed, wire, cap)
                    assert cert.verified, (case, cert.failed)
                    assert cycle.cycle_time == exact, case
                    assert mcm_karp(fg) == exact, case
                    graphs += 1
        assert graphs == 284

    def test_capacity_one_certificate_checks_each_graph_edge_once(self):
        comm = design_for_workload("matmul", size=16).array.comm
        fg = flow_graph(comm, 1.25, 0.5, 1)
        cert = certify_mcm(fg, mcm_howard(fg))
        assert cert.verified, cert.failed
        assert cert.edges <= fg.n_edges

    def test_certificate_survives_python_int_arithmetic(self):
        # One service on a 2**-61 grid next to services near 2 puts the
        # scaled weights past int64, so the check runs on Python ints.
        comm = _mesh(3)
        service = {c: 1.0 + (i % 8) / 8 for i, c in enumerate(comm.nodes())}
        service[(1, 1)] = 3 * 2.0**-61
        fg = flow_graph(comm, service, 0.5, 2)
        cycle = mcm_howard(fg)
        cert = certify_mcm(fg, cycle)
        assert cert.verified, cert.failed
        assert Fraction(*cert.mean) == _exact_mcm(fg)


# ----------------------------------------------------------------------
# deadlock detection
# ----------------------------------------------------------------------
class TestDeadlock:
    def test_capacity_one_ring_deadlocks_with_witness(self):
        comm = _ring(4)
        cycle = detect_deadlock(comm, 1)
        assert cycle is not None
        assert len(cycle) == 4
        # The witness closes on itself.
        for (u, v), (nxt, _w) in zip(cycle, cycle[1:] + cycle[:1]):
            assert v == nxt

    def test_capacity_two_ring_is_live(self):
        assert detect_deadlock(_ring(4), 2) is None

    def test_acyclic_comm_never_deadlocks(self):
        assert detect_deadlock(_pipeline(5), 1) is None
        assert detect_deadlock(_mesh(3), 1) is None

    def test_unbounded_never_deadlocks(self):
        assert detect_deadlock(_ring(3), None) is None

    def test_mixed_map_deadlocks_only_when_a_unit_cycle_exists(self):
        comm = _ring(3)
        live = {(0, 1): 1, (1, 2): 1, (2, 0): 2}
        assert detect_deadlock(comm, live) is None
        dead = {(0, 1): 1, (1, 2): 1, (2, 0): 1}
        assert detect_deadlock(comm, dead) is not None

    def test_analyze_flow_surfaces_deadlock(self):
        analysis = analyze_flow(_ring(3), 1.0, 0.5, 1)
        assert analysis.dead
        assert analysis.cycle is None
        assert analysis.cycle_time is None
        assert analysis.throughput is None


# ----------------------------------------------------------------------
# static vs dynamic: bit-equality on dyadic designs
# ----------------------------------------------------------------------
class TestStaticVsDynamic:
    def test_mcm_equals_simulated_rate_bit_for_bit(self):
        for comm in (_mesh(3), _ring(4)):
            cells = comm.nodes()
            service = {c: 1.0 + (i * 3 % 8) / 8 for i, c in enumerate(cells)}
            for cap in (None, 2):
                cycle = mcm_howard(flow_graph(comm, service, 0.5, cap))
                steady = simulate_steady_state(comm, service, 0.5, cap)
                assert cycle is not None
                assert cycle.cycle_time == steady.cycle_time

    def test_scalar_steady_state_matches_stepper(self):
        comm = _mesh(3)
        service = {c: 1.0 + (i % 8) / 8 for i, c in enumerate(comm.nodes())}
        a = simulate_steady_state(comm, service, 0.5, 2)
        b = simulate_steady_state_scalar(comm, service, 0.5, 2)
        assert a.cycle_time == b.cycle_time
        assert a.period == b.period

    def test_makespan_extrapolation_matches_compiled_recurrence(self):
        comm = _mesh(3)
        service = {c: 1.0 + (i * 5 % 8) / 8 for i, c in enumerate(comm.nodes())}
        steady = simulate_steady_state(comm, service, 0.5, 2)
        svc = per_cell_service(service)
        compiled = CompiledRecurrence(comm)
        for horizon in (steady.waves_run + 3, 2 * steady.waves_run + 1):
            assert steady.makespan_at(horizon) == compiled.makespan(
                svc, 0.5, horizon, capacity=2
            )

    def test_transient_bounds_bracket_the_makespans(self):
        comm = _mesh(3)
        steady = simulate_steady_state(comm, 1.25, 0.5, None)
        lo, hi = steady.bounds()
        for waves in range(1, steady.waves_run + 1):
            m = steady.makespans[waves - 1]
            assert waves * steady.cycle_time + lo <= m + 1e-9
            assert m <= waves * steady.cycle_time + hi + 1e-9


# ----------------------------------------------------------------------
# one trajectory: the detection's own run, stepped on
# ----------------------------------------------------------------------
def _trajectory_cases():
    """Mesh (acyclic) under every capacity form; ring under the forms
    that keep it live (a uniform depth 1 closes a token-free cycle), its
    map mixing depths 1-3 with unbounded channels."""
    mesh, ring = _mesh(3), _ring(5)
    mesh_map = {e: 1 + i % 3 for i, e in enumerate(mesh.edges())}
    ring_map = {(0, 1): 1, (1, 2): 3, (3, 4): 2}
    return [(mesh, cap) for cap in (None, 1, 2, mesh_map)] + [
        (ring, cap) for cap in (None, 2, ring_map)
    ]


class TestOneTrajectory:
    @pytest.mark.parametrize(
        "simulate", [simulate_steady_state, simulate_steady_state_scalar]
    )
    @pytest.mark.parametrize(
        "comm,cap", _trajectory_cases(),
        ids=["mesh-None", "mesh-1", "mesh-2", "mesh-map", "ring-None",
             "ring-2", "ring-map"],
    )
    def test_stepped_on_run_equals_a_fresh_run(self, simulate, comm, cap):
        cells = comm.nodes()
        service = {c: 1.0 + (i * 3 % 8) / 8 for i, c in enumerate(cells)}
        steady = simulate(comm, service, 0.5, cap)
        w = steady.waves_run
        compiled = CompiledRecurrence(comm)
        # Out of order: a far horizon first, then nearer ones it passed.
        for horizon in (4 * w, w + 7, 10 * w, w + 1, 2 * w + 3, w):
            assert steady.iterated_makespan(horizon) == compiled.makespan(
                service, 0.5, horizon, capacity=cap
            ), horizon

    def test_shortest_run_serves_both_report_horizons(self):
        # Detection needs at least 4 waves (period 1 over a window of
        # 1 + depth, depth >= 2), where both report horizons are 11.
        comm = _pipeline(1)
        steady = simulate_steady_state(comm, 1.0, 0.5, None)
        assert steady.waves_run == 4
        compiled = CompiledRecurrence(comm)
        for horizon in (11, 11, 5):
            assert steady.iterated_makespan(horizon) == compiled.makespan(
                1.0, 0.5, horizon
            )
        with pytest.raises(ValueError, match="at least one wave"):
            steady.iterated_makespan(0)

    def test_report_steps_one_run_to_the_further_horizon(self, monkeypatch):
        from repro.sim.compiled import RecurrenceStepper

        steps = []
        step = RecurrenceStepper.step

        def counted(self):
            steps.append(self)
            return step(self)

        monkeypatch.setattr(RecurrenceStepper, "step", counted)
        comm = _mesh(3)
        service = {c: 1.0 + (i * 5 % 8) / 8 for i, c in enumerate(comm.nodes())}
        report = build_flow_report(comm, service, 0.5, 2)
        w = report["transient"]["waves_run"]
        assert report["transient"]["makespan_max_err"] == 0.0
        assert len(steps) == max(w + 7, 2 * w + 3)  # not 4 * w + 10
        assert len(set(map(id, steps))) == 1

    def test_the_trajectory_stays_out_of_equality_and_repr(self):
        comm = _mesh(3)
        a = simulate_steady_state(comm, 1.25, 0.5, 2)
        b = simulate_steady_state(comm, 1.25, 0.5, 2)
        a.iterated_makespan(10 * a.waves_run)
        assert "_rows" not in repr(a) and "_later" not in repr(a)
        assert replace(a, makespans=b.makespans, tail=b.tail, delta=b.delta) == b


# ----------------------------------------------------------------------
# known defect: the steady-state detector can stop inside a transient
# ----------------------------------------------------------------------
_UNSOUND_DETECTOR = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the steady-state detector accepts a non-uniform per-cell "
    "increment and extrapolates from a transient (ROADMAP item 1)",
)


def _overtaking_join():
    """A 20-cell chain ``b0 .. b19`` and one cell ``a`` both feed ``c``.
    ``a`` is slower by 1/64, so ``c`` follows the chain for hundreds of
    waves until ``a`` overtakes it."""
    comm = CommGraph()
    chain = [f"b{i}" for i in range(20)]
    for cell in chain + ["a", "c"]:
        comm.add_node(cell)
    for u, v in zip(chain, chain[1:] + ["c"]):
        comm.add_edge(u, v)
    comm.add_edge("a", "c")
    service = {cell: 1.0 for cell in comm.nodes()}
    service["a"] = 65 / 64
    return comm, service


class TestSteadyStateDetectorDefect:
    @_UNSOUND_DETECTOR
    def test_unbounded_extrapolation_matches_iteration(self):
        comm, service = _overtaking_join()
        steady = simulate_steady_state(comm, service, 0.5, None)
        iterated = CompiledRecurrence(comm).makespan(
            per_cell_service(service), 0.5, 2000
        )
        assert steady.makespan_at(2000) == iterated  # 0.484375 low today

    @_UNSOUND_DETECTOR
    def test_capacity_two_report_has_no_makespan_error(self):
        comm, service = _overtaking_join()
        report = build_flow_report(comm, service, 0.5, 2)
        assert report["transient"]["makespan_max_err"] == 0.0  # 0.015625

    @_UNSOUND_DETECTOR
    def test_signoff_shaped_matvec_has_no_makespan_error(self):
        # One op of the end-to-end signoff workload: matvec-8, star
        # clock tree, services on the 1/8 grid from a seeded RNG.
        import random

        design = design_for_workload(
            "matvec", size=8, scheme="star", seed=1279950837
        )
        comm = design.array.comm
        rng = random.Random(1294831645)
        service = {c: 1.0 + rng.randrange(8) / 8 for c in comm.nodes()}
        report = build_flow_report(comm, service, 0.5, 2)
        assert report["transient"]["makespan_max_err"] == 0.0  # 0.375


# ----------------------------------------------------------------------
# regression: Howard's policy must not cycle between equal-mean cycles
# ----------------------------------------------------------------------
class TestHowardPolicyCyclingDefect:
    """A policy cycle's potentials anchored where the evaluation walk
    enters it shift whenever the tree feeding the cycle changes, and
    phase 2 then flips nodes back and forth until the sweep cap raises.
    Buffer sizing on matmul-3 with a long wire (``repro flow --workload
    matmul --size 3 --wire 8 --target 4``) hits that.  Anchored at its
    smallest node, as ``certify_mcm`` anchors it, a cycle's potentials
    depend on the policy alone, so every sweep strictly improves it."""

    def test_sizing_converges_with_a_long_wire(self):
        comm = design_for_workload("matmul", size=3).array.comm
        rng = random.Random("0|flow|matmul")  # the CLI's services, seed 0
        service = {c: 1.0 + rng.randrange(8) / 8 for c in comm.nodes()}
        sizing = minimal_buffer_sizing(comm, service, 8.0, 4.0)
        assert sizing.cycle_time <= 4.0


# ----------------------------------------------------------------------
# buffer sizing
# ----------------------------------------------------------------------
class TestSizing:
    def test_sizing_meets_target_and_reanalysis_agrees(self):
        comm = _mesh(3)
        service = {c: 1.0 + (i % 8) / 8 for i, c in enumerate(comm.nodes())}
        base = mcm_howard(flow_graph(comm, service, 0.5, None))
        assert base is not None
        result = minimal_buffer_sizing(comm, service, 0.5, base.cycle_time)
        assert result.cycle_time <= base.cycle_time
        verdict = analyze_flow(comm, service, 0.5, result.capacities)
        assert not verdict.dead
        assert verdict.cycle_time == result.cycle_time
        assert set(result.capacities) == set(comm.edges())

    def test_slack_shrinks_required_depths(self):
        comm = _ring(5)
        base = mcm_howard(flow_graph(comm, 1.5, 0.5, None))
        assert base is not None
        tight = minimal_buffer_sizing(comm, 1.5, 0.5, base.cycle_time)
        loose = minimal_buffer_sizing(comm, 1.5, 0.5, base.cycle_time + 2.0)
        assert loose.total_capacity <= tight.total_capacity

    def test_unachievable_target_raises(self):
        comm = _mesh(3)
        base = mcm_howard(flow_graph(comm, 1.5, 0.5, None))
        assert base is not None
        with pytest.raises(ValueError):
            minimal_buffer_sizing(comm, 1.5, 0.5, base.cycle_time - 0.5)


# ----------------------------------------------------------------------
# handshake cross-check: signal-level disciplines vs their MCM models
# ----------------------------------------------------------------------
class TestHandshakeCrossCheck:
    """The three handshake flow-control laws are maximum cycle means of
    tiny marked graphs.  The simulator measures the law; the MCM solver
    derives it — they must agree on every (service, wire) point."""

    @staticmethod
    def _mcm(edges, services):
        fg = FlowGraph.from_edges(list(range(len(services))), edges,
                                  np.asarray(services, dtype=np.float64))
        cycle = mcm_howard(fg)
        assert cycle is not None
        # Node 1 has no compute self-loop here; both nodes lie on the
        # 0 -> 1 -> 0 cycle, and the certificate checks every edge.
        assert certify_mcm(fg, cycle).verified
        return cycle.cycle_time

    def _model(self, s, w, discipline, credits=2):
        # One stage and its downstream neighbour: a forward request, the
        # returning ack/credit, and the stage's own compute recycle.
        if discipline == "unbuffered":
            # Token leaves after compute+wire; the ack (one more wire)
            # must return before the next token departs: s + 2w.
            edges = [
                FlowEdge(0, 1, s + w, 1, "forward", wire=w, service=s),
                FlowEdge(1, 0, w, 0, "credit", wire=w),
                FlowEdge(0, 0, s, 1, "compute", service=s),
            ]
        elif discipline == "buffered":
            # The skid owns the round trip; compute only waits for the
            # skid slot, not the far end: max(s, 2w).
            edges = [
                FlowEdge(0, 1, w, 1, "forward", wire=w),
                FlowEdge(1, 0, w, 0, "credit", wire=w),
                FlowEdge(0, 0, s, 1, "compute", service=s),
            ]
        else:  # credit
            # `credits` tokens pipeline the round-trip loop:
            # max(s, 2w / credits).
            edges = [
                FlowEdge(0, 1, w, 1, "forward", wire=w),
                FlowEdge(1, 0, w, credits - 1, "credit", wire=w),
                FlowEdge(0, 0, s, 1, "compute", service=s),
            ]
        return self._mcm(edges, [s, s])

    def test_a_node_without_an_in_edge_is_refused(self):
        # Howard picks one in-edge per node, so a hand-built graph must
        # give every node one; node 1 feeds node 0, but nothing feeds it.
        edges = [
            FlowEdge(0, 0, 1.0, 1, "compute", service=1.0),
            FlowEdge(1, 0, 1.5, 1, "forward", wire=0.5, service=1.0),
        ]
        with pytest.raises(ValueError, match=r"node 1 \(cell 'b'\) has no in-edge"):
            FlowGraph.from_edges(["a", "b"], edges, np.asarray([1.0, 1.0]))

    def test_unbuffered_law_matches_mcm(self):
        for s, w in ((1.25, 0.25), (0.5, 0.5), (2.0, 0.125)):
            assert self._model(s, w, "unbuffered") == s + 2 * w
            run = run_handshake_pipeline(
                5, 120, lambda rng: s, wire_delay=w, seed=3
            )
            assert run.steady_cycle_time == pytest.approx(
                self._model(s, w, "unbuffered")
            )

    def test_buffered_law_matches_mcm(self):
        for s, w in ((1.25, 0.25), (0.25, 1.0), (1.0, 0.5)):
            assert self._model(s, w, "buffered") == max(s, 2 * w)
            run = run_handshake_pipeline(
                5, 120, lambda rng: s, wire_delay=w, seed=3, buffered=True
            )
            assert run.steady_cycle_time == pytest.approx(
                self._model(s, w, "buffered")
            )

    def test_credit_law_matches_mcm(self):
        for s, w, credits in ((0.125, 0.5, 2), (0.125, 0.5, 4),
                              (1.5, 0.25, 2), (0.25, 1.0, 8)):
            assert self._model(s, w, "credit", credits) == max(
                s, 2 * w / credits
            )
            run = run_credit_pipeline(
                5, 160, lambda rng: s, wire_delay=w, credits=credits, seed=3
            )
            # The finite run's tail drains without backpressure, so the
            # measured rate sits a hair under the law (same tolerance as
            # the handshake law tests).
            assert run.steady_cycle_time == pytest.approx(
                self._model(s, w, "credit", credits), rel=0.02
            )


# ----------------------------------------------------------------------
# ECO incremental capacity edits
# ----------------------------------------------------------------------
def _credit_roles(flow):
    """Each bounded channel's role in the session's cached solve: its
    credit edge is on the critical cycle, another policy edge, or free."""
    fg, cycle = flow.graph, flow.cycle
    st = cycle.state
    policy = set(st.edge_ids[st.policy].tolist())
    roles = {}
    for e in np.flatnonzero(fg.ekind == 2).tolist():
        channel = (fg.cells[fg.edst[e]], fg.cells[fg.esrc[e]])
        roles[channel] = ("critical" if e in cycle.edge_ids
                          else "policy" if e in policy else "free")
    return roles


def _carried_certificate(flow, fg):
    """The certificate of ``flow``'s solve carried unchanged to ``fg``,
    the same edges with new token counts."""
    st = flow.cycle.state
    carried = st._replace(graph=fg, tokens=fg.etokens[st.edge_ids])
    return certify_mcm(fg, replace(flow.cycle, state=carried))


def _matmul4_session(depth):
    session = ECOSession(design_for_workload("matmul", size=4, seed=3))
    comm = session.design.array.comm
    for edge in comm.edges():
        session.set_channel_capacity(edge, depth)
    service = {c: 1.0 + (i * 5 % 8) / 8 for i, c in enumerate(comm.nodes())}
    return session, service, session.flow(service, 0.5)


def _assert_certified_and_cold(session, service, wire):
    flow = session.flow(service, wire)
    cert = certify_mcm(flow.graph, flow.cycle)
    assert cert.verified, cert.failed
    cold = analyze_flow(session.design.array.comm, service, wire,
                        session.channel_capacities)
    assert flow.deadlock == cold.deadlock
    assert flow.cycle_time == cold.cycle_time
    return flow


class TestEcoFlow:
    def test_widening_off_critical_edge_reuses_cached_cycle(self):
        session = ECOSession(design_for_workload("fir", size=5))
        comm = session.design.array.comm
        for edge in comm.edges():
            session.set_channel_capacity(edge, 2)
        before = session.flow(service=1.25, wire_delay=0.5)
        assert not before.dead and before.cycle is not None
        spare = next(e for e in comm.edges()
                     if e not in before.critical_comm_edges())
        edit = session.set_channel_capacity(spare, 3)
        assert edit.op == "set_channel_capacity"
        assert edit.semantic_dirty_rows == 0  # no re-solve
        after = _assert_certified_and_cold(session, 1.25, 0.5)
        assert after.cycle.edge_ids == before.cycle.edge_ids
        assert np.array_equal(after.cycle.policy, before.cycle.policy)

    def test_narrowing_matches_cold_solve(self):
        session = ECOSession(design_for_workload("fir", size=5))
        comm = session.design.array.comm
        for edge in comm.edges():
            session.set_channel_capacity(edge, 4)
        session.flow(service=1.25, wire_delay=0.5)
        edge = comm.edges()[0]
        session.set_channel_capacity(edge, 2)
        _assert_certified_and_cold(session, 1.25, 0.5)

    def test_narrowing_off_critical_cycle_keeps_the_solve(self):
        session, service, before = _matmul4_session(3)
        channel = next(c for c, role in _credit_roles(before).items()
                       if role == "free")
        edit = session.set_channel_capacity(channel, 2)
        assert edit.semantic_dirty_rows == 0
        after = _assert_certified_and_cold(session, service, 0.5)
        assert after.cycle.edge_ids == before.cycle.edge_ids
        assert after.cycle.state.graph is after.graph

    def test_narrowing_that_breaks_its_reduced_cost_re_solves(self):
        # The reduced-cost test is what refuses this keep: the channel is
        # off the critical cycle and not a policy edge, but at depth 1 its
        # credit edge breaks the cached solve's certificate.
        session, service, before = _matmul4_session(3)
        comm = session.design.array.comm
        for channel, role in _credit_roles(before).items():
            caps = session.channel_capacities
            caps[channel] = 1
            fg = flow_graph(comm, service, 0.5, caps)
            if role == "free" and not _carried_certificate(before, fg).verified:
                break
        else:
            pytest.fail("no free channel breaks its reduced cost at depth 1")
        assert detect_deadlock(comm, caps) is None
        edit = session.set_channel_capacity(channel, 1)
        assert edit.semantic_dirty_rows == 1
        _assert_certified_and_cold(session, service, 0.5)

    def test_policy_edge_widening_re_solves_and_certifies(self):
        session, service, before = _matmul4_session(3)
        channel = next(c for c, role in _credit_roles(before).items()
                       if role == "policy")
        edit = session.set_channel_capacity(channel, 4)
        assert edit.semantic_dirty_rows == 1
        _assert_certified_and_cold(session, service, 0.5)

    def test_same_depth_edit_touches_nothing(self):
        session, service, before = _matmul4_session(2)
        channel = session.design.array.comm.edges()[0]
        edit = session.set_channel_capacity(channel, 2)
        assert edit.semantic_dirty_rows == 0
        assert session.flow(service, 0.5) is before

    def test_widening_past_the_int64_bound_re_solves(self):
        # 2**60 slots: the kept int64 state could overflow in the
        # certificate, so the session solves again in Python ints.
        session, service, before = _matmul4_session(3)
        channel = next(c for c, role in _credit_roles(before).items()
                       if role == "free")
        edit = session.set_channel_capacity(channel, 2**60)
        assert edit.semantic_dirty_rows == 1
        after = _assert_certified_and_cold(session, service, 0.5)
        assert after.cycle.state.weight.dtype == object

    def test_kept_widening_certifies_on_the_edited_graph(self):
        # Regression: a kept widening used to carry the Howard state of
        # the graph before the edit, which certify_mcm refuses ("no
        # critical cycle of this graph to check").
        session = ECOSession(design_for_workload("matmul", size=8, seed=3))
        comm = session.design.array.comm
        for edge in comm.edges():
            session.set_channel_capacity(edge, 2)
        rng = random.Random(3)
        service = {c: 1.0 + rng.randrange(8) / 8 for c in comm.nodes()}
        before = session.flow(service, 0.5)
        spare = next(e for e in comm.edges()
                     if e not in before.critical_comm_edges())
        session.set_channel_capacity(spare, 3)
        _assert_certified_and_cold(session, service, 0.5)

    def test_capacity_edit_validation(self):
        session = ECOSession(design_for_workload("fir", size=4))
        edge = session.design.array.comm.edges()[0]
        with pytest.raises(ValueError):
            session.set_channel_capacity(edge, 0)
        with pytest.raises(KeyError):
            session.set_channel_capacity(("no", "such"), 2)

    def test_apply_dispatches_capacity_edits(self):
        session = ECOSession(design_for_workload("fir", size=4))
        edge = session.design.array.comm.edges()[0]
        edit = session.apply("set_channel_capacity", edge=edge, depth=3)
        assert edit.op == "set_channel_capacity"
        assert session.channel_capacities[edge] == 3


# ----------------------------------------------------------------------
# flow report + CLI
# ----------------------------------------------------------------------
class TestFlowReport:
    def test_live_report_validates_and_is_exact(self):
        comm = _mesh(3)
        service = {c: 1.0 + (i % 8) / 8 for i, c in enumerate(comm.nodes())}
        report = build_flow_report(comm, service, 0.5, 2,
                                   design_name="mesh3",
                                   sizing_target=None)
        assert validate_flow_report(report) == []
        assert not report["deadlock"]["dead"]
        agreement = report["agreement"]
        assert agreement["exact"]
        assert agreement["max_abs_diff"] == 0.0
        assert agreement["certificate"] == {
            "verified": True,
            "failed": None,
            "exact_mean": "15/8",
            "edges_checked": 33,
        }
        assert report["mcm"]["cycle_time"] == 15 / 8
        text = render_flow_report(report)
        assert "mesh3" in text and "cycle time" in text
        assert "certified=15/8" in text

    def test_schema_ties_exact_to_a_verified_certificate(self):
        report = build_flow_report(_mesh(3), 1.25, 0.5, 2, simulate=False)
        assert validate_flow_report(report) == []
        cert = report["agreement"]["certificate"]
        cert.update(verified=False, failed="upper-bound: edge")
        errors = validate_flow_report(report)
        assert any("unverified certificate" in e for e in errors)
        report["agreement"]["exact"] = False
        assert validate_flow_report(report) == []
        cert["failed"] = None
        assert any("$.agreement.certificate" in e
                   for e in validate_flow_report(report))

    def test_dead_report_carries_witness(self):
        report = build_flow_report(_ring(3), 1.0, 0.5, 1,
                                   design_name="ring3")
        assert validate_flow_report(report) == []
        assert report["deadlock"]["dead"]
        assert len(report["deadlock"]["cycle"]) == 3
        assert "DEADLOCK" in render_flow_report(report).upper()

    def test_cli_flow_verb_writes_valid_artifact(self, tmp_path):
        out = tmp_path / "flow.json"
        code = cli_main(["flow", "--workload", "fir", "--size", "4",
                         "--json", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert len(reports) == 1
        assert validate_flow_report(reports[0]) == []
        assert reports[0]["agreement"]["exact"]
        assert reports[0]["agreement"]["certificate"]["verified"]

    def test_cli_flow_certifies_a_non_dyadic_capacity_one_fir(self, tmp_path):
        out = tmp_path / "flow.json"
        code = cli_main(["flow", "--workload", "fir", "--size", "4",
                         "--wire", "0.7", "--capacity", "1", "--static-only",
                         "--json", str(out)])
        assert code == 0
        (report,) = json.loads(out.read_text())
        cert = report["agreement"]["certificate"]
        assert cert["verified"], cert["failed"]
        assert cert["exact_mean"] == "11596769040479027/4503599627370496"

    def test_cli_sta_flow_flag_writes_valid_artifact(self, tmp_path):
        out = tmp_path / "sta_flow.json"
        code = cli_main(["sta", "--workload", "fir", "--size", "4",
                         "--flow", str(out)])
        assert code == 0
        reports = json.loads(out.read_text())
        assert all(validate_flow_report(r) == [] for r in reports)
