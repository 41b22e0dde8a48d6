"""Invariant oracles: the paper's quantitative claims, checked end to end.

Each check builds concrete arrays/trees/schedules and asserts a claim the
paper derives:

* ``skew-bracket``     — Section III: measured ``BufferedClockTree`` skew
  sits inside the analytic per-pair bracket, and the model-level bracket
  ``eps*s <= sigma <= (m+eps)*s`` holds around the physical model.
* ``a5-period``        — A5: running a real workload at period
  ``sigma + delta + tau`` is violation-free and functionally lockstep;
  running well below the minimum safe period is not.
* ``theorem-scaling``  — Theorems 2/3 keep sigma flat under array scaling;
  the Fig. 3(a) dissection tree grows linearly; Theorem 6's bisection
  floor holds on meshes (full suite).
* ``tuning-monotonicity`` — tuning drives the difference metric ``d`` to 0
  for every pair and never decreases the summation metric ``s``.
* ``lower-bound-consistency`` — the executed Section V-B certificate is
  internally consistent and agrees with :func:`repro.core.models.
  max_skew_lower_bound` and the tree-independent floor.
* ``capacity-monotonicity`` — finite self-timed channel capacities only
  ever slow a run down: makespan is monotone non-increasing in capacity,
  and capacity at least the wave count is bit-identical to unbounded.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Hashable, List, Tuple

from repro.arrays.systolic import build_fir_array
from repro.arrays.topologies import linear_array, mesh
from repro.clocktree.builders import kdtree_clock, serpentine_clock
from repro.clocktree.buffered import BufferedClockTree
from repro.clocktree.htree import htree_for_array
from repro.clocktree.spine import spine_clock
from repro.clocktree.tree import ClockTree
from repro.clocktree.tuning import tune_to_equidistant
from repro.core.lower_bound import lower_bound_value, prove_skew_lower_bound
from repro.core.models import (
    DifferenceModel,
    PhysicalModel,
    SummationModel,
    max_skew_bound,
    max_skew_lower_bound,
)
from repro.core.parameters import ClockParameters
from repro.core.theorems import (
    fig3a_counterexample_sweep,
    theorem2_sweep,
    theorem3_sweep,
    theorem6_sweep,
)
from repro.delay.buffer import InverterPairModel
from repro.delay.variation import BoundedUniformVariation
from repro.check.registry import REGISTRY, CheckContext, require
from repro.sim.clock_distribution import ClockSchedule
from repro.sim.clocked import ClockedArraySimulator

NodeId = Hashable

TOL = 1e-9


def _segments_to_ancestor(
    tree: ClockTree, node: NodeId, ancestor: NodeId, spacing: float
) -> int:
    """Buffer/segment count on the tree path from ``node`` up to
    ``ancestor``, mirroring ``clocktree.buffered.slice_segments`` exactly:
    a zero-length edge gets no buffer, otherwise ``ceil(length / spacing)``
    with the same 1e-12 tolerance."""
    count = 0
    while node != ancestor:
        length = tree.edge_length(node)
        if length > 0:
            count += max(1, math.ceil(length / spacing - 1e-12))
        node = tree.parent(node)
    return count


def _pair_bracket(
    tree: ClockTree,
    a: NodeId,
    b: NodeId,
    m: float,
    eps: float,
    spacing: float,
    buffer_delay: float,
) -> Tuple[float, float]:
    """Analytic (lower, upper) bracket on the skew between ``a`` and ``b``
    for per-unit wire delay in ``[m - eps, m + eps]`` plus a deterministic
    ``buffer_delay`` per segment.

    Only the paths below the LCA contribute (the shared prefix cancels):
    with ``h_a``/``h_b`` the wire lengths and ``n_a``/``n_b`` the segment
    counts below the LCA, the arrival difference lies in
    ``[(m-eps)*h_a - (m+eps)*h_b + D, (m+eps)*h_a - (m-eps)*h_b + D]``
    where ``D = buffer_delay * (n_a - n_b)``; the skew (its absolute
    value) is bracketed by maximizing over both orientations.
    """
    lca = tree.lca(a, b)
    h_a = tree.root_distance(a) - tree.root_distance(lca)
    h_b = tree.root_distance(b) - tree.root_distance(lca)
    n_a = _segments_to_ancestor(tree, a, lca, spacing)
    n_b = _segments_to_ancestor(tree, b, lca, spacing)

    def spread(hx: float, nx: int, hy: float, ny: int) -> Tuple[float, float]:
        low = (m - eps) * hx + buffer_delay * nx - ((m + eps) * hy + buffer_delay * ny)
        high = (m + eps) * hx + buffer_delay * nx - ((m - eps) * hy + buffer_delay * ny)
        return low, high

    lo_ab, hi_ab = spread(h_a, n_a, h_b, n_b)
    lo_ba, hi_ba = spread(h_b, n_b, h_a, n_a)
    upper = max(hi_ab, hi_ba, 0.0)
    # |x| for x in [lo, hi]: the minimum is 0 unless the interval excludes 0.
    lower = max(lo_ab, lo_ba, 0.0)
    return lower, upper


@REGISTRY.register(
    "skew-bracket",
    "invariant",
    "measured buffered-tree skew lies in the Section III bracket "
    "eps*s <= sigma <= (m+eps)*s (plus deterministic buffer terms)",
)
def check_skew_bracket(ctx: CheckContext) -> Dict[str, Any]:
    m, eps, spacing, buffer_delay = 1.0, 0.1, 1.0, 0.25
    cases = [("serpentine-mesh-5", serpentine_clock(mesh(5, 5)), mesh(5, 5))]
    if ctx.full:
        cases.append(("spine-linear-32", spine_clock(linear_array(32)), linear_array(32)))
        cases.append(("kdtree-mesh-8", kdtree_clock(mesh(8, 8)), mesh(8, 8)))
    pairs_checked = 0
    worst_measured = 0.0
    for label, tree, array in cases:
        buffered = BufferedClockTree(
            tree,
            buffer_spacing=spacing,
            wire_variation=BoundedUniformVariation(m=m, epsilon=eps, seed=ctx.seed),
            buffer_model=InverterPairModel(nominal=buffer_delay),
        )
        pairs = array.communicating_pairs()
        for a, b in pairs:
            lower, upper = _pair_bracket(tree, a, b, m, eps, spacing, buffer_delay)
            measured = buffered.skew(a, b)
            require(
                lower - TOL <= measured <= upper + TOL,
                f"{label}: measured skew outside analytic bracket",
                case=label, pair=[repr(a), repr(b)],
                measured=measured, lower=lower, upper=upper,
            )
            worst_measured = max(worst_measured, measured)
            pairs_checked += 1
        # Model-level bracket around the physical model's sigma.
        phys = PhysicalModel(m=m, eps=eps)
        sigma = max_skew_bound(tree, pairs, phys)
        floor = max_skew_lower_bound(tree, pairs, phys)
        ceiling = max_skew_bound(tree, pairs, SummationModel(m=m, eps=eps))
        require(
            floor - TOL <= sigma <= ceiling + TOL,
            f"{label}: physical-model sigma escapes eps*s..(m+eps)*s",
            case=label, sigma=sigma, floor=floor, ceiling=ceiling,
        )
    return {"pairs_checked": pairs_checked, "worst_measured_skew": worst_measured}


@REGISTRY.register(
    "a5-period",
    "invariant",
    "running at the A5 period sigma+delta+tau is clean and lockstep-equal; "
    "running far below the minimum safe period is not",
)
def check_a5_period(ctx: CheckContext) -> Dict[str, Any]:
    rng = ctx.rng("a5-period")
    taps = 5 if ctx.full else 3
    weights = [rng.uniform(-1.0, 1.0) for _ in range(taps)]
    xs = [rng.uniform(-2.0, 2.0) for _ in range(8)]
    program = build_fir_array(weights, xs)
    reference = program.run_lockstep()

    layout = program.array.layout
    order = sorted(
        program.array.comm.nodes(), key=lambda c: (layout[c].x, layout[c].y)
    )
    tree = spine_clock(program.array, order=order)
    buffered = BufferedClockTree(
        tree,
        buffer_spacing=1.0,
        wire_variation=BoundedUniformVariation(m=1.0, epsilon=0.05, seed=ctx.seed),
    )
    cells = program.array.comm.nodes()
    pairs = program.array.communicating_pairs()
    sigma = buffered.max_skew(pairs)
    # A sender's clock can lead its receiver's by at most sigma, so any
    # delta above sigma leaves no hold hazards — the A5 period argument is
    # purely about the setup side.
    delta = sigma + 1.0
    tau = buffered.tau()
    period = ClockParameters(sigma=sigma, delta=delta, tau=tau).period

    schedule = ClockSchedule.from_buffered_tree(buffered, period, cells)
    sim = ClockedArraySimulator(program, schedule, delta=delta)
    require(
        not sim.hold_hazards(),
        "spine schedule has hold hazards; the A5 setup argument needs none",
        sigma=sigma, delta=delta,
    )
    msp = sim.minimum_safe_period()
    require(
        period + TOL >= msp,
        "A5 period sigma+delta+tau fell below the minimum safe period",
        period=period, minimum_safe_period=msp,
        sigma=sigma, delta=delta, tau=tau,
    )
    run = sim.run()
    require(run.clean, "run at the A5 period produced timing violations",
            violations=len(run.violations), period=period)
    require(run.result == reference,
            "clocked result at the A5 period diverged from lockstep",
            period=period)

    # The converse: well below the safe period, stale reads must appear.
    bad_period = 0.5 * msp
    bad_schedule = ClockSchedule.from_buffered_tree(buffered, bad_period, cells)
    bad_run = ClockedArraySimulator(program, bad_schedule, delta=delta).run()
    require(
        len(bad_run.violations) > 0,
        "running at half the minimum safe period produced no violations",
        bad_period=bad_period, minimum_safe_period=msp,
    )
    return {
        "sigma": sigma, "tau": tau, "period": period,
        "minimum_safe_period": msp,
        "violations_below_period": len(bad_run.violations),
    }


@REGISTRY.register(
    "theorem-scaling",
    "invariant",
    "Theorems 2/3: sigma stays flat under array scaling; Fig. 3(a) grows "
    "linearly; Theorem 6's floor holds (full suite)",
)
def check_theorem_scaling(ctx: CheckContext) -> Dict[str, Any]:
    t2_sizes = [2, 4, 8] if ctx.full else [2, 4]
    t2 = theorem2_sweep(t2_sizes, topology="mesh")
    for rec in t2:
        require(abs(rec.sigma) <= TOL,
                "Theorem 2: H-tree sigma is nonzero under the difference model",
                size=rec.size, sigma=rec.sigma)
    periods = [rec.period for rec in t2]
    require(max(periods) - min(periods) <= TOL,
            "Theorem 2: period varies with array size",
            periods=periods)

    t3_sizes = [4, 8, 16, 32] if ctx.full else [4, 8, 16]
    t3 = theorem3_sweep(t3_sizes, m=1.0, eps=0.1, spacing=1.0)
    expected = (1.0 + 0.1) * 1.0  # g(spacing) = (m + eps) * spacing
    for rec in t3:
        require(abs(rec.sigma - expected) <= TOL,
                "Theorem 3: spine sigma is not the constant g(spacing)",
                size=rec.size, sigma=rec.sigma, expected=expected)

    fig3a_sizes = [8, 16, 32]
    fig3a = fig3a_counterexample_sweep(fig3a_sizes, m=1.0, eps=0.1)
    sigmas = [rec.sigma for rec in fig3a]
    require(all(b > a + TOL for a, b in zip(sigmas, sigmas[1:])),
            "Fig. 3(a): dissection-tree sigma is not strictly increasing",
            sigmas=sigmas)
    ratio = sigmas[-1] / sigmas[0]
    require(ratio > 2.0,
            "Fig. 3(a): dissection-tree sigma grows slower than linearly",
            sigmas=sigmas, ratio=ratio)

    details: Dict[str, Any] = {
        "t2_periods": periods,
        "t3_sigma": expected,
        "fig3a_sigmas": sigmas,
    }
    if ctx.full:
        for rec in theorem6_sweep([4, 6], families=["mesh"], beta=0.1):
            floor = float(rec.extra["theorem6_floor"])
            require(rec.sigma + TOL >= floor,
                    "Theorem 6: best-scheme sigma fell below the bisection floor",
                    size=rec.size, sigma=rec.sigma, floor=floor)
        details["theorem6_checked"] = True
    return details


@REGISTRY.register(
    "tuning-monotonicity",
    "invariant",
    "delay tuning drives d to 0 for every pair and never decreases s",
)
def check_tuning_monotonicity(ctx: CheckContext) -> Dict[str, Any]:
    n = 6 if ctx.full else 4
    array = mesh(n, n)
    tree = serpentine_clock(array)
    cells = list(array.comm.nodes())
    pairs = array.communicating_pairs()

    sigma_diff_before = max_skew_bound(tree, pairs, DifferenceModel(m=1.0))
    sigma_sum_before = max_skew_bound(tree, pairs, SummationModel(m=1.0, eps=0.1))
    require(sigma_diff_before > TOL,
            "serpentine tree is already equidistant; the tuning oracle is vacuous",
            sigma=sigma_diff_before)

    tuned, added = tune_to_equidistant(tree, cells)
    require(added >= -TOL, "tuning removed wire", added=added)
    distances = [tuned.root_distance(c) for c in cells]
    require(max(distances) - min(distances) <= TOL,
            "tuned tree is not equidistant",
            spread=max(distances) - min(distances))

    sigma_diff_after = max_skew_bound(tuned, pairs, DifferenceModel(m=1.0))
    require(abs(sigma_diff_after) <= TOL,
            "tuning failed to drive the difference-model sigma to zero",
            sigma_after=sigma_diff_after)

    sigma_sum_after = max_skew_bound(tuned, pairs, SummationModel(m=1.0, eps=0.1))
    require(sigma_sum_after + TOL >= sigma_sum_before,
            "tuning decreased the summation-model sigma (s shrank)",
            before=sigma_sum_before, after=sigma_sum_after)
    for a, b in pairs:
        require(tuned.path_length(a, b) + TOL >= tree.path_length(a, b),
                "tuning shortened a connecting path (s must never decrease)",
                pair=[repr(a), repr(b)],
                before=tree.path_length(a, b), after=tuned.path_length(a, b))
    return {
        "added_wire": added,
        "sigma_diff": [sigma_diff_before, sigma_diff_after],
        "sigma_sum": [sigma_sum_before, sigma_sum_after],
    }


@REGISTRY.register(
    "lower-bound-consistency",
    "invariant",
    "the Section V-B certificate verifies and agrees with the model-level "
    "A11 floor and the tree-independent Omega(n) value",
)
def check_lower_bound_consistency(ctx: CheckContext) -> Dict[str, Any]:
    beta = 0.1
    n = 10 if ctx.full else 6
    array = mesh(n, n)
    pairs = array.communicating_pairs()
    floor = lower_bound_value(n, beta)
    builders = [
        ("htree", htree_for_array),
        ("serpentine", serpentine_clock),
        ("kdtree", kdtree_clock),
    ]
    rows: List[Dict[str, Any]] = []
    for name, builder in builders:
        tree = builder(array)
        cert = prove_skew_lower_bound(tree, array, beta=beta)
        cert.check()  # raises AssertionError on an inconsistent certificate
        model_floor = max_skew_lower_bound(
            tree, pairs, SummationModel(m=1.0, eps=beta, beta=beta)
        )
        require(abs(cert.sigma - model_floor) <= TOL,
                f"{name}: certificate sigma disagrees with the A11 model floor",
                scheme=name, cert_sigma=cert.sigma, model_floor=model_floor)
        require(cert.sigma + TOL >= cert.bound,
                f"{name}: certificate concluded a bound above its own sigma",
                scheme=name, sigma=cert.sigma, bound=cert.bound)
        require(cert.sigma + TOL >= floor,
                f"{name}: sigma fell below the tree-independent Omega(n) floor",
                scheme=name, sigma=cert.sigma, floor=floor)
        rows.append({"scheme": name, "sigma": cert.sigma,
                     "branch": cert.branch, "bound": cert.bound})
    return {"mesh_side": n, "floor": floor, "certificates": rows}


@REGISTRY.register(
    "capacity-monotonicity",
    "invariant",
    "self-timed makespan is monotone non-increasing in channel capacity, "
    "and capacity >= waves reproduces the unbounded model bit for bit",
)
def check_capacity_monotonicity(ctx: CheckContext) -> Dict[str, Any]:
    from repro.sim.dataflow import SelfTimedProgramSimulator, hashed_service

    rng = ctx.rng("capacity-monotonicity")
    weights = [rng.uniform(-1.0, 1.0) for _ in range(5)]
    xs = [rng.uniform(-2.0, 2.0) for _ in range(10)]
    program = build_fir_array(weights, xs)
    service = hashed_service(1.0, 3.0, 0.25, seed=ctx.seed)

    def sim_at(cap):
        return SelfTimedProgramSimulator(
            program, service=service, wire_delay=0.5, channel_capacity=cap
        )

    unbounded_run = sim_at(None).run()
    capacities = [1, 2, 3, program.cycles]
    makespans: List[float] = []
    prev = math.inf
    for cap in capacities:
        sim = sim_at(cap)
        run = sim.run()
        require(run.makespan == sim.recurrence_makespan()
                == sim.recurrence_makespan_scalar(),
                f"cap={cap}: engine and recurrences disagree",
                capacity=cap, engine=run.makespan,
                compiled=sim.recurrence_makespan(),
                scalar=sim.recurrence_makespan_scalar())
        require(run.makespan <= prev + TOL,
                f"cap={cap}: makespan increased with more capacity",
                capacity=cap, makespan=run.makespan, previous=prev)
        require(run.makespan + TOL >= unbounded_run.makespan,
                f"cap={cap}: bounded run beat the unbounded model",
                capacity=cap, bounded=run.makespan,
                unbounded=unbounded_run.makespan)
        prev = run.makespan
        makespans.append(run.makespan)

    wide_run = sim_at(program.cycles).run()
    require(wide_run.makespan == unbounded_run.makespan
            and wide_run.finish_times == unbounded_run.finish_times,
            "capacity >= waves is not bit-identical to unbounded",
            capacity=program.cycles, wide=wide_run.makespan,
            unbounded=unbounded_run.makespan)
    return {
        "capacities": capacities,
        "makespans": makespans,
        "unbounded": unbounded_run.makespan,
    }
