"""Executable audit of the paper's assumptions (A1-A11).

The theorems only hold when their preconditions do; this module checks a
concrete configuration — an array, its clock tree, optionally a buffered
realization — against each assumption and reports what holds, what fails,
and what cannot be checked in the abstract model (physical facts that the
model takes as axioms).

Use :func:`audit` for the full report, or individual ``check_*`` functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.arrays.model import ProcessorArray
from repro.clocktree.buffered import BufferedClockTree
from repro.clocktree.tree import ClockTree


@dataclass(frozen=True)
class AssumptionCheck:
    """Outcome for one assumption."""

    assumption: str
    holds: bool
    checkable: bool
    detail: str


def check_a1_comm_graph(array: ProcessorArray) -> AssumptionCheck:
    """A1: COMM is a directed graph laid out in the plane."""
    connected = array.comm.is_connected()
    placed = all(cell in array.layout for cell in array.comm.nodes())
    return AssumptionCheck(
        "A1 (COMM laid out in the plane)",
        holds=connected and placed,
        checkable=True,
        detail=f"connected={connected}, all cells placed={placed}",
    )


def check_a2_unit_area(array: ProcessorArray, min_separation: float = 1.0) -> AssumptionCheck:
    """A2: cells occupy unit area — no two cell centers closer than one unit."""
    ok = array.layout.is_well_spaced(min_separation)
    return AssumptionCheck(
        "A2 (unit-area cells)",
        holds=ok,
        checkable=True,
        detail=f"min separation {min_separation} {'respected' if ok else 'VIOLATED'}",
    )


def check_a3_rectilinear_wires(array: ProcessorArray, tolerance: float = 1e-9) -> AssumptionCheck:
    """A3: wires are rectilinear (unit width is an axiom of the area model;
    the routed polylines can at least be checked for axis-alignment).  A
    layout with no routed wires is vacuously conformant but reported as not
    checkable so callers can distinguish 'checked' from 'nothing to check'."""
    from repro.geometry.routing import is_rectilinear

    wires = array.layout.wires
    if not wires:
        return AssumptionCheck(
            "A3 (rectilinear unit-width wires)",
            holds=True,
            checkable=False,
            detail="no routed wires in the layout",
        )
    crooked = sum(1 for w in wires if not is_rectilinear(w.path, tolerance))
    return AssumptionCheck(
        "A3 (rectilinear unit-width wires)",
        holds=crooked == 0,
        checkable=True,
        detail=f"{len(wires)} wires, {crooked} non-rectilinear",
    )


def check_a4_clock_tree(array: ProcessorArray, tree: ClockTree) -> AssumptionCheck:
    """A4: CLK is a rooted binary tree containing every clocked cell."""
    missing = [c for c in array.comm.nodes() if c not in tree]
    binary = tree.max_arity() <= 2
    try:
        tree.validate()
        valid = True
    except AssertionError:
        valid = False
    holds = not missing and binary and valid
    return AssumptionCheck(
        "A4 (CLK binary tree over all cells)",
        holds=holds,
        checkable=True,
        detail=(
            f"missing cells={len(missing)}, binary={binary}, structure valid={valid}"
        ),
    )


def check_a6_equipotential_floor(tree: ClockTree, alpha: float = 1.0) -> AssumptionCheck:
    """A6: equipotential tau is at least alpha * P.  Always true in the
    model (tau is *computed* as a delay of the longest path); reported with
    the concrete P so users see the growth."""
    p = tree.longest_root_to_leaf()
    return AssumptionCheck(
        "A6 (equipotential tau >= alpha*P)",
        holds=True,
        checkable=True,
        detail=f"P = {p:.4g}; equipotential tau >= {alpha * p:.4g}",
    )


def check_a7_bounded_tau(
    buffered: BufferedClockTree, bound: Optional[float] = None
) -> AssumptionCheck:
    """A7: buffered tau is a constant — checked as 'bounded by buffer delay
    plus one spacing of wire', or an explicit ``bound``."""
    tau = buffered.tau()
    if bound is None:
        bound = buffered.buffer_spacing * 2.0 + 2.0  # generous structural cap
    return AssumptionCheck(
        "A7 (pipelined tau constant)",
        holds=tau <= bound,
        checkable=True,
        detail=f"tau = {tau:.4g} (cap {bound:.4g})",
    )


def check_a8_time_invariance(buffered: BufferedClockTree) -> AssumptionCheck:
    """A8: path delays invariant over time.  Holds by construction for a
    buffered tree (delays sampled once); flagged as not checkable beyond
    that, since drift is a physical phenomenon injected only via
    :mod:`repro.sim.faults`."""
    return AssumptionCheck(
        "A8 (time-invariant path delays)",
        holds=True,
        checkable=False,
        detail="holds by construction; break it with repro.sim.faults",
    )


def check_a9_equidistance(array: ProcessorArray, tree: ClockTree, tolerance: float = 1e-9) -> AssumptionCheck:
    """Difference-model readiness: are all cells equidistant (d = 0)?  Not
    an assumption per se but the property H-tree schemes establish so that
    f(d) stays at f(0)."""
    ok = tree.is_equidistant(array.comm.nodes(), tolerance)
    # Over the directed edges: d is symmetric, so the worst is the same
    # float, and the tree has already memoized d over this edge tuple.
    d, _ = tree.path_metrics_batch(array.comm.lowering().edges)
    worst = float(d.max())
    return AssumptionCheck(
        "A9-readiness (equidistant cells, d = 0)",
        holds=ok,
        checkable=True,
        detail=f"worst communicating-pair d = {worst:.4g}",
    )


def check_a10_bounded_s(
    array: ProcessorArray, tree: ClockTree, s_budget: float
) -> AssumptionCheck:
    """Summation-model readiness: is the worst communicating-pair ``s``
    within the designer's budget?  (Theorem 3 schemes keep it at the
    neighbor spacing.)"""
    worst = max(tree.path_length(a, b) for a, b in array.communicating_pairs())
    return AssumptionCheck(
        "A10-readiness (bounded communicating-pair s)",
        holds=worst <= s_budget + 1e-12,
        checkable=True,
        detail=f"worst s = {worst:.4g} (budget {s_budget:.4g})",
    )


def audit(
    array: ProcessorArray,
    tree: ClockTree,
    buffered: Optional[BufferedClockTree] = None,
    s_budget: Optional[float] = None,
) -> List[AssumptionCheck]:
    """Run every applicable check; returns the list of outcomes."""
    checks = [
        check_a1_comm_graph(array),
        check_a2_unit_area(array),
        check_a3_rectilinear_wires(array),
        check_a4_clock_tree(array, tree),
        check_a6_equipotential_floor(tree),
        check_a9_equidistance(array, tree),
    ]
    if s_budget is not None:
        checks.append(check_a10_bounded_s(array, tree, s_budget))
    if buffered is not None:
        checks.append(check_a7_bounded_tau(buffered))
        checks.append(check_a8_time_invariance(buffered))
    return checks


def failures(checks: List[AssumptionCheck]) -> List[AssumptionCheck]:
    """The checks that failed (checkable and not holding)."""
    return [c for c in checks if c.checkable and not c.holds]
