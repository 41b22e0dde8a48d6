"""ECO and tile-composition oracles: incremental must equal full, exactly.

Three differential checks guard the incremental fast paths:

* ``differential-eco`` replays randomized edit scripts (repads, wire
  retargets, buffer resizes, subtree grafts, re-clockings) through an
  :class:`~repro.sta.eco.ECOSession` and, **after every single edit**,
  holds the session's incrementally-maintained state bit-identical to a
  from-scratch :func:`~repro.sta.slack.analyze_slack` — every slack array
  byte-for-byte, the running worst slacks, and the warm-started minimum
  feasible period in both modes.  Scripts deliberately include edits that
  *relax* the current worst edge, exercising the lazy argmin rescan.

* ``differential-eco-flow`` replays randomized channel-capacity scripts
  (depths 1-4 with token-free cycles that deadlock, widenings on and off
  the critical cycle, narrowings, edits of the cached solve's policy
  edges, and a few slack edits in between; every other design off the
  dyadic grid) and, after every edit, holds
  :meth:`~repro.sta.eco.ECOSession.flow` equal to the cold answers: its
  graph array for array and byte for byte to
  :func:`~repro.sta.flow.flow_graph`, its witness to
  :func:`~repro.sta.flow.detect_deadlock`, and its cycle time to
  :func:`~repro.sta.flow.analyze_flow`; a live answer's
  :func:`~repro.sta.flow.certify_mcm` must verify on its own graph.

* ``differential-tiles`` composes R x C abutted-tile arrays and holds
  :func:`~repro.sta.tiles.stitched_analysis` (prototype-tile cache +
  boundary stitching) equal — floats and counts, no tolerance — to
  :func:`~repro.sta.tiles.flat_summary` over the same design, on a cold
  and a warm cache and across periods.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List

from repro.check.registry import REGISTRY, CheckContext, require
from repro.geometry.point import Point
from repro.sta.design import random_design
from repro.sta.eco import ECOSession
from repro.sta.flow import (
    FlowAnalysis,
    analyze_flow,
    certify_mcm,
    detect_deadlock,
    flow_graph,
)
from repro.sta.slack import analyze_slack, minimum_feasible_period
from repro.sta.tiles import (
    TileSpec,
    compose_design,
    flat_summary,
    stitched_analysis,
    tile_cache_clear,
)

_ARRAYS = (
    "lag",
    "sigma_ub",
    "sigma_lb",
    "offset_lead",
    "setup_exact",
    "hold_exact",
    "setup_bound",
    "hold_bound",
)


def assert_session_matches_oracle(
    session: ECOSession, context: Dict[str, Any]
) -> None:
    """Bitwise incremental-vs-full comparison after one edit."""
    full = analyze_slack(session.design)
    incremental = session.analysis()
    require(
        incremental.edges == full.edges,
        "ECO session edge order diverged from the oracle",
        **context,
    )
    for name in _ARRAYS:
        ours = getattr(incremental, name)
        theirs = getattr(full, name)
        require(
            ours.tobytes() == theirs.tobytes(),
            f"ECO incremental array {name!r} is not bit-identical to "
            "a full analyze_slack",
            array=name,
            max_abs_diff=float(abs(ours - theirs).max()) if len(ours) else 0.0,
            **context,
        )
    require(
        session.worst_setup_slack() == full.worst_setup_slack
        and session.worst_hold_slack() == full.worst_hold_slack,
        "ECO running extrema diverged from the oracle",
        incremental=(session.worst_setup_slack(), session.worst_hold_slack()),
        full=(full.worst_setup_slack, full.worst_hold_slack),
        **context,
    )
    for mode in ("exact", "bound"):
        ours_t = session.minimum_feasible_period(mode)
        theirs_t = minimum_feasible_period(session.design, mode)
        require(
            ours_t == theirs_t,
            f"ECO minimum feasible period ({mode}) diverged from the oracle",
            mode=mode,
            incremental=ours_t,
            full=theirs_t,
            **context,
        )


def random_edit(
    rng: random.Random, session: ECOSession, graft_serial: List[int]
) -> Dict[str, Any]:
    """Draw one random edit, apply it, and return its descriptor.

    The distribution is biased toward single-row edits (the common ECO),
    with occasional structural ops; ~1 in 6 single-row edits targets the
    *current worst* setup edge and relaxes it, forcing the lazy extremum
    trackers through their un-dirty-the-champion path.
    """
    design = session.design
    edges = design.edges()
    op = rng.choice(
        ["repad_edge", "repad_edge", "retarget_wire", "retarget_wire",
         "resize_buffer", "resize_buffer", "graft_subtree", "set_period"]
    )
    if op in ("repad_edge", "retarget_wire"):
        if rng.random() < 1 / 3:
            analysis = analyze_slack(design)
            edge = analysis.edges[int(analysis.setup_exact.argmin())]
            relax = True
        else:
            edge = rng.choice(edges)
            relax = False
        if op == "repad_edge":
            # relax: drop the pad (possibly to zero) on the worst edge
            pad = 0.0 if (relax and rng.random() < 0.5) else rng.uniform(0.0, 0.6)
            session.repad_edge(edge, pad)
            return {"op": op, "edge": edge, "pad": pad}
        length = rng.uniform(0.0, 0.5 if relax else 4.0)
        session.retarget_wire(edge, length)
        return {"op": op, "edge": edge, "length": length}
    tree = design.tree
    if op == "resize_buffer":
        node = rng.choice(tree.dense_store.nodes[1:])
        length = rng.uniform(0.0, 5.0)
        session.resize_buffer(node, length)
        return {"op": op, "node": node, "length": length}
    if op == "graft_subtree":
        # CLK is a binary tree (A4): graft only under nodes with fanout < 2
        open_nodes = [
            n for n in tree.dense_store.nodes if len(tree.children(n)) < 2
        ]
        parent = rng.choice(open_nodes)
        additions = []
        for _ in range(rng.randint(1, 3)):
            graft_serial[0] += 1
            node = ("eco-graft", graft_serial[0])
            additions.append(
                (
                    parent,
                    node,
                    Point(rng.uniform(-4.0, 4.0), rng.uniform(-4.0, 4.0)),
                    rng.uniform(0.1, 3.0),
                )
            )
            parent = node  # grow a short chain, not just leaves
        session.graft_subtree(additions)
        return {"op": op, "count": len(additions)}
    period = design.period * rng.uniform(0.5, 1.6)
    session.set_period(period)
    return {"op": op, "period": period}


@REGISTRY.register(
    "differential-eco",
    "differential",
    "incremental ECO re-analysis is bit-identical to full analyze_slack "
    "after every edit of randomized scripts",
)
def check_differential_eco(ctx: CheckContext) -> Dict[str, Any]:
    n_designs = 8 if ctx.full else 3
    n_edits = 30 if ctx.full else 12
    rng = ctx.rng("differential-eco")
    total_edits = 0
    total_dirty = 0
    total_rows = 0
    for k in range(n_designs):
        design = random_design(seed=rng.randrange(2**31))
        session = ECOSession(design)
        graft_serial = [0]
        for step in range(n_edits):
            descriptor = random_edit(rng, session, graft_serial)
            assert_session_matches_oracle(
                session,
                {"design_index": k, "step": step, "edit": repr(descriptor)},
            )
        edits = session.edits
        total_edits += len(edits)
        total_dirty += sum(e.dirty_rows for e in edits)
        total_rows += sum(e.edges for e in edits)
    return {
        "designs": n_designs,
        "edits": total_edits,
        "dirty_rows": total_dirty,
        "reuse_fraction": 1.0 - total_dirty / total_rows if total_rows else 1.0,
    }


_GRAPH_ARRAYS = (
    "services",
    "esrc",
    "edst",
    "eweight",
    "etokens",
    "ekind",
    "ewire",
    "eservice",
)


def capacity_edit(
    rng: random.Random, session: ECOSession, flow: FlowAnalysis
) -> str:
    """Draw one channel-capacity edit, apply it, and name its kind.

    ``flow`` is the session's current :class:`~repro.sta.flow.
    FlowAnalysis`: a widening may target its critical cycle or avoid it,
    and ``policy-*`` edits hit a channel whose credit edge is a policy
    edge of the cached solve off the critical cycle, which the session
    must re-solve.  On a cyclic COMM graph, ``close`` drops both
    directions of one channel pair to depth 1, a token-free cycle
    (deadlock).
    """
    comm = session.design.array.comm
    edges = comm.edges()
    caps = session.channel_capacities
    # Sorted: a set iterates in hash order; the draws below must not.
    critical = sorted(flow.critical_comm_edges(), key=edges.index)
    finite = [e for e in edges if e in caps]
    policy: List[Any] = []
    st = flow.cycle.state if flow.cycle is not None else None
    if st is not None:
        fg, ids = flow.graph, st.edge_ids[st.policy]
        for e in ids[fg.ekind[ids] == 2].tolist():
            channel = (fg.cells[fg.edst[e]], fg.cells[fg.esrc[e]])
            if channel not in critical:
                policy.append(channel)
    kinds = ["random", "random", "narrow", "widen-off", "widen-on", "close",
             "policy-narrow", "policy-widen"]
    kind = rng.choice(kinds)
    if kind == "widen-on" and critical:
        edge = rng.choice(critical)
        session.set_channel_capacity(edge, caps[edge] + 1)
    elif kind == "policy-widen" and policy:
        edge = rng.choice(policy)
        session.set_channel_capacity(edge, caps[edge] + rng.randint(1, 2))
    elif kind == "policy-narrow" and any(caps[e] > 1 for e in policy):
        edge = rng.choice([e for e in policy if caps[e] > 1])
        session.set_channel_capacity(edge, rng.randint(1, caps[edge] - 1))
    elif kind == "widen-off" and len(finite) > len(critical):
        edge = rng.choice([e for e in finite if e not in critical])
        session.set_channel_capacity(edge, caps[edge] + rng.randint(1, 2))
    elif kind == "narrow" and any(caps[e] > 1 for e in finite):
        edge = rng.choice([e for e in finite if caps[e] > 1])
        session.set_channel_capacity(edge, rng.randint(1, caps[edge] - 1))
    elif kind == "close" and any(comm.has_edge(v, u) for u, v in edges):
        u, v = rng.choice([e for e in edges if comm.has_edge(e[1], e[0])])
        session.set_channel_capacity((u, v), 1)
        session.set_channel_capacity((v, u), 1)
    else:
        kind = "random"
        session.set_channel_capacity(rng.choice(edges), rng.randint(1, 4))
    return kind


def assert_flow_matches_cold(
    session: ECOSession, service: Dict[Any, float], wire: float,
    context: Dict[str, Any],
) -> FlowAnalysis:
    """The session's flow answer equals the cold one after an edit:
    graph arrays byte for byte, deadlock witness, cycle time; and a live
    answer's certificate verifies on its own graph."""
    comm = session.design.array.comm
    caps = session.channel_capacities or None
    warm = session.flow(service, wire)
    if warm.cycle is not None:
        cert = certify_mcm(warm.graph, warm.cycle)
        require(
            cert.verified,
            "ECO flow answer fails its certificate on its own graph",
            failed=cert.failed,
            **context,
        )
    cold_graph = flow_graph(comm, service, wire, caps)
    require(
        warm.graph.cells == cold_graph.cells,
        "ECO flow graph cell order diverged from a cold flow_graph",
        **context,
    )
    for name in _GRAPH_ARRAYS:
        ours = getattr(warm.graph, name)
        theirs = getattr(cold_graph, name)
        require(
            ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(),
            f"ECO flow graph array {name!r} is not byte-identical to a "
            "cold flow_graph",
            array=name,
            **context,
        )
    cold_dead = detect_deadlock(comm, caps)
    require(
        warm.deadlock == cold_dead,
        "ECO deadlock witness diverged from a cold detect_deadlock",
        incremental=repr(warm.deadlock),
        cold=repr(cold_dead),
        **context,
    )
    cold = analyze_flow(comm, service, wire, caps)
    require(
        warm.cycle_time == cold.cycle_time,
        "ECO cycle time diverged from a cold analyze_flow",
        incremental=warm.cycle_time,
        cold=cold.cycle_time,
        **context,
    )
    return warm


@REGISTRY.register(
    "differential-eco-flow",
    "differential",
    "ECO channel-capacity edits keep the session's flow graph, deadlock "
    "witness and cycle time identical to a cold analysis, with a verified "
    "certificate, after every edit of randomized scripts",
)
def check_differential_eco_flow(ctx: CheckContext) -> Dict[str, Any]:
    n_designs = 8 if ctx.full else 4
    n_edits = 60 if ctx.full else 30
    rng = ctx.rng("differential-eco-flow")
    kinds: Dict[str, int] = {}
    dead = resolved = python_ints = 0
    for k in range(n_designs):
        design = random_design(seed=rng.randrange(2**31))
        # The first design has COMM cycles, so depth-1 edits can deadlock.
        while k == 0 and design.array.comm.is_acyclic():
            design = random_design(seed=rng.randrange(2**31))
        session = ECOSession(design)
        cells = design.array.comm.nodes()
        if k % 2:  # off the dyadic grid: Howard sums Python ints
            service = {c: 0.5 + rng.random() for c in cells}
            wire = 0.3
        else:
            service = {c: 1.0 + rng.randrange(8) / 8 for c in cells}
            wire = rng.choice((0.0, 0.25, 0.5))
        for edge in design.edges():  # some channels stay unbounded
            if rng.random() < 0.6:
                session.set_channel_capacity(edge, rng.randint(1, 3))
        flow = session.flow(service, wire)
        graft_serial = [0]
        for step in range(n_edits):
            if rng.random() < 0.15:
                kind = random_edit(rng, session, graft_serial)["op"]
            else:
                kind = capacity_edit(rng, session, flow)
            kinds[kind] = kinds.get(kind, 0) + 1
            flow = assert_flow_matches_cold(
                session, service, wire,
                {"design_index": k, "step": step, "edit": kind},
            )
            dead += flow.dead
            state = flow.cycle.state if flow.cycle is not None else None
            python_ints += state is not None and state.weight.dtype == object
        resolved += sum(e.semantic_dirty_rows for e in session.edits
                        if e.op == "set_channel_capacity")
    require(dead > 0, "no capacity script reached a deadlock", kinds=kinds)
    return {"designs": n_designs, "edits": sum(kinds.values()),
            "deadlocked": dead, "python_int_answers": python_ints,
            "re_solved": resolved, "kinds": kinds}


@REGISTRY.register(
    "differential-tiles",
    "differential",
    "tiled-by-abutment analysis stitched from cached tile summaries "
    "equals the flat analysis exactly",
)
def check_differential_tiles(ctx: CheckContext) -> Dict[str, Any]:
    configs = (
        [(4, 4, 4, 4), (4, 4, 8, 8), (2, 8, 8, 8)]
        if ctx.full
        else [(4, 4, 4, 4), (2, 2, 4, 4)]
    )
    tile_cache_clear()
    checked = 0
    cells_max = 0
    for tiles_rows, tiles_cols, tile_rows, tile_cols in configs:
        spec = TileSpec(rows=tile_rows, cols=tile_cols, m=1.0, eps=0.1, delta=1.0)
        base = float(
            2 * (tiles_rows * tile_rows + tiles_cols * tile_cols)
        )
        for scale, label in ((1.0, "cold"), (0.5, "warm"), (2.5, "warm")):
            period = base * scale
            design = compose_design(spec, tiles_rows, tiles_cols, period)
            flat = flat_summary(design)
            stitched = stitched_analysis(
                spec, tiles_rows, tiles_cols, period, design=design
            )
            require(
                stitched == flat,
                "stitched tile analysis diverged from the flat analysis",
                grid=(tiles_rows, tiles_cols),
                tile=(tile_rows, tile_cols),
                period=period,
                cache=label,
                stitched=repr(stitched),
                flat=repr(flat),
            )
            checked += 1
        cells_max = max(
            cells_max, tiles_rows * tiles_cols * tile_rows * tile_cols
        )
    return {"configurations": len(configs), "comparisons": checked,
            "largest_cells": cells_max}
