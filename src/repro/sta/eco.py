"""Incremental engineering-change-order (ECO) re-analysis.

:class:`ECOSession` wraps a :class:`~repro.sta.design.Design` and accepts
typed edits — :meth:`repad_edge`, :meth:`retarget_wire`,
:meth:`resize_buffer`, :meth:`graft_subtree`, :meth:`set_period` —
recomputing only the slack rows and skew bounds each edit actually
dirties instead of re-running the full O(edges) pass:

=================  ====================================================
edit               dirty set
=================  ====================================================
``repad_edge``     one slack row (padding enters only that edge's lag)
``retarget_wire``  one slack row (wire length enters only that edge's lag)
``resize_buffer``  the COMM pairs with an endpoint inside the resized
                   edge's subtree, read off the subtree's preorder
                   interval in the live LCA index (see below)
``graft_subtree``  no existing rows (new nodes carry no COMM edges);
                   the LCA index extends its lifting table and preorder
                   intervals incrementally
``set_period``     no rows at all (the period is outside the stored
                   ``need`` vectors; the verdict is re-derived on
                   read), and no per-cell Python work: the new
                   schedule shares the validated offsets
=================  ====================================================

:meth:`~ECOSession.set_channel_capacity` extends the same discipline to
the self-timed side: FIFO depths never enter a clocked lag, so no slack
row moves, and the session's flow memos (:meth:`~ECOSession.flow`) are
updated in place from one lowering of the COMM graph and a per-channel
depth vector.  A new depth for a bounded channel patches one token count
and keeps the cached MCM solve whenever Howard's converged integer
potentials prove, in O(1), that the cycle time cannot move
(:func:`~repro.sta.flow._keep_cycle`); anything else re-solves
warm-started from the cached Howard policy.  Either way the graph,
deadlock witness and cycle time equal a cold
:func:`~repro.sta.flow.analyze_flow`, and the answer's certificate
verifies on its own graph.

The session maintains the per-edge *need* vectors (``need_exact =
lead + lag``, the exact-mode hold slack and period requirement;
``need_bound = sigma_ub + lag``) plus running argmax/argmin trackers over
them, so ``worst_setup_slack`` / ``worst_hold_slack`` are O(1) per query
(a lazy O(edges) rescan happens only when an edit dirties the current
champion row) and ``minimum_feasible_period`` is O(log) — the bisection
core (:func:`repro.sta.slack._bisect_period`) depends only on the scalar
``max(needs)``, which the tracker supplies.  Everything else — flags,
counts, clean bits, the summary and the report — is read off
:meth:`~ECOSession.analysis`, the one
:class:`~repro.sta.slack.SlackAnalysis` verdict.

**Bit-exactness contract.**  Every quantity the session exposes is
bit-identical to a fresh :func:`~repro.sta.slack.analyze_slack` /
:func:`~repro.sta.slack.minimum_feasible_period` over the mutated
design — not within-epsilon, identical floats.  The ingredients:

* refreshed rows recompute with the same elementwise arithmetic the full
  vector pass uses (all skew models are elementwise in the pair metrics,
  and IEEE-754 scalar and vectorized float64 ops round identically);
* ``fl(period - x)`` is monotone in ``x``, so ``min(period - need) ==
  period - max(need)`` exactly, which is what lets a running extremum
  answer ``worst_setup_slack``;
* after ``resize_buffer`` the session refreshes every pair with an
  endpoint inside the subtree (the OR set), not just the pairs whose
  paths cross the edge (the XOR set that
  :meth:`~repro.clocktree.lca.LiftingLCAIndex.pairs_through_node`
  reports): the subtree's root distances shift by a *rounded* constant,
  so an inside-inside pair's ``d``/``s`` can move by an ulp even though
  its exact-arithmetic value is unchanged.

The ``differential-eco`` check (and the hypothesis property suite)
replays randomized edit scripts asserting incremental == full after
every step; the full pass stays in the tree as the oracle.
``differential-eco-flow`` does the same for capacity edits against a
cold flow analysis.
"""

from __future__ import annotations

import functools
import math
from array import array
from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Dict, Hashable, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.point import Point
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.trace import NULL_TRACER, Tracer
from repro.sta.design import Design, EdgeKey
from repro.sta.drc import run_drc
from repro.sta.report import STAReport, build_report, empirical_block
from repro.sta.slack import SlackAnalysis, _bisect_period, _edge_vectors

if TYPE_CHECKING:
    from repro.sta.flow import FlowAnalysis, FlowCycle, ServiceSpec

NodeId = Hashable

#: One grafted node: (parent, node, position, edge length).  The parent
#: may itself be a node grafted earlier in the same batch.
GraftNode = Tuple[NodeId, NodeId, Point, float]

#: The edit kinds, by the one-byte code the audit log stores.
_OPS = ("repad_edge", "retarget_wire", "resize_buffer", "graft_subtree",
        "set_period", "set_channel_capacity")
_REPAD, _RETARGET, _RESIZE, _GRAFT, _PERIOD, _CAPACITY = range(len(_OPS))


class EcoEdit:
    """The audit record of one applied edit: what the edit names (an
    edge, a node, a period, a graft count, or an edge and a depth), with
    ``target`` formatted only when read."""

    __slots__ = ("op", "_subject", "dirty_rows", "semantic_dirty_rows", "edges")

    def __init__(
        self, op: str, subject: Any, dirty: int, semantic: int, edges: int
    ) -> None:
        self.op, self._subject, self.edges = op, subject, edges
        self.dirty_rows, self.semantic_dirty_rows = dirty, semantic

    def _fields(self) -> Tuple[Any, ...]:
        return (self.op, self.target, self.dirty_rows, self.semantic_dirty_rows,
                self.edges)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, EcoEdit) and self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        return f"EcoEdit{self._fields()!r}"

    @property
    def target(self) -> str:
        """What the edit changed, as the audit log and reports name it."""
        subject, op = self._subject, self.op
        if op in ("repad_edge", "retarget_wire"):
            return _edge_str(subject)
        if op == "set_channel_capacity":
            return f"{_edge_str(subject[0])} depth={subject[1]}"
        if op == "graft_subtree":
            return f"{subject} nodes"
        if op == "set_period":
            return f"{subject:g}"
        return str(subject)

    @property
    def reuse_fraction(self) -> float:
        """Fraction of slack rows served from state instead of recomputed."""
        if self.edges == 0:
            return 1.0
        return 1.0 - self.dirty_rows / self.edges

    def to_dict(self) -> Dict[str, Any]:
        return {
            "edit": self.op,
            "target": self.target,
            "dirty_rows": self.dirty_rows,
            "reuse_fraction": self.reuse_fraction,
        }


class _Extremum:
    """Running argmax/argmin over a mutable float64 vector.

    ``note_dirty(rows)`` is called *after* the rows' values change: if the
    champion itself was dirtied the tracker goes lazy (``-1``) and the
    next ``value()`` rescans in O(n); otherwise a dirtied row can only
    replace the champion by beating it, an O(|rows|) comparison.  The
    champion's value always equals the true extremum (any row attaining
    it gives the same float), which is all the callers consume.
    """

    __slots__ = ("_values", "_maximum", "_arg")

    def __init__(self, values: np.ndarray, maximum: bool) -> None:
        self._values = values
        self._maximum = maximum
        self._arg = -1

    def note_dirty(self, rows: np.ndarray) -> None:
        if self._arg < 0 or len(rows) == 0:
            return
        if bool(np.any(rows == self._arg)):
            self._arg = -1
            return
        sub = self._values[rows]
        if self._maximum:
            challenger = int(rows[int(np.argmax(sub))])
            if self._values[challenger] > self._values[self._arg]:
                self._arg = challenger
        else:
            challenger = int(rows[int(np.argmin(sub))])
            if self._values[challenger] < self._values[self._arg]:
                self._arg = challenger

    def value(self, default: float = 0.0) -> float:
        if len(self._values) == 0:
            return default
        if self._arg < 0:
            if self._maximum:
                self._arg = int(np.argmax(self._values))
            else:
                self._arg = int(np.argmin(self._values))
        return float(self._values[self._arg])


class ECOSession:
    """Sublinear what-if re-analysis over one mutable design.

    All edits must flow through the session: the COMM graph and clock
    tree versions are snapshotted and any out-of-band mutation raises
    ``RuntimeError`` at the next edit or query (open a fresh session
    instead).  The wrapped design object *is* mutated (padding, wire
    overrides, tree) — that is the point: after a session the design and
    a fresh full analysis agree with everything the session reported.

    Instrumentation follows the repo convention — opt-in ``tracer=`` /
    ``metrics=`` kwargs, zero overhead when absent: one ``eco`` trace
    event per edit, plus ``eco.edits`` / ``eco.dirty_rows`` metrics.
    """

    def __init__(
        self,
        design: Design,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._tracer = tracer if tracer is not None else NULL_TRACER
        self._metrics = metrics if metrics is not None else NULL_METRICS
        self._design = design
        edges, lag, lead, sigma_ub, sigma_lb = _edge_vectors(design)
        self._edges: Sequence[EdgeKey] = edges
        self._row: Dict[EdgeKey, int] = design.array.comm.edge_index()
        # Owned writable copies of the slack ingredients.
        self._lag = np.array(lag, dtype=np.float64)
        self._lead = np.array(lead, dtype=np.float64)
        self._sigma_ub = np.array(sigma_ub, dtype=np.float64)
        self._sigma_lb = np.array(sigma_lb, dtype=np.float64)
        self._need_exact = self._lead + self._lag
        self._need_bound = self._sigma_ub + self._lag
        self._max_need_exact = _Extremum(self._need_exact, maximum=True)
        self._min_need_exact = _Extremum(self._need_exact, maximum=False)
        self._max_need_bound = _Extremum(self._need_bound, maximum=True)
        # Dense tree ids of each edge's endpoints, for subtree dirty sets.
        tree = design.tree
        self._a_ids, self._b_ids = tree.pair_ids(self._edges)
        self._comm_version = design.array.comm.version
        self._tree_version = tree.version
        # The audit log is columns of numbers, not objects; EcoEdits are
        # built on read.  Per edit: the caller's own subject (an edge, a
        # node, a period or a graft count), the op as one byte, and the
        # dirty and semantic row counts; capacity edits also append their
        # depth (int64: any depth a channel takes fits).
        self._subjects: List[Any] = []
        self._ops = bytearray()
        self._row_counts = array("i")
        self._log_depths = array("q")
        self._n_edges = len(edges)  # one int shared by every EcoEdit
        # Self-timed channel capacities (session state, not on the
        # design: the clocked discipline has no FIFOs): one depth per
        # channel in COMM edge order, 0 = unbounded.  Out-of-band COMM
        # edits are refused, so the graph's lowering is fixed.  The flow
        # memos are keyed by (service vector bytes, wire delay) and hold
        # that vector; capacity edits update them in place (see
        # ``set_channel_capacity``).
        self._depths = np.zeros(len(edges), dtype=np.int64)
        self._flow_cache: Dict[
            Tuple[bytes, float], Tuple[np.ndarray, FlowAnalysis]
        ] = {}

    # ------------------------------------------------------------------
    # bookkeeping
    # ------------------------------------------------------------------
    @property
    def design(self) -> Design:
        """The design in its current (edited) state.  ``set_period``
        replaces the bundle, so re-read this property after edits."""
        return self._design

    @property
    def edits(self) -> List[EcoEdit]:
        depths = iter(self._log_depths)
        return [
            self._edit(i, next(depths) if code == _CAPACITY else None)
            for i, code in enumerate(self._ops)
        ]

    def _edit(self, i: int, depth: Optional[int]) -> EcoEdit:
        """The audit record of edit ``i`` (``depth``: a capacity edit's)."""
        subject = self._subjects[i]
        counts = self._row_counts
        return EcoEdit(
            _OPS[self._ops[i]],
            subject if depth is None else (subject, depth),
            counts[2 * i],
            counts[2 * i + 1],
            self._n_edges,
        )

    def _check_external(self) -> None:
        if self._design.array.comm.version != self._comm_version:
            raise RuntimeError(
                "COMM graph mutated outside the ECO session; its slack rows "
                "are unknown to the session — open a new one"
            )
        if self._design.tree.version != self._tree_version:
            raise RuntimeError(
                "clock tree mutated outside the ECO session; skew bounds are "
                "stale — route edits through the session or open a new one"
            )

    def _refresh_lag_row(self, i: int, edge: EdgeKey) -> None:
        """Recompute one row's lag and the vectors derived from it, with
        the exact scalar arithmetic of the full pass."""
        self._lag[i] = self._design.edge_lag(edge)
        self._need_exact[i] = self._lead[i] + self._lag[i]
        self._need_bound[i] = self._sigma_ub[i] + self._lag[i]

    def _record(
        self,
        code: int,
        subject: Any,
        rows: np.ndarray,
        semantic_rows: int,
        depth: Optional[int] = None,
    ) -> EcoEdit:
        self._max_need_exact.note_dirty(rows)
        self._min_need_exact.note_dirty(rows)
        self._max_need_bound.note_dirty(rows)
        dirty = len(rows)
        self._subjects.append(subject)
        self._ops.append(code)
        self._row_counts.append(dirty)
        self._row_counts.append(semantic_rows)
        if depth is not None:
            self._log_depths.append(depth)
            subject = (subject, depth)
        edit = EcoEdit(_OPS[code], subject, dirty, semantic_rows, self._n_edges)
        self._metrics.counter("eco.edits").inc()
        self._metrics.histogram("eco.dirty_rows").observe(float(dirty))
        if self._tracer.enabled:
            self._tracer.event(
                float(len(self._ops)),
                "eco",
                "edit",
                op=edit.op,
                target=edit.target,
                dirty_rows=dirty,
                reuse_fraction=edit.reuse_fraction,
            )
        return edit

    # ------------------------------------------------------------------
    # typed edits
    # ------------------------------------------------------------------
    def repad_edge(self, edge: EdgeKey, pad: float) -> EcoEdit:
        """Set the hold-fix padding of one directed COMM edge."""
        self._check_external()
        if not 0 <= pad < math.inf:
            raise ValueError("padding must be non-negative and finite")
        i = self._row.get(edge)
        if i is None:
            raise KeyError(f"edge {edge!r} is not a COMM edge")
        if pad > 0.0:
            self._design.edge_padding[edge] = float(pad)
        else:
            self._design.edge_padding.pop(edge, None)
        self._refresh_lag_row(i, edge)
        rows = np.array([i], dtype=np.int64)
        return self._record(_REPAD, edge, rows, 1)

    def retarget_wire(self, edge: EdgeKey, length: float) -> EcoEdit:
        """Reroute one directed COMM edge's data wire to a new length
        (its endpoints stay put; the layout distance is overridden)."""
        self._check_external()
        if not 0 <= length < math.inf:
            raise ValueError("wire length must be non-negative and finite")
        i = self._row.get(edge)
        if i is None:
            raise KeyError(f"edge {edge!r} is not a COMM edge")
        self._design.wire_overrides[edge] = float(length)
        self._refresh_lag_row(i, edge)
        rows = np.array([i], dtype=np.int64)
        return self._record(_RETARGET, edge, rows, 1)

    def resize_buffer(self, node: NodeId, length: float) -> EcoEdit:
        """Retune the clock-tree edge above ``node`` (a resized buffer
        string changes the edge's electrical length).

        Dirties the COMM pairs with an endpoint inside ``node``'s subtree.
        The *semantically* dirty pairs are only those whose tree path
        crosses the resized edge (exactly one endpoint inside —
        ``pairs_through_node``), but the subtree shift is applied in
        floating point, so inside-inside pairs are conservatively
        refreshed too to keep the bit-exactness contract.  Both sets come
        from one mask over the tree's nodes, the subtree's preorder
        interval, gathered at each edge's endpoints; the tree shifts its
        root distances under the same mask.
        """
        self._check_external()
        design = self._design
        tree = design.tree
        tree.set_edge_length(node, length)  # validates node and length
        self._tree_version = tree.version
        index = tree.lca_index()
        inside = index.subtree_mask(index.node_id(node))
        in_a = inside[self._a_ids]
        in_b = inside[self._b_ids]
        rows = np.flatnonzero(in_a | in_b)
        semantic = int(np.count_nonzero(in_a ^ in_b))
        if len(rows):
            sub_edges = list(map(self._edges.__getitem__, rows.tolist()))
            self._sigma_ub[rows] = design.model.skew_bound_batch(tree, sub_edges)
            self._sigma_lb[rows] = design.model.skew_lower_bound_batch(
                tree, sub_edges
            )
            self._need_bound[rows] = self._sigma_ub[rows] + self._lag[rows]
        return self._record(_RESIZE, node, rows, semantic)

    def graft_subtree(self, additions: Sequence[GraftNode]) -> EcoEdit:
        """Grow the clock tree by a batch of new nodes.

        New nodes carry no COMM edges yet, so no existing slack row moves;
        the live LCA index extends itself incrementally on its next query
        (no rebuild).  Later edits (a resize above the graft point) see
        the new topology automatically.
        """
        self._check_external()
        tree = self._design.tree
        for parent, node, position, length in additions:
            tree.add_child(parent, node, position, length)
        self._tree_version = tree.version
        rows = np.empty(0, dtype=np.int64)
        return self._record(_GRAFT, len(additions), rows, 0)

    def set_period(self, period: float) -> EcoEdit:
        """Re-clock the design at a new period (offsets kept).

        No slack row moves: the stored vectors are period-free ``need``
        forms, and :meth:`analysis` re-derives the verdict.  No per-cell
        Python work either: :meth:`~repro.sta.design.Design.with_period`
        shares the validated schedule offsets, and the new design's
        checks are vectorized.
        """
        self._check_external()
        if period <= 0:
            raise ValueError("period must be positive")
        self._design = self._design.with_period(float(period))
        rows = np.empty(0, dtype=np.int64)
        return self._record(_PERIOD, float(period), rows, 0)

    def set_channel_capacity(self, edge: EdgeKey, depth: int) -> EcoEdit:
        """Set the finite FIFO depth of one directed COMM channel.

        Clocked slack rows are untouched (capacity never enters a lag), so
        the edit dirties zero rows; the incrementality lives in the flow
        memos.  A first finite depth adds a credit edge, so each memo's
        graph is reassembled from arrays and re-solved.  A new depth for a
        bounded channel changes one token count: each memo's graph is
        patched in that entry, and its cached solve is kept when the exact
        reduced-cost test of :func:`~repro.sta.flow._keep_cycle` proves
        the cycle time cannot move (after the deadlock search, at depth
        1).  Re-solves warm-start Howard from the cached policy, and
        ``semantic_dirty_rows`` counts the memos re-solved.  The same
        depth again changes nothing.
        """
        self._check_external()
        if depth < 1:
            raise ValueError("channel capacity must be >= 1")
        i = self._row.get(edge)
        if i is None:
            raise KeyError(f"edge {edge!r} is not a COMM edge")
        old = int(self._depths[i])
        rows = np.empty(0, dtype=np.int64)
        if depth == old:  # the same depth again: nothing moves
            return self._record(_CAPACITY, edge, rows, 0, int(depth))
        self._depths[i] = int(depth)
        recomputed = 0
        flow = _flow_layer()
        for key, (services, analysis) in self._flow_cache.items():
            low = self._design.array.comm.lowering()
            dead = flow._deadlock(low, self._depths) if depth == 1 or analysis.dead else None
            cycle: Optional[FlowCycle] = None
            if old == 0:  # a new credit edge
                fg = flow._assemble(low, services, key[1], self._depths)
            else:
                fg, credit = flow._retoken(low, analysis.graph, self._depths, i)
                if dead is None and analysis.cycle is not None:
                    cycle = flow._keep_cycle(analysis.cycle, fg, credit)
            if cycle is None:
                recomputed += 1
                warm = analysis.cycle.policy if analysis.cycle is not None else None
                cycle = flow.mcm_howard(fg, warm_start=warm) if dead is None else None
            self._flow_cache[key] = (services, flow.FlowAnalysis(fg, dead, cycle))
        reused = len(self._flow_cache) - recomputed
        if reused:
            self._metrics.counter("eco.flow_reuse").inc(reused)
        if recomputed:
            self._metrics.counter("eco.flow_recompute").inc(recomputed)
        return self._record(_CAPACITY, edge, rows, recomputed, int(depth))

    def apply(self, op: str, **params: Any) -> EcoEdit:
        """Dispatch one edit by name — the edit-script entry point."""
        if op == "repad_edge":
            return self.repad_edge(params["edge"], params["pad"])
        if op == "retarget_wire":
            return self.retarget_wire(params["edge"], params["length"])
        if op == "resize_buffer":
            return self.resize_buffer(params["node"], params["length"])
        if op == "graft_subtree":
            return self.graft_subtree(params["additions"])
        if op == "set_period":
            return self.set_period(params["period"])
        if op == "set_channel_capacity":
            return self.set_channel_capacity(params["edge"], params["depth"])
        raise ValueError(f"unknown ECO op {op!r}")

    # ------------------------------------------------------------------
    # queries (all bit-identical to the full recompute)
    # ------------------------------------------------------------------
    def worst_setup_slack(self) -> float:
        self._check_external()
        if not self._edges:
            return 0.0
        return float(self._design.period - self._max_need_exact.value())

    def worst_hold_slack(self) -> float:
        self._check_external()
        if not self._edges:
            return 0.0
        return self._min_need_exact.value()

    def minimum_feasible_period(self, mode: str = "exact") -> float:
        """Warm minimum-feasible-period: O(log) bisection from the tracked
        ``max(needs)`` — identical decisions, identical float, to the full
        O(edges) :func:`~repro.sta.slack.minimum_feasible_period`."""
        self._check_external()
        if not self._edges:
            return 0.0
        if mode == "exact":
            needs_max = self._max_need_exact.value()
        elif mode == "bound":
            needs_max = self._max_need_bound.value()
        else:
            raise ValueError(f"unknown slack mode {mode!r} (exact|bound)")
        return _bisect_period(needs_max)

    def counts(self) -> Dict[str, int]:
        """Flag counts in the shape :func:`~repro.sta.report.build_report`
        computes (sans DRC), read off :meth:`analysis`."""
        return self.analysis().counts()

    def timing_clean(self) -> bool:
        return self.analysis().timing_clean

    def robust_clean(self) -> bool:
        return self.analysis().robust_clean

    @property
    def channel_capacities(self) -> Dict[EdgeKey, int]:
        """The session's current per-edge FIFO depths, in COMM edge order
        (missing = unbounded)."""
        return {e: d for e, d in zip(self._edges, self._depths.tolist()) if d}

    def flow(
        self, service: ServiceSpec = 1.0, wire_delay: float = 0.0
    ) -> FlowAnalysis:
        """Static flow analysis under the session's channel capacities.

        Memoized per (service vector, wire delay); capacity edits keep
        the memo live — see :meth:`set_channel_capacity`.  Every answer's
        graph, deadlock witness and cycle time equal a cold
        :func:`~repro.sta.flow.analyze_flow` over the current capacity
        map, and ``certify_mcm(answer.graph, answer.cycle)`` verifies (the
        ``differential-eco-flow`` check replays capacity scripts asserting
        exactly that).
        """
        self._check_external()
        flow = _flow_layer()
        services = flow.service_rows(self._design.array.comm.nodes(), service)(0)
        key = (services.tobytes(), float(wire_delay))
        entry = self._flow_cache.get(key)
        if entry is None:
            low = self._design.array.comm.lowering()
            fg = flow._assemble(low, services, wire_delay, self._depths)
            dead = flow._deadlock(low, self._depths)
            cycle = flow.mcm_howard(fg) if dead is None else None
            entry = self._flow_cache[key] = (services, flow.FlowAnalysis(fg, dead, cycle))
        return entry[1]

    def analysis(self) -> SlackAnalysis:
        """Materialize the current state as a frozen
        :class:`~repro.sta.slack.SlackAnalysis` — bit-identical to
        ``analyze_slack(session.design)``."""
        self._check_external()
        return SlackAnalysis.from_vectors(
            self._design.period, self._edges, self._lag.copy(),
            self._lead.copy(), self._sigma_ub.copy(), self._sigma_lb.copy(),
        )

    def summary(self) -> Dict[str, Any]:
        """The digest of the current state: :meth:`analysis`'s summary,
        counts first, plus the number of edits applied."""
        digest = asdict(self.analysis().summary())
        counts = digest.pop("counts")
        del digest["period"], digest["edges"]
        return {**counts, **digest, "edits_applied": len(self._ops)}

    def report(self) -> STAReport:
        """A full schema-valid report of the current state (the CLI emits
        one per edit-script step).  DRC re-runs fresh; the slack pieces
        come from the incremental state.  The last edit's audit record is
        attached as the report's ``eco`` block.
        """
        analysis = self.analysis()
        design = self._design
        buffered = design.buffered
        report = build_report(
            design,
            analysis,
            run_drc(design, analysis),
            self.minimum_feasible_period("exact"),
            self.minimum_feasible_period("bound"),
            empirical=None if buffered is None else empirical_block(
                buffered, self._edges, analysis
            ),
        )
        if self._ops:
            last = len(self._ops) - 1
            depth = self._log_depths[-1] if self._ops[last] == _CAPACITY else None
            report.eco = self._edit(last, depth).to_dict()
        return report


def _edge_str(edge: EdgeKey) -> str:
    return f"{edge[0]!r}->{edge[1]!r}"


@functools.lru_cache(maxsize=None)
def _flow_layer() -> Any:
    """:mod:`repro.sta.flow`, imported on first use: a session that edits
    only the clocked side (``repro sta --eco``) never loads it."""
    import repro.sta.flow

    return repro.sta.flow


def __getattr__(name: str) -> Any:
    """Names perfbench's traced run wraps here; the session itself calls
    the flow layer through :func:`_flow_layer`."""
    if name in ("flow_graph", "detect_deadlock", "mcm_howard"):
        return getattr(_flow_layer(), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
