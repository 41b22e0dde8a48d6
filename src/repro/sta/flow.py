"""Simulation-free flow analysis of self-timed arrays (max-plus STA).

The paper's Section IV-V claim — self-timed steady state is governed by
local data dependences, not array diameter — is *statically* checkable:
the tandem recurrence of :mod:`repro.sim.dataflow` is a max-plus linear
system over a token-weighted dependence graph, and marked-graph theory
gives closed-form answers the event engine can only observe:

* **Steady-state cycle time** is the maximum cycle mean (MCM) of the
  graph: ``lambda = max over cycles (sum of weights / sum of tokens)``.
  Computed two ways — :func:`mcm_karp` (the scalar oracle: Karp's
  theorem on the token-expanded graph) and :func:`mcm_howard`
  (the fast kernel: vectorized policy iteration, with critical-cycle
  extraction feeding the :mod:`repro.obs.critpath` blame format).
  :func:`certify_mcm` checks a Howard answer exactly in O(V + E) from
  its converged state, which is what a flow report runs.
* **Deadlock** is a token-free cycle: under a capacity assignment the
  capacity-1 channels carry zero tokens, so :func:`detect_deadlock`
  reduces to a cycle search in that COMM subgraph — the very search
  (:func:`repro.sim.dataflow.zero_token_order`) behind every
  :class:`~repro.sim.dataflow.ChannelDeadlockError`, whose ``cycle`` is
  the same witness.
* **Minimal buffer sizing** (:func:`minimal_buffer_sizing`) relaxes
  critical cycles: start every channel at depth 1, repeatedly raise the
  capacities on the current critical cycle until the MCM meets the
  target, then greedily shrink — monotonicity (fewer tokens never
  lowers the MCM) makes the single reduction pass irreducible.
* **Transient bounds**: after the periodic regime is reached the
  makespan is exactly affine-periodic, so ``N * MCM + c`` brackets every
  horizon and :meth:`SteadyState.makespan_at` *predicts* —
  bit-for-bit — what iterating the recurrence computes
  (:meth:`SteadyState.iterated_makespan`, the detection's own run
  stepped on; cross-checked in the report and the ``differential-mcm``
  oracle).

Token model (finish-time events, wave-invariant per-cell services
``s_c``, uniform wire delay ``w``), with edge ``u -> v`` meaning ``v``
depends on ``u``: ``finish[v][k] >= finish[u][k - tokens] + weight``:

==========================  ======================  ==============
dependence                  weight                  tokens
==========================  ======================  ==============
self (c busy)               ``s_c``                 1
forward (COMM ``p -> c``)   ``w + s_c``             1
credit (COMM ``c -> s``,    ``s_c - s_s``           ``d - 1``
capacity ``d``)
==========================  ======================  ==============

(The credit row is ``start[c][k] >= start[s][k-d+1]`` rewritten over
finishes; its weight can be negative and its token count zero.  The
cycle-mean solvers run on the graph as it is, zero-token edges
included: once no cycle is token-free, every cycle carries a token.)

Exactness contract: every finite float is a dyadic rational, so one
power-of-two scale per graph makes every weight an integer.  Karp,
Howard and the certificate sum in those integers and divide once, so
for any finite weights each returns the exact MCM correctly rounded,
and a verified certificate proves it.  The simulator's measured
long-run rate sums in float, so it equals them bit for bit only under
dyadic-rational delays, where every path sum is an exact float; the
``differential-mcm`` oracle and the property suite hold both at zero
diff.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field, replace
from functools import cmp_to_key
from itertools import count
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.graphs.comm import CommGraph, Lowering
from repro.obs.critpath import CriticalPath, PathStep
from repro.sim.compiled import CompiledRecurrence
from repro.sim.dataflow import (
    CapacitySpec,
    ChannelDeadlockError,
    channel_depths,
    channel_order,
    per_cell_service,
    recurrence_scalar,
    service_rows,
    zero_token_order,
)

CellId = Hashable
EdgeKey = Tuple[CellId, CellId]
ServiceSpec = Union[float, Mapping[CellId, float], Callable[[CellId, int], float]]

#: Iteration cap for Howard policy iteration — generously above the
#: handful of sweeps real graphs need; hitting it raises.
_HOWARD_MAX_ITERS = 10_000

__all__ = [
    "Certificate",
    "FlowAnalysis",
    "FlowEdge",
    "FlowGraph",
    "FlowCycle",
    "SizingResult",
    "SteadyState",
    "analyze_flow",
    "certify_mcm",
    "detect_deadlock",
    "flow_graph",
    "mcm_howard",
    "mcm_karp",
    "minimal_buffer_sizing",
    "simulate_steady_state",
    "simulate_steady_state_scalar",
]


# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowEdge:
    """One dependence: ``finish[dst][k] >= finish[src][k - tokens] +
    weight``.  ``kind`` is ``"compute"`` (self), ``"forward"`` (COMM
    data edge: ``wire`` propagation plus the receiver's ``service``), or
    ``"credit"`` (finite-channel back edge).  ``src``/``dst`` are dense
    cell ids into :attr:`FlowGraph.cells`."""

    src: int
    dst: int
    weight: float
    tokens: int
    kind: str
    wire: float = 0.0
    service: float = 0.0


_KIND_CODES = {"compute": 0, "forward": 1, "credit": 2}
_KIND_NAMES = ("compute", "forward", "credit")


@dataclass(frozen=True)
class FlowGraph:
    """The token-weighted dependence graph of a self-timed array.

    Build via :func:`flow_graph` (from a COMM graph plus services, wire
    delay, and a capacity assignment) or from raw :class:`FlowEdge` lists
    via :meth:`from_edges` (the handshake cross-check tests build their
    marked graphs this way).  Every node has an in-edge: a flow graph
    gives each cell its compute self edge, and :meth:`from_edges` refuses
    a node without one, so the solvers run on the graph as built.
    ``services`` is the per-cell wave-invariant service vector in dense
    order.  Edges live in parallel arrays (``esrc``/``edst``/``eweight``/
    ``etokens``/``ekind``/``ewire``/``eservice``) — the solvers consume
    the arrays; :class:`FlowEdge` objects are materialized on demand via
    :meth:`edge` (the build would otherwise be dominated by dataclass
    construction at mesh scale).
    """

    cells: List[CellId]
    services: np.ndarray
    esrc: np.ndarray
    edst: np.ndarray
    eweight: np.ndarray
    etokens: np.ndarray
    ekind: np.ndarray  # int8 codes into _KIND_NAMES
    ewire: np.ndarray
    eservice: np.ndarray

    @classmethod
    def from_edges(
        cls,
        cells: List[CellId],
        edges: Sequence[FlowEdge],
        services: np.ndarray,
    ) -> "FlowGraph":
        # The blame builder re-accumulates cycle weight from the typed
        # wire/service fields, so a hand-built edge whose weight does not
        # decompose that way would silently mis-report cycle times.
        for e in edges:
            expect = {
                "compute": e.service,
                "forward": e.wire + e.service,
                "credit": e.weight,
            }[e.kind]
            if e.weight != expect:
                raise ValueError(
                    f"{e.kind} edge {e.src}->{e.dst}: weight {e.weight} "
                    f"!= its wire/service decomposition {expect}"
                )
        fed = {e.dst for e in edges}
        for node, cell in enumerate(cells):
            if node not in fed:
                raise ValueError(
                    f"node {node} (cell {cell!r}) has no in-edge; every "
                    "node of a flow graph needs one"
                )
        return cls(
            cells=cells,
            services=np.asarray(services, dtype=np.float64),
            esrc=np.asarray([e.src for e in edges], dtype=np.int64),
            edst=np.asarray([e.dst for e in edges], dtype=np.int64),
            eweight=np.asarray([e.weight for e in edges], dtype=np.float64),
            etokens=np.asarray([e.tokens for e in edges], dtype=np.int64),
            ekind=np.asarray(
                [_KIND_CODES[e.kind] for e in edges], dtype=np.int8
            ),
            ewire=np.asarray([e.wire for e in edges], dtype=np.float64),
            eservice=np.asarray([e.service for e in edges], dtype=np.float64),
        )

    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_edges(self) -> int:
        return len(self.esrc)

    def edge(self, i: int) -> FlowEdge:
        """Materialize edge ``i`` as a :class:`FlowEdge`."""
        return FlowEdge(
            src=int(self.esrc[i]),
            dst=int(self.edst[i]),
            weight=float(self.eweight[i]),
            tokens=int(self.etokens[i]),
            kind=_KIND_NAMES[int(self.ekind[i])],
            wire=float(self.ewire[i]),
            service=float(self.eservice[i]),
        )

    @property
    def edges(self) -> List[FlowEdge]:
        """All edges materialized (reporting/tests; solvers use arrays)."""
        return [self.edge(i) for i in range(self.n_edges)]


def _assemble(
    low: Lowering, services: np.ndarray, wire_delay: float, depths: np.ndarray
) -> FlowGraph:
    """The flow graph of a lowered COMM graph under a dense service
    vector, a wire delay and a channel-depth vector (0 = unbounded):
    array operations only, no walk of the COMM graph."""
    if not 0 <= wire_delay < math.inf:
        raise ValueError("wire delay must be non-negative and finite")
    services = services.copy()
    ids = np.arange(len(low.cells), dtype=np.int64)
    # Self edges, then forward edges (CSR predecessor order), then
    # credit back edges (COMM edge order) — all as array blocks.
    bounded = np.flatnonzero(depths)
    fwd_src, fwd_dst = low.fwd_src, low.fwd_dst
    cr_src, cr_dst = low.chan_dst[bounded], low.chan_src[bounded]
    blocks = [len(ids), len(fwd_src), len(cr_src)]
    esrc = np.concatenate([ids, fwd_src, cr_src])
    edst = np.concatenate([ids, fwd_dst, cr_dst])
    eweight = np.concatenate([
        services, wire_delay + services[fwd_dst], services[cr_dst] - services[cr_src]
    ])
    etokens = np.concatenate(
        [np.ones(blocks[0] + blocks[1], dtype=np.int64), depths[bounded] - 1]
    )
    ekind = np.repeat(np.array([0, 1, 2], dtype=np.int8), blocks)
    ewire = np.repeat(np.array([0.0, wire_delay, 0.0], dtype=np.float64), blocks)
    return FlowGraph(
        list(low.cells), services, esrc, edst, eweight, etokens, ekind, ewire,
        services[edst],
    )


def _retoken(
    low: Lowering, fg: FlowGraph, depths: np.ndarray, channel: int
) -> Tuple[FlowGraph, int]:
    """``fg`` after an already bounded ``channel`` took its new depth in
    ``depths``, and the id of the channel's credit edge.  The graph is
    the one :func:`_assemble` builds under ``depths``: ``etokens`` is
    copied with that edge patched, and every other array is shared with
    ``fg``, so all of them are made read-only."""
    edge = len(low.cells) + len(low.fwd_src) + int(np.count_nonzero(depths[:channel]))
    etokens = fg.etokens.copy()
    etokens[edge] = depths[channel] - 1
    patched = replace(fg, etokens=etokens)
    for arr in (fg.services, fg.esrc, fg.edst, fg.eweight, etokens, fg.ekind,
                fg.ewire, fg.eservice):
        arr.flags.writeable = False
    return patched, edge


def flow_graph(
    comm: CommGraph,
    service: ServiceSpec,
    wire_delay: float = 0.0,
    capacity: CapacitySpec = None,
) -> FlowGraph:
    """Lower a COMM graph + timing model to its flow graph.

    Edge order is deterministic: per-cell self edges first (dense
    order), then forward edges in canonical CSR predecessor order, then
    credit back edges in COMM edge order.  Zero-token (capacity-1)
    credit edges are *included*: the solvers run on them directly, after
    their own deadlock check.
    """
    low = comm.lowering()
    # Static analysis reads services as wave-invariant: the wave-0 row.
    services = service_rows(low.cells, service)(0)
    return _assemble(low, services, wire_delay, channel_depths(comm, capacity))


# ----------------------------------------------------------------------
# static deadlock detection
# ----------------------------------------------------------------------
def detect_deadlock(
    comm: CommGraph, capacity: CapacitySpec
) -> Optional[List[EdgeKey]]:
    """A token-free cycle under ``capacity``, or ``None`` when live.

    Returns the COMM edges of one directed cycle through capacity-1
    channels (in cycle order) — the witness every
    :class:`~repro.sim.dataflow.ChannelDeadlockError` for this graph and
    capacity carries, found by the same search (the ``flow-deadlock``
    oracle asserts the equivalence with the simulator).
    """
    depths = channel_depths(comm, capacity)
    return _deadlock(comm.lowering(), depths) if (depths == 1).any() else None


def _deadlock(low: Lowering, depths: np.ndarray) -> Optional[List[EdgeKey]]:
    """:func:`detect_deadlock` on a lowered graph and a depth vector."""
    try:
        channel_order(low, depths)
    except ChannelDeadlockError as err:
        return err.cycle
    return None


# ----------------------------------------------------------------------
# exact integer weights
# ----------------------------------------------------------------------
def _zero_token_order(fg: FlowGraph) -> List[int]:
    """Sources-first order of the dense cells over the zero-token edges.

    Zero-token edges run consumer -> producer; walked as channels
    (producer -> consumer) a cycle among them is token-free, and
    :func:`~repro.sim.dataflow.zero_token_order` refuses it with the
    :func:`detect_deadlock` witness (on a :func:`flow_graph`).
    """
    zero = np.flatnonzero(fg.etokens == 0)
    if not len(zero):
        return list(range(fg.n_cells))
    return zero_token_order(fg.cells, fg.edst[zero], fg.esrc[zero])


def _scale(weight: np.ndarray, n: int, tokens: int) -> Tuple[int, np.ndarray]:
    """One power-of-two ``q`` that makes every weight an integer (each
    finite float is ``k / 2**j``: ``q`` is the largest ``2**j``), and the
    weights times ``q``.  int64 when ``8 * n**2 * tokens * max|w * q| <
    2**63``, which bounds every cycle sum, cross product of two cycle
    means and potential over ``n`` nodes with at most ``tokens`` tokens
    per edge; Python ints otherwise.  Refuses a weight that is not
    finite."""
    if not np.isfinite(weight).all():
        raise ValueError("flow graph weights must be finite")
    q = max((x.as_integer_ratio()[1] for x in np.unique(weight).tolist()), default=1)
    span = 8 * n * n * max(tokens, 1) * float(np.abs(weight).max(initial=0.0))
    if q.bit_length() < 63 and span * q < 2.0**63:
        return q, (weight * q).astype(np.int64)  # exact: q is a power of two
    ratios = map(float.as_integer_ratio, weight.tolist())
    return q, np.asarray([k * (q // d) for k, d in ratios], dtype=object)


# ----------------------------------------------------------------------
# the critical cycle
# ----------------------------------------------------------------------
@dataclass
class FlowCycle:
    """A critical cycle: the dependence loop whose weight/token ratio is
    the steady-state cycle time.

    ``edges`` are the graph's :class:`FlowEdge` links in cycle order,
    and ``edge_ids`` their indices in the graph; ``path`` renders them
    in the :mod:`repro.obs.critpath` blame format — one lap of the
    cycle, whose telescoped endpoint is ``weight`` (so blame shares sum
    to 1).  ``cycle_time`` is the cycle's exact mean, correctly rounded;
    ``weight`` is accumulated in float in step order, so ``cycle_time ==
    weight / tokens`` under dyadic delays.  ``state`` is the converged
    Howard state that :func:`certify_mcm` checks.  It belongs to one
    graph: an ECO edit that keeps the cycle (:func:`_keep_cycle`) carries
    it over re-pointed at the edited graph, so ``certify_mcm(graph,
    cycle)`` verifies every session answer; the kept state then differs
    from a cold solve's, and so may ``policy``, ``iterations`` and the
    critical cycle chosen among equal means.
    """

    cycle_time: float
    weight: float
    tokens: int
    edges: List[FlowEdge]
    path: CriticalPath
    iterations: int = 0
    policy: Optional[np.ndarray] = field(default=None, repr=False)
    edge_ids: Tuple[int, ...] = ()
    state: Optional["_HowardState"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def throughput(self) -> float:
        return 1.0 / self.cycle_time if self.cycle_time > 0 else math.inf


def _finish_cycle(
    fg: FlowGraph,
    ids: List[int],
    cycle_time: float,
    iterations: int,
    policy: np.ndarray,
    state: "_HowardState",
) -> FlowCycle:
    """Build the canonical :class:`FlowCycle` from a cycle's edge ids in
    cycle order: rotate to start at the smallest dense id
    (deterministic), build the blame steps, and accumulate weight in
    step order."""
    srcs = fg.esrc[ids].tolist()
    anchor = srcs.index(min(srcs))
    ids = ids[anchor:] + ids[:anchor]
    chain_edges = [fg.edge(i) for i in ids]
    cells = fg.cells
    steps: List[PathStep] = []
    t = 0.0
    tokens = 0
    for e in chain_edges:
        tokens += e.tokens
        if e.kind == "compute":
            steps.append(
                PathStep("compute", cells[e.dst], t, t + e.service)
            )
            t = t + e.service
        elif e.kind == "forward":
            steps.append(
                PathStep(
                    "wire", cells[e.dst], t, t + e.wire, src=cells[e.src]
                )
            )
            t = t + e.wire
            steps.append(
                PathStep("compute", cells[e.dst], t, t + e.service)
            )
            t = t + e.service
        else:
            steps.append(
                PathStep(
                    "credit", cells[e.dst], t, t + e.weight, src=cells[e.src]
                )
            )
            t = t + e.weight
    weight = t
    path = CriticalPath(
        engine="flow", steps=steps, makespan=weight, reported=weight
    )
    return FlowCycle(
        cycle_time=cycle_time,
        weight=weight,
        tokens=tokens,
        edges=chain_edges,
        path=path,
        iterations=iterations,
        policy=policy,
        edge_ids=tuple(ids),
        state=state,
    )


# ----------------------------------------------------------------------
# Karp's algorithm (the scalar oracle)
# ----------------------------------------------------------------------
def mcm_karp(fg: FlowGraph) -> Optional[float]:
    """Maximum cycle mean by Karp's theorem — the scalar oracle for
    :func:`mcm_howard`.

    Multi-source form, so no SCC split:
    ``lambda = max_v min_{0 <= k < m} (D_m(v) - D_k(v)) / (m - k)`` with
    ``D_0 === 0`` (a virtual source reaching every node at weight 0),
    where ``D_k(v)`` is the heaviest walk into ``v`` carrying exactly
    ``k`` tokens.  Walks are summed in integers (:func:`_scale`) on the
    token-expanded graph — a ``t``-token edge becomes ``t`` one-token
    steps through ``t - 1`` fresh nodes, weight on the first — and each
    layer takes one step, then relaxes the zero-token edges in their
    sources-first order.  Each ratio is one correctly rounded division,
    and rounding is monotone, so the result is the exact MCM correctly
    rounded.  O(V * E) — the reference implementation, run at oracle
    sizes.  Returns ``None`` when the graph has no cycle; raises
    :class:`~repro.sim.dataflow.ChannelDeadlockError` on a token-free
    cycle.
    """
    order = _zero_token_order(fg)
    if not fg.n_edges:
        return None
    n = fg.n_cells
    q, weight = _scale(fg.eweight, n, int(fg.etokens.max()))
    steps: List[Tuple[int, int, int]] = []
    zero: List[List[Tuple[int, int]]] = [[] for _ in range(n)]
    m = n
    for u, v, w, t in zip(
        fg.esrc.tolist(), fg.edst.tolist(), weight.tolist(), fg.etokens.tolist()
    ):
        if not t:
            zero[u].append((v, w))
            continue
        for _ in range(t - 1):
            steps.append((u, m, w))
            u, w, m = m, 0, m + 1
        steps.append((u, v, w))
    order = [u for u in order if zero[u]]
    D: List[List[Optional[int]]] = [[0] * m]
    for _ in range(m):
        prev, row = D[-1], [None] * m
        for u, v, w in steps:
            x = prev[u]
            if x is not None and (row[v] is None or x + w > row[v]):
                row[v] = x + w
        for u in order:
            x = row[u]
            if x is not None:
                for v, w in zero[u]:
                    if row[v] is None or x + w > row[v]:
                        row[v] = x + w
        D.append(row)
    best: Optional[float] = None
    for v in range(m):
        top = D[m][v]
        if top is None:
            continue
        lam = min(
            (top - D[k][v]) / (q * (m - k))
            for k in range(m) if D[k][v] is not None
        )
        if best is None or lam > best:
            best = lam
    return best


# ----------------------------------------------------------------------
# Howard policy iteration (the fast kernel)
# ----------------------------------------------------------------------
#: Orders reduced means ``(a, b)``, ``b > 0``, exactly: by cross product.
_BY_MEAN = cmp_to_key(lambda x, y: x[0] * y[1] - y[0] * x[1])


def mcm_howard(
    fg: FlowGraph, warm_start: Optional[np.ndarray] = None
) -> Optional[FlowCycle]:
    """Maximum cycle mean by Howard policy iteration, exact and
    vectorized — the production kernel, with critical-cycle extraction.

    The policy picks one *incoming* edge per node (the recurrence's
    binding constraint points from constrainer to constrained).  Each
    sweep evaluates the policy's functional graph exactly
    (:func:`_policy_classes`, in the integers of :func:`_scale`) and
    ranks its distinct class means, then improves every node at once
    with two ``np.maximum.reduceat`` phases: an in-edge from a class of
    higher mean, else a same-mean in-edge with the largest strictly
    positive gain.  The graph is the flow graph itself,
    zero-token edges included (a token-free cycle is refused first, so
    every policy cycle carries a token).  Canonical anchors make the
    potentials a function of the policy, so every change is a strict
    improvement and the sweeps cannot cycle; the loop stops when none is
    left, which is exactly the upper bound :func:`certify_mcm` checks.
    The first policy cycle of the top class is the critical cycle.

    ``warm_start`` seeds the policy from a previous solve on the same
    node set (``FlowCycle.policy``: the chosen predecessor per node) —
    the ECO path uses this after capacity edits.  The scalar
    oracle is :func:`mcm_karp`; both return the exact MCM correctly
    rounded (``differential-mcm``).  The converged state rides along on
    ``FlowCycle.state`` so :func:`certify_mcm` can check the answer
    exactly without solving again.
    """
    _zero_token_order(fg)  # refuses a token-free cycle
    if not fg.n_edges:
        return None
    n = fg.n_cells
    # In-edge CSR: edges sorted by destination (stable, so ties keep
    # build order — deterministic policies).
    e_ids = np.argsort(fg.edst, kind="stable")
    src = fg.esrc[e_ids]
    dst = fg.edst[e_ids]
    t = fg.etokens[e_ids]
    q, w = _scale(fg.eweight, n, int(t.max()))
    w = w[e_ids]
    counts = np.bincount(dst, minlength=n)
    starts = np.zeros(n, dtype=np.int64)
    np.cumsum(counts[:-1], out=starts[1:])
    # Every node has >= 1 in-edge (see :class:`FlowGraph`).
    # Initial policy: the node's self edge where it has one — every
    # policy cycle is then a self loop, so the first evaluation already
    # surfaces max(service) as a candidate mean and the broadcast
    # below spreads it in one sweep (a constant number of sweeps on
    # meshes, instead of O(diameter) from an arbitrary start).
    big = len(src)
    edge_arange = np.arange(big, dtype=np.int64)
    self_edge = np.minimum.reduceat(
        np.where(src == dst, edge_arange, big), starts
    )
    policy = np.where(self_edge < big, self_edge, starts)
    if warm_start is not None:  # each node's first in-edge from its old pick
        want = np.asarray(warm_start)[dst]
        warm = np.minimum.reduceat(
            np.where(src == want, edge_arange, big), starts
        )
        policy = np.where(warm < big, warm, policy)
    # Out-adjacency (edge indices by source node) for the broadcast.
    dst_l = dst.tolist()
    out_edges = np.argsort(src, kind="stable").tolist()
    out_ptr = [0] + np.cumsum(np.bincount(src, minlength=n)).tolist()
    for iterations in range(1, _HOWARD_MAX_ITERS + 1):
        pred = src[policy].tolist()
        cls, p, a, b, anchors = _policy_classes(
            pred, w[policy].tolist(), t[policy].tolist()
        )
        means = sorted(set(zip(a, b)), key=_BY_MEAN)
        rank_of = {m: r for r, m in enumerate(means)}
        class_rank = [rank_of[m] for m in zip(a, b)]
        top = len(means) - 1
        node_cls = np.asarray(cls)
        rank = np.asarray(class_rank)[node_cls]
        # Phase 1: a predecessor in a class of higher mean.
        rank_src = rank[src]
        grank = np.maximum.reduceat(rank_src, starts)
        imp1 = grank > rank
        cand1 = np.minimum.reduceat(
            np.where(rank_src == grank[dst], edge_arange, big), starts
        )
        # Phase 2: same mean, the largest strictly positive gain.
        pn = np.asarray(p, dtype=w.dtype)
        an, bn = (np.asarray(c, dtype=w.dtype)[node_cls] for c in (a, b))
        gain = np.where(
            rank_src == rank[dst],
            pn[src] + bn[dst] * w - an[dst] * t - pn[dst],
            0,
        )
        gbest = np.maximum.reduceat(gain, starts)
        imp2 = ~imp1 & (gbest > 0)
        cand2 = np.minimum.reduceat(
            np.where(gain == gbest[dst], edge_arange, big), starts
        )
        new_policy = policy.copy()
        new_policy[imp1] = cand1[imp1]
        new_policy[imp2] = cand2[imp2]
        # Mean broadcast: the per-node improvement above adopts a
        # faster cycle one hop per sweep — O(diameter) sweeps on a mesh.
        # Instead, grow an in-tree from the top class in one search,
        # repointing every slower node it can reach; each repointed
        # node's mean jumps straight to the top (a strict improvement,
        # so Howard's convergence argument is untouched and sweep count
        # stops scaling with diameter).
        seen = (rank == top).tolist()
        if not all(seen):
            frontier = [v for v, ok in enumerate(seen) if ok]
            repoint: List[Tuple[int, int]] = []
            while frontier:
                u = frontier.pop()
                for e in out_edges[out_ptr[u]:out_ptr[u + 1]]:
                    v = dst_l[e]
                    if not seen[v]:
                        seen[v] = True
                        repoint.append((v, e))
                        frontier.append(v)
            if repoint:
                idx, edges_r = zip(*repoint)
                new_policy[list(idx)] = list(edges_r)
        if np.array_equal(new_policy, policy):
            break
        policy = new_policy
    else:
        raise RuntimeError(
            f"Howard policy iteration failed to converge within "
            f"{_HOWARD_MAX_ITERS} sweeps"
        )
    # The first top-class policy cycle is the critical cycle; walk it
    # from its anchor and list its edges backwards, so the chain runs
    # constrainer -> constrained.
    best = class_rank.index(top)
    cyc = [anchors[best]]
    while pred[cyc[-1]] != cyc[0]:
        cyc.append(pred[cyc[-1]])
    chain = e_ids[policy[cyc[::-1]]].tolist()
    state = _HowardState(fg, src, dst, w, t, policy, q, e_ids, pn, an, bn)
    cycle_time = a[best] / (q * b[best])  # int / int rounds correctly
    return _finish_cycle(fg, chain, cycle_time, iterations, src[policy], state)


def _policy_classes(
    pred: List[int], w: List[int], t: List[int]
) -> Tuple[List[int], List[int], List[int], List[int], List[int]]:
    """A policy evaluated exactly: ``pred`` is each node's chosen
    predecessor, ``w`` and ``t`` that in-edge's integer weight and
    tokens.

    Returns ``(cls, p, a, b, anchors)``: each node's class — the policy
    cycle it drains into, numbered in discovery order (walks start at
    ascending ids) — and potential, and each class's reduced mean
    ``a/b`` and anchor.  The anchor is the cycle's smallest id, at
    potential 0; every other node sits at ``p[pred] + b*w - a*t``, so its
    chosen edge is tight and the potentials depend on the policy alone.
    """
    n = len(pred)
    cls, p = [-1] * n, [0] * n  # cls -2: on the current walk
    a: List[int] = []
    b: List[int] = []
    anchors: List[int] = []
    for v0 in range(n):
        if cls[v0] >= 0:
            continue
        if pred[v0] == v0:  # a self-loop: a one-node class
            g = math.gcd(w[v0], t[v0])
            cls[v0] = len(a)
            a.append(w[v0] // g)
            b.append(t[v0] // g)
            anchors.append(v0)
            continue
        walk: List[int] = []
        v = v0
        while cls[v] == -1:
            cls[v] = -2
            walk.append(v)
            v = pred[v]
        if cls[v] == -2:  # the walk closed a new policy cycle at v
            at = walk.index(v)
            cyc = walk[at:]
            r = cyc.index(min(cyc))
            cyc = cyc[r:] + cyc[:r]  # anchor first, then predecessors
            num, den = sum(w[x] for x in cyc), sum(t[x] for x in cyc)
            g = math.gcd(num, den)
            k = len(a)
            a.append(num // g)
            b.append(den // g)
            anchors.append(cyc[0])
            cls[cyc[0]] = k
            walk[at:] = cyc[1:]  # reversed: round the cycle, then the tree
        for x in reversed(walk):
            y = pred[x]
            k = cls[x] = cls[y]
            p[x] = p[y] + b[k] * w[x] - a[k] * t[x]
    return cls, p, a, b, anchors


# ----------------------------------------------------------------------
# the certificate: Howard's answer checked exactly, not solved again
# ----------------------------------------------------------------------
class _HowardState(NamedTuple):
    """Howard's converged state on ``graph``: in-edges sorted by
    destination with their weights times ``q`` as integers (int64, or
    Python ints where :func:`_scale` cannot bound them), their tokens
    and their ids in ``graph``, each node's chosen in-edge (a position
    in that order), and the final policy's evaluation by
    :func:`_policy_classes` — each node's potential ``p`` and its class's
    reduced mean ``a/b``, in the weights' dtype — which
    :func:`_keep_cycle` reads."""

    graph: FlowGraph
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    tokens: np.ndarray
    policy: np.ndarray
    q: int
    edge_ids: np.ndarray
    p: np.ndarray
    a: np.ndarray
    b: np.ndarray


class Certificate(NamedTuple):
    """What :func:`certify_mcm` proved: ``failed`` names the first failing
    condition (``None`` when verified), ``mean`` is the critical cycle's
    exact mean as a reduced ``(num, den)``, ``edges`` the edges checked."""

    failed: Optional[str]
    mean: Optional[Tuple[int, int]] = None
    edges: int = 0

    @property
    def verified(self) -> bool:
        return self.failed is None


def certify_mcm(fg: FlowGraph, cycle: FlowCycle) -> Certificate:
    """Prove exactly, in O(V + E), that ``cycle.cycle_time`` is the
    maximum cycle mean of ``fg`` rounded to nearest.

    Every weight is an integer over Howard's power-of-two scale ``q``.
    *Lower bound:* ``cycle.edge_ids`` is a closed walk of graph edges
    with tokens whose exact mean rounds to ``cycle.cycle_time``.  *Upper
    bound:* Howard's final policy, evaluated exactly
    (:func:`_policy_classes`), gives each node the reduced mean
    ``a/b`` of the policy cycle it drains into and a potential ``P =
    q*b*pi``.  No ``a/b`` exceeds the walk's mean, and on every edge
    ``u -> v`` either the means match and ``P_v >= P_u + b*w - a*t``, or
    ``a_u/b_u < a_v/b_v``.  A mean cannot rise all the way round a
    cycle, so each cycle stays at one mean, whose inequalities sum to
    bound the cycle's (it carries a token: Howard refused token-free
    cycles).
    """
    st, walk = cycle.state, np.asarray(cycle.edge_ids, dtype=np.int64)
    if st is None or st.graph is not fg or not len(walk):
        return Certificate("lower-bound: no critical cycle of this graph to check")
    if not np.isfinite(fg.eweight[walk]).all():
        return Certificate("lower-bound: a weight is not finite")
    den = int(fg.etokens[walk].sum())
    if den < 1 or not np.array_equal(fg.edst[walk], fg.esrc[np.roll(walk, -1)]):
        return Certificate("lower-bound: not a closed walk with tokens")
    q = st.q  # every weight of the graph is a multiple of 1/q
    ratios = map(float.as_integer_ratio, fg.eweight[walk].tolist())
    num = sum(k * (q // d) for k, d in ratios)
    g = math.gcd(num, q * den)
    mean = (num // g, q * den // g)
    if cycle.cycle_time != num / (q * den):  # int / int rounds correctly
        return Certificate(
            f"lower-bound: exact mean {mean[0]}/{mean[1]} does not round to "
            f"cycle_time {cycle.cycle_time!r}", mean,
        )
    w, t, u, v = st.weight, st.tokens, st.src, st.dst
    cls, p, a, b, _ = _policy_classes(
        u[st.policy].tolist(), w[st.policy].tolist(), t[st.policy].tolist()
    )
    high = [ak * den > num * bk for ak, bk in zip(a, b)]
    if any(high):
        cell = fg.cells[[high[k] for k in cls].index(True)]
        return Certificate(
            f"upper-bound: {cell!r} drains into a policy cycle of higher mean",
            mean,
        )
    node_cls = np.asarray(cls)
    a, b = (np.asarray(c, dtype=w.dtype)[node_cls] for c in (a, b))
    p = np.asarray(p, dtype=w.dtype)
    broken = np.flatnonzero(np.where(
        (a[u] == a[v]) & (b[u] == b[v]),
        p[v] - p[u] - b[v] * w + a[v] * t < 0,
        a[u] * b[v] >= a[v] * b[u],
    ))
    if len(broken):
        x, y = (fg.cells[end[broken[0]]] for end in (u, v))
        return Certificate(f"upper-bound: edge {x!r} -> {y!r} breaks its inequality", mean)
    return Certificate(None, mean, len(u))


def _keep_cycle(cycle: FlowCycle, fg: FlowGraph, edge: int) -> Optional[FlowCycle]:
    """``cycle`` carried over to ``fg``, a graph that differs from the
    one ``cycle`` was solved on only in the tokens of graph edge
    ``edge``, when the edit provably leaves the MCM where it is; ``None``
    when the graph must be solved again.

    Exact and O(1) from the converged state: the edge is not a policy
    edge (the policy, its classes, potentials and critical cycle stay
    as they are), and under its new token count ``t`` it still meets the
    inequality :func:`certify_mcm` checks — ``P_v - P_u - b*w + a*t >= 0``
    in the integers, or a class mean that strictly rises from ``u`` to
    ``v``.  Then every inequality of the certificate still holds, so the
    critical cycle's mean is still the MCM.  The caller must first rule
    out a token-free cycle when ``t`` is 0.  A token count that would
    break :func:`_scale`'s int64 bound solves again.  The kept cycle's
    state points at ``fg``, so ``certify_mcm(fg, kept)`` verifies it.
    """
    st = cycle.state
    if st is None:
        return None
    k = int(np.flatnonzero(st.edge_ids == edge)[0])
    u, v = int(st.src[k]), int(st.dst[k])
    if st.policy[v] == k:  # critical-cycle edges are policy edges too
        return None
    t = int(fg.etokens[edge])
    if t > st.tokens[k] and st.weight.dtype != object:
        top = max(t, int(st.tokens.max())) * int(np.abs(st.weight).max())
        if 8 * fg.n_cells ** 2 * top >= 2**63:
            return None
    au, bu, av, bv = int(st.a[u]), int(st.b[u]), int(st.a[v]), int(st.b[v])
    if (au, bu) == (av, bv):
        if int(st.p[v]) - int(st.p[u]) - bv * int(st.weight[k]) + av * t < 0:
            return None
    elif au * bv >= av * bu:
        return None
    tokens = st.tokens.copy()
    tokens[k] = t
    return replace(cycle, state=st._replace(graph=fg, tokens=tokens))


# ----------------------------------------------------------------------
# simulate-to-convergence (the dynamic baseline) + transient bounds
# ----------------------------------------------------------------------
#: Detection limits of :func:`simulate_steady_state`: the longest period
#: searched, and the waves run before it gives up.
_MAX_PERIOD = 64
_MAX_WAVES = 100_000


@dataclass(frozen=True)
class SteadyState:
    """The simulator's long-run regime, detected from the trajectory.

    Once the finish-vector increments repeat with period ``P`` over a
    window covering the recurrence's state depth, max-plus homogeneity
    makes the repetition permanent: ``finish[k + P] = finish[k] + delta``
    forever.  ``cycle_time`` is ``max(delta) / P`` — the pacing cells'
    per-wave advance, the exact long-run rate the static MCM must equal.
    :meth:`makespan_at` extrapolates any horizon in closed form,
    bit-equal to iterating the compiled recurrence (dyadic delays);
    :meth:`iterated_makespan` is that iteration, the watched trajectory
    stepped on past ``waves_run``; :meth:`bounds` gives the
    ``N * MCM + c`` transient envelope.
    """

    cycle_time: float
    period: int
    increment: float  # max per-period finish advance (= MCM * P, exact)
    waves_run: int
    makespans: np.ndarray  # M[j] = max finish after wave j+1
    tail: np.ndarray  # finish vectors of the last ``period`` waves
    delta: np.ndarray  # per-cell per-period advance
    # The watched rows from wave waves_run + 1 on, and makespans read off them.
    _rows: Iterator[np.ndarray] = field(compare=False, repr=False)
    _later: List[float] = field(default_factory=list, compare=False, repr=False)

    def makespan_at(self, waves: int) -> float:
        """Makespan after ``waves`` waves — observed when within the run,
        otherwise the closed-form periodic extension
        ``max_c(tail[j][c] + q * delta[c])`` (each term one multiply and
        one add of exact dyadic values, so it lands on the same float
        the iterated kernel computes)."""
        if waves < 1:
            raise ValueError("need at least one wave")
        if waves <= self.waves_run:
            return float(self.makespans[waves - 1])
        base = self.waves_run - self.period
        j = (waves - 1 - base) % self.period
        q = (waves - 1 - base) // self.period
        return float(np.max(self.tail[j] + q * self.delta))

    def iterated_makespan(self, waves: int) -> float:
        """Makespan after ``waves`` waves by iteration, never
        extrapolation: the detection's own trajectory, stepped forward
        once per wave up to the furthest horizon asked (in any order) —
        what a fresh ``CompiledRecurrence.makespan`` run computes."""
        if waves <= self.waves_run:
            return self.makespan_at(waves)
        later = self._later
        while self.waves_run + len(later) < waves:
            later.append(float(next(self._rows).max()))
        return later[waves - self.waves_run - 1]

    def bounds(self) -> Tuple[float, float]:
        """``(c_lo, c_hi)`` such that every *observed* makespan satisfies
        ``cycle_time * N + c_lo <= makespan(N) <= cycle_time * N + c_hi``
        — the transient envelope around the steady slope."""
        ns = np.arange(1, self.waves_run + 1, dtype=np.float64)
        offsets = self.makespans - self.cycle_time * ns
        return float(offsets.min()), float(offsets.max())


def simulate_steady_state(
    comm: CommGraph,
    service: ServiceSpec,
    wire_delay: float = 0.0,
    capacity: CapacitySpec = None,
) -> SteadyState:
    """Run the compiled recurrence until the periodic regime is verified.

    This is the *dynamic* way to learn the steady-state cycle time — the
    baseline the ``mcm_howard`` bench row beats, and the ground truth the
    differential oracle compares the static answer against.  Detection:
    the per-``P`` finish increments must be bit-identical across a window
    of ``P + depth`` consecutive waves (``depth`` = the recurrence's
    state memory: the deepest capacity window plus one), which by
    max-plus shift-invariance pins the regime exactly.  Periods up to 64
    are searched; no regime within 100,000 waves raises ``RuntimeError``.
    The returned state keeps the stepper it watched, so
    :meth:`SteadyState.iterated_makespan` continues this one run.
    """
    services = _invariant_services(comm, service)
    stepper = CompiledRecurrence(comm).stepper(services, wire_delay, capacity)
    return _steady_state(comm, capacity, (stepper.step() for _ in count()))


def simulate_steady_state_scalar(
    comm: CommGraph,
    service: ServiceSpec,
    wire_delay: float = 0.0,
    capacity: CapacitySpec = None,
) -> SteadyState:
    """Scalar oracle for :func:`simulate_steady_state`: the per-(cell,
    wave) dict recurrence (:func:`repro.sim.dataflow.recurrence_scalar`,
    also the oracle of ``recurrence_makespan``) under the same
    periodicity test, its generator kept for
    :meth:`SteadyState.iterated_makespan`.  This is also the
    ``mcm_howard`` bench row's simulate-to-convergence baseline — the
    reference path a user without the static analyzer would run.
    """
    services = _invariant_services(comm, service)
    cells = comm.nodes()
    waves = recurrence_scalar(
        comm, per_cell_service(services), wire_delay, capacity
    )
    rows = (np.asarray([finish[c] for c in cells]) for finish in waves)
    return _steady_state(comm, capacity, rows)


def _invariant_services(
    comm: CommGraph, service: ServiceSpec
) -> Dict[CellId, float]:
    """The per-cell service map both steady-state paths run on (the
    wave-0 row: a periodic regime needs wave-invariant services)."""
    cells = comm.nodes()
    if not cells:
        raise ValueError("empty COMM graph")
    return dict(zip(cells, service_rows(cells, service)(0).tolist()))


def _steady_state(
    comm: CommGraph, capacity: CapacitySpec, finishes: Iterator[np.ndarray]
) -> SteadyState:
    """Watch an endless finish-row trajectory until :func:`_find_period`
    pins its periodic regime, and hand the trajectory on; raises
    ``RuntimeError`` after ``_MAX_WAVES`` waves."""
    depth = int(channel_depths(comm, capacity).max(initial=1)) + 1
    history: deque = deque(maxlen=2 * _MAX_PERIOD + depth + 1)
    makespans: List[float] = []
    for t, finish in zip(range(_MAX_WAVES), finishes):
        history.append(finish)
        makespans.append(float(finish.max()))
        period = _find_period(history, makespans, depth)
        if period is not None:
            delta = history[-1] - history[-1 - period]
            increment = float(delta.max())
            tail_rows = [history[-(period - j)] for j in range(period)]
            return SteadyState(
                cycle_time=increment / period,
                period=period,
                increment=increment,
                waves_run=t + 1,
                makespans=np.asarray(makespans, dtype=np.float64),
                tail=np.asarray(tail_rows, dtype=np.float64),
                delta=delta,
                _rows=finishes,
            )
    raise RuntimeError(
        f"no periodic regime within {_MAX_WAVES} waves (max_period="
        f"{_MAX_PERIOD}); irrational delay ratios never repeat exactly — "
        "use the static analyzer instead"
    )


def _find_period(
    history: deque, makespans: List[float], depth: int
) -> Optional[int]:
    """Smallest ``P`` whose finish increments are constant (bit-equal
    vectors) over the last ``P + depth`` waves; ``None`` if none yet.
    Scalar makespan diffs pre-filter before any vector compare."""
    have = len(history)
    t = len(makespans) - 1
    for period in range(1, _MAX_PERIOD + 1):
        window = period + depth
        if have < window + period:
            break
        # Cheap scalar screens first.
        if makespans[t] - makespans[t - period] != (
            makespans[t - 1] - makespans[t - 1 - period]
        ):
            continue
        ok = True
        for back in range(2, window):
            if makespans[t - back] - makespans[t - back - period] != (
                makespans[t] - makespans[t - period]
            ):
                ok = False
                break
        if not ok:
            continue
        ref = history[-1] - history[-1 - period]
        for back in range(1, window):
            if not np.array_equal(
                history[-1 - back] - history[-1 - back - period], ref
            ):
                ok = False
                break
        if ok:
            return period
    return None


# ----------------------------------------------------------------------
# minimal buffer sizing
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SizingResult:
    """Smallest per-edge capacities meeting a target cycle time.

    ``capacities`` maps every COMM edge to its depth; ``cycle_time`` is
    the achieved MCM.  Irreducible: decrementing any single capacity
    (where a decrement is legal, i.e. depth >= 2) either deadlocks the
    array or pushes the MCM above ``target`` — the ``sizing-minimality``
    oracle decrements each one and checks.
    """

    capacities: Dict[EdgeKey, int]
    cycle_time: float
    target: float
    mcm_calls: int

    @property
    def total_capacity(self) -> int:
        return sum(self.capacities.values())


def minimal_buffer_sizing(
    comm: CommGraph,
    service: ServiceSpec,
    wire_delay: float,
    target: float,
    max_capacity: int = 1 << 16,
    mcm: Callable[[FlowGraph], Optional[FlowCycle]] = mcm_howard,
) -> SizingResult:
    """Critical-cycle relaxation: start every channel at depth 1, break
    token-free cycles, then repeatedly add a token (one slot) to every
    credit edge on the current critical cycle until the MCM meets
    ``target``; finish with a greedy reduction pass.

    Monotonicity (removing a token never lowers any cycle mean) makes
    the greedy sound and the single reduction pass sufficient for
    irreducibility.  Raises ``ValueError`` on a target that is not
    positive and finite, or infeasible — below the capacity-independent
    MCM of the unbounded graph (its cycles carry no credit edges to
    relax).

    ``mcm`` is injectable so the perf bench can run the identical
    algorithm over :func:`mcm_howard` (optimized) and :func:`mcm_karp`
    (baseline oracle) and assert exact agreement.
    """
    if not 0 < target < math.inf:
        raise ValueError(f"target cycle time must be positive and finite, got {target!r}")
    low = comm.lowering()
    services = service_rows(low.cells, service)(0)
    row = comm.edge_index()
    # One depth per COMM channel (comm.edges() order), edited in place.
    depths = np.zeros(len(row), dtype=np.int64)
    calls = 0

    def solve() -> Tuple[float, Optional[FlowCycle]]:
        nonlocal calls
        calls += 1
        result = mcm(_assemble(low, services, wire_delay, depths))
        if result is None:
            return 0.0, None
        if isinstance(result, FlowCycle):
            return result.cycle_time, result
        return float(result), None  # scalar oracle (mcm_karp)

    floor_lam, _ = solve()
    if floor_lam > target:
        raise ValueError(
            f"target cycle time {target} is infeasible: the unbounded "
            f"dependence graph already cycles at {floor_lam} (its "
            "critical cycle has no channel to deepen)"
        )
    depths[:] = 1
    while True:
        dead = _deadlock(low, depths)
        if dead is None:
            break
        depths[row[dead[0]]] += 1  # one token per token-free cycle
    while True:
        lam, cycle = solve()
        if lam <= target:
            break
        if cycle is None:
            # Scalar-oracle mode carries no cycle: fall back to the
            # cycle extractor for the relaxation step (the lambda used
            # for the <= test stays the injected solver's).
            cycle = mcm_howard(_assemble(low, services, wire_delay, depths))
        assert cycle is not None
        bumped = False
        for e in cycle.edges:
            if e.kind != "credit":
                continue
            # Credit s -> c models COMM c -> s (the producer waits on
            # its consumer).
            i = row[(low.cells[e.dst], low.cells[e.src])]
            if depths[i] < max_capacity:
                depths[i] += 1
                bumped = True
        if not bumped:
            raise ValueError(
                f"target cycle time {target} unreachable: critical cycle "
                f"(mean {lam}) has no credit edge below max_capacity="
                f"{max_capacity}"
            )
    # Reduction pass: only deepened channels are candidates (depth-1
    # channels have no legal decrement), so this is O(deepened) solves.
    for i in range(len(depths)):
        while depths[i] > 1:
            depths[i] -= 1
            if _deadlock(low, depths) is not None:
                depths[i] += 1
                break
            lam_try, _ = solve()
            if lam_try > target:
                depths[i] += 1
                break
    lam, _ = solve()
    return SizingResult(
        capacities=dict(zip(comm.edges(), depths.tolist())),
        cycle_time=lam,
        target=target,
        mcm_calls=calls,
    )


# ----------------------------------------------------------------------
# bundled one-shot analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowAnalysis:
    """One static flow query, bundled: the lowered graph, the deadlock
    verdict, and (when live) the Howard critical cycle.

    This is the unit the :class:`~repro.sta.eco.ECOSession` capacity-edit
    path caches and reuses; :func:`analyze_flow` is the cold computation.
    """

    graph: FlowGraph
    deadlock: Optional[List[EdgeKey]]
    cycle: Optional[FlowCycle]

    @property
    def dead(self) -> bool:
        return self.deadlock is not None

    @property
    def cycle_time(self) -> Optional[float]:
        """Steady-state cycle time; ``None`` when deadlocked or acyclic."""
        if self.cycle is None:
            return None
        return self.cycle.cycle_time

    @property
    def throughput(self) -> Optional[float]:
        if self.cycle is None:
            return None
        return self.cycle.throughput

    def critical_comm_edges(self) -> Set[EdgeKey]:
        """The COMM channels whose capacities bound throughput: the
        credit hops of the critical cycle, mapped back to their COMM
        edges.  Empty when deadlocked or when the cycle is capacity-free
        (compute/wire bound)."""
        if self.cycle is None:
            return set()
        cells = self.graph.cells
        return {
            (cells[e.dst], cells[e.src])
            for e in self.cycle.edges
            if e.kind == "credit"
        }


def analyze_flow(
    comm: CommGraph,
    service: ServiceSpec,
    wire_delay: float = 0.0,
    capacity: CapacitySpec = None,
) -> FlowAnalysis:
    """Lower, check liveness, and solve: the one-call static answer.

    Deadlock is decided first (a token-free cycle makes the MCM
    meaningless — the array never reaches wave 1); on a live graph the
    Howard kernel supplies cycle time, throughput, and the critical
    cycle in one solve.
    """
    fg = flow_graph(comm, service, wire_delay, capacity)
    dead = detect_deadlock(comm, capacity)
    cycle = mcm_howard(fg) if dead is None else None
    return FlowAnalysis(graph=fg, deadlock=dead, cycle=cycle)
