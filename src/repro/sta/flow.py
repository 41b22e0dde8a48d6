"""Simulation-free flow analysis of self-timed arrays (max-plus STA).

The paper's Section IV-V claim — self-timed steady state is governed by
local data dependences, not array diameter — is *statically* checkable:
the tandem recurrence of :mod:`repro.sim.dataflow` is a max-plus linear
system over a token-weighted dependence graph, and marked-graph theory
gives closed-form answers the event engine can only observe:

* **Steady-state cycle time** is the maximum cycle mean (MCM) of the
  graph: ``lambda = max over cycles (sum of weights / sum of tokens)``.
  Computed two ways — :func:`mcm_karp` (the scalar oracle: Karp's
  theorem on the token-expanded graph, per SCC) and :func:`mcm_howard`
  (the fast kernel: vectorized policy iteration, with critical-cycle
  extraction feeding the :mod:`repro.obs.critpath` blame format).
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
  bit-for-bit — what :meth:`~repro.sim.compiled.CompiledRecurrence.
  makespan` computes by iterating (cross-checked in the report and the
  ``differential-mcm`` oracle).

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
finishes; its weight can be negative and its token count zero — zero-
token edges are contracted over their DAG before the cycle-mean solvers
run.)

Exactness contract: with dyadic-rational delays every path sum is an
exact float, so Karp's formula value, Howard's critical-cycle ratio,
and the simulator's measured long-run rate are all correctly-rounded
divisions of exact operands of the same rational — equal bit for bit.
The ``differential-mcm`` oracle and the property suite hold this at
zero diff.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import (
    Callable,
    Dict,
    Hashable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as np

from repro.graphs.comm import CommGraph
from repro.graphs.csr import csr_from_comm
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

#: Policy-improvement threshold for Howard iteration.  Sits between
#: float rounding noise (~1e-16 relative) and the smallest true
#: rational improvement at test scales (>= ~1e-6 for dyadic delays with
#: token counts below ~64), so convergence is exact in the dyadic
#: regime and robust otherwise.
_HOWARD_EPS = 1e-9

#: Iteration cap for Howard policy iteration — generously above the
#: handful of sweeps real graphs need; hitting it raises.
_HOWARD_MAX_ITERS = 10_000

__all__ = [
    "FlowAnalysis",
    "FlowEdge",
    "FlowGraph",
    "FlowCycle",
    "SizingResult",
    "SteadyState",
    "analyze_flow",
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
    via :meth:`from_edges` (the handshake-discipline models do this).
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
    credit edges are *included* — deadlock detection and contraction
    happen in the solvers.
    """
    if wire_delay < 0:
        raise ValueError("wire delay must be non-negative")
    csr = csr_from_comm(comm)
    cells = csr.nodes if csr.nodes is not None else list(range(csr.n_cells))
    index = {c: i for i, c in enumerate(cells)}
    # Static analysis reads services as wave-invariant: the wave-0 row.
    services = service_rows(cells, service)(0)
    n = len(cells)
    ids = np.arange(n, dtype=np.int64)
    # Self edges, then forward edges (CSR predecessor order), then
    # credit back edges (COMM edge order) — all as array blocks.
    fwd_dst = np.repeat(ids, np.diff(csr.indptr))
    fwd_src = csr.indices.astype(np.int64)
    depths = channel_depths(comm, capacity)
    bounded = np.flatnonzero(depths).tolist()
    edges = comm.edges() if bounded else []
    cr_src = np.asarray([index[edges[i][1]] for i in bounded], dtype=np.int64)
    cr_dst = np.asarray([index[edges[i][0]] for i in bounded], dtype=np.int64)
    cr_tok = depths[bounded] - 1
    n_fwd = len(fwd_src)
    n_cr = len(cr_src)
    esrc = np.concatenate([ids, fwd_src, cr_src])
    edst = np.concatenate([ids, fwd_dst, cr_dst])
    eservice = services[edst]
    eweight = np.concatenate(
        [
            services,
            wire_delay + services[fwd_dst],
            services[cr_dst] - services[cr_src],
        ]
    )
    etokens = np.concatenate(
        [np.ones(n + n_fwd, dtype=np.int64), cr_tok]
    )
    ekind = np.concatenate(
        [
            np.zeros(n, dtype=np.int8),
            np.ones(n_fwd, dtype=np.int8),
            np.full(n_cr, 2, dtype=np.int8),
        ]
    )
    ewire = np.concatenate(
        [
            np.zeros(n, dtype=np.float64),
            np.full(n_fwd, wire_delay, dtype=np.float64),
            np.zeros(n_cr, dtype=np.float64),
        ]
    )
    return FlowGraph(
        cells=list(cells),
        services=services,
        esrc=esrc,
        edst=edst,
        eweight=eweight,
        etokens=etokens,
        ekind=ekind,
        ewire=ewire,
        eservice=eservice,
    )


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
    try:
        channel_order(comm, channel_depths(comm, capacity))
    except ChannelDeadlockError as err:
        return err.cycle
    return None


# ----------------------------------------------------------------------
# zero-token contraction
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Normalized:
    """Contracted edge arrays (every edge carries >= 1 token) plus the
    underlying original-edge-index chain per contracted edge.
    ``chains is None`` means the contraction was the identity (no
    zero-token edges): contracted edge ``i`` is original edge ``i``."""

    n: int
    src: np.ndarray
    dst: np.ndarray
    weight: np.ndarray
    tokens: np.ndarray
    chains: Optional[List[Tuple[int, ...]]]

    def chain(self, i: int) -> Tuple[int, ...]:
        return (i,) if self.chains is None else self.chains[i]


def _normalize(fg: FlowGraph) -> _Normalized:
    """Contract zero-token edges over their (acyclic) subgraph.

    Every positive-token edge ``u -> v`` spawns ``u -> v'`` for each
    ``v'`` zero-reachable from ``v``, weighted by the max-weight zero
    path (DAG longest path) — the classic marked-graph reduction that
    leaves every cycle mean unchanged while giving the solvers a graph
    with ``tokens >= 1`` everywhere.  Raises
    :class:`~repro.sim.dataflow.ChannelDeadlockError` when the zero
    subgraph has a cycle (a token-free cycle: deadlock), with the
    :func:`detect_deadlock` witness on a :func:`flow_graph`.
    """
    n = fg.n_cells
    zero_mask = fg.etokens == 0
    if not zero_mask.any():
        return _Normalized(
            n=n,
            src=fg.esrc,
            dst=fg.edst,
            weight=fg.eweight,
            tokens=fg.etokens,
            chains=None,
        )
    zero_ids = np.nonzero(zero_mask)[0]
    pos_ids = np.nonzero(~zero_mask)[0]
    zsucc: Dict[int, List[int]] = {}
    for i in zero_ids.tolist():
        zsucc.setdefault(int(fg.esrc[i]), []).append(i)
    # Zero-token edges run consumer -> producer; walked as channels
    # (producer -> consumer) a cycle is refused with the deadlock witness,
    # and the consumers-first order, reversed, builds every zero-
    # successor's longest-path table before its predecessors' tables.
    order = zero_token_order(fg.cells, fg.edst[zero_ids], fg.esrc[zero_ids])
    best: Dict[int, Dict[int, Tuple[float, Tuple[int, ...]]]] = {}
    for u in reversed(order):
        if u not in zsucc:
            continue
        table: Dict[int, Tuple[float, Tuple[int, ...]]] = {}
        for e in zsucc[u]:
            d = int(fg.edst[e])
            w = float(fg.eweight[e])
            if d not in table or w > table[d][0]:
                table[d] = (w, (e,))
            for v2, (w2, p2) in best.get(d, {}).items():
                total = w + w2
                if v2 not in table or total > table[v2][0]:
                    table[v2] = (total, (e,) + p2)
        best[u] = table
    src_l: List[int] = []
    dst_l: List[int] = []
    w_l: List[float] = []
    t_l: List[int] = []
    chains: List[Tuple[int, ...]] = []
    for e in pos_ids.tolist():
        u = int(fg.esrc[e])
        d = int(fg.edst[e])
        w = float(fg.eweight[e])
        t = int(fg.etokens[e])
        src_l.append(u)
        dst_l.append(d)
        w_l.append(w)
        t_l.append(t)
        chains.append((e,))
        for v2, (w2, p2) in best.get(d, {}).items():
            src_l.append(u)
            dst_l.append(v2)
            w_l.append(w + w2)
            t_l.append(t)
            chains.append((e,) + p2)
    return _Normalized(
        n=n,
        src=np.asarray(src_l, dtype=np.int64),
        dst=np.asarray(dst_l, dtype=np.int64),
        weight=np.asarray(w_l, dtype=np.float64),
        tokens=np.asarray(t_l, dtype=np.int64),
        chains=chains,
    )


# ----------------------------------------------------------------------
# the critical cycle
# ----------------------------------------------------------------------
@dataclass
class FlowCycle:
    """A critical cycle: the dependence loop whose weight/token ratio is
    the steady-state cycle time.

    ``edges`` are the original :class:`FlowEdge` links in cycle order
    (zero-token chains re-expanded); ``path`` renders them in the
    :mod:`repro.obs.critpath` blame format — one lap of the cycle, whose
    telescoped endpoint is ``weight`` (so blame shares sum to 1).
    ``cycle_time`` is ``weight / tokens`` with ``weight`` accumulated in
    step order — the exact rational, correctly rounded, under dyadic
    delays.
    """

    cycle_time: float
    weight: float
    tokens: int
    edges: List[FlowEdge]
    path: CriticalPath
    iterations: int = 0
    policy: Optional[np.ndarray] = field(default=None, repr=False)

    @property
    def throughput(self) -> float:
        return 1.0 / self.cycle_time if self.cycle_time > 0 else math.inf


def _finish_cycle(
    fg: FlowGraph,
    chain_edges: List[FlowEdge],
    iterations: int = 0,
    policy: Optional[np.ndarray] = None,
) -> FlowCycle:
    """Flatten a contracted cycle into the canonical :class:`FlowCycle`:
    rotate to start at the smallest dense id (deterministic), build the
    blame steps, and accumulate weight in step order."""
    if chain_edges:
        anchor = min(range(len(chain_edges)), key=lambda i: chain_edges[i].src)
        chain_edges = chain_edges[anchor:] + chain_edges[:anchor]
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
    cycle_time = weight / tokens if tokens else math.inf
    return FlowCycle(
        cycle_time=cycle_time,
        weight=weight,
        tokens=tokens,
        edges=chain_edges,
        path=path,
        iterations=iterations,
        policy=policy,
    )


# ----------------------------------------------------------------------
# Karp's algorithm (the scalar oracle)
# ----------------------------------------------------------------------
def _expand_tokens(
    norm: _Normalized,
) -> Tuple[int, List[Tuple[int, int, float]]]:
    """Unit-token expansion: a ``t``-token edge becomes a chain of ``t``
    edges through ``t - 1`` fresh nodes, weight on the first link — the
    graph Karp's theorem applies to directly."""
    n = norm.n
    out: List[Tuple[int, int, float]] = []
    next_node = n
    for i in range(len(norm.src)):
        u = int(norm.src[i])
        v = int(norm.dst[i])
        w = float(norm.weight[i])
        t = int(norm.tokens[i])
        if t == 1:
            out.append((u, v, w))
            continue
        prev = u
        for j in range(t - 1):
            aux = next_node
            next_node += 1
            out.append((prev, aux, w if j == 0 else 0.0))
            prev = aux
        out.append((prev, v, 0.0))
    return next_node, out


def _sccs(n: int, edges: List[Tuple[int, int, float]]) -> List[List[int]]:
    """Strongly connected components (iterative Tarjan)."""
    succ: Dict[int, List[int]] = {}
    for u, v, _ in edges:
        succ.setdefault(u, []).append(v)
    index_of: Dict[int, int] = {}
    low: Dict[int, int] = {}
    on_stack: Set[int] = set()
    comp_stack: List[int] = []
    sccs: List[List[int]] = []
    counter = 0
    for root in range(n):
        if root in index_of:
            continue
        work: List[Tuple[int, int]] = [(root, 0)]
        while work:
            node, child = work.pop()
            if child == 0:
                index_of[node] = low[node] = counter
                counter += 1
                comp_stack.append(node)
                on_stack.add(node)
            recurse = False
            out = succ.get(node, ())
            for j in range(child, len(out)):
                nxt = out[j]
                if nxt not in index_of:
                    work.append((node, j + 1))
                    work.append((nxt, 0))
                    recurse = True
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index_of[nxt])
            if recurse:
                continue
            if low[node] == index_of[node]:
                comp: List[int] = []
                while True:
                    w = comp_stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
    return sccs


def mcm_karp(fg: FlowGraph) -> Optional[float]:
    """Maximum cycle mean by Karp's theorem — the scalar oracle for
    :func:`mcm_howard`.

    Per strongly connected component of the token-expanded graph:
    ``lambda = max_v min_{0 <= k < n} (D_n(v) - D_k(v)) / (n - k)``
    with ``D_0 === 0`` (multi-source form).  O(V * E) per component —
    the reference implementation, run at oracle sizes.  Returns ``None``
    when the graph has no cycle; raises
    :class:`~repro.sim.dataflow.ChannelDeadlockError` on a token-free
    cycle.
    """
    norm = _normalize(fg)
    if not len(norm.src):
        return None
    n_exp, edges = _expand_tokens(norm)
    best: Optional[float] = None
    for comp in _sccs(n_exp, edges):
        comp_set = set(comp)
        local = {node: i for i, node in enumerate(comp)}
        inner = [
            (local[u], local[v], w)
            for u, v, w in edges
            if u in comp_set and v in comp_set
        ]
        if not inner:
            continue
        m = len(comp)
        neg_inf = -math.inf
        D = [[neg_inf] * m for _ in range(m + 1)]
        for i in range(m):
            D[0][i] = 0.0
        for k in range(1, m + 1):
            row = D[k]
            prev = D[k - 1]
            for u, v, w in inner:
                if prev[u] > neg_inf:
                    cand = prev[u] + w
                    if cand > row[v]:
                        row[v] = cand
        lam = neg_inf
        last = D[m]
        for v in range(m):
            if last[v] == neg_inf:
                continue
            worst = math.inf
            for k in range(m):
                if D[k][v] > neg_inf:
                    ratio = (last[v] - D[k][v]) / (m - k)
                    if ratio < worst:
                        worst = ratio
            if worst > lam:
                lam = worst
        if lam > neg_inf and (best is None or lam > best):
            best = lam
    return best


# ----------------------------------------------------------------------
# Howard policy iteration (the fast kernel)
# ----------------------------------------------------------------------
def _cyclic_core(
    n: int, src: np.ndarray, dst: np.ndarray
) -> np.ndarray:
    """Boolean mask of nodes on or reachable-into cycles: iteratively
    strip nodes with zero in- or out-degree (over surviving edges)."""
    alive = np.ones(n, dtype=bool)
    while True:
        keep = alive[src] & alive[dst]
        outdeg = np.zeros(n, dtype=np.int64)
        indeg = np.zeros(n, dtype=np.int64)
        np.add.at(outdeg, src[keep], 1)
        np.add.at(indeg, dst[keep], 1)
        drop = alive & ((outdeg == 0) | (indeg == 0))
        if not drop.any():
            return alive
        alive &= ~drop


def mcm_howard(
    fg: FlowGraph, warm_start: Optional[np.ndarray] = None
) -> Optional[FlowCycle]:
    """Maximum cycle mean by Howard policy iteration, vectorized —
    the production kernel, with critical-cycle extraction.

    The policy picks one *incoming* edge per node (the recurrence's
    binding constraint points from constrainer to constrained); each
    round evaluates the policy's functional graph exactly (cycle means
    and potentials, O(V) Python) and then improves every node at once
    with two ``np.maximum.reduceat`` phases (cycle-mean first, then
    potential).  Converges in a handful of sweeps; the final policy
    cycle *is* the critical cycle.

    ``warm_start`` seeds the policy from a previous solve on the same
    node set (``FlowCycle.policy``: chosen predecessor per node, -1 for
    none) — the ECO path uses this after capacity edits.  The scalar
    oracle is :func:`mcm_karp`; the two agree bit-for-bit under dyadic
    delays (``differential-mcm``).
    """
    norm = _normalize(fg)
    if not len(norm.src):
        return None
    alive = _cyclic_core(norm.n, norm.src, norm.dst)
    keep = alive[norm.src] & alive[norm.dst]
    if not keep.any():
        return None
    e_ids = np.nonzero(keep)[0]
    esrc = norm.src[e_ids]
    edst = norm.dst[e_ids]
    ew = norm.weight[e_ids]
    et = norm.tokens[e_ids].astype(np.float64)
    core_nodes = np.nonzero(alive)[0]
    n_core = len(core_nodes)
    compact = np.full(norm.n, -1, dtype=np.int64)
    compact[core_nodes] = np.arange(n_core, dtype=np.int64)
    csrc = compact[esrc]
    cdst = compact[edst]
    # In-edge CSR: edges sorted by destination (stable, so ties keep
    # build order — deterministic policies).
    order = np.argsort(cdst, kind="stable")
    csrc = csrc[order]
    cdst = cdst[order]
    ew = ew[order]
    et = et[order]
    e_ids = e_ids[order]
    esrc_orig = core_nodes[csrc]  # original dense ids per sorted edge
    counts = np.bincount(cdst, minlength=n_core)
    indptr = np.zeros(n_core + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    starts = indptr[:-1]
    # Every core node has >= 1 in-edge by construction of the core.
    # Initial policy: the node's self edge where it has one — every
    # policy cycle is then a self loop, so the first evaluation already
    # surfaces max(service) as a candidate lambda and the broadcast
    # below spreads it in one sweep (a constant number of sweeps on
    # meshes, instead of O(diameter) from an arbitrary start).
    self_edge = np.minimum.reduceat(
        np.where(
            csrc == cdst,
            np.arange(len(csrc), dtype=np.int64),
            len(csrc),
        ),
        starts,
    )
    policy = np.where(self_edge < len(csrc), self_edge, starts)
    if warm_start is not None:
        for v in range(n_core):
            want = warm_start[core_nodes[v]]
            if want < 0:
                continue
            for e in range(int(indptr[v]), int(indptr[v + 1])):
                if esrc_orig[e] == want:
                    policy[v] = e
                    break
    lam = np.zeros(n_core, dtype=np.float64)
    h = np.zeros(n_core, dtype=np.float64)
    edge_arange = np.arange(len(csrc), dtype=np.int64)
    big = len(csrc)
    # Plain-list mirrors for the Python-side walk and broadcast below:
    # per-element numpy indexing boxes a scalar per access, which at
    # mesh scale costs more than the whole vectorized phase.
    csrc_l = csrc.tolist()
    cdst_l = cdst.tolist()
    ew_l = ew.tolist()
    et_l = et.tolist()
    # Out-adjacency (edge indices per source node) for the broadcast.
    out_edges: List[List[int]] = [[] for _ in range(n_core)]
    for e, u in enumerate(csrc_l):
        out_edges[u].append(e)
    best_cycle: List[int] = []
    best_lam = -math.inf
    iterations = 0
    for iterations in range(1, _HOWARD_MAX_ITERS + 1):
        # --- evaluate the policy's functional graph (walk v -> chosen
        # predecessor), exactly, in Python O(V) over plain lists.
        pol = policy.tolist()
        color = [0] * n_core  # 1 = on walk, 2 = done
        lam_l = [0.0] * n_core
        h_l = [0.0] * n_core
        best_cycle = []
        best_lam = -math.inf
        for v0 in range(n_core):
            if color[v0]:
                continue
            walk: List[int] = []
            v = v0
            while color[v] == 0:
                color[v] = 1
                walk.append(v)
                v = csrc_l[pol[v]]
            if color[v] == 1:
                # New cycle: the walk tail from v onwards.
                at = walk.index(v)
                cyc = walk[at:]
                W = 0.0
                T = 0.0
                for u in cyc:
                    e = pol[u]
                    W += ew_l[e]
                    T += et_l[e]
                lam_c = W / T
                if lam_c > best_lam:
                    best_lam = lam_c
                    best_cycle = list(cyc)
                # Potentials around the cycle: anchor the entry node,
                # then h[u] = h[pred] + w - lam * t walking backwards.
                h_l[v] = 0.0
                lam_l[v] = lam_c
                for u in reversed(cyc[1:]):
                    e = pol[u]
                    pred = csrc_l[e]
                    h_l[u] = h_l[pred] + (ew_l[e] - lam_c * et_l[e])
                    lam_l[u] = lam_c
                for u in cyc:
                    color[u] = 2
                tail = walk[:at]
            else:
                tail = walk
            # Tree part: value each stacked node off its predecessor.
            for u in reversed(tail):
                e = pol[u]
                pred = csrc_l[e]
                lam_u = lam_l[pred]
                lam_l[u] = lam_u
                h_l[u] = h_l[pred] + (ew_l[e] - lam_u * et_l[e])
                color[u] = 2
        lam = np.asarray(lam_l, dtype=np.float64)
        h = np.asarray(h_l, dtype=np.float64)
        # --- vectorized improvement.
        lam_src = lam[csrc]
        glam = np.maximum.reduceat(lam_src, starts)
        glam_e = np.repeat(glam, counts)
        # Phase 1: a predecessor on a faster cycle.
        imp1 = glam > lam + _HOWARD_EPS
        attain1 = lam_src >= glam_e  # == up to float identity
        cand1 = np.minimum.reduceat(
            np.where(attain1, edge_arange, big), starts
        )
        # Phase 2: same cycle mean, better potential.
        val = h[csrc] + (ew - lam[cdst] * et)
        val_masked = np.where(lam_src >= glam_e, val, -math.inf)
        gval = np.maximum.reduceat(val_masked, starts)
        imp2 = (~imp1) & (gval > h + _HOWARD_EPS)
        attain2 = val_masked >= np.repeat(gval, counts)
        cand2 = np.minimum.reduceat(
            np.where(attain2, edge_arange, big), starts
        )
        new_policy = policy.copy()
        new_policy[imp1] = cand1[imp1]
        new_policy[imp2] = cand2[imp2]
        # Lambda broadcast: the per-node improvement above adopts a
        # faster cycle one hop per sweep — O(diameter) sweeps on a mesh.
        # Instead, grow an in-tree from the current best cycle's region
        # in one BFS, repointing every slower node it can reach; each
        # repointed node's lambda jumps straight to best_lam (a strict
        # lexicographic improvement, so Howard's convergence argument is
        # untouched and sweep count stops scaling with diameter).
        floor = best_lam - _HOWARD_EPS
        seen = [x >= floor for x in lam_l]
        if not all(seen):
            frontier = [v for v, ok in enumerate(seen) if ok]
            repoint: List[Tuple[int, int]] = []
            while frontier:
                u = frontier.pop()
                for e in out_edges[u]:
                    v = cdst_l[e]
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
    # The best policy cycle is the critical cycle; flatten it back to
    # original edges (cycle order: follow the policy backwards, so the
    # edge list walks constrainer -> constrained).
    chain: List[FlowEdge] = []
    for u in reversed(best_cycle):
        e = int(policy[u])
        chain.extend(
            fg.edge(orig) for orig in norm.chain(int(e_ids[e]))
        )
    pred_choice = np.full(norm.n, -1, dtype=np.int64)
    pred_choice[core_nodes] = esrc_orig[policy]
    return _finish_cycle(
        fg, chain, iterations=iterations, policy=pred_choice
    )


# ----------------------------------------------------------------------
# simulate-to-convergence (the dynamic baseline) + transient bounds
# ----------------------------------------------------------------------
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
    :meth:`bounds` gives the ``N * MCM + c`` transient envelope.
    """

    cycle_time: float
    period: int
    increment: float  # max per-period finish advance (= MCM * P, exact)
    waves_run: int
    makespans: np.ndarray  # M[j] = max finish after wave j+1
    tail: np.ndarray  # finish vectors of the last ``period`` waves
    delta: np.ndarray  # per-cell per-period advance

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
    max_waves: int = 100_000,
    max_period: int = 64,
    compiled: Optional[CompiledRecurrence] = None,
) -> SteadyState:
    """Run the compiled recurrence until the periodic regime is verified.

    This is the *dynamic* way to learn the steady-state cycle time — the
    baseline the ``mcm_howard`` bench row beats, and the ground truth the
    differential oracle compares the static answer against.  Detection:
    the per-``P`` finish increments must be bit-identical across a window
    of ``P + depth`` consecutive waves (``depth`` = the recurrence's
    state memory: the deepest capacity window plus one), which by
    max-plus shift-invariance pins the regime exactly.  A ``compiled``
    recurrence passed in must be compiled from ``comm`` as it is now.
    """
    services = _invariant_services(comm, service)
    if compiled is None:
        compiled = CompiledRecurrence(comm)
    stepper = compiled.stepper(services, wire_delay, capacity)
    rows = (stepper.step() for _ in range(max_waves))
    return _steady_state(comm, capacity, rows, max_waves, max_period)


def simulate_steady_state_scalar(
    comm: CommGraph,
    service: ServiceSpec,
    wire_delay: float = 0.0,
    capacity: CapacitySpec = None,
    max_waves: int = 100_000,
    max_period: int = 64,
) -> SteadyState:
    """Scalar oracle for :func:`simulate_steady_state`: the per-(cell,
    wave) dict recurrence (:func:`repro.sim.dataflow.recurrence_scalar`,
    also the oracle of ``recurrence_makespan``) under the same
    periodicity test.  This is also the ``mcm_howard`` bench row's
    simulate-to-convergence baseline — the reference path a user without
    the static analyzer would run.
    """
    services = _invariant_services(comm, service)
    cells = comm.nodes()
    waves = recurrence_scalar(
        comm, per_cell_service(services), wire_delay, capacity
    )
    rows = (np.asarray([finish[c] for c in cells]) for finish in waves)
    return _steady_state(comm, capacity, rows, max_waves, max_period)


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
    comm: CommGraph,
    capacity: CapacitySpec,
    finishes: Iterator[np.ndarray],
    max_waves: int,
    max_period: int,
) -> SteadyState:
    """Watch a finish-row trajectory until :func:`_find_period` pins its
    periodic regime; raises ``RuntimeError`` after ``max_waves``."""
    depth = int(channel_depths(comm, capacity).max(initial=1)) + 1
    history: deque = deque(maxlen=2 * max_period + depth + 1)
    makespans: List[float] = []
    for t, finish in zip(range(max_waves), finishes):
        history.append(finish)
        makespans.append(float(finish.max()))
        period = _find_period(history, makespans, max_period, depth)
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
            )
    raise RuntimeError(
        f"no periodic regime within {max_waves} waves (max_period="
        f"{max_period}); irrational delay ratios never repeat exactly — "
        "use the static analyzer instead"
    )


def _find_period(
    history: deque, makespans: List[float], max_period: int, depth: int
) -> Optional[int]:
    """Smallest ``P`` whose finish increments are constant (bit-equal
    vectors) over the last ``P + depth`` waves; ``None`` if none yet.
    Scalar makespan diffs pre-filter before any vector compare."""
    have = len(history)
    t = len(makespans) - 1
    for period in range(1, max_period + 1):
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
    irreducibility.  Raises ``ValueError`` when the target is infeasible
    — below the capacity-independent MCM of the unbounded graph (its
    cycles carry no credit edges to relax).

    ``mcm`` is injectable so the perf bench can run the identical
    algorithm over :func:`mcm_howard` (optimized) and :func:`mcm_karp`
    (baseline oracle) and assert exact agreement.
    """
    if target <= 0:
        raise ValueError("target cycle time must be positive")
    calls = 0

    def solve(fg: FlowGraph) -> Tuple[float, Optional[FlowCycle]]:
        nonlocal calls
        calls += 1
        result = mcm(fg)
        if result is None:
            return 0.0, None
        if isinstance(result, FlowCycle):
            return result.cycle_time, result
        return float(result), None  # scalar oracle (mcm_karp)

    floor_lam, _ = solve(flow_graph(comm, service, wire_delay, None))
    if floor_lam > target:
        raise ValueError(
            f"target cycle time {target} is infeasible: the unbounded "
            f"dependence graph already cycles at {floor_lam} (its "
            "critical cycle has no channel to deepen)"
        )
    caps: Dict[EdgeKey, int] = {e: 1 for e in comm.edges()}
    while True:
        dead = detect_deadlock(comm, caps)
        if dead is None:
            break
        caps[dead[0]] += 1  # one token per token-free cycle
    while True:
        lam, cycle = solve(flow_graph(comm, service, wire_delay, caps))
        if lam <= target:
            break
        if cycle is None:
            # Scalar-oracle mode carries no cycle: fall back to the
            # cycle extractor for the relaxation step (the lambda used
            # for the <= test stays the injected solver's).
            cycle = mcm_howard(flow_graph(comm, service, wire_delay, caps))
        assert cycle is not None
        bumped = False
        for e in cycle.edges:
            if e.kind != "credit":
                continue
            edge = _credit_comm_edge(e, comm)
            if caps[edge] < max_capacity:
                caps[edge] += 1
                bumped = True
        if not bumped:
            raise ValueError(
                f"target cycle time {target} unreachable: critical cycle "
                f"(mean {lam}) has no credit edge below max_capacity="
                f"{max_capacity}"
            )
    # Reduction pass: only deepened channels are candidates (depth-1
    # channels have no legal decrement), so this is O(deepened) solves.
    for edge in comm.edges():
        while caps[edge] > 1:
            caps[edge] -= 1
            if detect_deadlock(comm, caps) is not None:
                caps[edge] += 1
                break
            lam_try, _ = solve(flow_graph(comm, service, wire_delay, caps))
            if lam_try > target:
                caps[edge] += 1
                break
    lam, _ = solve(flow_graph(comm, service, wire_delay, caps))
    return SizingResult(
        capacities=caps, cycle_time=lam, target=target, mcm_calls=calls
    )


def _credit_comm_edge(e: FlowEdge, comm: CommGraph) -> EdgeKey:
    """The COMM edge a credit flow edge models: credit ``s -> c`` comes
    from COMM ``c -> s`` (the producer waits on its consumer)."""
    cells = comm.nodes()
    return (cells[e.dst], cells[e.src])


# ----------------------------------------------------------------------
# bundled one-shot analysis
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FlowAnalysis:
    """One static flow query, bundled: the lowered graph, the deadlock
    verdict, and (when live) the Howard critical cycle.

    This is the unit the :class:`~repro.sta.analyzer.STAAnalyzer` memo
    and the :class:`~repro.sta.eco.ECOSession` capacity-edit path cache
    and reuse; :func:`analyze_flow` is the cold computation.
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
