"""Directed communication graphs (assumption A1).

``COMM`` is a directed graph laid out in the plane: nodes are cells, edges
are wires that carry one data item per cycle from source to target.  Two
cells joined by an edge in either direction are *communicating cells*; clock
skew constraints (and the clock period, A5) are stated over communicating
pairs, so the class exposes the undirected pair set prominently.
"""

from __future__ import annotations

from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Set,
    Tuple,
)

NodeId = Hashable
Edge = Tuple[NodeId, NodeId]


class Lowering(NamedTuple):
    """A COMM graph in dense ids: ``chan_src``/``chan_dst`` in ``edges``
    (:meth:`CommGraph.edges`, the row order of every per-edge vector)
    order, and ``by_dst`` sorting them by receiver, then sender, into
    ``fwd_src``/``fwd_dst`` (canonical CSR predecessor order).

    It is also the one neighbour order.  ``pred_ptr`` cuts ``fwd_src``
    into each cell's predecessor row, and ``succ_ptr`` cuts ``succ_edge``
    (positions in the ``fwd_*`` arrays, sorted by sender, then receiver)
    into each cell's successor row: both rows run in ascending dense id.
    The graph's own sets iterate in hash order, which moves with
    ``PYTHONHASHSEED`` for string cell ids.  Shared by every caller of
    :meth:`CommGraph.lowering`: the sequences are tuples and the arrays
    read-only."""

    cells: Tuple[NodeId, ...]
    edges: Tuple[Edge, ...]
    chan_src: Any
    chan_dst: Any
    by_dst: Any
    fwd_src: Any
    fwd_dst: Any
    pred_ptr: Any
    succ_ptr: Any
    succ_edge: Any

    def pred_rows(self) -> List[List[int]]:
        """Each cell's predecessors as dense ids, ascending."""
        return _cut(self.fwd_src.tolist(), self.pred_ptr)

    def succ_rows(self) -> List[List[int]]:
        """Each cell's successors as dense ids, ascending."""
        return _cut(self.fwd_dst[self.succ_edge].tolist(), self.succ_ptr)

    def out_rows(self) -> List[List[int]]:
        """Each cell's output channels as positions in the ``fwd_*``
        arrays, in :meth:`succ_rows` order."""
        return _cut(self.succ_edge.tolist(), self.succ_ptr)


def _cut(flat: List[int], ptr: Any) -> List[List[int]]:
    """``flat`` cut into rows at the offsets ``ptr``."""
    bounds = ptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


class CommGraph:
    """A directed graph of communicating cells.

    Nodes may be added explicitly (isolated hosts, boundary cells) or
    implicitly by adding edges.  Self-loops are rejected: a cell needs no
    synchronization with itself.
    """

    def __init__(
        self,
        edges: Optional[Iterable[Edge]] = None,
        nodes: Optional[Iterable[NodeId]] = None,
    ) -> None:
        self._succ: Dict[NodeId, Set[NodeId]] = {}
        self._pred: Dict[NodeId, Set[NodeId]] = {}
        # Monotone mutation counter; caches key on it (see version).
        self._version = 0
        self._caches: Dict[str, Tuple[int, Any]] = {}
        if nodes is not None:
            for node in nodes:
                self.add_node(node)
        if edges is not None:
            for src, dst in edges:
                self.add_edge(src, dst)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, node: NodeId) -> None:
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()
            self._version += 1

    def add_edge(self, src: NodeId, dst: NodeId) -> None:
        if src == dst:
            raise ValueError(f"self-loop on {src!r}: a cell does not communicate with itself")
        self.add_node(src)
        self.add_node(dst)
        if dst not in self._succ[src]:
            self._succ[src].add(dst)
            self._pred[dst].add(src)
            self._version += 1

    def add_bidirectional(self, a: NodeId, b: NodeId) -> None:
        """Add edges in both directions (common in systolic arrays where
        data streams flow both ways along the same neighbor link)."""
        self.add_edge(a, b)
        self.add_edge(b, a)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._succ)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._succ

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._succ)

    @property
    def node_count(self) -> int:
        return len(self._succ)

    @property
    def version(self) -> int:
        """Mutation counter: bumps whenever a node or edge is actually
        added.  Derived caches (the pair list here, and any caller-side
        cache such as :meth:`ProcessorArray.communicating_pairs`) key on
        it and rebuild when it moves."""
        return self._version

    @property
    def edge_count(self) -> int:
        """Number of *directed* edges."""
        return sum(len(s) for s in self._succ.values())

    def _cached(self, key: str, build: Callable[[], Any]) -> Any:
        """``build()``, kept until the graph next changes (:attr:`version`)."""
        hit = self._caches.get(key)
        if hit is None or hit[0] != self._version:
            hit = self._caches[key] = (self._version, build())
        return hit[1]

    def nodes(self) -> List[NodeId]:
        return list(self._succ)

    def _edge_tuple(self) -> Tuple[Edge, ...]:
        return self._cached("edges", lambda: tuple(
            (u, v) for u, succ in self._succ.items() for v in succ))

    def edges(self) -> List[Edge]:
        """The directed edges in the graph's stable order (a fresh list)."""
        return list(self._edge_tuple())

    def edge_index(self) -> Dict[Edge, int]:
        """Row index of every directed edge, in :meth:`edges` order.

        This is the edge-to-slack-row map the incremental ECO engine
        uses to dirty exactly one row per repadded/retargeted edge.
        Cached against :attr:`version`; the returned dict is shared, so
        callers must treat it as read-only.
        """
        return self._cached("index", lambda: {
            edge: i for i, edge in enumerate(self._edge_tuple())})

    def lowering(self) -> Lowering:
        """The one place a COMM graph becomes dense channel arrays, cached
        against :attr:`version` (an added node or edge yields a new one)."""
        return self._cached("lowering", self._lower)

    def _lower(self) -> Lowering:
        import numpy as np  # here: importing the graph loads no numpy

        cells = tuple(self._succ)
        index = {c: i for i, c in enumerate(cells)}
        edges = self._edge_tuple()
        src = np.array([index[u] for u, _ in edges], dtype=np.int64)
        dst = np.array([index[v] for _, v in edges], dtype=np.int64)
        by_dst = np.lexsort((src, dst))
        fwd_src, fwd_dst = src[by_dst], dst[by_dst]
        # Row offsets: in-degrees cut the predecessor rows, out-degrees
        # the successor rows.
        pred_ptr, succ_ptr = (
            np.concatenate(([0], np.cumsum(np.bincount(ids, minlength=len(cells)))))
            for ids in (dst, src)
        )
        arrays = (src, dst, by_dst, fwd_src, fwd_dst, pred_ptr, succ_ptr,
                  np.lexsort((fwd_dst, fwd_src)))
        for arr in arrays:
            arr.flags.writeable = False
        return Lowering(cells, edges, *arrays)

    def successors(self, node: NodeId) -> Set[NodeId]:
        return set(self._succ[node])

    def predecessors(self, node: NodeId) -> Set[NodeId]:
        return set(self._pred[node])

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """All cells communicating with ``node`` in either direction."""
        return self._succ[node] | self._pred[node]

    def has_edge(self, src: NodeId, dst: NodeId) -> bool:
        return src in self._succ and dst in self._succ[src]

    def degree(self, node: NodeId) -> int:
        """Undirected degree: number of distinct communicating partners."""
        return len(self.neighbors(node))

    def max_degree(self) -> int:
        return max((self.degree(n) for n in self._succ), default=0)

    # ------------------------------------------------------------------
    # communicating pairs (the objects skew bounds quantify over)
    # ------------------------------------------------------------------
    def communicating_pairs(self) -> List[Tuple[NodeId, NodeId]]:
        """Unordered pairs of cells connected by an edge in either direction.

        Each pair appears once; this is the index set of the max in
        ``sigma = max skew over communicating cells`` (A5).

        The list is cached against :attr:`version` (every skew bound and
        ``max_communication_distance`` call quantifies over it); mutation
        invalidates it, and callers receive a fresh copy they may own.
        """
        return list(self._cached("pairs", self._pairs))

    def _pairs(self) -> List[Tuple[NodeId, NodeId]]:
        seen: Set[FrozenSet[NodeId]] = set()
        pairs: List[Tuple[NodeId, NodeId]] = []
        for u, v in self._edge_tuple():
            key = frozenset((u, v))
            if key not in seen:
                seen.add(key)
                pairs.append((u, v))
        return pairs

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Weak connectivity (edge directions ignored)."""
        if not self._succ:
            return True
        start = next(iter(self._succ))
        seen = {start}
        frontier = deque([start])
        while frontier:
            node = frontier.popleft()
            for nxt in self.neighbors(node):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(self._succ)

    def undirected_components(self) -> List[Set[NodeId]]:
        remaining = set(self._succ)
        components: List[Set[NodeId]] = []
        while remaining:
            start = remaining.pop()
            comp = {start}
            frontier = deque([start])
            while frontier:
                node = frontier.popleft()
                for nxt in self.neighbors(node):
                    if nxt not in comp:
                        comp.add(nxt)
                        remaining.discard(nxt)
                        frontier.append(nxt)
            components.append(comp)
        return components

    def is_acyclic(self) -> bool:
        """True when the directed graph has no cycle.

        Acyclic COMM graphs admit the Section VIII pipelining transformation
        (pipeline registers on long edges).
        """
        indeg = {n: len(self._pred[n]) for n in self._succ}
        queue = deque(n for n, d in indeg.items() if d == 0)
        visited = 0
        while queue:
            node = queue.popleft()
            visited += 1
            for nxt in self._succ[node]:
                indeg[nxt] -= 1
                if indeg[nxt] == 0:
                    queue.append(nxt)
        return visited == len(self._succ)

    def undirected_distance(self, a: NodeId, b: NodeId) -> int:
        """Hop distance ignoring edge direction; ``-1`` if disconnected."""
        if a == b:
            return 0
        seen = {a}
        frontier = deque([(a, 0)])
        while frontier:
            node, dist = frontier.popleft()
            for nxt in self.neighbors(node):
                if nxt == b:
                    return dist + 1
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append((nxt, dist + 1))
        return -1

    def crossing_edges(
        self, part_a: Set[NodeId], part_b: Set[NodeId]
    ) -> List[Tuple[NodeId, NodeId]]:
        """Communicating pairs with one cell in each part.

        This is the quantity the lower-bound proof counts against the circle
        circumference (A3) and against the bisection width (Lemma 4).
        """
        out = []
        for u, v in self.communicating_pairs():
            if (u in part_a and v in part_b) or (u in part_b and v in part_a):
                out.append((u, v))
        return out

    def subgraph(self, keep: Set[NodeId]) -> "CommGraph":
        sub = CommGraph(nodes=[n for n in self._succ if n in keep])
        for u, v in self.edges():
            if u in keep and v in keep:
                sub.add_edge(u, v)
        return sub

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CommGraph({self.node_count} nodes, {self.edge_count} directed edges)"
