"""The clock tree ``CLK`` (assumption A4) and its path metrics.

A :class:`ClockTree` is a rooted tree whose nodes sit at planar positions
and whose edges carry explicit physical lengths (defaulting to the Manhattan
distance between endpoints; explicit lengths let equidistant H-trees and
delay-tuned trees represent "electrical length").  Binary arity is the
paper's assumption and the default, relaxable for deliberately non-binary
comparison schemes (star/equipotential hubs).

The two quantities every skew model consumes are defined here:

* ``path_difference(a, b)`` — the *d* of the difference model (A9): the
  positive difference of the two nodes' root distances, equivalently the
  difference of their distances to their lowest common ancestor (Fig. 1).
* ``path_length(a, b)`` — the *s* of the summation model (A10/A11): the
  length of the tree path between the nodes, i.e. the *sum* of their
  distances to the LCA (Fig. 2).

``s >= d >= 0`` always (tested as a hypothesis property).

Trees are mutable in two ways, both versioned (see :attr:`version`):

* ``add_children`` grows the tree by a checked batch of nodes (every
  builder collects its nodes first; ``add_child`` is a one-node batch and
  the ECO ``graft_subtree`` edit is one batch);
* ``set_edge_length`` retunes one existing edge in place (the ECO
  ``resize_buffer`` edit), shifting the whole subtree's root distances
  with one vectorized in-place add on the shared dense store — the live
  LCA index never rebuilds.
"""

from __future__ import annotations

import math
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.clocktree.lca import DenseTreeStore, LiftingLCAIndex, _gather_ids
from repro.geometry.point import Point

NodeId = Hashable
#: One node of a batch for :meth:`ClockTree.add_children`:
#: ``(parent, node, position, length)``, ``length`` ``None`` for Manhattan.
ChildEntry = Tuple[NodeId, NodeId, Point, Optional[float]]


def _pairs_fingerprint(pairs: Sequence) -> Tuple:
    """Cheap mutation guard for the pair-ids memo: length + endpoints."""
    return (len(pairs), pairs[0], pairs[-1]) if pairs else (0,)


def _finite_positions(entries: Sequence[ChildEntry]) -> Tuple[List[float], List[float]]:
    """The entries' x and y coordinates; ``ValueError`` for the first
    entry whose position is not finite."""
    xs = [entry[2].x for entry in entries]
    ys = [entry[2].y for entry in entries]
    if not (all(map(math.isfinite, xs)) and all(map(math.isfinite, ys))):
        for _, node, pos, _ in entries:
            if not (math.isfinite(pos.x) and math.isfinite(pos.y)):
                raise ValueError(f"position of node {node!r} must be finite, got {pos!r}")
    return xs, ys


class ClockTree:
    """A rooted clock distribution tree with physical edge lengths."""

    def __init__(
        self, root: NodeId, root_position: Point, max_children: int = 2
    ) -> None:
        if max_children < 1:
            raise ValueError("max_children must be at least 1")
        if not (math.isfinite(root_position.x) and math.isfinite(root_position.y)):
            raise ValueError(f"root_position must be finite, got {root_position!r}")
        self._root = root
        self._max_children = max_children
        self._position: Dict[NodeId, Point] = {root: root_position}
        self._parent: Dict[NodeId, Optional[NodeId]] = {root: None}
        self._children: Dict[NodeId, List[NodeId]] = {root: []}
        # The dense insertion-order arrays (ids, parents, depths, root
        # distances, edge lengths, positions) live in a DenseTreeStore
        # shared with the LCA index: parents always precede children, and
        # the root's parent is itself (the lifting fixed point).  Single
        # source of truth for depths, root distances and edge lengths —
        # scalar queries read it too.
        self._store = DenseTreeStore(root, root_position.x, root_position.y)
        # Bumped on every structural or edge-length mutation; consumers
        # (BufferedClockTree, ECO sessions) use it as a cheap staleness
        # tripwire.
        self._version = 0
        # Lazy caches.  The LCA index re-synchronizes itself against the
        # store, so mutation never drops it; the leaves cache dies on
        # add_children and the path-metric memo dies on set_edge_length.
        self._lca_index: Optional[LiftingLCAIndex] = None
        self._leaves_cache: Optional[List[NodeId]] = None
        self._pair_ids_memo: Dict[int, tuple] = {}
        self._pair_metrics_memo: Dict[int, tuple] = {}

    # ------------------------------------------------------------------
    # construction and mutation
    # ------------------------------------------------------------------
    def add_child(
        self,
        parent: NodeId,
        node: NodeId,
        position: Point,
        length: Optional[float] = None,
    ) -> None:
        """Attach ``node`` under ``parent``: a one-node :meth:`add_children`.

        ``length`` defaults to the Manhattan distance between the two nodes'
        positions; pass an explicit value to model routed detours or
        delay-tuned wiring.  Zero lengths are allowed (a cell sitting exactly
        at a tree tap point).
        """
        self.add_children(((parent, node, position, length),))

    def add_children(self, entries: Iterable[ChildEntry]) -> None:
        """Attach a batch of ``(parent, node, position, length)`` entries.

        Each entry obeys :meth:`add_child`'s rules, as if the earlier
        entries were already attached: a parent may be an earlier entry,
        and the arity counts the batch's children too.  The whole batch is
        checked before any node is attached, so a refused batch leaves the
        tree as it was.  Positions must be finite.  :attr:`version` moves
        once per non-empty batch.

        Growing never invalidates the LCA index (it extends itself
        lazily) nor the pair-metric memos (existing nodes' root distances
        are untouched); only the leaves cache is dropped.
        """
        entries = list(entries)
        if not entries:
            return
        position, children, ids = self._position, self._children, self._store.id
        n0 = len(ids)
        batch: Dict[NodeId, int] = {}  # node -> its dense id
        room: Dict[NodeId, int] = {}  # parent -> child slots left
        parent_ids: List[int] = []
        lengths: List[float] = []
        try:
            for parent, node, pos, length in entries:
                if node in ids or node in batch:
                    raise ValueError(f"node {node!r} is already in the tree")
                pid = batch.get(parent)
                if pid is None:
                    pid = ids.get(parent)
                    if pid is None:
                        raise KeyError(f"parent {parent!r} is not in the tree")
                free = room.get(parent)
                if free is None:
                    free = self._max_children - len(children.get(parent, ()))
                if free <= 0:
                    raise ValueError(
                        f"node {parent!r} already has {self._max_children} children "
                        f"(CLK is a binary tree per A4)"
                    )
                room[parent] = free - 1
                if length is None:
                    start = position[parent] if pid < n0 else entries[pid - n0][2]
                    length = start.manhattan(pos)
                if not 0 <= length < math.inf:
                    raise ValueError("edge length must be non-negative and finite")
                batch[node] = n0 + len(parent_ids)
                parent_ids.append(pid)
                lengths.append(float(length))
        except (KeyError, ValueError):
            # One at a time, an earlier entry's bad position refuses first.
            _finite_positions(entries[: len(parent_ids)])
            raise
        xs, ys = _finite_positions(entries)
        for parent, node, pos, _ in entries:
            position[node] = pos
            self._parent[node] = parent
            children[node] = []
            children[parent].append(node)
        self._store.extend(list(batch), parent_ids, lengths, xs, ys)
        self._leaves_cache = None
        self._version += 1

    def set_edge_length(self, child: NodeId, length: float) -> None:
        """Retune the edge above ``child`` in place (the ECO *resize* edit).

        The whole subtree under ``child`` shifts by the length delta: one
        vectorized in-place add over the shared dense store, masked by the
        subtree's preorder interval in the live LCA index.  Drops the
        path-metric memo (cached ``(d, s)`` arrays are stale) but keeps
        the pair-id memo (dense ids are stable), and bumps :attr:`version`.

        Note the float caveat: the shift is applied in floating point, so
        a pair with *both* endpoints inside the subtree may still see its
        metrics move by a rounding ulp — consumers that promise bit-exact
        agreement with a fresh recompute must refresh those pairs too.
        """
        if child == self._root:
            raise ValueError("the root has no parent edge")
        if child not in self._position:
            raise KeyError(f"node {child!r} is not in the tree")
        if not 0 <= length < math.inf:
            raise ValueError("edge length must be non-negative and finite")
        store = self._store
        i = store.id[child]
        delta = float(length) - float(store.length[i])
        if delta == 0.0:
            return
        store.length[i] = float(length)
        inside = self.lca_index().subtree_mask(i)
        store.rd[inside] += delta
        self._pair_metrics_memo.clear()
        self._version += 1

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def root(self) -> NodeId:
        return self._root

    @property
    def max_children(self) -> int:
        return self._max_children

    @property
    def version(self) -> int:
        """Monotonic mutation counter (one per ``add_children`` batch or
        ``set_edge_length``)."""
        return self._version

    @property
    def dense_store(self) -> DenseTreeStore:
        """The shared dense arrays (exposed for index builds and perf
        harnesses; treat as read-only outside this module)."""
        return self._store

    def __contains__(self, node: NodeId) -> bool:
        return node in self._position

    def __len__(self) -> int:
        return len(self._position)

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._position)

    def nodes(self) -> List[NodeId]:
        return list(self._position)

    def leaves(self) -> List[NodeId]:
        """Nodes with no children.  Cached until the next ``add_children``
        (the only structural mutation); callers get a fresh copy each call."""
        if self._leaves_cache is None:
            self._leaves_cache = [n for n, ch in self._children.items() if not ch]
        return list(self._leaves_cache)

    def parent(self, node: NodeId) -> Optional[NodeId]:
        return self._parent[node]

    def children(self, node: NodeId) -> List[NodeId]:
        return list(self._children[node])

    def max_arity(self) -> int:
        """The most children any node has (A4 allows two)."""
        return max(map(len, self._children.values()))

    def children_map(self) -> Dict[NodeId, List[NodeId]]:
        """The ``children`` mapping in the form the Lemma 5 separator takes."""
        return {n: list(ch) for n, ch in self._children.items()}

    def position(self, node: NodeId) -> Point:
        return self._position[node]

    def edge_length(self, child: NodeId) -> float:
        """Length of the edge from ``child`` to its parent."""
        if child == self._root:
            raise ValueError("the root has no parent edge")
        return float(self._store.length[self._store.id[child]])

    def depth(self, node: NodeId) -> int:
        """Hop count from the root."""
        return int(self._store.depth[self._store.id[node]])

    def subtree_nodes(self, node: NodeId) -> List[NodeId]:
        out: List[NodeId] = []
        stack = [node]
        while stack:
            current = stack.pop()
            out.append(current)
            stack.extend(self._children[current])
        return out

    # ------------------------------------------------------------------
    # path metrics (the d and s of the skew models)
    # ------------------------------------------------------------------
    def root_distance(self, node: NodeId) -> float:
        """Physical length of the path from the root to ``node``."""
        return float(self._store.rd[self._store.id[node]])

    def lca(self, a: NodeId, b: NodeId) -> NodeId:
        """Lowest common ancestor of two nodes."""
        da, db = self.depth(a), self.depth(b)
        while da > db:
            a = self._parent[a]
            da -= 1
        while db > da:
            b = self._parent[b]
            db -= 1
        while a != b:
            a = self._parent[a]
            b = self._parent[b]
        return a

    def path_length(self, a: NodeId, b: NodeId) -> float:
        """``s``: physical length of the tree path between ``a`` and ``b``
        (sum of both nodes' distances to their LCA) — summation model."""
        ancestor = self.lca(a, b)
        idx = self._store.id
        rd = self._store.rd
        return float(rd[idx[a]] + rd[idx[b]] - 2.0 * rd[idx[ancestor]])

    def path_difference(self, a: NodeId, b: NodeId) -> float:
        """``d``: positive difference of root distances — difference model."""
        idx = self._store.id
        rd = self._store.rd
        return float(abs(rd[idx[a]] - rd[idx[b]]))

    # ------------------------------------------------------------------
    # batched path metrics (the vectorized kernels the skew bounds ride)
    # ------------------------------------------------------------------
    def lca_index(self) -> LiftingLCAIndex:
        """The lazily built batched LCA index (binary lifting).

        Shares the tree's dense store and re-synchronizes itself before
        every query, so it is built at most once per tree: grafts extend
        its lifting table incrementally and edge retunes flow through the
        shared root-distance buffer with no rebuild at all.  Exposed so
        callers holding many pair sets can translate nodes to dense ids
        once and query with raw arrays.
        """
        if self._lca_index is None:
            self._lca_index = LiftingLCAIndex(self._store)
        return self._lca_index

    def pair_ids(
        self, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Dense-id arrays ``(a_ids, b_ids)`` for a sequence of pairs.

        Translating node ids through the index dict is the one
        Python-speed step left in the batch kernels, so the result is
        memoized per pair-list *object* (callers like
        ``ProcessorArray.communicating_pairs`` hand out a stable cached
        list, which every skew kernel then translates exactly once).
        Dense ids are stable under every tree mutation, so the memo never
        needs invalidation.  The memo holds a strong reference to the
        list — ``id`` reuse is impossible while cached — and a (length,
        endpoints) fingerprint guards against in-place mutation; mutating
        a memoized list in place in a way that preserves both endpoints
        is undefined.
        """
        index = self.lca_index()
        key = id(pairs)
        hit = self._pair_ids_memo.get(key)
        if hit is not None:
            ref, fingerprint, a_ids, b_ids = hit
            if ref is pairs and fingerprint == _pairs_fingerprint(pairs):
                return a_ids, b_ids
        count = len(pairs)
        a_ids = index.node_ids([a for a, _ in pairs])
        b_ids = index.node_ids([b for _, b in pairs])
        a_ids.flags.writeable = False
        b_ids.flags.writeable = False
        if count and len(self._pair_ids_memo) >= 8:
            self._pair_ids_memo.clear()
        if count:
            self._pair_ids_memo[key] = (
                pairs, _pairs_fingerprint(pairs), a_ids, b_ids
            )
        return a_ids, b_ids

    def path_metrics_batch(
        self, pairs: Sequence[Tuple[NodeId, NodeId]]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(d, s)`` for every pair at once, as float64 arrays.

        ``d[i] == path_difference(*pairs[i])`` and
        ``s[i] == path_length(*pairs[i])`` exactly (same arithmetic, so
        the scalar/batch agreement is bit-for-bit, not within-epsilon).
        One index build plus one pair translation are amortized over all
        queries; like :meth:`pair_ids`, the result is memoized per
        pair-list object, so repeated bounds over the same communicating
        pairs (upper + lower, sweeps) reduce to pure model arithmetic.
        The memo is versioned against edge-length edits (the ``(d, s)``
        arrays go stale); dense-id memos survive.  The returned arrays
        are read-only.
        """
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        if not pairs:
            empty = np.empty(0, dtype=np.float64)
            return empty, empty.copy()
        key = id(pairs)
        hit = self._pair_metrics_memo.get(key)
        if hit is not None:
            ref, fingerprint, d, s = hit
            if ref is pairs and fingerprint == _pairs_fingerprint(pairs):
                return d, s
        a_ids, b_ids = self.pair_ids(pairs)
        d, s = self.lca_index().path_metrics_ids(a_ids, b_ids)
        d.flags.writeable = False
        s.flags.writeable = False
        if len(self._pair_metrics_memo) >= 8:
            self._pair_metrics_memo.clear()
        self._pair_metrics_memo[key] = (pairs, _pairs_fingerprint(pairs), d, s)
        return d, s

    def lca_batch(self, pairs: Sequence[Tuple[NodeId, NodeId]]) -> List[NodeId]:
        """Lowest common ancestor of every pair, via the batched LCA index."""
        pairs = pairs if isinstance(pairs, (list, tuple)) else list(pairs)
        if not pairs:
            return []
        index = self.lca_index()
        a_ids, b_ids = self.pair_ids(pairs)
        return [index.node(i) for i in index.lca_ids(a_ids, b_ids)]

    def longest_root_to_leaf(self) -> float:
        """``P``: the longest root-to-leaf path length, which lower-bounds
        the equipotential distribution time (A6)."""
        leaves = self.leaves()
        if not leaves:
            return 0.0
        ids = _gather_ids(self._store.id, leaves)
        return float(self._store.rd[ids].max())

    def total_wire_length(self) -> float:
        """Sum of all edge lengths; with unit wire width (A3) this is the
        clock tree's area contribution (Lemma 1's accounting)."""
        return sum(self._store.length[1:].tolist())

    # ------------------------------------------------------------------
    # validation
    # ------------------------------------------------------------------
    def is_equidistant(self, nodes: Iterable[NodeId], tolerance: float = 1e-9) -> bool:
        """True when all given nodes have equal root distance — the property
        H-tree clocking establishes so that the difference model sees d = 0."""
        nodes = nodes if isinstance(nodes, (list, tuple)) else list(nodes)
        if not nodes:
            return True
        distances = self._store.rd[_gather_ids(self._store.id, nodes)]
        return float(distances.max()) - float(distances.min()) <= tolerance

    def validate(self) -> None:
        """Check structural invariants (parent/child consistency, arity,
        root reachability) in a single O(n) pass.

        One DFS over child edges visits every node reachable from the
        root at most once; a node outside that set either sits on a
        parent cycle or hangs off a broken parent pointer, so the old
        per-node root-walk (O(n * depth)) adds nothing.
        """
        for node, kids in self._children.items():
            if len(kids) > self._max_children:
                raise AssertionError(f"node {node!r} exceeds arity")
            for kid in kids:
                if self._parent[kid] != node:
                    raise AssertionError(f"parent pointer of {kid!r} is wrong")
        reached = {self._root}
        stack = [self._root]
        while stack:
            for kid in self._children[stack.pop()]:
                if kid in reached:
                    raise AssertionError(f"{kid!r} reached twice — cycle or shared child")
                reached.add(kid)
                stack.append(kid)
        if len(reached) != len(self._position):
            stray = next(n for n in self._position if n not in reached)
            raise AssertionError(f"{stray!r} does not reach the root")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClockTree(root={self._root!r}, {len(self._position)} nodes, "
            f"P={self.longest_root_to_leaf():.3g})"
        )
