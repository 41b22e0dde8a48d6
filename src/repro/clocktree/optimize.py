"""Greedy clock-tree optimization: how close can a tree get to the bound?

The Section V-B lower bound says no clock tree over a 2D mesh keeps
communicating-cell skew bounded.  The benchmarks minimize over a *fixed*
menu of schemes; this module adds an adversary that *searches*: approximate
agglomerative construction that greedily merges the two clusters whose
union has the smallest diameter, producing a binary tree that keeps nearby
cells in nearby subtrees.  Its max communicating-pair ``s`` still grows
linearly on meshes (tested) — strengthening the empirical side of the
impossibility result — while on 1D arrays it rediscovers spine-like trees
with constant ``s``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Hashable, List, Tuple

from repro.arrays.model import ProcessorArray
from repro.clocktree.tree import ChildEntry, ClockTree
from repro.geometry.point import Point

CellId = Hashable


class _Cluster:
    __slots__ = ("node", "center", "count", "alive")

    def __init__(self, node: CellId, center: Point, count: int) -> None:
        self.node = node
        self.center = center
        self.count = count
        self.alive = True


def greedy_clock_tree(
    array: ProcessorArray, neighbor_candidates: int = 8
) -> ClockTree:
    """Agglomerative binary clock tree over the array's cells.

    Repeatedly merges the two clusters with the closest centers (candidate
    pairs limited to each cluster's ``neighbor_candidates`` nearest peers at
    creation time, refreshed on merge — an O(n log n)-ish approximation of
    full agglomerative clustering).  Internal nodes sit at the weighted
    centroid of their cluster.
    """
    cells = array.comm.nodes()
    if not cells:
        raise ValueError("empty array")
    if neighbor_candidates < 1:
        raise ValueError("need at least one candidate neighbor")
    if len(cells) == 1:
        tree = ClockTree("opt_root", array.layout[cells[0]])
        tree.add_children([("opt_root", cells[0], array.layout[cells[0]], 0.0)])
        return tree

    clusters: List[_Cluster] = [
        _Cluster(cell, array.layout[cell], 1) for cell in cells
    ]
    # Parent assembly: children pairs per new internal node.
    merges: List[Tuple[CellId, CellId, CellId, Point]] = []
    counter = itertools.count()

    heap: List[Tuple[float, int, int, int]] = []  # (dist, seq, i, j)
    seq = itertools.count()

    def push_candidates(i: int) -> None:
        ci = clusters[i]
        distances = []
        for j, cj in enumerate(clusters):
            if j == i or not cj.alive:
                continue
            distances.append((ci.center.manhattan(cj.center), j))
        distances.sort()
        for dist, j in distances[:neighbor_candidates]:
            heapq.heappush(heap, (dist, next(seq), i, j))

    for i in range(len(clusters)):
        push_candidates(i)

    alive_count = len(clusters)
    while alive_count > 1:
        while True:
            if not heap:
                # Refresh: candidates exhausted (stale entries); rebuild.
                for i, c in enumerate(clusters):
                    if c.alive:
                        push_candidates(i)
            dist, _s, i, j = heapq.heappop(heap)
            if clusters[i].alive and clusters[j].alive:
                break
        a, b = clusters[i], clusters[j]
        total = a.count + b.count
        center = Point(
            (a.center.x * a.count + b.center.x * b.count) / total,
            (a.center.y * a.count + b.center.y * b.count) / total,
        )
        new_node: CellId = ("opt", next(counter))
        merges.append((new_node, a.node, b.node, center))
        a.alive = False
        b.alive = False
        clusters.append(_Cluster(new_node, center, total))
        push_candidates(len(clusters) - 1)
        alive_count -= 1

    # The last merge's node is the root; build the ClockTree top-down.
    root_node, _, _, root_center = merges[-1]
    tree = ClockTree(root_node, root_center)
    child_map: Dict[CellId, Tuple[CellId, CellId]] = {
        node: (left, right) for node, left, right, _c in merges
    }
    position: Dict[CellId, Point] = {cell: array.layout[cell] for cell in cells}
    for node, _l, _r, c in merges:
        position[node] = c

    entries: List[ChildEntry] = []
    stack: List[CellId] = [root_node]
    while stack:
        node = stack.pop()
        for child in child_map.get(node, ()):  # leaves have no entry
            entries.append((node, child, position[child], None))
            if child in child_map:
                stack.append(child)
    tree.add_children(entries)
    return tree


def max_pair_path_length(tree: ClockTree, array: ProcessorArray) -> float:
    """Largest tree-path ``s`` over communicating pairs — the quantity the
    summation model turns into skew."""
    return max(
        (tree.path_length(a, b) for a, b in array.communicating_pairs()),
        default=0.0,
    )
