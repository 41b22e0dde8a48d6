"""Generic clock tree builders used as comparison schemes.

The lower-bound experiments (Fig. 7 bench) need a *family* of plausible
clocking schemes to minimize over: the paper's claim is that **no** clock
tree keeps communicating-cell skew bounded on a growing 2D mesh, so the
bench tries several reasonable constructions and shows the best of them
still grows like ``Omega(n)``.

* :func:`serpentine_clock` — one trunk threading the mesh in boustrophedon
  order (the direct generalization of the 1D Theorem 3 scheme).
* :func:`kdtree_clock` — balanced recursive bisection by alternating axes
  (an H-tree-like hierarchical scheme that adapts to any cell set).
* :func:`star_clock` — every cell wired straight to a central root (the
  idealized equipotential hub; non-binary, used only as a reference point).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence

from repro.arrays.model import ProcessorArray
from repro.clocktree.spine import spine_clock
from repro.clocktree.tree import ChildEntry, ClockTree
from repro.geometry.point import Point

CellId = Hashable

ROOT = "clk_root"


def serpentine_clock(array: ProcessorArray) -> ClockTree:
    """A single spine threading all cells in snake (boustrophedon) order of
    their layout positions: sweep rows bottom-to-top, alternating direction.
    """
    cells = array.comm.nodes()
    if not cells:
        raise ValueError("empty array")

    def row_key(cell: CellId) -> float:
        return array.layout[cell].y

    rows: dict = {}
    for cell in cells:
        rows.setdefault(row_key(cell), []).append(cell)
    order: List[CellId] = []
    for i, y in enumerate(sorted(rows)):
        row = sorted(rows[y], key=lambda c: array.layout[c].x, reverse=(i % 2 == 1))
        order.extend(row)
    return spine_clock(array, order=order)


def kdtree_clock(array: ProcessorArray) -> ClockTree:
    """Balanced binary bisection of the cell set by alternating axes.

    Internal nodes sit at the median split point of their cell group; each
    leaf group of one cell becomes the cell itself.  Structurally similar to
    an H-tree but defined for arbitrary cell positions; unlike the H-tree it
    does not guarantee equidistance.
    """
    cells = array.comm.nodes()
    if not cells:
        raise ValueError("empty array")
    # Coordinates as tuples, once: the sort keys of the two axes.
    xy = {c: (p.x, p.y) for c, p in zip(cells, map(array.layout.__getitem__, cells))}
    yx = {c: (y, x) for c, (x, y) in xy.items()}

    def centroid(group: Sequence[CellId]) -> Point:
        xs = [xy[c][0] for c in group]
        ys = [xy[c][1] for c in group]
        return Point(sum(xs) / len(xs), sum(ys) / len(ys))

    tree = ClockTree(ROOT, centroid(cells))
    entries: List[ChildEntry] = []
    counter = 0
    stack = [(ROOT, list(cells), 0)]
    while stack:
        parent, group, axis = stack.pop()
        if len(group) == 1:
            cell = group[0]
            entries.append((parent, cell, array.layout[cell], None))
            continue
        group.sort(key=xy.__getitem__ if axis == 0 else yx.__getitem__)
        mid = len(group) // 2
        for half in (group[:mid], group[mid:]):
            counter += 1
            node = ("kd", counter)
            entries.append((parent, node, centroid(half), None))
            stack.append((node, half, 1 - axis))
    tree.add_children(entries)
    return tree


def comm_tree_clock(array: ProcessorArray, root: Optional[CellId] = None) -> ClockTree:
    """Distribute the clock along the data paths of a tree-structured COMM.

    Section VIII: when COMM (ignoring edge directions) is a tree, clock
    events can ride the data wiring itself; communicating cells are then
    adjacent on CLK, so their ``s`` equals their wire length and the
    summation model gives skew proportional to the longest *communication*
    edge — no loss in asymptotic performance, since data incurs the same
    delay.  ``root`` defaults to the array's host.
    """
    cells = array.comm.nodes()
    if not cells:
        raise ValueError("empty array")
    root_cell = root if root is not None else (array.host or cells[0])
    if root_cell not in array.comm:
        raise ValueError(f"root {root_cell!r} is not a cell of the array")
    # Validate tree-ness: connected with exactly n-1 undirected pairs.
    pairs = array.communicating_pairs()
    if len(pairs) != len(cells) - 1 or not array.comm.is_connected():
        raise ValueError("COMM (undirected) must be a tree for comm_tree_clock")
    max_deg = array.comm.max_degree()
    tree = ClockTree(root_cell, array.layout[root_cell], max_children=max(2, max_deg))
    entries: List[ChildEntry] = []
    visited = {root_cell}
    frontier = [root_cell]
    while frontier:
        node = frontier.pop()
        for neighbor in array.comm.neighbors(node):
            if neighbor in visited:
                continue
            visited.add(neighbor)
            entries.append((node, neighbor, array.layout[neighbor], None))
            frontier.append(neighbor)
    tree.add_children(entries)
    return tree


def star_clock(array: ProcessorArray, root_position: Optional[Point] = None) -> ClockTree:
    """Every cell wired directly to a central root.

    This is the idealized equipotential hub: its ``d`` and ``s`` metrics are
    small, but its physical realizability is exactly what A6 rules out at
    scale (total wire length Theta(n * diameter), and the root must drive it
    all).  Not a binary tree; used only as a reference point.
    """
    cells = array.comm.nodes()
    if not cells:
        raise ValueError("empty array")
    if root_position is None:
        box = array.layout.bounding_box()
        root_position = box.center
    tree = ClockTree(ROOT, root_position, max_children=len(cells))
    tree.add_children((ROOT, cell, array.layout[cell], None) for cell in cells)
    return tree
