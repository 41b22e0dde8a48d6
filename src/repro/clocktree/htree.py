"""H-tree clock distribution (Fig. 3, Lemma 1).

The H-tree recursively halves the layout region, placing each tree node at
its region's center; by symmetry every leaf is exactly the same physical
distance from the root, so under the difference model (A9) the skew between
*any* two cells is ``f(0)`` — a constant (Theorem 2).

The same construction applied to a one-dimensional array (Fig. 3(a)) is the
paper's cautionary example: neighbors that straddle a high split of the
dissection have a *tree-path* separation proportional to the array length,
so the scheme fails under the summation model (Section V opening remark).
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Tuple

from repro.arrays.model import ProcessorArray
from repro.clocktree.tree import ChildEntry, ClockTree
from repro.geometry.point import Point

CellId = Hashable

ROOT = "clk_root"


def _next_power_of_two(n: int) -> int:
    if n < 1:
        raise ValueError("need a positive size")
    return 1 << (n - 1).bit_length()


def htree(rows: int, cols: int, spacing: float = 1.0) -> ClockTree:
    """An H-tree over a ``rows x cols`` grid of leaf points.

    ``rows`` and ``cols`` must be powers of two (pad with
    :func:`htree_for_grid` otherwise).  Leaf ``("leaf", r, c)`` sits at
    ``(c * spacing, r * spacing)``; internal nodes at region centers.  All
    leaves are equidistant from the root (asserted in tests, Lemma 1).
    """
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be positive")
    if rows & (rows - 1) or cols & (cols - 1):
        raise ValueError("htree needs power-of-two dimensions; use htree_for_grid")
    if spacing <= 0:
        raise ValueError("spacing must be positive")

    def center(r0: int, r1: int, c0: int, c1: int) -> Point:
        return Point((c0 + c1 - 1) / 2.0 * spacing, (r0 + r1 - 1) / 2.0 * spacing)

    tree = ClockTree(ROOT, center(0, rows, 0, cols))
    if rows == 1 and cols == 1:
        tree.add_children([(ROOT, ("leaf", 0, 0), center(0, 1, 0, 1), 0.0)])
        return tree

    # Iterative recursion over half-open index regions [r0, r1) x [c0, c1).
    entries: List[ChildEntry] = []
    stack = [(ROOT, 0, rows, 0, cols)]
    counter = 0
    while stack:
        node, r0, r1, c0, c1 = stack.pop()
        height, width = r1 - r0, c1 - c0
        if height == 1 and width == 1:
            continue  # node already is the leaf for this unit region
        # Split the longer dimension (ties split columns first) so sibling
        # subtrees are congruent and root distances stay equal.
        if width >= height:
            mid = c0 + width // 2
            regions = ((r0, r1, c0, mid), (r0, r1, mid, c1))
        else:
            mid = r0 + height // 2
            regions = ((r0, mid, c0, c1), (mid, r1, c0, c1))
        for region in regions:
            rr0, rr1, cc0, cc1 = region
            if rr1 - rr0 == 1 and cc1 - cc0 == 1:
                child: CellId = ("leaf", rr0, cc0)
            else:
                counter += 1
                child = ("h", counter)
            entries.append((node, child, center(rr0, rr1, cc0, cc1), None))
            stack.append((child, rr0, rr1, cc0, cc1))
    tree.add_children(entries)
    return tree


def htree_for_grid(rows: int, cols: int, spacing: float = 1.0) -> ClockTree:
    """An H-tree covering a grid of arbitrary dimensions by padding each
    dimension up to a power of two (constant-factor area increase, the
    padding tolerated by Lemma 1)."""
    return htree(_next_power_of_two(rows), _next_power_of_two(cols), spacing)


def htree_for_array(
    array: ProcessorArray, spacing: float = 1.0, grid_shape: Optional[Tuple[int, int]] = None
) -> ClockTree:
    """H-tree clocking an array whose cells sit on integer grid positions.

    Builds the padded H-tree and grafts each cell as a zero-length child of
    the leaf at its position, so every cell keeps the equidistance property.
    Cells must lie on the ``spacing`` grid (mesh/hex/linear generators do).
    """
    if grid_shape is None:
        max_r = max_c = 0
        for cell in array.comm.nodes():
            p = array.layout[cell]
            max_c = max(max_c, int(round(p.x / spacing)))
            max_r = max(max_r, int(round(p.y / spacing)))
        grid_shape = (max_r + 1, max_c + 1)
    tree = htree_for_grid(grid_shape[0], grid_shape[1], spacing)
    entries: List[ChildEntry] = []
    for cell in array.comm.nodes():
        p = array.layout[cell]
        c = int(round(p.x / spacing))
        r = int(round(p.y / spacing))
        if abs(p.x - c * spacing) > 1e-9 or abs(p.y - r * spacing) > 1e-9:
            raise ValueError(f"cell {cell!r} is off the clocking grid")
        leaf = ("leaf", r, c)
        if leaf not in tree:
            raise ValueError(f"no H-tree leaf at grid position {(r, c)}")
        entries.append((leaf, cell, p, 0.0))
    tree.add_children(entries)
    return tree


def dissection_tree_for_linear(array: ProcessorArray) -> ClockTree:
    """The Fig. 3(a) scheme: a balanced binary dissection of a linear array.

    All cells end up equidistant from the root (good under the difference
    model), but the two cells adjacent across the top-level split are
    connected by a tree path spanning the whole array — the summation-model
    failure the paper points out in Section V.

    Cells are assumed to be the integers ``0 .. n-1`` in data order, as the
    :func:`repro.arrays.topologies.linear_array` generator produces.  Exact
    equidistance of the cells holds for power-of-two ``n`` (odd splits make
    sibling region centers asymmetric); pad the array when d = 0 matters.
    """
    cells = sorted(array.comm.nodes())
    n = len(cells)
    if n < 1:
        raise ValueError("empty array")

    def midpoint(lo: int, hi: int) -> Point:
        a = array.layout[cells[lo]]
        b = array.layout[cells[hi - 1]]
        return a.midpoint(b)

    tree = ClockTree(ROOT, midpoint(0, n))
    entries: List[ChildEntry] = []
    stack = [(ROOT, 0, n)]
    counter = 0
    while stack:
        node, lo, hi = stack.pop()
        if hi - lo == 1:
            entries.append((node, cells[lo], array.layout[cells[lo]], 0.0))
            continue
        mid = lo + (hi - lo) // 2
        for part in ((lo, mid), (mid, hi)):
            counter += 1
            child = ("d", counter)
            entries.append((node, child, midpoint(*part), None))
            stack.append((child, part[0], part[1]))
    tree.add_children(entries)
    return tree
