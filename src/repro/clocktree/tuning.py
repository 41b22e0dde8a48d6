"""Delay tuning: equalizing clock path lengths after the fact.

The difference model "corresponds reasonably well to the practical
situation in high-speed systems made of discrete components, where clock
trees are often wired so that delay from the root is the same for all
cells" (Section III) — i.e. designers *tune* wire lengths.  Section VII
adds the caveat: "it must be possible to closely control the 'length' ...
of the clock tree.  This is possible in systems where wires are discrete
entities that can be tuned ... Whether this is true for integrated circuits
is another question."

:func:`tune_to_equidistant` performs that tuning on any clock tree: each
cell's final edge is lengthened (delay padding — serpentine wire, trimmed
cable) until every cell sits at the same electrical distance from the root.
The point the ablation bench makes: tuning drives the *difference* metric
``d`` to zero for every scheme, but can only *increase* the *summation*
metric ``s`` — tuning is a cure exactly and only in the difference-model
world.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Optional, Tuple

from repro.clocktree.tree import ClockTree

CellId = Hashable


def tune_to_equidistant(
    tree: ClockTree,
    cells: Iterable[CellId],
    target: Optional[float] = None,
) -> Tuple[ClockTree, float]:
    """A copy of ``tree`` with each cell's parent edge padded so that all
    cells are equidistant from the root.

    Every cell must be a *leaf* of the tree (padding an internal edge would
    re-tune everything below it); the common constructions — H-tree, kd,
    spine taps, dissection — all attach cells as leaves.  ``target``
    defaults to the farthest cell's distance (tuning can only lengthen).

    Returns ``(tuned_tree, total_added_length)``; the added wire is the
    tuning's area cost under A3.
    """
    cell_list = list(cells)
    if not cell_list:
        raise ValueError("no cells to tune")
    for cell in cell_list:
        if cell not in tree:
            raise KeyError(f"cell {cell!r} is not in the tree")
        if tree.children(cell):
            raise ValueError(
                f"cell {cell!r} is not a leaf; tuning pads final edges only"
            )
        if cell == tree.root:
            raise ValueError("cannot tune the root's own edge")

    farthest = max(tree.root_distance(c) for c in cell_list)
    if target is None:
        target = farthest
    elif target < farthest - 1e-12:
        raise ValueError(
            f"target {target} below the farthest cell ({farthest}); "
            f"tuning cannot shorten wires"
        )

    # Clamp at zero: a target within the 1e-12 validation tolerance below
    # the farthest cell would otherwise yield negative padding — a tuned
    # tree with a *shortened* wire, which tuning by definition cannot do.
    padding = {
        cell: max(0.0, target - tree.root_distance(cell)) for cell in cell_list
    }
    tuned = ClockTree(
        tree.root, tree.position(tree.root), max_children=tree.max_children
    )
    tuned.add_children(
        (tree.parent(node), node, tree.position(node),
         tree.edge_length(node) + padding.get(node, 0.0))
        for node in tree.nodes()[1:]  # the root comes first
    )
    return tuned, sum(padding.values())
