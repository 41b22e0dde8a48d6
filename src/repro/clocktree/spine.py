"""Spine clocking for one-dimensional arrays (Figs. 4-6, Theorem 3).

The Theorem 3 scheme runs a single clock wire *along* the array: the clock
tree is a trunk path with a short tap to each cell, so any two communicating
cells are connected by a tree path of constant length — constant skew under
the summation model (A10), hence a size-independent clock period.

Variants:

* :func:`spine_clock` — trunk along an arbitrary cell order (for a linear
  array, data order; Fig. 4(b)).
* :func:`folded_linear_array` — the Fig. 5 fold: the array doubles back so
  both ends sit next to the host, and the trunk runs along the fold with
  cells of both rows tapping at the same trunk station; host-to-end skew
  becomes constant too.
* :func:`comb_linear_array` — the Fig. 6 comb: the serpentine embedding
  that gives a 1D array any desired aspect ratio while neighbors stay
  adjacent, so the same spine scheme applies.
"""

from __future__ import annotations

from typing import Hashable, List, Optional, Sequence, Tuple

from repro.arrays.model import ProcessorArray
from repro.clocktree.tree import ChildEntry, ClockTree
from repro.geometry.layout import Layout
from repro.geometry.point import Point
from repro.graphs.comm import CommGraph

CellId = Hashable

ROOT = "clk_root"


def spine_clock(
    array: ProcessorArray,
    order: Optional[Sequence[CellId]] = None,
    root_position: Optional[Point] = None,
    tap_length: float = 0.0,
) -> ClockTree:
    """A trunk-with-taps clock tree threading the cells in ``order``.

    The trunk is a path of tap stations, one directly at (or near) each cell;
    cell ``order[i]`` hangs off station ``i`` by an edge of ``tap_length``.
    For a linear array in data order this is exactly the Fig. 4(b) wire-
    along-the-array scheme.  Defaults: ``order`` sorts integer cell ids (the
    linear generator's order); the root sits at the first cell's position
    (where the host drives the clock in).
    """
    cells = list(order) if order is not None else sorted(array.comm.nodes())
    if not cells:
        raise ValueError("empty array")
    first = array.layout[cells[0]]
    tree = ClockTree(ROOT, root_position if root_position is not None else first)
    entries: List[ChildEntry] = []
    previous = ROOT
    for i, cell in enumerate(cells):
        station = ("tap", i)
        position = array.layout[cell]
        entries += [(previous, station, position, None),
                    (station, cell, position, tap_length)]
        previous = station
    tree.add_children(entries)
    return tree


def tapped_trunk(
    trunk_points: Sequence[Point],
    taps: Sequence[Tuple[CellId, int, Point, float]],
) -> ClockTree:
    """A general trunk-with-taps tree.

    ``trunk_points`` are the successive positions of the trunk stations;
    each tap is ``(cell, station_index, cell_position, tap_length)``.  Used
    by the folded layout where two cells share a station.  When a station
    would exceed binary arity (trunk continuation plus several taps), a
    zero-length *tap bus* node is inserted; zero-length edges do not change
    any ``s`` or ``d`` metric, so the skew analysis is unaffected.
    """
    if not trunk_points:
        raise ValueError("trunk needs at least one point")
    tree = ClockTree(ROOT, trunk_points[0])
    stations: List[CellId] = [ROOT]
    entries: List[ChildEntry] = []
    for i, p in enumerate(trunk_points[1:], start=1):
        entries.append((stations[-1], ("tap", i), p, None))
        stations.append(("tap", i))
    # Every station but the last spends one slot on the trunk.
    taken = {station: 1 for station in stations[:-1]}
    position = dict(zip(stations, trunk_points))

    # Group taps per station, then attach through zero-length buses as needed.
    groups: dict = {}
    for cell, station_index, cell_position, tap_length in taps:
        groups.setdefault(station_index, []).append((cell, cell_position, tap_length))
    for station_index, group in groups.items():
        anchor: CellId = stations[station_index]
        pending = list(group)
        bus_counter = 0
        while pending:
            free = tree.max_children - taken.get(anchor, 0)
            if free <= 0:
                raise ValueError(f"station {station_index} has no free tap slot")
            # Attach what fits, minus one slot reserved for a bus when
            # more remain.
            fits = len(pending) if len(pending) <= free else free - 1
            entries += [(anchor, cell, at, tap_length)
                        for cell, at, tap_length in pending[:fits]]
            pending = pending[fits:]
            taken[anchor] = taken.get(anchor, 0) + fits + bool(pending)
            if pending:
                bus = ("tapbus", station_index, bus_counter)
                bus_counter += 1
                entries.append((anchor, bus, position[anchor], 0.0))
                position[bus] = position[anchor]
                anchor = bus
    tree.add_children(entries)
    return tree


def folded_linear_array(n: int, spacing: float = 1.0) -> Tuple[ProcessorArray, ClockTree]:
    """The Fig. 5 folded one-dimensional array with its spine clock.

    Cells ``0 .. n-1``: the first half runs right along row 0, the second
    half returns left along row 1, so cells ``i`` and ``n-1-i`` share a
    column and both ends (0 and n-1) sit next to the host at column 0.  The
    clock trunk runs along the fold (between the rows); at column ``x`` both
    resident cells tap the same station, so the tree-path between *any*
    communicating pair — including host-to-end — is bounded by a constant.
    """
    if n < 2:
        raise ValueError("folding needs at least two cells")
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    half = (n + 1) // 2

    comm = CommGraph(nodes=range(n))
    layout = Layout()
    for i in range(n):
        if i < half:
            layout.place(i, Point(i * spacing, 0.0))
        else:
            layout.place(i, Point((n - 1 - i) * spacing, spacing))
    for i in range(n - 1):
        comm.add_bidirectional(i, i + 1)
    host = "host"
    layout.place(host, Point(-spacing, spacing / 2.0))
    comm.add_bidirectional(host, 0)
    comm.add_bidirectional(n - 1, host)
    array = ProcessorArray(comm, layout, name=f"folded-linear-{n}", host=host)

    # Trunk along the fold line y = spacing/2, one station per column, with
    # station 0 at the host.
    trunk = [Point(-spacing, spacing / 2.0)] + [
        Point(x * spacing, spacing / 2.0) for x in range(half)
    ]
    taps: List[Tuple[CellId, int, Point, float]] = [(host, 0, layout[host], 0.0)]
    for i in range(n):
        column = i if i < half else n - 1 - i
        taps.append((i, column + 1, layout[i], spacing / 2.0))
    return array, tapped_trunk(trunk, taps)


def comb_linear_array(
    n: int, tooth_height: int, spacing: float = 1.0
) -> Tuple[ProcessorArray, ClockTree]:
    """The Fig. 6 comb embedding of a linear array, with its spine clock.

    Each comb tooth holds ``2 * tooth_height`` cells (down one column, up the
    next); consecutive cells remain grid-adjacent, so running the clock along
    the data path keeps neighbor skew constant while the bounding box is
    roughly ``(n / tooth_height) x tooth_height`` — any aspect ratio.
    """
    if n < 1:
        raise ValueError("need at least one cell")
    if tooth_height < 1:
        raise ValueError("tooth height must be at least 1")
    if spacing <= 0:
        raise ValueError("spacing must be positive")

    comm = CommGraph(nodes=range(n))
    layout = Layout()
    per_tooth = 2 * tooth_height
    for i in range(n):
        tooth, offset = divmod(i, per_tooth)
        if offset < tooth_height:  # descending column
            col, row = 2 * tooth, offset
        else:  # ascending column
            col, row = 2 * tooth + 1, per_tooth - 1 - offset
        layout.place(i, Point(col * spacing, row * spacing))
    for i in range(n - 1):
        comm.add_bidirectional(i, i + 1)
    array = ProcessorArray(comm, layout, name=f"comb-{n}x{tooth_height}", host=0)
    tree = spine_clock(array, order=range(n))
    return array, tree
