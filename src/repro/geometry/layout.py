"""Planar layouts of processor arrays (assumptions A1-A3).

A :class:`Layout` assigns each cell of a communication graph a position in
the plane.  Cells occupy unit area (A2), so a layout is *well-spaced* when no
two cells sit closer than one unit apart (in L-infinity, i.e. their unit
squares do not overlap).  Wires (A3) are rectilinear polylines of unit width;
the layout tracks them so that total area accounting (Lemma 1, Theorem 2,
Section VIII) can include wiring.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.geometry.point import BoundingBox, Point, polyline_length

CellId = Hashable


@dataclass(frozen=True)
class Wire:
    """A rectilinear wire between two cells, given by its corner points.

    ``path`` runs from the source cell's position to the target cell's
    position.  The wire's physical length is the Manhattan length of the
    polyline; with unit wire width (A3) its area is numerically equal to its
    length.
    """

    source: CellId
    target: CellId
    path: Tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.path) < 2:
            raise ValueError("a wire needs at least two path points")

    @property
    def length(self) -> float:
        return polyline_length(self.path)

    @property
    def area(self) -> float:
        """Area occupied by the wire under unit width (A3)."""
        return self.length


class Layout:
    """Positions of cells in the plane, plus optional routed wires.

    The class is deliberately permissive at construction time — schemes build
    layouts incrementally — and offers validation predicates
    (:meth:`is_well_spaced`) rather than hard constraints.
    """

    def __init__(self, positions: Optional[Dict[CellId, Point]] = None) -> None:
        self._positions: Dict[CellId, Point] = dict(positions or {})
        self._wires: List[Wire] = []

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def place(self, cell: CellId, position: Point) -> None:
        """Place (or move) ``cell`` at ``position``."""
        self._positions[cell] = position

    def place_all(self, positions: Dict[CellId, Point]) -> None:
        self._positions.update(positions)

    def add_wire(self, wire: Wire) -> None:
        for endpoint in (wire.source, wire.target):
            if endpoint not in self._positions:
                raise KeyError(f"wire endpoint {endpoint!r} is not placed")
        self._wires.append(wire)

    def route_straight(self, source: CellId, target: CellId) -> Wire:
        """Route a direct two-point wire between two placed cells and
        register it with the layout."""
        wire = Wire(source, target, (self[source], self[target]))
        self.add_wire(wire)
        return wire

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def __getitem__(self, cell: CellId) -> Point:
        return self._positions[cell]

    def __contains__(self, cell: CellId) -> bool:
        return cell in self._positions

    def __len__(self) -> int:
        return len(self._positions)

    def __iter__(self) -> Iterator[CellId]:
        return iter(self._positions)

    def cells(self) -> List[CellId]:
        return list(self._positions)

    def items(self) -> Iterable[Tuple[CellId, Point]]:
        return self._positions.items()

    def positions(self) -> Dict[CellId, Point]:
        """A copy of the cell -> position map."""
        return dict(self._positions)

    @property
    def wires(self) -> Sequence[Wire]:
        return tuple(self._wires)

    # ------------------------------------------------------------------
    # geometry
    # ------------------------------------------------------------------
    def bounding_box(self, cell_margin: float = 0.5) -> BoundingBox:
        """Bounding box of the layout.

        ``cell_margin`` accounts for unit cell area (A2): positions are cell
        centers, so each cell extends half a unit beyond its center.
        """
        if not self._positions:
            raise ValueError("empty layout has no bounding box")
        box = BoundingBox.around(self._positions.values())
        return box.expanded(cell_margin)

    @property
    def area(self) -> float:
        """Area of the bounding box including unit-cell extent."""
        return self.bounding_box().area

    @property
    def cell_area(self) -> float:
        """Total area of cells alone: one unit per cell (A2)."""
        return float(len(self._positions))

    @property
    def wire_area(self) -> float:
        """Total area of registered wires under unit width (A3)."""
        return sum(w.area for w in self._wires)

    @property
    def aspect_ratio(self) -> float:
        return self.bounding_box().aspect_ratio

    @property
    def diameter(self) -> float:
        """Manhattan diameter of the bounding box; lower-bounds the longest
        root-to-leaf clock path of any tree spanning the layout (A6)."""
        return self.bounding_box().diameter

    def distance(self, a: CellId, b: CellId) -> float:
        """Manhattan distance between two placed cells' centers."""
        return self[a].manhattan(self[b])

    def euclidean_distance(self, a: CellId, b: CellId) -> float:
        return self[a].euclidean(self[b])

    def is_well_spaced(self, min_separation: float = 1.0) -> bool:
        """True when every pair of cells is at least ``min_separation`` apart
        in L-infinity, i.e. unit-area cells (A2) do not overlap.

        Near-linear by sorting into grid buckets, so it stays usable on the
        thousands-of-cell layouts the benchmarks sweep over.  Each pair of
        cells is compared once, on coordinate tuples, so two cells placed
        on one shared :class:`Point` are a violation too.
        """
        if min_separation <= 0:
            raise ValueError("min_separation must be positive")
        limit = min_separation - 1e-9
        buckets: Dict[Tuple[int, int], List[Tuple[float, float]]] = {}
        inv = 1.0 / min_separation
        for p in self._positions.values():
            key = (int(p.x * inv // 1), int(p.y * inv // 1))
            buckets.setdefault(key, []).append((p.x, p.y))
        get = buckets.get
        for (bx, by), pts in buckets.items():
            # The bucket's later cells and the four neighbour buckets that
            # follow it: the other four see this bucket as following them.
            ahead = [*get((bx + 1, by - 1), ()), *get((bx + 1, by), ()),
                     *get((bx + 1, by + 1), ()), *get((bx, by + 1), ())]
            for i, (px, py) in enumerate(pts):
                for qx, qy in pts[i + 1:] + ahead:
                    if abs(px - qx) < limit and abs(py - qy) < limit:
                        return False
        return True

    # ------------------------------------------------------------------
    # transforms
    # ------------------------------------------------------------------
    def translated(self, dx: float, dy: float) -> "Layout":
        """A copy of this layout shifted by ``(dx, dy)``; wires move too."""
        out = Layout({c: p.translated(dx, dy) for c, p in self._positions.items()})
        for w in self._wires:
            out._wires.append(
                Wire(w.source, w.target, tuple(p.translated(dx, dy) for p in w.path))
            )
        return out

    def scaled(self, factor: float) -> "Layout":
        """A copy of this layout scaled about the origin.

        Scaling by a constant factor models the constant-factor area
        increases tolerated by Lemma 1 and Theorem 2.
        """
        if factor <= 0:
            raise ValueError("scale factor must be positive")
        out = Layout({c: p.scaled(factor) for c, p in self._positions.items()})
        for w in self._wires:
            out._wires.append(
                Wire(w.source, w.target, tuple(p.scaled(factor) for p in w.path))
            )
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Layout({len(self._positions)} cells, {len(self._wires)} wires)"
