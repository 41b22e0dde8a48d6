"""The :class:`ProcessorArray` bundle: a COMM graph plus its planar layout.

Assumption A1 ties the communication graph to a layout in the plane; skew
models and clocking schemes need both, so topology generators return them
together.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable, List, Optional, Tuple

from repro.geometry.layout import Layout
from repro.graphs.comm import CommGraph

CellId = Hashable


@dataclass
class ProcessorArray:
    """A laid-out processor array.

    ``host`` optionally names the cell through which the array talks to the
    outside world (relevant to the Fig. 5 folding discussion, where skew
    between the host and the array ends matters).
    """

    comm: CommGraph
    layout: Layout
    name: str = "array"
    host: Optional[CellId] = None
    _pairs_cache: Optional[Tuple[int, List[Tuple[CellId, CellId]]]] = field(
        default=None, init=False, repr=False, compare=False
    )
    _distances_cache: Optional[Tuple[int, Any]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        missing = [cell for cell in self.comm.nodes() if cell not in self.layout]
        if missing:
            raise ValueError(
                f"{len(missing)} cells of {self.name!r} have no layout position "
                f"(first: {missing[0]!r})"
            )

    @property
    def size(self) -> int:
        return self.comm.node_count

    def communicating_pairs(self) -> List[Tuple[CellId, CellId]]:
        """The undirected pair set of ``comm``, cached per graph version.

        Keyed on ``comm.version`` so mutating the graph (``add_edge`` /
        ``add_node``) transparently invalidates it.  The returned list is
        shared across calls — treat it as read-only; copy before mutating.
        """
        if self._pairs_cache is None or self._pairs_cache[0] != self.comm.version:
            self._pairs_cache = (self.comm.version, self.comm.communicating_pairs())
        return self._pairs_cache[1]

    def edge_distances(self) -> Any:
        """Manhattan distance of every directed COMM edge, in
        ``comm.edges()`` order: a read-only float64 array, each entry
        bit-equal to ``layout.distance(u, v)``.  Cached per graph version,
        as :meth:`communicating_pairs` is; cells do not move once the
        array is built."""
        if self._distances_cache is None or self._distances_cache[0] != self.comm.version:
            import numpy as np  # here: importing the array loads no numpy

            low = self.comm.lowering()
            points = list(map(self.layout.__getitem__, low.cells))
            x = np.array([p.x for p in points], dtype=np.float64)
            y = np.array([p.y for p in points], dtype=np.float64)
            src, dst = low.chan_src, low.chan_dst
            distances = np.abs(x[src] - x[dst]) + np.abs(y[src] - y[dst])
            distances.flags.writeable = False
            self._distances_cache = (self.comm.version, distances)
        return self._distances_cache[1]

    def max_communication_distance(self) -> float:
        """Longest Manhattan distance between communicating cells.

        Bounds the data-propagation component of the cycle (the delta of
        assumption A5) under distance-proportional wire delay.
        """
        return max(
            (self.layout.distance(u, v) for u, v in self.communicating_pairs()),
            default=0.0,
        )

    def validate(self, min_separation: float = 1.0) -> None:
        """Raise if the array violates the layout assumptions (A2)."""
        if not self.comm.is_connected():
            raise ValueError(f"{self.name!r} communication graph is disconnected")
        if not self.layout.is_well_spaced(min_separation):
            raise ValueError(
                f"{self.name!r} layout places cells closer than {min_separation}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProcessorArray({self.name!r}, {self.size} cells)"
