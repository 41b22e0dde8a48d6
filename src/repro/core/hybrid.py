"""Hybrid synchronization (Section VI, Fig. 8).

When pipelined clocking fails (A8 broken) or the summation-model lower
bound bites (2D arrays), the paper proposes a Seitz-style hybrid: cut the
layout into bounded-size *elements*, give each a local clock distribution
node (controller), and let controllers synchronize with their neighbors by
a self-timed handshake.  All synchronization paths are then local —
constant cycle time as the system grows — while cells inside an element are
designed as if globally clocked.  Stopping an element's clock synchronously
and restarting it asynchronously avoids flip-flop metastability at the
interface.

:func:`build_hybrid` constructs the scheme over any laid-out array;
:class:`HybridScheme` exposes the analytic cycle-time model (all terms
bounded by the element size, hence constant) and feeds the event-driven
simulation in :mod:`repro.sim.hybrid_sim`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Hashable, List, Tuple

from repro.arrays.model import ProcessorArray
from repro.delay.variation import require_finite
from repro.geometry.point import Point
from repro.graphs.comm import CommGraph

CellId = Hashable
ElementId = Tuple[int, int]


def partition_into_elements(
    array: ProcessorArray, element_size: float
) -> Dict[ElementId, List[CellId]]:
    """Cut the layout into ``element_size x element_size`` blocks.

    Returns element id (block grid coordinates) -> member cells.  Every
    element's diameter is bounded by ``2 * element_size`` regardless of
    array size — the property the whole scheme rests on.  A non-finite
    ``element_size`` raises ``ValueError``.
    """
    require_finite(element_size=element_size)
    if element_size <= 0:
        raise ValueError("element size must be positive")
    elements: Dict[ElementId, List[CellId]] = {}
    for cell in array.comm.nodes():
        p = array.layout[cell]
        eid = (int(math.floor(p.x / element_size)), int(math.floor(p.y / element_size)))
        elements.setdefault(eid, []).append(cell)
    return elements


@dataclass
class HybridScheme:
    """The element partition, the controller network, and each element's
    local clock reach (from its controller to its farthest cell)."""

    array: ProcessorArray
    element_size: float
    elements: Dict[ElementId, List[CellId]]
    element_of: Dict[CellId, ElementId]
    controllers: Dict[ElementId, Point]
    element_graph: CommGraph
    local_reach: Dict[ElementId, float]

    # ------------------------------------------------------------------
    # analytic cycle-time model
    # ------------------------------------------------------------------
    def max_local_distribution(self) -> float:
        """Longest controller-to-cell clock path over all elements; bounded
        by the element diameter, not the array size."""
        return max(self.local_reach.values(), default=0.0)

    def max_controller_distance(self) -> float:
        """Longest distance between handshaking (adjacent) controllers."""
        return max(
            (
                self.controllers[a].manhattan(self.controllers[b])
                for a, b in self.element_graph.communicating_pairs()
            ),
            default=0.0,
        )

    def cycle_time(self, delta: float, m: float = 1.0) -> float:
        """Analytic steady-state cycle time.

        One global step = handshake round trip between the farthest adjacent
        controllers (request + acknowledge: ``2 * m * d_ctrl``), plus local
        clock distribution down and the cells' compute-and-propagate time
        ``delta``, plus the local skew budget (twice the local distribution
        depth, covering a sender and a receiver in adjacent elements).  All
        four terms depend only on the element size.  Non-finite
        ``delta`` or ``m`` raises ``ValueError``.
        """
        require_finite(delta=delta, m=m)
        if delta < 0:
            raise ValueError("delta must be non-negative")
        if m <= 0:
            raise ValueError("per-unit delay must be positive")
        handshake = 2.0 * m * self.max_controller_distance()
        distribution = m * self.max_local_distribution()
        local_skew = 2.0 * m * self.max_local_distribution()
        return handshake + distribution + local_skew + delta

    def element_count(self) -> int:
        return len(self.elements)

    def largest_element(self) -> int:
        return max((len(cells) for cells in self.elements.values()), default=0)


def build_hybrid(array: ProcessorArray, element_size: float = 4.0) -> HybridScheme:
    """Partition ``array`` into elements and build the hybrid scheme.

    Controllers sit at their block's cell centroid; each element's local
    clock is a spine from its controller through its cells in scanline
    order — any local scheme works since element size is bounded — kept
    as its reach, the one number the cycle-time model reads.  Controllers
    of elements whose member cells communicate become handshake neighbors.
    """
    elements = partition_into_elements(array, element_size)
    element_of: Dict[CellId, ElementId] = {}
    controllers: Dict[ElementId, Point] = {}
    local_reach: Dict[ElementId, float] = {}

    for eid, cells in elements.items():
        for cell in cells:
            element_of[cell] = eid
        xs = [array.layout[c].x for c in cells]
        ys = [array.layout[c].y for c in cells]
        controllers[eid] = Point(sum(xs) / len(xs), sum(ys) / len(ys))
        local_reach[eid] = _spine_reach(array, cells, controllers[eid])

    element_graph = CommGraph(nodes=elements.keys())
    for u, v in array.communicating_pairs():
        eu, ev = element_of[u], element_of[v]
        if eu != ev and not element_graph.has_edge(eu, ev):
            element_graph.add_bidirectional(eu, ev)

    return HybridScheme(
        array=array,
        element_size=element_size,
        elements=elements,
        element_of=element_of,
        controllers=controllers,
        element_graph=element_graph,
        local_reach=local_reach,
    )


def _spine_reach(array: ProcessorArray, cells: List[CellId], controller: Point) -> float:
    """The length of a spine from the controller through ``cells`` in
    scanline order, summed hop by hop as a clock tree sums root distances:
    the spine's longest root-to-leaf path, bit for bit."""
    reach, at = 0.0, controller
    for cell in sorted(cells, key=lambda c: (array.layout[c].y, array.layout[c].x)):
        position = array.layout[cell]
        reach += at.manhattan(position)
        at = position
    return reach
