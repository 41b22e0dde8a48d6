"""Geometric substrate: points, layouts, routing, and grid embeddings.

Implements the physical side of the paper's model: planar layouts with
unit-area cells (A2) and unit-width wires (A3), Manhattan wire routing, and
the rectangular-to-square grid embedding used by Theorem 2.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "point": (
        "ORIGIN", "BoundingBox", "Point", "circle_area", "circle_circumference", "points_within",
        "polyline_length",
    ),
    "layout": ("Layout", "Wire"),
    "routing": ("l_route", "manhattan_route_length", "snake_order", "spiral_order"),
    "embedding": ("embed_rectangle_in_square",),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
