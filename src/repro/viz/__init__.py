"""Visualization: ASCII renderings and SVG export of layouts and clock trees.

Dependency-free (string generation only), so it works in any environment.
The figures of the paper — H-trees over arrays (Fig. 3), spine clocks along
folded and comb layouts (Figs. 4-6), the hybrid element grid (Fig. 8) — can
be regenerated as SVG for inspection.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "ascii_art": ("render_array", "render_clock_tree", "render_layout"),
    "svg": ("figure_to_svg", "save_svg"),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
