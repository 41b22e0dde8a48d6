"""Graph substrate: COMM graphs, bisection width, tree separators.

Implements assumption A1 (directed communication graphs), Lemma 4 (mesh
bisection width) and its algorithmic generalizations, and Lemma 5 (the tree
edge separator used by the Section V-B lower-bound proof).
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "comm": ("CommGraph",),
    "bisection": (
        "BisectionResult", "bisection_width_exact", "bisection_width_kernighan_lin",
        "bisection_width_spectral", "bisection_width_upper_bound", "mesh_bisection_lower_bound",
    ),
    "separators": ("SeparatorResult", "tree_edge_separator"),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
