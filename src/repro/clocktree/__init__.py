"""Clock distribution trees (assumption A4) and their construction.

``CLK`` is a rooted binary tree laid out in the plane; a cell can be clocked
if it is a node of CLK.  This package provides the tree structure with the
two path metrics the skew models consume (``d`` = difference of root
distances, ``s`` = tree path length), plus the constructions the paper
studies: H-trees (Fig. 3), spine/folded/comb schemes for one-dimensional
arrays (Figs. 4-6), buffered (pipelined) distribution (A7), and generic
builders (serpentine, k-d, star) used as comparison points in the
lower-bound experiments.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "tree": ("ClockTree",),
    "htree": ("dissection_tree_for_linear", "htree", "htree_for_array", "htree_for_grid"),
    "spine": ("comb_linear_array", "folded_linear_array", "spine_clock", "tapped_trunk"),
    "buffered": ("BufferedClockTree",),
    "builders": ("comm_tree_clock", "kdtree_clock", "serpentine_clock", "star_clock"),
    "optimize": ("greedy_clock_tree", "max_pair_path_length"),
    "tuning": ("tune_to_equidistant",),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
