"""Tree machines under the summation model (Section VIII).

The paper's concluding construction: a complete binary tree COMM, laid out
as an H-tree (area ``O(N)``), clocked along its data paths (legal under the
summation model), with pipeline registers added to the long upper-level
edges so that every wire segment has bounded length — giving a constant
pipeline interval with ``O(sqrt(N))`` through-delay.

* :mod:`repro.treemachine.layout` — H-tree layout of complete binary trees,
  with per-level edge lengths;
* :mod:`repro.treemachine.pipeline` — register insertion on long edges
  (same count per level), segment-length and area accounting;
* :mod:`repro.treemachine.machine` — a Bentley-Kung style searching tree
  machine that runs on the pipelined structure.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "layout": ("htree_tree_layout", "level_edge_lengths"),
    "pipeline": ("PipelinedTree", "pipeline_tree"),
    "machine": ("SearchTreeMachine",),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
