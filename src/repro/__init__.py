"""repro — a reproduction of Fisher & Kung, "Synchronizing Large VLSI
Processor Arrays" (ISCA 1983 / IEEE TC 1985).

The library models clocked synchronization of processor arrays end to end:

* planar layouts of communication graphs (``repro.geometry``,
  ``repro.graphs``, ``repro.arrays``);
* clock distribution trees — H-trees, spines, combs, buffered/pipelined
  trees (``repro.clocktree``) — over delay and variation models
  (``repro.delay``);
* the paper's skew models, clock-period accounting, theorems, the 2D
  lower-bound proof as an executable certificate, and the hybrid
  synchronization scheme (``repro.core``);
* discrete-event simulation of clocked, self-timed, and hybrid systems,
  plus the Section VII inverter-string experiment (``repro.sim``);
* Section VIII tree machines (``repro.treemachine``) and analysis tools
  (``repro.analysis``).

Quick taste::

    from repro import linear_array, spine_clock, SummationModel, max_skew_bound

    array = linear_array(1024)
    clk = spine_clock(array)
    sigma = max_skew_bound(clk, array.communicating_pairs(), SummationModel())
    # sigma is a constant -- Theorem 3: 1D arrays clock at any size.
"""

from typing import Any, List

from repro._lazy import exports

__version__ = "1.0.0"

__all__, _load = exports(__name__, {
    "arrays.ideal": ("LockstepExecutor",),
    "arrays.model": ("ProcessorArray",),
    "arrays.systolic": (
        "build_fir_array", "build_matvec_array", "build_mesh_matmul", "build_odd_even_sorter",
    ),
    "arrays.topologies": (
        "complete_binary_tree", "hex_array", "linear_array", "mesh", "ring", "torus",
    ),
    "clocktree.buffered": ("BufferedClockTree",),
    "clocktree.tree": ("ClockTree",),
    "clocktree.spine": ("comb_linear_array", "folded_linear_array", "spine_clock"),
    "clocktree.builders": ("comm_tree_clock", "kdtree_clock", "serpentine_clock", "star_clock"),
    "clocktree.htree": ("dissection_tree_for_linear", "htree_for_array"),
    "core.parameters": ("ClockParameters", "clock_period", "equipotential_tau", "pipelined_tau"),
    "core.models": ("DifferenceModel", "PhysicalModel", "SummationModel", "max_skew_bound"),
    "core.hybrid": ("HybridScheme", "build_hybrid"),
    "core.lower_bound": ("LowerBoundCertificate", "lower_bound_value", "prove_skew_lower_bound"),
    "core.schemes": ("build_scheme",),
    "sim.clock_distribution": ("ClockSchedule",),
    "sim.clocked": ("ClockedArraySimulator",),
    "sim.inverter": ("InverterString", "paper_calibrated_model"),
    "sim.hybrid_sim": ("simulate_hybrid",),
    "sim.selftimed": ("simulate_selftimed_line", "worst_case_path_probability"),
})
__all__.append("__version__")


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
