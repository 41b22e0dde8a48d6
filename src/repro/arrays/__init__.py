"""Processor arrays: topologies, processing elements, and ideal execution.

An *ideally synchronized* processor array (assumption A1) is a communication
graph whose cells all fire in lock step.  This package provides the array
topologies the paper discusses (linear, mesh, hexagonal, torus, tree), a
small processing-element framework, a lockstep reference executor, and the
classical systolic workloads used by the examples and benchmarks.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "model": ("ProcessorArray",),
    "topologies": ("complete_binary_tree", "hex_array", "linear_array", "mesh", "ring", "torus"),
    "cells": ("PE", "ConstantCell", "DelayCell", "RecordingSink", "ScriptedSource"),
    "ideal": ("LockstepExecutor",),
    "networks": ("butterfly", "cube_connected_cycles", "shuffle_exchange"),
    "priority_queue": ("build_priority_queue", "reference_priority_queue"),
    "systolic": (
        "FirCell", "MatVecCell", "build_fir_array", "build_matvec_array", "build_odd_even_sorter",
        "build_mesh_matmul",
    ),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
