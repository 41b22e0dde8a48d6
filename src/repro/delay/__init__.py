"""Delay substrate: wire delay models, buffers, and process variation.

The paper treats transmission delay as proportional to wire length ("we
choose to treat them together as a 'distance' metric", Section II) and
derives its skew models from per-unit-length delay ``m ± epsilon``
(Section III).  This package supplies those delay models, an Elmore RC model
for the equipotential-clocking comparisons, buffer/inverter elements with
rising/falling-edge asymmetry (Section VII), and random variation processes
used to break the time-invariance assumption A8 in experiments.
"""

from typing import Any, List

from repro._lazy import exports

__all__, _load = exports(__name__, {
    "wire": ("ElmoreWireModel", "LinearWireModel", "WireDelayModel"),
    "buffer": ("Buffer", "InverterPairModel"),
    "variation": (
        "BoundedUniformVariation", "GaussianVariation", "NoVariation", "SpatialGradientVariation",
        "VariationProcess",
    ),
})


def __getattr__(name: str) -> Any:
    return _load(name)


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(__all__))
