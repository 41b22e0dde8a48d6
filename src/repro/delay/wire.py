"""Wire delay models.

Two regimes matter in the paper:

* **Repeated (buffered) wires** behave linearly in length: each constant-
  length segment contributes a constant delay (assumption A7).  Model:
  :class:`LinearWireModel` with per-unit delay ``m``.
* **Unbuffered (equipotential) wires** charge distributed RC and the delay
  grows *quadratically* in length (the Elmore delay of a distributed RC line
  is ``r * c * L^2 / 2``); this is why equipotential clock trees slow down
  as systems grow (A6) and why buffering every constant distance restores
  linearity.  Model: :class:`ElmoreWireModel`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any


class WireDelayModel:
    """Delay of a wire as a function of its physical length."""

    def delay(self, length: float) -> float:
        """Delay of one wire; refuses a negative length."""
        if length < 0:
            raise ValueError("wire length must be non-negative")
        return self.formula(length)

    def formula(self, length: Any) -> Any:
        """The model's arithmetic, unchecked: on one length, or elementwise
        on a float64 array of non-negative lengths.  It is the one
        expression both forms run, so they agree bit for bit."""
        raise NotImplementedError


@dataclass(frozen=True)
class LinearWireModel(WireDelayModel):
    """Delay ``m * length``: the buffered/repeated-wire regime.

    ``m`` is the nominal per-unit-length transmission time of Section III
    (variation around it is applied by :mod:`repro.delay.variation`).
    """

    m: float = 1.0

    def __post_init__(self) -> None:
        if not 0 < self.m < math.inf:
            raise ValueError("per-unit delay m must be positive and finite")

    def formula(self, length: Any) -> Any:
        return self.m * length


@dataclass(frozen=True)
class ElmoreWireModel(WireDelayModel):
    """Distributed-RC (Elmore) delay ``0.5 * r * c * length**2 + rc_load``.

    ``r`` and ``c`` are resistance and capacitance per unit length;
    ``driver_resistance`` and ``load_capacitance`` add the lumped
    ``R_drv * (c*L + C_load) + r*L*C_load`` terms of the standard Elmore
    expression for a driver/line/load chain.
    """

    r: float = 1.0
    c: float = 1.0
    driver_resistance: float = 0.0
    load_capacitance: float = 0.0

    def __post_init__(self) -> None:
        if self.r <= 0 or self.c <= 0:
            raise ValueError("per-unit r and c must be positive")
        if self.driver_resistance < 0 or self.load_capacitance < 0:
            raise ValueError("lumped parasitics must be non-negative")

    def formula(self, length: Any) -> Any:
        wire = 0.5 * self.r * self.c * length * length
        driver = self.driver_resistance * (self.c * length + self.load_capacitance)
        into_load = self.r * length * self.load_capacitance
        return wire + driver + into_load
