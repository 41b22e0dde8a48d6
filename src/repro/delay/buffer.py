"""Buffers and inverter pairs (Section VII circuit elements).

Pipelined clocking replaces long wires with strings of buffers spaced a
constant distance apart (assumption A7).  Section VII discusses two circuit
realizations and their edge-uniformity problems:

* a *superbuffer* whose rising and falling transit times differ by a design
  bias (hard to tune, process-sensitive), and
* an *inverter pair* whose rising/falling discrepancy is a zero-mean random
  variable with variance ``V``; over ``n`` pairs the discrepancies sum to a
  random walk with variance ``n * V`` — the source of the paper's
  square-root-of-n cycle-time scaling.

:class:`Buffer` carries separate rise/fall delays; :class:`InverterPairModel`
samples them for a whole string.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.delay.variation import require_finite


@dataclass(frozen=True)
class Buffer:
    """A clock buffer with distinct rising/falling edge propagation delays."""

    delay_rise: float
    delay_fall: float

    def __post_init__(self) -> None:
        if self.delay_rise <= 0 or self.delay_fall <= 0:
            raise ValueError("buffer delays must be positive")

    @property
    def discrepancy(self) -> float:
        """Rising-minus-falling transit time; the per-stage random-walk step
        of the Section VII analysis."""
        return self.delay_rise - self.delay_fall

    @property
    def mean_delay(self) -> float:
        return 0.5 * (self.delay_rise + self.delay_fall)

    @property
    def max_delay(self) -> float:
        return max(self.delay_rise, self.delay_fall)

    def delay(self, rising: bool) -> float:
        return self.delay_rise if rising else self.delay_fall


class InverterPairModel:
    """Samples the buffers of an inverter string.

    Each stage's nominal delay is ``nominal``; the rising edge is slowed and
    the falling edge sped (or vice versa) by half of ``bias + noise``, where
    ``noise ~ N(0, sqrt(variance))`` per stage.  ``bias`` models the fixed
    design asymmetry that dominated the paper's measured chips ("the effect
    of the bias in the circuit design dominated the ... probabilistic
    effects").
    """

    def __init__(
        self,
        nominal: float = 1.0,
        bias: float = 0.0,
        variance: float = 0.0,
        seed: int = 0,
    ) -> None:
        if nominal <= 0:
            raise ValueError("nominal stage delay must be positive")
        if variance < 0:
            raise ValueError("variance must be non-negative")
        require_finite(nominal=nominal, bias=bias, variance=variance)
        self.nominal = nominal
        self.bias = bias
        self.variance = variance
        self._seed = seed
        self._rng = random.Random(seed)

    def reset(self) -> None:
        """Rewind the sample stream to its seed, so a replay draws the
        identical delays (what makes a rebuild of a buffered tree
        deterministic — assumption A8 by construction)."""
        self._rng = random.Random(self._seed)

    def reseeded(self, seed: int) -> "InverterPairModel":
        """The same model parameters over a fresh seed (for resampling)."""
        return InverterPairModel(
            nominal=self.nominal, bias=self.bias, variance=self.variance, seed=seed
        )

    def draw(self) -> Tuple[float, float]:
        """The next stage's ``(rise, fall)`` delays as plain floats: the
        stream :meth:`sample_stage` reads, without building a
        :class:`Buffer`."""
        noise = self._rng.gauss(0.0, self.variance**0.5) if self.variance > 0 else 0.0
        discrepancy = self.bias + noise
        half = 0.5 * discrepancy
        rise = max(1e-6 * self.nominal, self.nominal + half)
        fall = max(1e-6 * self.nominal, self.nominal - half)
        return rise, fall

    def draw_batch(self, k: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next ``k`` stages' rise and fall delays as two arrays: the
        floats ``k`` calls of :meth:`draw` return, in order."""
        if self.variance > 0:
            stages = np.array([self.draw() for _ in range(k)], dtype=np.float64)
            stages = stages.reshape(k, 2)
            return stages[:, 0], stages[:, 1]
        rise, fall = self.draw()  # noiseless: every stage alike, no draw
        return np.full(k, rise), np.full(k, fall)

    def sample_stage(self) -> Buffer:
        rise, fall = self.draw()
        return Buffer(delay_rise=rise, delay_fall=fall)

    def sample_string(self, n: int) -> List[Buffer]:
        if n < 1:
            raise ValueError("string needs at least one stage")
        return [self.sample_stage() for _ in range(n)]
