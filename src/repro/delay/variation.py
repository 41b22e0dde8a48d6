"""Process variation models.

Section III derives the skew models from per-unit-length transmission time
between ``m - epsilon`` and ``m + epsilon``: "small variations in electrical
characteristics along clock lines can build up unpredictably to produce
skews even between wires of the same length".  A :class:`VariationProcess`
samples the actual per-unit delay of each wire segment; drawing one sample
per segment and summing reproduces exactly that build-up, which the
benchmarks compare against the difference/summation model bounds.

All processes are seeded and deterministic given the seed (reproducible
experiments; also required for assumption A8, time-invariance — a segment's
delay is sampled once, not per clock event; breaking A8 is modelled
explicitly by :meth:`VariationProcess.resample`).

Every parameter must be finite: a NaN or infinite ``m``, ``sigma`` or
gradient would otherwise reach the delays silently (a NaN noise clamps to
the floor, for one).
"""

from __future__ import annotations

import math
import random
from typing import Optional

import numpy as np


def require_finite(**params: float) -> None:
    """Raise ``ValueError`` naming the first parameter that is NaN or
    infinite."""
    for name, value in params.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")


class VariationProcess:
    """Samples the per-unit-length delay of successive wire segments."""

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    def sample(self) -> float:
        """Per-unit delay for the next wire segment."""
        raise NotImplementedError

    def sample_at(self, x: float, y: float) -> float:
        """Per-unit delay for a segment centered at ``(x, y)``.

        Default: position-independent (delegates to :meth:`sample`).
        Spatially correlated processes override this — process gradients
        across a wafer make nearby wires similar and far wires different,
        which is what distinguishes the difference model's tunable world
        from the summation model's accumulating one.
        """
        return self.sample()

    def sample_at_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """:meth:`sample_at` at every ``(xs[i], ys[i])`` in order: the
        stream's next ``len(xs)`` samples, as one array."""
        return np.array(list(map(self.sample_at, xs.tolist(), ys.tolist())),
                        dtype=np.float64)

    def reset(self) -> None:
        """Restart the sample stream (same seed, same delays — A8 holds)."""
        self._rng = random.Random(self._seed)

    def resample(self, new_seed: int) -> None:
        """Re-seed: models a change of physical conditions (A8 broken)."""
        self._seed = new_seed
        self._rng = random.Random(new_seed)


class NoVariation(VariationProcess):
    """Deterministic per-unit delay ``m`` — the difference-model idealization
    (epsilon = 0)."""

    def __init__(self, m: float = 1.0) -> None:
        super().__init__(seed=0)
        if m <= 0:
            raise ValueError("per-unit delay m must be positive")
        require_finite(m=m)
        self.m = m

    def sample(self) -> float:
        return self.m


class BoundedUniformVariation(VariationProcess):
    """Per-unit delay uniform in ``[m - epsilon, m + epsilon]`` — the exact
    Section III hypothesis behind the summation model."""

    def __init__(self, m: float = 1.0, epsilon: float = 0.1, seed: int = 0) -> None:
        super().__init__(seed=seed)
        if m <= 0:
            raise ValueError("per-unit delay m must be positive")
        if not 0 <= epsilon < m:
            raise ValueError("epsilon must satisfy 0 <= epsilon < m (delay stays positive)")
        require_finite(m=m)
        self.m = m
        self.epsilon = epsilon

    def sample(self) -> float:
        return self._rng.uniform(self.m - self.epsilon, self.m + self.epsilon)

    def sample_at_batch(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        # random.uniform(a, b) is a + (b - a) * random(): the same floats.
        lo, hi = self.m - self.epsilon, self.m + self.epsilon
        draw = self._rng.random
        return lo + (hi - lo) * np.array([draw() for _ in range(len(xs))],
                                         dtype=np.float64)


class GaussianVariation(VariationProcess):
    """Per-unit delay ``N(m, sigma^2)``, truncated away from zero.

    Section VII's inverter-string analysis assumes normally distributed
    stage discrepancies; this is the wire-segment analogue.  Samples below
    ``floor * m`` are clamped so delays stay physical.
    """

    def __init__(
        self, m: float = 1.0, sigma: float = 0.05, seed: int = 0, floor: float = 0.1
    ) -> None:
        super().__init__(seed=seed)
        if m <= 0:
            raise ValueError("per-unit delay m must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not 0 < floor < 1:
            raise ValueError("floor must be in (0, 1)")
        require_finite(m=m, sigma=sigma)
        self.m = m
        self.sigma = sigma
        self.floor = floor

    def sample(self) -> float:
        return max(self.floor * self.m, self._rng.gauss(self.m, self.sigma))


class SpatialGradientVariation(VariationProcess):
    """Per-unit delay with a systematic spatial gradient plus local noise.

    ``delay(x, y) = m * (1 + gx * x + gy * y) + N(0, sigma^2)``, clamped to
    stay positive.  Models wafer-scale process gradients (oxide thickness,
    temperature): the *systematic* part is exactly what clock tree tuning
    can compensate (difference-model world), while the noise part
    accumulates along paths (summation-model world).
    """

    def __init__(
        self,
        m: float = 1.0,
        gx: float = 0.0,
        gy: float = 0.0,
        sigma: float = 0.0,
        seed: int = 0,
        floor: float = 0.1,
    ) -> None:
        super().__init__(seed=seed)
        if m <= 0:
            raise ValueError("per-unit delay m must be positive")
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        if not 0 < floor < 1:
            raise ValueError("floor must be in (0, 1)")
        require_finite(m=m, gx=gx, gy=gy, sigma=sigma)
        self.m = m
        self.gx = gx
        self.gy = gy
        self.sigma = sigma
        self.floor = floor

    def sample(self) -> float:
        """Position-free fallback: the nominal delay plus noise."""
        noise = self._rng.gauss(0.0, self.sigma) if self.sigma > 0 else 0.0
        return max(self.floor * self.m, self.m + noise)

    def sample_at(self, x: float, y: float) -> float:
        noise = self._rng.gauss(0.0, self.sigma) if self.sigma > 0 else 0.0
        value = self.m * (1.0 + self.gx * x + self.gy * y) + noise
        return max(self.floor * self.m, value)
