"""Unit tests for delay models, buffers, and variation processes."""

import math
import statistics

import numpy as np
import pytest

from repro.delay.buffer import Buffer, InverterPairModel
from repro.delay.variation import (
    BoundedUniformVariation,
    GaussianVariation,
    NoVariation,
    SpatialGradientVariation,
    VariationProcess,
)
from repro.delay.wire import ElmoreWireModel, LinearWireModel


class TestLinearWire:
    def test_proportional(self):
        model = LinearWireModel(m=2.0)
        assert model.delay(3.0) == 6.0

    def test_zero_length(self):
        assert LinearWireModel().delay(0.0) == 0.0

    def test_rejects_negative_length(self):
        with pytest.raises(ValueError):
            LinearWireModel().delay(-1.0)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(ValueError):
            LinearWireModel(m=0)


class TestElmoreWire:
    def test_quadratic_growth(self):
        model = ElmoreWireModel(r=1.0, c=1.0)
        assert model.delay(4.0) / model.delay(2.0) == pytest.approx(4.0)

    def test_lumped_terms(self):
        model = ElmoreWireModel(r=1.0, c=1.0, driver_resistance=2.0, load_capacitance=3.0)
        length = 2.0
        expected = 0.5 * 4.0 + 2.0 * (2.0 + 3.0) + 2.0 * 3.0
        assert model.delay(length) == pytest.approx(expected)

    def test_buffering_beats_long_unbuffered_wire(self):
        # Core motivation for A7: k segments of length L/k beat one of L.
        model = ElmoreWireModel(r=1.0, c=1.0)
        total = 64.0
        unbuffered = model.delay(total)
        segmented = 8 * model.delay(total / 8)
        assert segmented < unbuffered / 4

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            ElmoreWireModel(r=0)
        with pytest.raises(ValueError):
            ElmoreWireModel(driver_resistance=-1)


class TestBuffer:
    def test_discrepancy_and_means(self):
        buf = Buffer(delay_rise=1.2, delay_fall=0.8)
        assert buf.discrepancy == pytest.approx(0.4)
        assert buf.mean_delay == pytest.approx(1.0)
        assert buf.max_delay == 1.2

    def test_delay_by_polarity(self):
        buf = Buffer(1.5, 0.5)
        assert buf.delay(rising=True) == 1.5
        assert buf.delay(rising=False) == 0.5

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Buffer(0.0, 1.0)


class TestInverterPairModel:
    def test_zero_bias_zero_variance_symmetric(self):
        model = InverterPairModel(nominal=2.0)
        buf = model.sample_stage()
        assert buf.delay_rise == buf.delay_fall == 2.0

    def test_bias_splits_edges(self):
        model = InverterPairModel(nominal=1.0, bias=0.2)
        buf = model.sample_stage()
        assert buf.discrepancy == pytest.approx(0.2)
        assert buf.mean_delay == pytest.approx(1.0)

    def test_string_length(self):
        assert len(InverterPairModel().sample_string(17)) == 17

    def test_noise_statistics(self):
        model = InverterPairModel(nominal=1.0, variance=0.01, seed=5)
        discrepancies = [model.sample_stage().discrepancy for _ in range(4000)]
        assert statistics.fmean(discrepancies) == pytest.approx(0.0, abs=0.01)
        assert statistics.pstdev(discrepancies) == pytest.approx(0.1, rel=0.1)

    def test_deterministic_given_seed(self):
        a = InverterPairModel(variance=0.01, seed=9).sample_string(5)
        b = InverterPairModel(variance=0.01, seed=9).sample_string(5)
        assert [x.delay_rise for x in a] == [x.delay_rise for x in b]

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            InverterPairModel(nominal=0)
        with pytest.raises(ValueError):
            InverterPairModel(variance=-1)
        with pytest.raises(ValueError):
            InverterPairModel().sample_string(0)


class TestVariationProcesses:
    def test_no_variation_constant(self):
        proc = NoVariation(m=1.5)
        assert [proc.sample() for _ in range(3)] == [1.5, 1.5, 1.5]

    def test_bounded_uniform_within_bounds(self):
        proc = BoundedUniformVariation(m=1.0, epsilon=0.2, seed=1)
        samples = [proc.sample() for _ in range(500)]
        assert all(0.8 <= s <= 1.2 for s in samples)
        assert statistics.fmean(samples) == pytest.approx(1.0, abs=0.02)

    def test_reset_replays_stream(self):
        proc = BoundedUniformVariation(m=1.0, epsilon=0.3, seed=7)
        first = [proc.sample() for _ in range(10)]
        proc.reset()
        assert [proc.sample() for _ in range(10)] == first

    def test_resample_changes_stream(self):
        proc = BoundedUniformVariation(m=1.0, epsilon=0.3, seed=7)
        first = [proc.sample() for _ in range(10)]
        proc.resample(99)
        assert [proc.sample() for _ in range(10)] != first

    def test_gaussian_floor(self):
        proc = GaussianVariation(m=1.0, sigma=10.0, seed=3, floor=0.5)
        assert all(proc.sample() >= 0.5 for _ in range(200))

    def test_gaussian_statistics(self):
        proc = GaussianVariation(m=2.0, sigma=0.1, seed=4)
        samples = [proc.sample() for _ in range(3000)]
        assert statistics.fmean(samples) == pytest.approx(2.0, abs=0.02)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            NoVariation(m=0)
        with pytest.raises(ValueError):
            BoundedUniformVariation(m=1.0, epsilon=1.5)
        with pytest.raises(ValueError):
            GaussianVariation(sigma=-1)


class TestNonFiniteParametersRejected:
    """Each model names the parameter a NaN or an infinity would have
    poisoned silently: a NaN bias clamped both edges to the floor, a NaN
    variance meant no noise, a NaN sigma clamped to the floor or dropped
    the noise."""

    @pytest.mark.parametrize("build, name", [
        (lambda: InverterPairModel(bias=math.nan), "bias"),
        (lambda: InverterPairModel(variance=math.nan), "variance"),
        (lambda: InverterPairModel(nominal=math.inf), "nominal"),
        (lambda: BoundedUniformVariation(m=math.inf), "m"),
        (lambda: NoVariation(m=math.nan), "m"),
        (lambda: NoVariation(m=math.inf), "m"),
        (lambda: GaussianVariation(sigma=math.nan), "sigma"),
        (lambda: SpatialGradientVariation(gx=math.nan), "gx"),
        (lambda: SpatialGradientVariation(sigma=math.nan), "sigma"),
    ])
    def test_rejected_naming_the_parameter(self, build, name):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            build()


def _bits(values):
    return np.asarray(values, dtype=np.float64).view(np.uint64).tolist()


class _Walk(VariationProcess):
    """A process on the base class's batch loop: position-dependent, and
    drawing from its stream."""

    def sample(self):
        return self._rng.random()

    def sample_at(self, x, y):
        return self.sample() + 0.125 * x - 0.25 * y


PROCESSES = {
    "none": lambda: NoVariation(m=1.3),
    "uniform": lambda: BoundedUniformVariation(m=1.0, epsilon=0.3, seed=5),
    "uniform-int": lambda: BoundedUniformVariation(m=2, epsilon=0, seed=1),
    "gauss": lambda: GaussianVariation(m=0.9, sigma=0.4, seed=6),
    "gradient": lambda: SpatialGradientVariation(m=1.0, gx=0.03, gy=-0.02, seed=2),
    "gradient-noisy": lambda: SpatialGradientVariation(
        m=1.0, gx=0.03, gy=-0.02, sigma=0.2, seed=2),
    "walk": lambda: _Walk(seed=4),
}


class TestBatchSamplersMatchTheirScalarForms:
    """``sample_at_batch`` and ``draw_batch`` return the very floats the
    scalar calls return one by one, and leave each stream where they
    would."""

    @pytest.mark.parametrize("name", sorted(PROCESSES))
    def test_sample_at_batch(self, name):
        rng = np.random.default_rng(7)
        xs, ys = rng.uniform(-5.0, 20.0, 37), rng.uniform(-5.0, 20.0, 37)
        batch, scalar = PROCESSES[name](), PROCESSES[name]()
        got = batch.sample_at_batch(xs, ys)
        want = [scalar.sample_at(x, y) for x, y in zip(xs.tolist(), ys.tolist())]
        assert got.dtype == np.float64 and _bits(got) == _bits(want)
        assert batch.sample() == scalar.sample()
        assert batch.sample_at_batch(xs[:0], ys[:0]).shape == (0,)

    @pytest.mark.parametrize("params", [
        {}, {"nominal": 0.75, "bias": 0.1}, {"bias": -3.0},
        {"nominal": 1.5, "variance": 0.02, "seed": 3},
        {"nominal": 1, "bias": 0.3, "variance": 4.0, "seed": 8},
    ])
    def test_draw_batch(self, params):
        batch, scalar = InverterPairModel(**params), InverterPairModel(**params)
        rise, fall = batch.draw_batch(41)
        want = [scalar.draw() for _ in range(41)]
        assert _bits(rise) == _bits([r for r, _ in want])
        assert _bits(fall) == _bits([f for _, f in want])
        assert batch.draw() == scalar.draw()
        assert [a.shape for a in batch.draw_batch(0)] == [(0,), (0,)]
