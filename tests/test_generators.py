import math

import numpy as np
import pytest

from privest.core import ConfigError, make_rng
from privest.generators import (
    BernoulliProduct,
    BoundedUniform,
    FixedVector,
    HeavyTail,
    LogisticModel,
    Lognormal,
    TrigDensity,
    _BLOCK,
    make_generator,
)


class TestFactory:
    def test_dispatch(self):
        gen = make_generator({"kind": "bounded_uniform", "radius": 2.0})
        assert isinstance(gen, BoundedUniform) and gen.radius == 2.0

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            make_generator({"kind": "gaussian"})

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            make_generator({"kind": "lognormal", "mu": 1.0, "nu": 2.0})

    def test_missing_kind(self):
        with pytest.raises(ConfigError):
            make_generator({"radius": 1.0})


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("config, key", [
    ({"kind": "bounded_uniform"}, "radius"),
    ({"kind": "heavy_tail_k"}, "radius_k"),
    ({"kind": "lognormal"}, "mu"),
    ({"kind": "lognormal"}, "sigma"),
    ({"kind": "bernoulli_product", "freqs": [0.5, 0.5]}, "freqs"),
    ({"kind": "fixed_vector", "value": [0.5, 0.5]}, "value"),
    ({"kind": "logistic_model", "theta": [0.5, 0.5]}, "theta"),
    ({"kind": "trig_density", "coeffs": [0.5, 0.5]}, "coeffs"),
], ids=lambda v: v if isinstance(v, str) else None)
def test_factory_rejects_non_finite_parameters(config, key, bad):
    """A scalar parameter or one entry of a vector one that is NaN or infinite."""
    value = [bad, *config[key][1:]] if key in config else bad
    with pytest.raises(ConfigError, match=f"parameter {key} must be finite"):
        make_generator({**config, key: value})
    if key in config:  # a numeric string entry is read as a number too
        with pytest.raises(ConfigError, match=f"parameter {key} must be finite"):
            make_generator({**config, key: [str(bad), *config[key][1:]]})


class TestBoundedUniform:
    def test_support_and_risk(self):
        gen = BoundedUniform(radius=1.0)
        draws = gen.sample(10_000, make_rng(80))
        assert np.all(np.abs(draws) <= 1.0)
        assert gen.abs_risk(0.0) == pytest.approx(0.5)
        assert gen.abs_risk(0.5) == pytest.approx(0.5 + 0.125)
        assert gen.abs_risk(2.0) == pytest.approx(2.0)


class TestHeavyTail:
    def test_moment_bound_holds_empirically(self):
        gen = HeavyTail(k=2.0, radius_k=1.0)
        draws = gen.sample(1_000_000, make_rng(81))
        assert float(np.mean(np.abs(draws) ** 2)) <= 1.1

    def test_symmetric(self):
        draws = HeavyTail(k=2.0).sample(1_000_000, make_rng(82))
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 5.0 * stderr

    def test_rejects_infinite_order(self):
        with pytest.raises(ConfigError):
            HeavyTail(k=math.inf)


class TestLognormal:
    def test_median_and_risk_minimum(self):
        gen = Lognormal(mu=10.0, sigma=1.2)
        assert gen.true_median == pytest.approx(math.exp(10.0))
        base = float(gen.abs_risk(gen.true_median))
        for factor in (0.8, 0.9, 1.1, 1.25):
            assert float(gen.abs_risk(factor * gen.true_median)) > base

    def test_risk_matches_monte_carlo(self):
        gen = Lognormal(mu=1.0, sigma=0.5)
        draws = gen.sample(2_000_000, make_rng(83))
        for theta in (1.0, math.e, 5.0):
            empirical = float(np.mean(np.abs(draws - theta)))
            assert float(gen.abs_risk(theta)) == pytest.approx(empirical, rel=5e-3)


class TestBernoulliProduct:
    def test_marginals(self):
        freqs = (0.5, 0.2, 0.9)
        draws = BernoulliProduct(freqs).sample(100_000, make_rng(84))
        assert set(np.unique(draws)) <= {0.0, 1.0}
        for j, f in enumerate(freqs):
            stderr = math.sqrt(f * (1 - f) / draws.shape[0])
            assert abs(draws[:, j].mean() - f) <= 5.0 * stderr

    def test_rejects_bad_frequency(self):
        with pytest.raises(ConfigError):
            BernoulliProduct((0.5, 1.2))

    @pytest.mark.parametrize("d", [27, 1])
    @pytest.mark.parametrize("blocks", [0.001, 1, 3, 3.4])
    def test_blocked_draws_equal_one_whole_draw(self, d, blocks):
        """Row blocks of uniforms are the stream of one (n, d) draw, bit for bit."""
        gen = BernoulliProduct(tuple(np.linspace(0.05, 0.95, d)))
        n = int(blocks * (_BLOCK // d))  # under one block, a multiple of it, or neither
        blocked, whole = make_rng(86, d), make_rng(86, d)
        got = gen.sample(n, blocked)
        want = (whole.random((n, d)) < np.array(gen.freqs)).astype(float)
        assert got.dtype == want.dtype and got.shape == (n, d)
        assert np.array_equal(got, want)
        assert blocked.bit_generator.state == whole.bit_generator.state


class TestFixedVector:
    def test_point_mass(self):
        gen = FixedVector((0.5, -0.25))
        draws = gen.sample(7, make_rng(85))
        assert draws.shape == (7, 2)
        assert np.all(draws == np.array([0.5, -0.25]))

    def test_sample_is_a_read_only_view(self):
        draws = FixedVector((0.5, -0.25, 1.0)).sample(100_000, make_rng(85))
        assert draws.shape == (100_000, 3)
        assert np.array_equal(draws, np.tile([0.5, -0.25, 1.0], (100_000, 1)))
        assert not draws.flags.writeable
        assert draws.strides[0] == 0  # every row is the one stored point
        with pytest.raises(ValueError):
            draws[0, 0] = 0.0


class TestLogisticModel:
    def test_shapes_and_labels(self):
        x, y = LogisticModel((0.0,) * 4).sample(1000, make_rng(86))
        assert x.shape == (1000, 4) and y.shape == (1000,)
        assert set(np.unique(x)) == {-1.0, 1.0}
        assert set(np.unique(y)) <= {-1.0, 1.0}

    def test_zero_signal_labels_independent(self):
        x, y = LogisticModel((0.0,) * 3).sample(200_000, make_rng(87))
        corr = (x * y[:, None]).mean(axis=0)
        assert np.all(np.abs(corr) <= 5.0 / math.sqrt(x.shape[0]))

    def test_signal_shows_in_margins(self):
        theta = np.array([2.0, 0.0])
        x, y = LogisticModel(tuple(theta)).sample(200_000, make_rng(88))
        corr = (x * y[:, None]).mean(axis=0)
        assert corr[0] > 0.3
        assert abs(corr[1]) <= 5.0 / math.sqrt(x.shape[0])


class TestTrigDensity:
    def test_rejects_negative_density(self):
        with pytest.raises(ConfigError):
            TrigDensity(coeffs=(1.0,))  # 1 + sqrt(2) cos dips below zero

    def test_first_cosine_coefficient_recovered(self):
        # quadrature-CDF sampling oracle: the empirical first cosine
        # coefficient should estimate the planted value 1/2
        gen = TrigDensity(coeffs=(0.5,))
        draws = gen.sample(200_000, make_rng(89))
        values = math.sqrt(2.0) * np.cos(2.0 * math.pi * draws)
        stderr = values.std(ddof=1) / math.sqrt(values.size)
        assert abs(values.mean() - 0.5) <= 5.0 * stderr

    def test_density_integrates_to_one(self):
        gen = TrigDensity(coeffs=(0.4, 0.2, 0.1))
        t = np.linspace(0.0, 1.0, 8193)
        assert float(np.trapezoid(gen.density(t), t)) == pytest.approx(1.0, abs=1e-9)

    def test_samples_in_unit_interval(self):
        draws = TrigDensity(coeffs=(0.5,)).sample(10_000, make_rng(90))
        assert np.all((draws >= 0.0) & (draws <= 1.0))
