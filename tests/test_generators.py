import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import privest.cli
from privest.core import ConfigError, field_schema, make_rng
from privest.generators import (
    GENERATORS,
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


# case -> (kind, parameters) that building the generator rejects
_REJECTED = {
    "lognormal-mean-overflows": ("lognormal", {"mu": 800}),  # e^(mu + sigma^2/2) is inf
    "lognormal-sigma-overflows": ("lognormal", {"sigma": 1e200}),  # sigma ** 2 would raise
    "uniform-width-overflows": ("bounded_uniform", {"radius": 1e308}),  # 2 * radius is inf
    "uniform-bool-radius": ("bounded_uniform", {"radius": True}),
    "lognormal-bool-mu": ("lognormal", {"mu": False}),
    "lognormal-nan-mu": ("lognormal", {"mu": math.nan}),
    "heavy-tail-list-k": ("heavy_tail_k", {"k": [2.0]}),
    "vector-str": ("fixed_vector", {"value": "ab"}),
    "vector-bool-entry": ("logistic_model", {"theta": [0.5, True]}),
    "vector-empty": ("fixed_vector", {"value": []}),
    "freqs-non-numeric-entry": ("bernoulli_product", {"freqs": [0.5, "x"]}),
    "freqs-out-of-range": ("bernoulli_product", {"freqs": [0.5, 1.5]}),
    "density-negative": ("trig_density", {"coeffs": [1.0]}),
    "density-overflows": ("trig_density", {"coeffs": [1e308, 1e308]}),
}


@pytest.mark.parametrize("case", list(_REJECTED))
def test_python_and_json_reject_a_parameter_alike(case):
    kind, params = _REJECTED[case]
    with pytest.raises(ConfigError) as built:
        GENERATORS[kind](**params)
    with pytest.raises(ConfigError) as configured:
        make_generator({"kind": kind, **params})
    assert str(built.value) == str(configured.value)


@pytest.mark.parametrize("case", ["lognormal-mean-overflows", "uniform-width-overflows",
                                  "uniform-bool-radius", "lognormal-bool-mu"])
def test_a_rejected_parameter_exits_2_before_any_arm(tmp_path, capsys, monkeypatch, case):
    kind, params = _REJECTED[case]
    arms = []
    monkeypatch.setattr(privest.cli, "run_experiment", lambda spec, **kw: arms.append(spec) or [])
    config = {"name": "g", "estimator": "mean_scalar", "mechanism": "optimal", "eps": 1.0,
              "n_grid": [16], "replicates": 1, "generator": {"kind": kind, **params}}
    cfg, out = tmp_path / "cfg.json", tmp_path / "g.csv"
    cfg.write_text(json.dumps(config))
    assert privest.cli.main(["bench", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and err.count("\n") == 1
    assert arms == [] and not out.exists()


def test_a_numeric_string_is_a_float():
    assert make_generator({"kind": "lognormal", "mu": "10"}) == Lognormal(mu=10.0)
    assert Lognormal(mu="10").mu == 10.0
    assert FixedVector(["0.5", 1]).value == (0.5, 1.0)


_VALUES = [0.5, 2.0, -1.0, 0.0, 1e-300, 700.0, 1e154, 1e308, -1e308]


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(kind=st.sampled_from(sorted(GENERATORS)), data=st.data())
def test_a_generator_that_builds_samples_and_scores(kind, data):
    """Any parameters that build a generator let it sample and give its ground truth."""
    cls = GENERATORS[kind]
    params = {
        key: data.draw(st.sampled_from(_VALUES) if opt.kind is float
                       else st.lists(st.sampled_from(_VALUES), min_size=1, max_size=3))
        for key, opt in field_schema(cls).items()
    }
    try:
        gen = cls(**params)
    except ConfigError:
        return
    with np.errstate(all="ignore"):  # an overflow may make a value non-finite, but not raise
        gen.sample(8, make_rng(0))
        truths = [getattr(gen, name) for name in ("true_mean", "true_median", "true_theta")
                  if hasattr(cls, name)]
        if hasattr(gen, "abs_risk"):
            gen.abs_risk(np.array([gen.true_median, 0.0, -1e308, 1e308]))
        if hasattr(gen, "density"):
            gen.density(np.linspace(0.0, 1.0, 5))
    assert all(np.isfinite(truth).all() for truth in truths)


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
