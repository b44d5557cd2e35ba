import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privest.bounds import (
    density_rate,
    logistic_lower,
    mean_rate,
    median_rate,
    sparse_mean_lower,
)
from privest.audit import sphere_halfspace_mean_quadrature
from privest.core import ParameterError, PrivacyLevel, make_rng, uniform_sphere
from privest.estimators import series_bandwidth, sparse_mean_threshold
from privest.mechanisms import (
    Channel,
    MomentAssumption,
    cube_halfspace_mean,
    cube_tie_gamma,
    cube_vertices,
    sphere_halfspace_mean,
    truncation_level,
)


class TestMeanRate:
    def test_k2_example(self):
        assert mean_rate(2.0, 10_000, 1.0) == pytest.approx(0.01, rel=1e-12)

    def test_clips_at_one(self):
        assert mean_rate(2.0, 1, 1.0) == 1.0
        assert mean_rate(3.0, 4, 0.25) == 1.0  # n eps^2 = 0.25 < 1

    def test_k_infinity_is_parametric_rate(self):
        for n in (10, 1000, 123456):
            assert mean_rate(math.inf, n, 1.0) == pytest.approx(min(1.0, 1.0 / n), rel=1e-12)

    def test_rejects_low_k(self):
        with pytest.raises(ParameterError):
            mean_rate(1.0, 100, 1.0)

    def test_exp_form_differs(self):
        assert mean_rate(2.0, 100, 1.0, "exp") < mean_rate(2.0, 100, 1.0, "eps2")


class TestSparseMeanLower:
    def test_frozen_example(self):
        # 27 ln(54) = 107.70, (e^0.5 - 1)^2 = 0.42084; sqrt(107.70 / 4208.4)
        assert sparse_mean_lower(27, 10_000, 0.5) == pytest.approx(0.15998, abs=5e-5)

    def test_quadrupling_n_halves(self):
        assert sparse_mean_lower(27, 40_000, 0.5) == pytest.approx(
            sparse_mean_lower(27, 10_000, 0.5) / 2.0, rel=1e-12
        )

    def test_small_eps_inverse_scaling(self):
        for eps in (0.01, 0.05):
            ratio = sparse_mean_lower(8, 1000, eps) * eps
            assert ratio == pytest.approx(sparse_mean_lower(8, 1000, 0.001) * 0.001, rel=0.03)

    def test_rejects_d1(self):
        with pytest.raises(ParameterError):
            sparse_mean_lower(1, 100, 1.0)


class TestDensityRate:
    def test_beta1(self):
        assert density_rate(1.0, 10_000, 1.0) == pytest.approx(0.01, rel=1e-12)

    def test_beta2(self):
        assert density_rate(2.0, 1_000_000, 1.0) == pytest.approx(1e-4, rel=1e-12)

    def test_exponent_grows_with_beta(self):
        assert density_rate(50.0, 10_000, 1.0) < density_rate(1.0, 10_000, 1.0)

    def test_rejects_low_beta(self):
        with pytest.raises(ParameterError):
            density_rate(0.5, 100, 1.0)


class TestLogisticLower:
    def test_small_n_clips(self):
        assert logistic_lower(8, 1, 1.0) == 2.0

    def test_frozen_example(self):
        # 64 / (4e5 (e-1)^2) computed directly
        expected = 64.0 / (4.0e5 * (math.e - 1.0) ** 2)
        assert logistic_lower(8, 100_000, 1.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(5.419e-5, abs=1e-8)

    def test_quadrupling_n_quarters(self):
        assert logistic_lower(8, 400_000, 1.0) == pytest.approx(
            logistic_lower(8, 100_000, 1.0) / 4.0, rel=1e-12
        )


class TestMedianRate:
    def test_examples(self):
        assert median_rate(1.0, 100, 1.0) == pytest.approx(0.1, rel=1e-12)
        assert median_rate(2.5, 1, 0.5) == 2.5  # n eps^2 < 1 clips at r

    def test_six_times_is_sgd_bound(self):
        n, eps, r = 100_000, 0.5, 3.0
        assert 6.0 * median_rate(r, n, eps) == pytest.approx(
            6.0 * r / math.sqrt(n * eps * eps), rel=1e-12
        )


@given(
    st.sampled_from(["mean", "median", "sparse", "logistic", "density"]),
    st.integers(min_value=2, max_value=10**7),
    st.floats(min_value=0.01, max_value=1.0),
)
@settings(deadline=None, max_examples=200)
def test_monotone_nonincreasing_in_n_and_eps(which, n, eps):
    fns = {
        "mean": lambda n_, e_: mean_rate(2.5, n_, e_),
        "median": lambda n_, e_: median_rate(1.0, n_, e_),
        "sparse": lambda n_, e_: sparse_mean_lower(8, n_, e_),
        "logistic": lambda n_, e_: logistic_lower(8, n_, e_),
        "density": lambda n_, e_: density_rate(1.5, n_, e_),
    }
    fn = fns[which]
    value = fn(n, eps)
    assert value > 0.0
    assert fn(2 * n, eps) <= value + 1e-15
    assert fn(n, min(1.0, eps * 1.5)) <= value + 1e-15


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf, 400.0, 1e-200])
@pytest.mark.parametrize("fn", [
    lambda eps: sparse_mean_lower(d=8, n=100, eps=eps),
    lambda eps: logistic_lower(d=8, n=100, eps=eps),
    lambda eps: mean_rate(k=2.0, n=100, eps=eps, eps_form="exp"),
    lambda eps: median_rate(radius=1.0, n=100, eps=eps, eps_form="exp"),
    lambda eps: density_rate(beta=1.0, n=100, eps=eps, eps_form="exp"),
], ids=["sparse", "logistic", "mean", "median", "density"])
def test_one_eps_rule(fn, eps):
    # eps must be finite and > 0; (e^eps - 1)^2 overflows a float at 400 and is 0 at 1e-200
    with pytest.raises(ParameterError):
        fn(eps)


@pytest.mark.parametrize("fn, kwargs", [
    (mean_rate, {"k": 2.0}), (median_rate, {"radius": 1.0}), (density_rate, {"beta": 1.0}),
], ids=["mean", "median", "density"])
def test_an_eps_whose_square_underflows_is_rejected(fn, kwargs):
    # 1e-200 is a valid privacy level, but eps^2 is 0 in float
    with pytest.raises(ParameterError, match=r"eps\^2 is not a positive finite float"):
        fn(n=100, eps=1e-200, eps_form="eps2", **kwargs)


@pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0])
def test_median_rate_takes_the_one_radius_rule(radius):
    with pytest.raises(ParameterError, match="radius must be finite and > 0"):
        median_rate(radius=radius, n=100, eps=1.0)


@pytest.mark.parametrize("n", [0, -4, 2**63, 10**400], ids=["0", "-4", "2**63", "10**400"])
@pytest.mark.parametrize("fn", [
    lambda n: mean_rate(k=2.0, n=n, eps=1.0),
    lambda n: median_rate(radius=1.0, n=n, eps=1.0),
    lambda n: density_rate(beta=1.0, n=n, eps=1.0),
    lambda n: sparse_mean_lower(d=8, n=n, eps=1.0),
    lambda n: logistic_lower(d=8, n=n, eps=1.0),
    lambda n: truncation_level(MomentAssumption(k=2.0), n, PrivacyLevel(1.0)),
    lambda n: series_bandwidth(n, PrivacyLevel(1.0), 1.0),
    lambda n: series_bandwidth(n, None, 1.0),
    lambda n: sparse_mean_threshold(4, n, PrivacyLevel(1.0), 1.0),
    lambda n: sparse_mean_threshold(4, n, None, 1.0),
], ids=["mean", "median", "density", "sparse", "logistic", "truncation",
        "bandwidth", "bandwidth-no-channel", "threshold", "threshold-no-channel"])
def test_one_sample_size_rule(fn, n):
    # every function of a sample size rejects n < 1, and n beyond int64 (which no float
    # conversion survives at 10**400), with one message, before any arithmetic
    rule = ">= 1" if n < 1 else r"< 2\*\*63"
    with pytest.raises(ParameterError, match=f"^sample size must be {rule}, got {n}$"):
        fn(n)


@pytest.mark.parametrize("d", [0, -3, 2**63, 10**400], ids=["0", "-3", "2**63", "10**400"])
@pytest.mark.parametrize("fn, low", [
    (lambda d: uniform_sphere(make_rng(0), d), 1),
    (sphere_halfspace_mean, 1),
    (cube_halfspace_mean, 1),
    (cube_tie_gamma, 1),
    (cube_vertices, 1),
    (lambda d: Channel.laplace_vector(d, 1.0, PrivacyLevel(1.0)), 1),
    (sphere_halfspace_mean_quadrature, 1),
    (lambda d: logistic_lower(d=d, n=100, eps=1.0), 1),
    (lambda d: sparse_mean_lower(d=d, n=100, eps=1.0), 2),
], ids=["sphere", "sphere-mean", "cube-mean", "tie-gamma", "vertices", "laplace-vector",
        "quadrature", "logistic", "sparse"])
def test_one_dimension_rule(fn, low, d):
    # every function of a dimension rejects d below its least, and d beyond int64, with one
    # message, before any arithmetic
    rule = f">= {low}" if d < low else r"< 2\*\*63"
    with pytest.raises(ParameterError, match=f"^dimension must be {rule}, got {d}$"):
        fn(d)
