import math

import numpy as np
import pytest

from privest.audit import (
    EnumeratedPmf,
    channel_pmf,
    channel_pmf_grid,
    halfspace_expectation_cube,
    monte_carlo_unbias,
    slope_fit,
    sphere_halfspace_mean_quadrature,
    verify_dp,
)
from privest.core import (
    DomainError,
    ParameterError,
    PrivacyLevel,
    SizeError,
    UnsupportedChannelError,
    make_rng,
)
from privest.mechanisms import Channel, cube_halfspace_mean, cube_vertices

LN3 = PrivacyLevel(math.log(3.0))
ONE = PrivacyLevel(1.0)


def _axis_grid(d, radius=1.0):
    axes = [np.array([-radius, 0.0, radius])] * d
    return np.array(np.meshgrid(*axes)).reshape(d, -1).T


class TestHalfspaceExpectation:
    def test_hand_enumerated_examples(self):
        np.testing.assert_allclose(halfspace_expectation_cube([1.0]), [1.0])
        np.testing.assert_allclose(halfspace_expectation_cube([1, 1]), [1 / 3, 1 / 3])
        np.testing.assert_allclose(halfspace_expectation_cube([1, 1, 1]), [0.5, 0.5, 0.5])

    def test_rejects_non_vertex(self):
        with pytest.raises(DomainError):
            halfspace_expectation_cube([0.5, 1.0])

    def test_size_cap(self):
        with pytest.raises(SizeError):
            halfspace_expectation_cube(np.ones(21))


class TestChannelPmf:
    def test_sign_rr_pmf(self):
        pmf = channel_pmf(Channel.sign_rr(LN3), 1.0)
        np.testing.assert_allclose(pmf.support[:, 0], [-LN3.phi_eps, LN3.phi_eps])
        np.testing.assert_allclose(pmf.probs, [0.25, 0.75], atol=1e-15)
        assert pmf.mean()[0] == pytest.approx(1.0, abs=1e-12)

    def test_linf_d1_uniform_at_zero(self):
        pmf = channel_pmf(Channel.linf_ball(1, 1.0, ONE), [0.0])
        np.testing.assert_allclose(pmf.probs, [0.5, 0.5], atol=1e-15)

    def test_linf_probabilities_sum_to_one(self):
        for d in (1, 2, 3, 5):
            channel = Channel.linf_ball(d, 1.0, ONE)
            _, probs = channel_pmf_grid(channel, _axis_grid(d))
            np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    @pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
    def test_linf_exact_unbiasedness_on_grid(self, d):
        channel = Channel.linf_ball(d, 1.0, LN3)
        grid = _axis_grid(d)
        support, probs = channel_pmf_grid(channel, grid)
        means = probs @ support
        np.testing.assert_allclose(means, grid, atol=1e-9)

    def test_tie_vertices_make_even_d_work(self):
        # d = 2, x at a corner: ties keep weight 1/4, strict vertices get
        # p_plus/2 and (1 - p_plus)/2 with p_plus = (1 + gamma_2/phi)/2 = 2/3
        channel = Channel.linf_ball(2, 1.0, LN3)
        pmf = channel_pmf(channel, [1.0, 1.0])
        order = np.lexsort(pmf.support.T)
        probs = pmf.probs[order]
        # vertices sorted: (-B,-B), (B,-B), (-B,B), (B,B)
        np.testing.assert_allclose(probs, [1 / 6, 0.25, 0.25, 1 / 3], atol=1e-12)
        assert pmf.mean() == pytest.approx([1.0, 1.0], abs=1e-12)

    def test_size_cap_and_unsupported(self):
        with pytest.raises(SizeError):
            channel_pmf(Channel.linf_ball(9, 1.0, ONE), np.zeros(9))
        with pytest.raises(UnsupportedChannelError):
            channel_pmf(Channel.l2_ball(2, 1.0, ONE), [0.0, 0.0])

    def test_enumerated_pmf_dataclass(self):
        pmf = EnumeratedPmf(np.array([[1.0], [-1.0]]), np.array([0.5, 0.5]))
        assert pmf.mean()[0] == 0.0


class TestVerifyDp:
    def test_sign_rr_ratio_is_eps(self):
        for level in (LN3, ONE, PrivacyLevel(0.25)):
            ratio = verify_dp(Channel.sign_rr(level), np.array([[-1.0], [1.0]]))
            assert ratio == pytest.approx(level.epsilon, abs=1e-12)

    def test_linf_grids_stay_below_eps(self):
        for d in (2, 3, 4, 5):
            ratio = verify_dp(Channel.linf_ball(d, 1.0, ONE), _axis_grid(d))
            assert ratio <= ONE.epsilon + 1e-9
        # odd d has no ties, so the corner pairs achieve the bound exactly
        ratio = verify_dp(Channel.linf_ball(3, 1.0, ONE), _axis_grid(3))
        assert ratio == pytest.approx(ONE.epsilon, abs=1e-9)

    @pytest.mark.parametrize("eps", [20.0, 30.0, 100.0, 700.0])
    def test_large_eps_ratio_is_eps(self, eps):
        # the flip probability 1 / (1 + e^eps) is not formed as 1 - pi_eps
        level = PrivacyLevel(eps)
        ratio = verify_dp(Channel.sign_rr(level), np.array([[-1.0], [1.0]]))
        assert ratio == pytest.approx(eps, rel=1e-15)
        for d in (1, 3):
            ratio = verify_dp(Channel.linf_ball(d, 1.0, level), _axis_grid(d))
            assert ratio == pytest.approx(eps, rel=1e-15)

    def test_vanishing_eps_limit(self):
        level = PrivacyLevel(1e-12)
        ratio = verify_dp(Channel.sign_rr(level), np.array([[-1.0], [1.0]]))
        assert abs(ratio) <= 2e-12


class TestMonteCarloUnbias:
    def test_l2_example(self):
        mean, stderr = monte_carlo_unbias(
            Channel.l2_ball(2, 1.0, ONE), [0.3, 0.4], 200_000, make_rng(31)
        )
        assert np.all(np.abs(mean - [0.3, 0.4]) <= 5.0 * stderr)

    def test_sign_rr(self):
        mean, stderr = monte_carlo_unbias(Channel.sign_rr(ONE), -1.0, 200_000, make_rng(32))
        assert abs(mean[0] + 1.0) <= 5.0 * stderr[0]

    def test_linf_high_dim_zero(self):
        mean, stderr = monte_carlo_unbias(
            Channel.linf_ball(27, 1.0, PrivacyLevel(0.5)), np.zeros(27), 100_000, make_rng(33)
        )
        assert np.all(np.abs(mean) <= 5.0 * stderr)

    def test_rejects_tiny_runs(self):
        with pytest.raises(ParameterError):
            monte_carlo_unbias(Channel.sign_rr(ONE), 1.0, 10, make_rng(0))

    def test_l2_bound_whose_square_overflows(self):
        # B^2 overflows, a warning that the suite turns into an error.  Each coordinate of a
        # uniform point on the B-circle has sd B / sqrt(2)
        channel, n = Channel.l2_ball(2, 1.0, PrivacyLevel(1e-160)), 4000
        mean, stderr = monte_carlo_unbias(channel, [0.3, 0.4], n, make_rng(34))
        assert channel.bound_B > 1e155  # B^2 > 1e310
        np.testing.assert_allclose(stderr, channel.bound_B / math.sqrt(2 * n), rtol=0.1)
        assert np.all(np.abs(mean - [0.3, 0.4]) <= 5.0 * stderr)


class TestSlopeFit:
    def test_exact_inverse_sqrt(self):
        pts = [(n, 4.0 / math.sqrt(n)) for n in (10, 100, 1000, 10_000)]
        fit = slope_fit(pts)
        assert fit.slope == pytest.approx(-0.5, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert math.exp(fit.intercept) == pytest.approx(4.0, rel=1e-9)

    def test_exact_inverse_n(self):
        pts = [(n, 7.5 / n) for n in (16, 64, 256)]
        assert slope_fit(pts).slope == pytest.approx(-1.0, abs=1e-12)

    def test_noisy_power_law_recovered(self):
        # simulation oracle: 10% multiplicative noise around n^(-1/2)
        rng = make_rng(34)
        for _ in range(20):
            pts = [
                (n, n**-0.5 * (1.0 + 0.1 * rng.standard_normal())) for n in
                (1024, 2048, 4096, 8192, 16384, 32768)
            ]
            fit = slope_fit(pts)
            assert -0.65 <= fit.slope <= -0.35

    def test_validation(self):
        with pytest.raises(ParameterError):
            slope_fit([(10, 1.0), (20, 0.5)])
        with pytest.raises(DomainError):
            slope_fit([(10, 1.0), (20, 0.5), (30, 0.0)])


class TestQuadrature:
    @pytest.mark.parametrize("d", range(1, 9))
    def test_matches_closed_form(self, d):
        from privest.mechanisms import sphere_halfspace_mean

        assert sphere_halfspace_mean_quadrature(d) == pytest.approx(
            sphere_halfspace_mean(d), abs=1e-8
        )

    def test_d2_is_two_over_pi(self):
        assert sphere_halfspace_mean_quadrature(2) == pytest.approx(2.0 / math.pi, abs=1e-10)


def test_cube_constant_ties_to_enumeration_through_d10():
    for d in range(1, 11):
        factor = cube_halfspace_mean(d)
        vertices = cube_vertices(d)
        gram = vertices @ vertices.T
        accepted = gram >= 0.0
        means = (accepted @ vertices) / accepted.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(means, factor * vertices, atol=1e-9)
