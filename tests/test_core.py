import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privest.core import (
    BLOCK,
    ParameterError,
    PrivacyLevel,
    bernoulli_pi,
    block_rows,
    laplace_sample,
    make_rng,
    row_blocks,
    uniform_sphere,
)

_LAPLACE_BLOCK = block_rows(2)  # uniforms per inverse-CDF block: a draw and its temporary


class TestPrivacyLevel:
    def test_ln3_constants(self):
        level = PrivacyLevel(math.log(3.0))
        assert level.pi_eps == pytest.approx(0.75, abs=1e-12)
        assert level.phi_eps == pytest.approx(2.0, abs=1e-12)

    # phi_eps ~ 2 / eps: at 5e-324 eps / 2 underflows to 0, and below ~1.1e-308 phi is inf
    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 5e-324, 1e-310, 1e-308])
    def test_rejects_bad_epsilon(self, bad):
        with pytest.raises(ParameterError):
            PrivacyLevel(bad)

    def test_smallest_epsilons_keep_a_finite_phi(self):
        for eps in (1.2e-308, 1e-300):
            assert PrivacyLevel(eps).phi_eps == pytest.approx(2.0 / eps, rel=1e-12)

    @given(st.floats(min_value=1e-3, max_value=30.0))
    @settings(deadline=None)
    def test_cached_quantities_consistent(self, eps):
        level = PrivacyLevel(eps)
        assert 0.5 < level.pi_eps < 1.0
        assert level.phi_eps > 1.0
        # 1 - pi_eps cancels catastrophically for large eps; scale the
        # tolerance by the conditioning of that subtraction
        exp_eps = math.exp(eps)
        rel = max(1e-12, 5e-16 * (1.0 + exp_eps))
        assert level.pi_eps / (1.0 - level.pi_eps) == pytest.approx(exp_eps, rel=rel)
        assert level.phi_eps == pytest.approx((exp_eps + 1.0) / (exp_eps - 1.0), rel=1e-12)

    def test_huge_epsilon_stays_finite_where_it_matters(self):
        level = PrivacyLevel(1e6)
        assert level.pi_eps == 1.0  # saturates in float
        assert level.phi_eps == 1.0


class TestRng:
    def test_same_seed_same_stream(self):
        a = make_rng(42, 3).standard_normal(100)
        b = make_rng(42, 3).standard_normal(100)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = make_rng(42, 0).standard_normal(100)
        b = make_rng(42, 1).standard_normal(100)
        assert not np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError):
            make_rng(-1)


class TestRowBlocks:
    def test_rows_per_block(self):
        assert block_rows(3) == BLOCK // 3
        assert block_rows(0) == BLOCK and block_rows(2 * BLOCK) == 1

    def test_blocks_tile_the_rows_in_order(self):
        rows = block_rows(7)
        assert list(row_blocks(5, 6 + 2 * rows, 7)) == [
            (5, 5 + rows), (5 + rows, 5 + 2 * rows), (5 + 2 * rows, 6 + 2 * rows)]
        assert list(row_blocks(4, 4, 7)) == []
        assert list(row_blocks(3, 3 + rows, 7)) == [(3, 3 + rows)]  # one block, returned as is


class _Uniforms:
    """A duck-typed generator whose ``random`` returns the given uniforms in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)
        self.pos = 0

    def random(self, size):
        n = int(np.prod(size))
        out = self.values[self.pos : self.pos + n].copy()
        assert out.size == n, "the stream ran out"
        self.pos += n
        return out.reshape(size)


def _reference_laplace(u, inv_scale):
    """The inverse CDF of each uniform, through ``math.log``."""
    scale = 1.0 / inv_scale
    return np.array([math.copysign(scale * math.log(min(2.0 * x, 2.0 * (1.0 - x))), x - 0.5)
                     for x in u])


class TestLaplace:
    def test_invalid_scale(self):
        with pytest.raises(ParameterError):
            laplace_sample(make_rng(0), 0.0)

    # 1e-307 has a finite scale, but a draw of 36 scales would overflow
    @pytest.mark.parametrize("inv_scale", [1e-307, 5e-311, 1e-320, math.inf, math.nan])
    def test_rejects_a_bad_inverse_scale(self, inv_scale):
        with pytest.raises(ParameterError, match="inv_scale"):
            laplace_sample(make_rng(0), inv_scale, size=3)

    def test_symmetry_half_mass_below_zero(self):
        draws = laplace_sample(make_rng(1), 1.0, size=1_000_000)
        frac = np.mean(draws <= 0.0)
        assert abs(frac - 0.5) <= 5.0 * math.sqrt(0.25 / draws.size)

    def test_variance_matches_inverse_scale(self):
        draws = laplace_sample(make_rng(2), 2.0, size=1_000_000)
        second = draws**2
        stderr = second.std(ddof=1) / math.sqrt(draws.size)
        assert abs(second.mean() - 0.5) <= 5.0 * stderr

    @pytest.mark.parametrize("inv_scale", [0.1, 1.0, 10.0])
    def test_mean_zero(self, inv_scale):
        n = 1_000_000
        draws = laplace_sample(make_rng(3), inv_scale, size=n)
        assert abs(draws.mean()) <= 5.0 * math.sqrt(2.0 / inv_scale**2 / n)

    @pytest.mark.parametrize("size", [None, 0, 1, (20, 8), 3 * _LAPLACE_BLOCK + 5])
    def test_leaves_the_generator_where_numpy_does(self, size):
        ours, numpys = make_rng(11), make_rng(11)
        out = laplace_sample(ours, 0.7, size)
        want = numpys.laplace(0.0, 1 / 0.7, size)
        assert ours.bit_generator.state == numpys.bit_generator.state
        assert np.shape(out) == np.shape(want)
        np.testing.assert_allclose(out, want, rtol=1e-9)

    @pytest.mark.parametrize("inv_scale", [0.3, 1.0, 7.0])
    def test_within_two_ulp_of_math_log(self, inv_scale):
        edges = [2.0**-53, 3 * 2.0**-53, 0.25, 0.5 - 2.0**-53, 0.5, 0.5 + 2.0**-53, 0.75,
                 1.0 - 3 * 2.0**-53, 1.0 - 2.0**-53]
        u = np.concatenate([edges, make_rng(12).random(2 * _LAPLACE_BLOCK + 3)])
        got = laplace_sample(_Uniforms(u), inv_scale, u.size)
        want = _reference_laplace(u, inv_scale)
        assert np.all(np.abs(got - want) <= 2 * np.spacing(np.abs(want)))
        assert np.array_equal(np.signbit(got), u < 0.5)  # U = 1/2 gives +0.0

    def test_tails_are_mirror_images(self):
        k = np.concatenate([[1, 2, 3, 2**51 - 1, 2**51, 2**51 + 1, 2**52 - 1],
                            make_rng(13).integers(1, 2**52, size=1000)])
        lower = laplace_sample(_Uniforms(k * 2.0**-53), 0.9, k.size)
        upper = laplace_sample(_Uniforms((2**53 - k) * 2.0**-53), 0.9, k.size)
        assert np.array_equal(upper, -lower) and np.all(lower < 0.0)

    @pytest.mark.parametrize("inv_scale", [1.0, 0.01, 64 / 1.7976931348623157e308])
    def test_extremes_are_52_ln2_scales(self, inv_scale):
        # numpy's own upper tail reaches 53 ln 2 scales at U = 1 - 2^-53, from its rounded 2 - U - U
        lo, hi = laplace_sample(_Uniforms([2.0**-53, 1.0 - 2.0**-53]), inv_scale, 2)
        assert hi == -lo
        assert hi == pytest.approx(52 * math.log(2.0) / inv_scale, rel=1e-15)
        assert math.isfinite(hi)

    def test_zero_uniforms_are_skipped_in_stream_order(self):
        n = 2 * _LAPLACE_BLOCK + 100
        u = make_rng(14).random(n + 1)
        # zeros: inside the second block, ending the first, a pair, last, and as the top-up
        zeros = [_LAPLACE_BLOCK + 7, _LAPLACE_BLOCK - 1, 40, 41, n + 3, n + 4]
        stream = np.insert(u, sorted(zeros) - np.arange(len(zeros)), 0.0)
        want = laplace_sample(_Uniforms(u), 1.3, n)
        fake = _Uniforms(stream)
        assert np.array_equal(laplace_sample(fake, 1.3, n), want)
        assert fake.pos == n + len(zeros)  # nothing drawn past the last nonzero uniform
        fake = _Uniforms(stream)
        rows = (37, _LAPLACE_BLOCK, n - 37 - _LAPLACE_BLOCK)
        blocks = [laplace_sample(fake, 1.3, r) for r in rows]
        assert np.array_equal(np.concatenate(blocks), want)
        assert np.array_equal(laplace_sample(_Uniforms(stream), 1.3, (n // 4, 4)).ravel(), want)

    @pytest.mark.parametrize("shape", [(0,), (1,), (20, 8), (3 * _LAPLACE_BLOCK + 5,),
                                       (_LAPLACE_BLOCK // 4 + 3, 9)])
    def test_out_receives_the_draws_of_size(self, shape):
        by_size, into = make_rng(16), make_rng(16)
        want = laplace_sample(by_size, 0.6, size=shape)
        out = np.full(shape, np.nan)
        assert laplace_sample(into, 0.6, out=out) is out
        assert np.array_equal(out, want)
        assert into.bit_generator.state == by_size.bit_generator.state

    def test_scalar_is_a_batch_of_one(self):
        draw = laplace_sample(make_rng(15), 0.4)
        assert type(draw) is float
        assert draw == laplace_sample(make_rng(15), 0.4, size=1)[0]
        assert laplace_sample(_Uniforms([0.0, 0.0, 0.25]), 0.4) == 2.5 * math.log(0.5)


class TestBernoulliPi:
    def test_ln3_probability(self):
        level = PrivacyLevel(math.log(3.0))
        draws = bernoulli_pi(make_rng(4), level, size=1_000_000)
        stderr = math.sqrt(0.75 * 0.25 / draws.size)
        assert abs(draws.mean() - 0.75) <= 5.0 * stderr

    def test_small_eps_limit(self):
        assert PrivacyLevel(1e-12).pi_eps == pytest.approx(0.5, abs=1e-9)

    @pytest.mark.parametrize("eps", [0.1, 0.5, 1.0, 2.0])
    def test_frequency_matches_pi(self, eps):
        level = PrivacyLevel(eps)
        draws = bernoulli_pi(make_rng(5), level, size=1_000_000)
        stderr = math.sqrt(level.pi_eps * (1.0 - level.pi_eps) / draws.size)
        assert abs(draws.mean() - level.pi_eps) <= 5.0 * stderr


class TestUniformSphere:
    def test_unit_norm(self):
        for d in (1, 2, 3, 17):
            z = uniform_sphere(make_rng(6, d), d)
            assert abs(np.linalg.norm(z) - 1.0) <= 1e-12

    def test_dimension_one_is_fair_sign(self):
        draws = uniform_sphere(make_rng(7), 1, size=100_000)[:, 0]
        assert set(np.unique(draws)) == {-1.0, 1.0}
        stderr = math.sqrt(0.25 / draws.size)
        assert abs(np.mean(draws > 0) - 0.5) <= 5.0 * stderr

    def test_componentwise_mean_zero_d3(self):
        draws = uniform_sphere(make_rng(8), 3, size=1_000_000)
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) <= 5.0 * stderr)

    @pytest.mark.parametrize("d", range(1, 9))
    def test_covariance_identity_over_d(self, d):
        n = 1_000_000
        draws = uniform_sphere(make_rng(9, d), d, size=n)
        target = np.eye(d) / d
        for i in range(d):
            for j in range(i, d):
                prod = draws[:, i] * draws[:, j]
                stderr = prod.std(ddof=1) / math.sqrt(n)
                assert abs(prod.mean() - target[i, j]) <= 5.0 * stderr

    def test_rejects_zero_dimension(self):
        with pytest.raises(ParameterError):
            uniform_sphere(make_rng(0), 0)

