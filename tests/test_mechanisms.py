import math
import re
import tracemalloc
import warnings
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from privest.core import (
    BLOCK,
    DomainError,
    ParameterError,
    PrivacyLevel,
    block_rows,
    laplace_sample,
    make_rng,
    uniform_sphere,
)
from privest import core
from privest.audit import halfspace_expectation_cube, sphere_halfspace_mean_quadrature, verify_dp
from privest.estimators import private_logistic_sgd
from privest.experiments import _prefix_means
from privest.mechanisms import (
    Channel,
    MomentAssumption,
    RowSource,
    _l2_ball_batch,
    _laplace_vector_batch,
    _linf_ball_batch,
    _naive_median_batch,
    _sign_rr_batch,
    _truncated_laplace_batch,
    cube_halfspace_mean,
    cube_tie_gamma,
    cube_vertices,
    l2_bound_B,
    linf_bound_B,
    privatization_count,
    reset_privatization_count,
    sphere_halfspace_mean,
    truncation_level,
)

LN3 = PrivacyLevel(math.log(3.0))
ONE = PrivacyLevel(1.0)


class TestMomentAssumption:
    def test_rejects_low_order(self):
        with pytest.raises(ParameterError):
            MomentAssumption(k=1.0)

    def test_rejects_bad_radius(self):
        with pytest.raises(ParameterError):
            MomentAssumption(k=2.0, radius_k=0.0)

    def test_truncation_examples(self):
        # (n eps^2)^(1/(2k)) = (10^4)^(1/4) = 10
        assert truncation_level(MomentAssumption(k=2.0), 10_000, ONE) == pytest.approx(10.0)
        bounded = MomentAssumption(k=math.inf, radius_k=1.0)
        for n in (1, 10_000):
            assert truncation_level(bounded, n, LN3) == 1.0

    @pytest.mark.parametrize("eps, got", [(1e-200, "0.0"), (1e200, "inf")])
    def test_a_degenerate_truncation_level_names_t_and_eps(self, eps, got):
        # n eps^2 underflows to 0 at 1e-200 and overflows at 1e200 (a float's ** would raise)
        match = f"truncation level T at n = 3, eps = {eps!r} must be finite and > 0, got {got}"
        with pytest.raises(ParameterError, match=re.escape(match)):
            truncation_level(MomentAssumption(k=2.0), 3, PrivacyLevel(eps))


class TestBoundFormulas:
    def test_l2_bound_examples(self):
        # Gamma(1) = 1 and Gamma(3/2) = sqrt(pi)/2 collapse the ratio at d = 1
        assert l2_bound_B(1, 1.0, LN3) == pytest.approx(2.0, abs=1e-12)
        assert l2_bound_B(3, 1.0, LN3) == pytest.approx(4.0, abs=1e-12)

    def test_l2_stirling_bound(self):
        for d in range(1, 65):
            assert l2_bound_B(d, 1.0, ONE) <= ONE.phi_eps * 0.75 * math.sqrt(math.pi) * math.sqrt(d)

    def test_linf_bound_examples(self):
        assert linf_bound_B(1, 1.0, LN3) == pytest.approx(2.0, abs=1e-12)
        # d = 2, 3 frozen from the vertex-enumeration oracle: C_2 = 3, C_3 = 2
        assert linf_bound_B(2, 1.0, LN3) == pytest.approx(6.0, abs=1e-12)
        assert linf_bound_B(3, 1.0, LN3) == pytest.approx(4.0, abs=1e-12)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_cube_constant_matches_enumeration(self, d):
        factor = cube_halfspace_mean(d)
        for vertex in cube_vertices(d):
            np.testing.assert_allclose(
                halfspace_expectation_cube(vertex), factor * vertex, atol=1e-12
            )

    def test_cube_constants_are_the_exact_fractions_rounded_once(self):
        for d in range(1, 1025):
            odd, even = d % 2 == 1, d // 2
            mean = (Fraction(math.comb(d - 1, (d - 1) // 2), 2 ** (d - 1)) if odd
                    else Fraction(2 * math.comb(d - 1, even), 2**d + math.comb(d, even)))
            gamma = Fraction(1) if odd else Fraction(2**d, 2**d + math.comb(d, even))
            assert cube_halfspace_mean(d) == float(mean), d
            assert cube_tie_gamma(d) == float(gamma), d

    @pytest.mark.parametrize("d", range(1, 9))
    def test_sphere_constant_matches_quadrature(self, d):
        assert sphere_halfspace_mean(d) == pytest.approx(
            sphere_halfspace_mean_quadrature(d), abs=1e-8
        )


class TestTruncatedLaplace:
    def test_mean_and_variance(self):
        assumption = MomentAssumption(k=math.inf, radius_k=1.0)
        t_level = truncation_level(assumption, 100, ONE)
        draws = _truncated_laplace_batch(np.zeros(200_000), t_level, ONE, make_rng(10))
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean()) <= 5.0 * stderr
        second = draws**2
        se2 = second.std(ddof=1) / math.sqrt(draws.size)
        assert abs(second.mean() - 8.0) <= 5.0 * se2  # 8 T^2 / eps^2 with T = 1

    def test_analytic_privacy_ratio(self):
        # |clamp(x) - clamp(x')| <= 2T forces the density log ratio below eps
        rng = make_rng(11)
        t_level = truncation_level(MomentAssumption(k=2.0), 1000, ONE)
        kappa = ONE.epsilon / (2.0 * t_level)
        for _ in range(1000):
            x, xp = rng.uniform(-100, 100, size=2)
            z = rng.uniform(-3 * t_level, 3 * t_level)
            log_ratio = kappa * (
                abs(z - np.clip(xp, -t_level, t_level)) - abs(z - np.clip(x, -t_level, t_level))
            )
            assert log_ratio <= ONE.epsilon + 1e-9


class TestL2Ball:
    def test_support_norm_exact(self):
        rng = make_rng(12)
        bound = l2_bound_B(4, 1.0, ONE)
        channel = Channel.l2_ball(4, 1.0, ONE)
        for _ in range(50):
            z = channel.privatize([0.1, -0.2, 0.05, 0.3], rng)
            assert abs(np.linalg.norm(z) - bound) <= 1e-12 * bound

    def test_domain_error(self):
        with pytest.raises(DomainError):
            Channel.l2_ball(2, 1.0, ONE).privatize([1.0, 1.0], make_rng(0))

    def test_unbiased_at_interior_point(self):
        x = np.array([0.3, 0.4])
        draws = _l2_ball_batch(np.tile(x, (200_000, 1)), 1.0, ONE, make_rng(13))
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - x) <= 5.0 * stderr)

    def test_zero_input_symmetric(self):
        draws = _l2_ball_batch(np.zeros((200_000, 3)), 1.0, ONE, make_rng(14))
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) <= 5.0 * stderr)

    def test_single_and_batch_agree_in_law(self):
        x = np.array([0.5, -0.25])
        n = 40_000
        rng = make_rng(15)
        channel = Channel.l2_ball(2, 1.0, ONE)
        singles = np.array([channel.privatize(x, rng) for _ in range(n)])
        batch = _l2_ball_batch(np.tile(x, (n, 1)), 1.0, ONE, make_rng(16))
        gap = singles.mean(axis=0) - batch.mean(axis=0)
        joint_se = np.sqrt(
            singles.var(axis=0, ddof=1) / n + batch.var(axis=0, ddof=1) / n
        )
        assert np.all(np.abs(gap) <= 5.0 * joint_se)


class TestLinfBall:
    def test_support_is_vertex_set(self):
        rng = make_rng(17)
        channel = Channel.linf_ball(3, 1.0, ONE)
        bound = linf_bound_B(3, 1.0, ONE)
        for _ in range(50):
            z = channel.privatize([0.2, -0.9, 0.5], rng)
            assert np.all(np.isin(z, (-bound, bound)))

    def test_domain_error(self):
        with pytest.raises(DomainError):
            Channel.linf_ball(2, 1.0, ONE).privatize([1.2, 0.0], make_rng(0))

    def test_batch_reports_offending_record(self):
        data = np.zeros((5, 2))
        data[3, 1] = 2.0
        with pytest.raises(DomainError, match="record 3"):
            _linf_ball_batch(data, 1.0, ONE, make_rng(0))

    def test_zero_mean_high_dimension(self):
        level = PrivacyLevel(0.5)
        draws = _linf_ball_batch(np.zeros((100_000, 27)), 1.0, level, make_rng(18))
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0)) <= 5.0 * stderr)

    def test_single_and_batch_agree_in_law(self):
        x = np.array([0.7, 0.0, -0.4])
        n = 40_000
        rng = make_rng(19)
        channel = Channel.linf_ball(3, 1.0, ONE)
        singles = np.array([channel.privatize(x, rng) for _ in range(n)])
        batch = _linf_ball_batch(np.tile(x, (n, 1)), 1.0, ONE, make_rng(20))
        gap = singles.mean(axis=0) - batch.mean(axis=0)
        joint_se = np.sqrt(singles.var(axis=0, ddof=1) / n + batch.var(axis=0, ddof=1) / n)
        assert np.all(np.abs(gap) <= 5.0 * joint_se)


def _l2_ball_reference(x, radius, level, rng):
    """The l2 batch kernel as first written, with (n, d) float temporaries."""
    n, d = x.shape
    norms = np.linalg.norm(x, axis=1)
    directions = np.zeros_like(x)
    nz = norms > 0.0
    directions[nz] = x[nz] / norms[nz, None]
    if np.any(~nz):
        directions[~nz] = uniform_sphere(rng, d, size=int((~nz).sum()))
    sign = np.where(rng.random(n) < 0.5 + norms / (2.0 * radius), 1.0, -1.0)
    x_rounded = radius * sign[:, None] * directions
    t_sign = np.where(rng.random(n) < level.pi_eps, 1.0, -1.0)
    u = uniform_sphere(rng, d, size=n)
    ip = np.einsum("ij,ij->i", u, x_rounded)
    side = np.where(ip >= 0.0, 1.0, -1.0)
    return l2_bound_B(d, radius, level) * u * (side * t_sign)[:, None]


def _linf_ball_reference(x, radius, level, rng):
    """The hypercube batch kernel as whole-array draws, with float +/-1 arrays: the vertex
    bits (whole bytes per row, from raw 64-bit words), then the side bits, then one (n, d)
    draw of rounding uniforms."""
    n, d = x.shape
    nbytes = (d + 7) // 8
    words = rng.bit_generator.random_raw((n * nbytes + 7) // 8)
    bits = np.unpackbits(words.view(np.uint8))[: 8 * n * nbytes].reshape(n, 8 * nbytes)[:, :d]
    v = np.where(bits == 1, 1.0, -1.0)
    p_plus = 0.5 * (1.0 + cube_tie_gamma(d) / level.phi_eps)
    side = np.where(rng.random(n) < p_plus, 1.0, -1.0)
    x_rounded = np.where(rng.random((n, d)) < 0.5 + x / (2.0 * radius), 1.0, -1.0)
    ip = np.einsum("ij,ij->i", v, x_rounded)
    flip = np.where(ip == 0.0, 1.0, np.sign(ip) * side)
    return linf_bound_B(d, radius, level) * v * flip[:, None]


def _assert_pinned(kernel, reference, x, radius, level, seed):
    ours, theirs = make_rng(seed), make_rng(seed)
    got = kernel(x, radius, level, ours)
    want = reference(x, radius, level, theirs)
    assert np.array_equal(got, want)
    # the same draws were consumed: both generators are left in one state
    assert ours.bit_generator.state == theirs.bit_generator.state


class TestKernelPins:
    """The batch kernels reproduce their whole-array reference formulations bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_l2_with_zero_norm_rows(self, seed):
        x = make_rng(100 + seed).uniform(-0.5, 0.5, size=(500, 5))
        x[::7] = 0.0
        _assert_pinned(_l2_ball_batch, _l2_ball_reference, x, 1.3, ONE, seed)

    @pytest.mark.parametrize("d", [1, 3, 64])
    def test_l2_without_zero_rows(self, d):
        x = uniform_sphere(make_rng(200 + d), d, size=2000) * 0.9
        _assert_pinned(_l2_ball_batch, _l2_ball_reference, x, 1.0, LN3, d)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_linf_even_d_ties(self, seed):
        x = make_rng(300 + seed).uniform(-1.0, 1.0, size=(2000, 4))
        _assert_pinned(_linf_ball_batch, _linf_ball_reference, x, 1.0, ONE, seed)

    @pytest.mark.parametrize("d", [1, 27])
    def test_linf_centred_binary_rows(self, d):
        x = np.where(make_rng(400 + d).random((2000, d)) < 0.3, 0.5, -0.5)
        _assert_pinned(_linf_ball_batch, _linf_ball_reference, x, 0.5, PrivacyLevel(0.5), d)

    @pytest.mark.parametrize("d", [1, 8, 23, 64])
    def test_linf_spans_several_row_blocks(self, d):
        n = 3 * max(1, BLOCK // d) + 5
        x = make_rng(600 + d).uniform(-1.0, 1.0, size=(n, d))
        _assert_pinned(_linf_ball_batch, _linf_ball_reference, x, 1.0, ONE, d)

    @pytest.mark.parametrize("d", [1, 3])
    def test_linf_output_does_not_depend_on_the_block_size(self, d, monkeypatch):
        n = 300
        x = make_rng(620, d).uniform(-1.0, 1.0, size=(n, d))
        grid = (1, 7, 150, n - 1)
        runs = []
        for block in (1, 7, BLOCK):
            monkeypatch.setattr(core, "BLOCK", block)
            whole, streamed = make_rng(621, d), make_rng(621, d)
            z = _linf_ball_batch(x, 1.0, ONE, whole)
            means = _linf_ball_batch(x, 1.0, ONE, streamed, grid=grid)
            runs.append((z, means, whole.bit_generator.state, streamed.bit_generator.state))
        for z, means, end, streamed_end in runs:
            assert np.array_equal(z, runs[0][0])
            assert np.array_equal(means, runs[0][1])
            assert end == streamed_end == runs[0][2]

    def test_linf_empty_batch(self):
        _assert_pinned(_linf_ball_batch, _linf_ball_reference, np.empty((0, 5)), 1.0, ONE, 0)

    def test_linf_domain_error_names_first_offending_record(self):
        rows = BLOCK // 8
        x = make_rng(610).uniform(-0.5, 0.5, size=(3 * rows + 5, 8))
        x[5, 2] = 1.0 + 1e-10  # within the relative slack: accepted
        x[rows + 2, 3] = -1.7
        x[2 * rows + 1, 0] = 2.5
        with pytest.raises(DomainError) as excinfo:
            _linf_ball_batch(x, 1.0, ONE, make_rng(0))
        assert str(excinfo.value) == (
            f"record {rows + 2}: ||x||_inf = 1.7 exceeds the radius 1"
        )

    @pytest.mark.parametrize("d", [1, 23])
    def test_linf_row_source_draws_what_its_array_draws(self, d):
        n = 2 * (BLOCK // d) + 5
        x = make_rng(630, d).uniform(-1.0, 1.0, size=(n, d))
        source = RowSource(x.shape, lambda lo, out: np.copyto(out, x[lo : lo + len(out)]))
        for grid in (None, (1, n // 2, n)):
            ours, theirs = make_rng(631, d), make_rng(631, d)
            got = _linf_ball_batch(source, 1.0, ONE, ours, grid=grid)
            assert np.array_equal(got, _linf_ball_batch(x, 1.0, ONE, theirs, grid=grid))
            assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("bad", [1.25, np.nan], ids=["above", "nan"])
    def test_linf_row_source_rows_are_checked_as_they_are_written(self, bad):
        rows = BLOCK // 8
        x = make_rng(611).uniform(-0.5, 0.5, size=(3 * rows + 5, 8))
        x[5, 2] = 1.0 + 1e-10  # within the relative slack: accepted
        x[2 * rows + 3, 4] = bad  # one row, in the third block
        blocks = []

        def fill(lo, out):
            blocks.append(lo)
            out[...] = x[lo : lo + len(out)]

        reset_privatization_count()
        with pytest.raises(DomainError) as excinfo:
            _linf_ball_batch(RowSource(x.shape, fill), 1.0, ONE, make_rng(0), grid=(len(x),))
        assert str(excinfo.value) == (
            f"record {2 * rows + 3}: ||x||_inf = {bad:.6g} exceeds the radius 1"
        )
        assert blocks == [0, rows, 2 * rows]  # the offending block is never used
        assert privatization_count() == 0  # as for an array, which fails before any draw

    def test_laplace_kernels_add_data_to_noise(self):
        x = make_rng(500).uniform(0.0, 1.0, size=(300, 3))
        level = PrivacyLevel(0.7)
        got = _laplace_vector_batch(x, 1.0, level, "l1", make_rng(501))
        assert np.array_equal(got, x + laplace_sample(make_rng(501), 0.7 / 3.0, size=(300, 3)))
        s = x[:, 0] * 4.0 - 2.0
        got = _naive_median_batch(s, 1.0, level, make_rng(502), one_sided=True)
        want = np.clip(s, 0.0, 1.0) + laplace_sample(make_rng(502), 0.35, size=s.shape)
        assert np.array_equal(got, want)
        assumption = MomentAssumption(k=math.inf, radius_k=1.5)
        t_level = truncation_level(assumption, 300, level)
        got = _truncated_laplace_batch(s, t_level, level, make_rng(503))
        want = np.clip(s, -1.5, 1.5) + laplace_sample(make_rng(503), 0.7 / 3.0, size=s.shape)
        assert np.array_equal(got, want)


# name -> the kernel on (x, rng, **grid), for records x inside the unit l2 ball
_VECTOR_KERNELS = {
    "l2_ball": lambda x, rng, **g: _l2_ball_batch(x, 1.0, LN3, rng, **g),
    "linf_ball": lambda x, rng, **g: _linf_ball_batch(x, 1.0, LN3, rng, **g),
    "laplace_l1": lambda x, rng, **g: _laplace_vector_batch(np.abs(x), 1.0, LN3, "l1", rng, **g),
    "laplace_l2_paper": lambda x, rng, **g: _laplace_vector_batch(
        x, 1.0, LN3, "l2_paper", rng, **g
    ),
}


def _streamed_records(d, n):
    x = make_rng(700, d).uniform(-1.0, 1.0, size=(n, d)) * (0.9 / math.sqrt(d))
    x[::9] = 0.0  # zero-norm rows take the l2 kernel's drawn directions
    return x


class TestStreamedKernels:
    """``grid=`` returns the prefix means of the materialised output, bit for bit."""

    @pytest.mark.parametrize("kind", sorted(_VECTOR_KERNELS))
    @pytest.mark.parametrize("d", [1, 2, 27, 64])
    def test_equals_prefix_means_of_output(self, kind, d):
        kernel = _VECTOR_KERNELS[kind]
        rows = BLOCK // d
        n = 3 * rows + 17
        x = _streamed_records(d, n)
        grids = [(n,), (1,), (rows - 1, rows + 1, 2 * rows + 5, n - 3), (7, 1000)]
        for grid in grids:
            streamed, whole = make_rng(701, d), make_rng(701, d)
            reset_privatization_count()
            got = kernel(x, streamed, grid=grid)
            assert privatization_count() == n
            want = _prefix_means(kernel(x, whole), grid)
            assert got.shape == (len(grid), d)
            assert np.array_equal(got, want)
            # rows past the last grid point still draw: both generators end in one state
            assert streamed.bit_generator.state == whole.bit_generator.state

    @pytest.mark.parametrize("kind", sorted(_VECTOR_KERNELS))
    def test_rejects_a_grid_outside_the_batch(self, kind):
        x = _streamed_records(3, 50)
        for grid in [(), (0, 10), (10, 10), (20, 10), (51,)]:
            with pytest.raises(ParameterError):
                _VECTOR_KERNELS[kind](x, make_rng(0), grid=grid)


@pytest.mark.parametrize("kind", ["l2_ball", "linf_ball", "laplace_l2_paper"])
def test_streamed_kernels_hold_no_channel_output(kind):
    """With ``grid=``, a kernel's extra memory is O(block), plus 2 n d bytes for the hypercube."""
    x = _streamed_records(64, 20_000)
    kernel = _VECTOR_KERNELS[kind]
    kernel(x[:100], make_rng(0), grid=(100,))  # warm up any one-time allocations
    tracemalloc.start()
    try:
        kernel(x, make_rng(1), grid=(5000, 20_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * x.nbytes


BAD_RADII = [math.inf, math.nan, 0.0, -1.0]


class TestRadiusRule:
    """Every kernel and output bound takes a finite radius > 0, checked before any draw."""

    @pytest.mark.parametrize("radius", BAD_RADII)
    @pytest.mark.parametrize("call", [
        lambda r, rng: _l2_ball_batch(np.zeros((3, 2)), r, ONE, rng),
        lambda r, rng: _linf_ball_batch(np.zeros((3, 2)), r, ONE, rng),
        lambda r, rng: _laplace_vector_batch(np.zeros((3, 2)), r, ONE, "l1", rng),
        lambda r, rng: _laplace_vector_batch(np.zeros((3, 2)), r, ONE, "l2_paper", rng),
        lambda r, rng: _naive_median_batch(np.zeros(3), r, ONE, rng),
        # the truncation level T is the clamp radius of the same law
        lambda r, rng: _truncated_laplace_batch(np.zeros(3), r, ONE, rng),
        lambda r, rng: l2_bound_B(2, r, ONE),
        lambda r, rng: linf_bound_B(2, r, ONE),
    ], ids=["l2", "linf", "laplace-l1", "laplace-l2_paper", "naive_median", "truncated_laplace",
            "l2_bound", "linf_bound"])
    def test_rejects_before_any_draw(self, call, radius):
        rng = make_rng(0)
        state = rng.bit_generator.state
        reset_privatization_count()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="radius must be finite and > 0"):
                call(radius, rng)
        assert rng.bit_generator.state == state and privatization_count() == 0


_R = 2.0  # radius of every ball-check site below, on records in R^3


def _row_source(x):
    return RowSource(x.shape, lambda lo, out: np.copyto(out, x[lo : lo + len(out)]))


# every site of the ball rule -> (the norm its message names, a call on records x and rng)
_BALL_SITES = {
    "l2_ball": ("2", lambda x, rng: _l2_ball_batch(x, _R, ONE, rng)),
    "linf_ball": ("inf", lambda x, rng: _linf_ball_batch(x, _R, ONE, rng)),
    "linf_ball-row-source":
        ("inf", lambda x, rng: _linf_ball_batch(_row_source(x), _R, ONE, rng)),
    "laplace_vector-l2_paper":
        ("2", lambda x, rng: _laplace_vector_batch(x, _R, ONE, "l2_paper", rng)),
    "logistic-covariates":
        ("2", lambda x, rng: private_logistic_sgd((x, np.ones(len(x))), "l2", _R, ONE, rng)),
    "verify_dp": ("inf", lambda x, rng: verify_dp(Channel.linf_ball(3, _R, ONE), x)),
}


class TestNonFiniteRecords:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.5 * _R], ids=["nan", "inf", "above"])
    @pytest.mark.parametrize("site", sorted(_BALL_SITES))
    def test_every_ball_site_applies_the_one_rule(self, site, bad):
        norm, call = _BALL_SITES[site]
        n = block_rows(3) + 9  # two row blocks: a row source is checked block by block
        i = n - 4
        x = make_rng(640).uniform(-0.5, 0.5, size=(n, 3))
        x[3] = (_R * (1.0 + 1e-10), 0.0, 0.0)  # within the relative slack: accepted
        x[i] = (0.0, bad, 0.0)
        rng = make_rng(641)
        state = rng.bit_generator.state
        reset_privatization_count()
        with pytest.raises(DomainError) as excinfo:
            call(x, rng)
        assert str(excinfo.value) == f"record {i}: ||x||_{norm} = {bad:.6g} exceeds the radius 2"
        assert privatization_count() == 0
        if site != "linf_ball-row-source":  # arrays are checked before any draw
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_ball_channels_reject(self, bad):
        x = np.zeros((4, 3))
        x[2, 1] = bad
        for kernel in (_linf_ball_batch, _l2_ball_batch):
            with pytest.raises(DomainError, match="record 2"):
                kernel(x, 1.0, ONE, make_rng(0))
        for channel in (Channel.linf_ball(3, 1.0, ONE), Channel.l2_ball(3, 1.0, ONE)):
            with pytest.raises(DomainError):
                channel.privatize(x[2], make_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["l1", "l2_paper"])
    def test_laplace_vector_rejects(self, bad, mode):
        x = np.zeros((4, 3))
        x[2, 1] = bad
        message = {
            "l1": lambda i: "l1 mode expects coordinates in [0, 1]",
            "l2_paper": lambda i: f"record {i}: ||x||_2 = {abs(bad):.6g} exceeds the radius 1",
        }[mode]
        with pytest.raises(DomainError) as excinfo:
            _laplace_vector_batch(x, 1.0, ONE, mode, make_rng(0))
        assert str(excinfo.value) == message(2)
        with pytest.raises(DomainError) as excinfo:
            Channel.laplace_vector(3, 1.0, ONE, mode).privatize(x[2], make_rng(0))
        assert str(excinfo.value) == message(0)

    @pytest.mark.parametrize("kind", ["naive_median", "truncated_laplace"])
    def test_scalar_clamp_channels_reject_nan_before_any_draw(self, kind):
        kernel, channel = {
            "naive_median": (partial(_naive_median_batch, radius=1.0),
                             Channel.naive_median(1.0, ONE)),
            "truncated_laplace": (partial(_truncated_laplace_batch, t_level=1.0),
                                  Channel.truncated_laplace(_TRUNC, 100, ONE)),
        }[kind]
        rng = make_rng(0)
        state = rng.bit_generator.state
        reset_privatization_count()
        with pytest.raises(DomainError, match="record 2 is NaN"):
            kernel(np.array([0.1, -0.2, np.nan, 0.3]), level=ONE, rng=rng)
        with pytest.raises(DomainError, match="record 0 is NaN"):
            channel.privatize(np.nan, rng)
        assert rng.bit_generator.state == state
        assert privatization_count() == 0
        # infinities stay clamped to the channel's interval
        z = kernel(np.array([np.inf, -np.inf]), level=ONE, rng=rng)
        assert np.all(np.isfinite(z))

    def test_row_norm_overflow_raises_no_warning(self):
        x = np.array([[0.1, 0.0], [1e200, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in (partial(_l2_ball_batch, x, 1.0, ONE),
                         partial(_laplace_vector_batch, x, 1.0, ONE, "l2_paper")):
                with pytest.raises(DomainError) as excinfo:
                    call(rng=make_rng(0))
                assert str(excinfo.value) == "record 1: ||x||_2 = inf exceeds the radius 1"


_TRUNC = MomentAssumption(k=2.0)

# kind -> (per-record call, kernel call, record); d = 4 gives the hypercube ties
_PER_RECORD = {
    "truncated_laplace": (
        Channel.truncated_laplace(_TRUNC, 100, ONE).privatize,
        lambda b, rng: _truncated_laplace_batch(b, truncation_level(_TRUNC, 100, ONE), ONE, rng),
        3.7,
    ),
    "naive_median": (
        Channel.naive_median(1.0, ONE, one_sided=True).privatize,
        lambda b, rng: _naive_median_batch(b, 1.0, ONE, rng, one_sided=True),
        -0.4,
    ),
    "sign_rr": (
        Channel.sign_rr(LN3).privatize,
        lambda b, rng: _sign_rr_batch(b, LN3, rng),
        -1.0,
    ),
    "l2_ball": (
        Channel.l2_ball(3, 1.0, ONE).privatize,
        lambda b, rng: _l2_ball_batch(b, 1.0, ONE, rng),
        [0.3, -0.4, 0.1],
    ),
    "l2_ball_zero": (
        Channel.l2_ball(3, 1.0, ONE).privatize,
        lambda b, rng: _l2_ball_batch(b, 1.0, ONE, rng),
        [0.0, 0.0, 0.0],
    ),
    "linf_ball": (
        Channel.linf_ball(4, 1.0, ONE).privatize,
        lambda b, rng: _linf_ball_batch(b, 1.0, ONE, rng),
        [0.5, -1.0, 0.0, 0.25],
    ),
    "laplace_vector": (
        Channel.laplace_vector(2, 1.0, ONE, "l2_paper").privatize,
        lambda b, rng: _laplace_vector_batch(b, 1.0, ONE, "l2_paper", rng),
        [0.6, -0.3],
    ),
}

# kind -> (channel, record)
_CHANNELS = {
    "truncated_laplace": (Channel.truncated_laplace(_TRUNC, 100, ONE), 3.7),
    "naive_median": (Channel.naive_median(1.0, ONE, one_sided=True), -0.4),
    "sign_rr": (Channel.sign_rr(LN3), 1.0),
    "l2_ball": (Channel.l2_ball(3, 1.0, ONE), [0.3, -0.4, 0.1]),
    "l2_ball_zero": (Channel.l2_ball(3, 1.0, ONE), [0.0, 0.0, 0.0]),
    "linf_ball": (Channel.linf_ball(4, 1.0, ONE), [0.5, -1.0, 0.0, 0.25]),
    "laplace_vector": (Channel.laplace_vector(2, 1.0, ONE, "l1"), [0.6, 0.3]),
}


def _assert_batch_of_one(single, batch, x, seeds=range(20)):
    scalar = np.ndim(x) == 0
    for seed in seeds:
        ours, theirs = make_rng(seed), make_rng(seed)
        got = single(x, ours)
        want = batch(np.reshape(x, 1 if scalar else (1, -1)), theirs)
        if scalar:
            assert type(got) is float and got == want[0]
        else:
            assert got.shape == (np.size(x),) and np.array_equal(got, want[0])
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestBatchOfOne:
    """A per-record call is the kernel on a batch of one: equal output, equal draws."""

    @pytest.mark.parametrize("kind", sorted(_PER_RECORD))
    def test_channel_functions(self, kind):
        # each constructor wires its per-record entry to the right kernel and parameters
        single, batch, x = _PER_RECORD[kind]
        _assert_batch_of_one(single, batch, x)

    @pytest.mark.parametrize("kind", sorted(_CHANNELS))
    def test_channel_privatize(self, kind):
        channel, x = _CHANNELS[kind]
        _assert_batch_of_one(channel.privatize, channel.privatize_batch, x)


class TestBatchShape:
    """A batch's records must have the channel's dimension."""

    @pytest.mark.parametrize("kind", sorted(_CHANNELS))
    def test_rejects_a_wider_record(self, kind):
        channel, _ = _CHANNELS[kind]
        with pytest.raises(ParameterError, match=f"dimension {channel.dim}"):
            channel.privatize_batch(np.zeros((5, channel.dim + 1)), make_rng(0))

    @pytest.mark.parametrize("kind", ["l2_ball", "linf_ball", "laplace_vector"])
    def test_vector_kinds_reject_a_flat_batch(self, kind):
        channel, _ = _CHANNELS[kind]
        with pytest.raises(ParameterError):
            channel.privatize_batch(np.zeros(5), make_rng(0))

    def test_privatize_rejects_a_record_of_another_dimension(self):
        # a short record once came out of the l2 channel off the sphere of radius B
        with pytest.raises(ParameterError):
            Channel.l2_ball(3, 1.0, ONE).privatize([0.1, 0.2], make_rng(0))
        with pytest.raises(ParameterError):
            Channel.sign_rr(ONE).privatize([1.0, 1.0], make_rng(0))
        with pytest.raises(ParameterError):
            Channel.laplace_vector(3, 1.0, ONE).privatize([], make_rng(0))

    @pytest.mark.parametrize("kind", ["truncated_laplace", "naive_median", "sign_rr"])
    def test_scalar_kinds_take_a_column_with_the_same_draws(self, kind):
        channel, x = _CHANNELS[kind]
        flat, column = make_rng(31), make_rng(31)
        got = channel.privatize_batch(np.full((1001, 1), x), column)
        assert got.shape == (1001, 1)
        assert np.array_equal(got[:, 0], channel.privatize_batch(np.full(1001, x), flat))
        assert flat.bit_generator.state == column.bit_generator.state

    def test_laplace_vector_needs_a_dimension(self):
        with pytest.raises(ParameterError):
            Channel.laplace_vector(0, 1.0, ONE)

class TestSignRR:
    def test_exact_outputs_and_expectation(self):
        rng = make_rng(21)
        channel = Channel.sign_rr(LN3)
        values = {channel.privatize(1.0, rng) for _ in range(1000)}
        assert values == {LN3.phi_eps, -LN3.phi_eps}
        assert LN3.phi_eps == pytest.approx(2.0, abs=1e-12)

    def test_likelihood_ratio_is_exactly_exp_eps(self):
        assert LN3.pi_eps / (1.0 - LN3.pi_eps) == pytest.approx(math.exp(LN3.epsilon), rel=1e-12)

    def test_unbiased_for_minus_one(self):
        draws = _sign_rr_batch(np.full(200_000, -1.0), ONE, make_rng(22))
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() + 1.0) <= 5.0 * stderr

    def test_rejects_non_sign(self):
        with pytest.raises(DomainError):
            Channel.sign_rr(ONE).privatize(0.5, make_rng(0))


class TestLaplaceVector:
    def test_l1_mode_variance(self):
        level = PrivacyLevel(0.5)
        draws = _laplace_vector_batch(np.zeros((4000, 27)), 1.0, level, "l1", make_rng(23))
        coords = draws.ravel()
        second = coords**2
        stderr = second.std(ddof=1) / math.sqrt(coords.size)
        assert abs(second.mean() - 5832.0) <= 5.0 * stderr  # 2 (d / eps)^2

    def test_unbiased(self):
        x = np.array([0.2, 0.8, 0.5])
        draws = _laplace_vector_batch(np.tile(x, (100_000, 1)), 1.0, ONE, "l1", make_rng(24))
        stderr = draws.std(axis=0, ddof=1) / math.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - x) <= 5.0 * stderr)

    def test_d1_reduces_to_scalar_laplace(self):
        x = np.full((200_000, 1), 0.5)
        draws = _laplace_vector_batch(x, 1.0, ONE, "l1", make_rng(25))[:, 0]
        second = (draws - 0.5) ** 2
        stderr = second.std(ddof=1) / math.sqrt(second.size)
        assert abs(second.mean() - 2.0) <= 5.0 * stderr  # Laplace(eps/range), var 2

    def test_l2_mode_domain_check(self):
        with pytest.raises(DomainError):
            Channel.laplace_vector(2, 1.0, ONE, "l2_paper").privatize([1.0, 1.0], make_rng(0))

    def test_unknown_mode(self):
        with pytest.raises(ParameterError):
            Channel.laplace_vector(1, 1.0, ONE, "l3")


class TestLaplaceCalibration:
    """Every Laplace law, fed zeros, emits exactly the noise of its documented inverse scale:
    the test that a miscalibrated noise scale fails without the golden digests."""

    EPS, RADIUS = 0.7, 1.5

    @pytest.mark.parametrize("n, d", [(20, 8), (50_000, 3), (3000, 64)])
    @pytest.mark.parametrize("mode", ["l1", "l2_paper"])
    def test_laplace_vector(self, mode, n, d):
        level, r = PrivacyLevel(self.EPS), self.RADIUS
        inv = self.EPS / (d * r) if mode == "l1" else self.EPS / (2.0 * r * math.sqrt(d))
        got = Channel.laplace_vector(d, r, level, mode).privatize_batch(np.zeros((n, d)),
                                                                         make_rng(31, n))
        want = laplace_sample(make_rng(31, n), inv, size=(n, d)) + 0.0
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    @pytest.mark.parametrize("kind", ["naive_median", "truncated_laplace"])
    def test_scalar_laws(self, kind):
        level, n = PrivacyLevel(self.EPS), 4000
        if kind == "naive_median":
            channel, t = Channel.naive_median(self.RADIUS, level), self.RADIUS
        else:
            channel = Channel.truncated_laplace(MomentAssumption(k=2.0), n, level)
            t = truncation_level(MomentAssumption(k=2.0), n, level)
        got = channel.privatize_batch(np.zeros(n), make_rng(32))
        want = laplace_sample(make_rng(32), self.EPS / (2.0 * t), size=n) + 0.0
        assert np.array_equal(got.view(np.int64), want.view(np.int64))


class TestNaiveMedian:
    def test_mean_and_variance(self):
        draws = _naive_median_batch(np.full(200_000, 0.5), 1.0, ONE, make_rng(26))
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 0.5) <= 5.0 * stderr
        second = (draws - 0.5) ** 2
        se2 = second.std(ddof=1) / math.sqrt(second.size)
        assert abs(second.mean() - 8.0) <= 5.0 * se2  # 2 / (eps/(2r))^2

    def test_clamps_before_noise(self):
        draws = _naive_median_batch(np.full(200_000, 2.0), 1.0, ONE, make_rng(27))
        stderr = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - 1.0) <= 5.0 * stderr

    def test_median_preserved(self):
        draws = _naive_median_batch(np.zeros(1_000_000), 1.0, ONE, make_rng(28))
        iqr = np.subtract(*np.percentile(draws, [75, 25]))
        assert abs(np.median(draws)) <= 5.0 * iqr / math.sqrt(draws.size)


class TestChannelObjects:
    def test_factories_compute_bounds(self):
        assert Channel.l2_ball(3, 1.0, LN3).bound_B == pytest.approx(4.0, abs=1e-12)
        assert Channel.linf_ball(2, 1.0, LN3).bound_B == pytest.approx(6.0, abs=1e-12)
        assert Channel.sign_rr(LN3).bound_B == pytest.approx(2.0, abs=1e-12)
        trunc = Channel.truncated_laplace(MomentAssumption(k=2.0), 10_000, ONE)
        assert trunc.radius == pytest.approx(10.0)

    def test_channels_that_draw_differently_are_not_equal(self):
        # a channel is its bound kernel, so channels compare by identity, not by field
        assert Channel.naive_median(1.0, ONE, one_sided=True) != Channel.naive_median(1.0, ONE)
        l1, l2_paper = (Channel.laplace_vector(2, 1.0, ONE, norm) for norm in ("l1", "l2_paper"))
        assert l1 != l2_paper
        channel = Channel.sign_rr(ONE)
        assert channel == channel

    def test_support_points(self):
        sign = Channel.sign_rr(LN3)
        np.testing.assert_allclose(sign.support_points(), [[-2.0], [2.0]])
        cube = Channel.linf_ball(2, 1.0, LN3)
        assert cube.support_points().shape == (4, 2)
        with pytest.raises(ParameterError):
            Channel.l2_ball(2, 1.0, LN3).support_points()

    def test_privatize_dispatch_shapes(self):
        rng = make_rng(29)
        assert Channel.l2_ball(3, 1.0, ONE).privatize([0.1, 0.0, 0.2], rng).shape == (3,)
        assert Channel.linf_ball(2, 1.0, ONE).privatize([0.1, 0.0], rng).shape == (2,)
        assert isinstance(Channel.sign_rr(ONE).privatize(1.0, rng), float)
        assert Channel.laplace_vector(2, 1.0, ONE).privatize([0.5, 0.5], rng).shape == (2,)
        assert isinstance(Channel.naive_median(1.0, ONE).privatize(0.2, rng), float)
        batch = Channel.linf_ball(2, 1.0, ONE).privatize_batch(np.zeros((7, 2)), rng)
        assert batch.shape == (7, 2)

    def test_privatization_counter(self):
        reset_privatization_count()
        rng = make_rng(30)
        Channel.linf_ball(2, 1.0, ONE).privatize_batch(np.zeros((25, 2)), rng)
        Channel.sign_rr(ONE).privatize(1.0, rng)
        assert privatization_count() == 26
        reset_privatization_count()
        assert privatization_count() == 0
