import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privest import estimators
from privest.core import BLOCK, DomainError, ParameterError, PrivacyLevel, block_rows, make_rng
from privest.estimators import (
    DensityEstimate,
    ORTH_BOUND,
    MomentAssumption,
    _l2_project,
    _logistic_sgd_paths,
    _median_sgd_paths,
    _projection_coeffs,
    _sigmoid,
    density_estimate,
    logistic_gradient,
    private_logistic_sgd,
    private_mean_scalar,
    private_mean_vector,
    private_median_sgd,
    series_bandwidth,
    soft_threshold,
    sparse_mean,
    sparse_mean_threshold,
    trig_basis_matrix,
)
from privest.mechanisms import (
    Channel,
    _l2_ball_batch,
    _linf_ball_batch,
    _prefix_means,
    privatization_count,
    reset_privatization_count,
)

ONE = PrivacyLevel(1.0)

# SGD grids for a 10-record stream: empty, below 1, repeated, decreasing, past n
BAD_GRIDS = [[], [0, 10], [5, 5], [10, 5], [11], [5.5]]


@pytest.fixture
def sgd_iterates(monkeypatch):
    """Spy on the SGD engine: the list of each run's (reps, n, ...) iterates.

    Each entry stacks the points at which the run's ``gradient`` callback
    was called, one per step, so entry r of a run is replicate r's path.
    """
    runs = []
    engine = estimators._sgd_paths

    def spy(theta0, gradient, step, project, n, grid):
        points = []

        def recorded(theta, j):
            points.append(theta.copy())
            return gradient(theta, j)

        out = engine(theta0, recorded, step, project, n, grid)
        runs.append(np.stack(points, axis=1))
        return out

    monkeypatch.setattr(estimators, "_sgd_paths", spy)
    return runs


def _row_order_mean(z):
    """Mean of the rows of z summed one after another, as every library mean is.

    numpy's axis-0 mean does so for two or more columns, but sums a single
    column pairwise; there the reference is cumsum's last row.
    """
    if z.shape[1] == 1:
        return np.cumsum(z, axis=0)[-1] / len(z)
    return z.mean(axis=0)


class TestPrivateMeanScalar:
    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            private_mean_scalar([], MomentAssumption(k=2.0), ONE, make_rng(0))

    def test_zero_data_unbiased(self):
        assumption = MomentAssumption(k=math.inf, radius_k=1.0)
        rng = make_rng(40)
        estimates = np.array([
            private_mean_scalar(np.zeros(100), assumption, ONE, rng) for _ in range(1000)
        ])
        stderr = estimates.std(ddof=1) / math.sqrt(estimates.size)
        assert abs(estimates.mean()) <= 5.0 * stderr

    def test_counts_one_channel_call_per_record(self):
        reset_privatization_count()
        private_mean_scalar(np.zeros(123), MomentAssumption(k=2.0), ONE, make_rng(0))
        assert privatization_count() == 123


class TestPrivateMeanVector:
    def test_single_record_unbiased(self):
        x = np.array([0.3, -0.2, 0.1])
        rng = make_rng(41)
        estimates = np.array([
            private_mean_vector(x[None, :], "l2", 1.0, ONE, rng) for _ in range(100_000)
        ])
        stderr = estimates.std(axis=0, ddof=1) / math.sqrt(estimates.shape[0])
        assert np.all(np.abs(estimates.mean(axis=0) - x) <= 5.0 * stderr)

    def test_domain_error_names_record(self):
        data = np.zeros((4, 2))
        data[2] = (3.0, 0.0)
        with pytest.raises(DomainError, match="record 2"):
            private_mean_vector(data, "linf", 1.0, ONE, make_rng(0))

    def test_unknown_geometry(self):
        with pytest.raises(ParameterError):
            private_mean_vector(np.zeros((2, 2)), "l7", 1.0, ONE, make_rng(0))


class TestMedianSgd:
    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            private_median_sgd([], 1.0, ONE, make_rng(0))

    def test_iterates_stay_projected_and_average_exactly(self, sgd_iterates):
        rng = make_rng(42)
        data = rng.uniform(-1, 1, size=2000)
        estimate = private_median_sgd(data, 1.0, ONE, make_rng(43))
        (iterates,) = sgd_iterates[0]
        assert np.all(iterates >= -1.0) and np.all(iterates <= 1.0)
        assert estimate == pytest.approx(iterates.mean(), abs=1e-12)

    def test_one_sided_projection(self, sgd_iterates):
        rng = make_rng(44)
        data = rng.lognormal(0.0, 0.5, size=500)
        private_median_sgd(data, 3.0, ONE, make_rng(45), one_sided=True)
        (iterates,) = sgd_iterates[0]
        assert np.all(iterates >= 0.0)

    def test_constant_stream_within_bound(self):
        # |estimate - c| <= 6 r / sqrt(n eps^2) in at least 90% of replicates
        n, reps, c = 10_000, 100, 0.3
        paths = _median_sgd_paths(
            np.full((reps, n), c), 1.0, ONE, make_rng(46), [n]
        )
        bound = 6.0 / math.sqrt(n)
        assert np.mean(np.abs(paths[0] - c) <= bound) >= 0.90

    def test_symmetric_data_centered(self):
        n, reps = 10_000, 100
        data = make_rng(47).uniform(-1, 1, size=(reps, n))
        paths = _median_sgd_paths(data, 1.0, ONE, make_rng(48), [n])
        assert np.mean(np.abs(paths[0]) <= 6.0 / math.sqrt(n)) >= 0.90

    def test_beats_naive_estimator_on_lognormal(self):
        from privest.generators import Lognormal
        from privest.mechanisms import _naive_median_batch

        gen = Lognormal(mu=10.0, sigma=1.2)
        n, reps = 20_000, 30
        radius = 2.0 * gen.true_median
        data = np.stack([gen.sample(n, make_rng(49, r)) for r in range(reps)])
        sgd = _median_sgd_paths(data, radius, ONE, make_rng(50), [n], one_sided=True)[0]
        noisy = _naive_median_batch(data, radius, ONE, make_rng(51), one_sided=True)
        naive = np.median(noisy, axis=1)
        risk_star = gen.abs_risk(gen.true_median)
        sgd_excess = gen.abs_risk(sgd) - risk_star
        naive_excess = gen.abs_risk(naive) - risk_star
        assert np.mean(sgd_excess < naive_excess) >= 0.95

    def test_single_and_batch_implementations_agree(self):
        data = make_rng(52).uniform(-1, 1, size=600)
        single = private_median_sgd(data, 1.0, ONE, make_rng(53))
        batch = _median_sgd_paths(data[None, :], 1.0, ONE, make_rng(53), [600])[0, 0]
        assert single == pytest.approx(batch, abs=1e-12)

    @pytest.mark.parametrize("one_sided", [False, True])
    def test_single_run_is_the_engine_bit_for_bit(self, one_sided, sgd_iterates):
        data = make_rng(52).uniform(-0.5, 1.5, size=600)
        ours, theirs = make_rng(53), make_rng(53)
        single = private_median_sgd(data, 1.0, ONE, ours, one_sided=one_sided)
        paths = _median_sgd_paths(data[None, :], 1.0, ONE, theirs, [600], one_sided)
        assert single == paths[0, 0]
        iterates, engine_iterates = sgd_iterates
        assert np.array_equal(iterates, engine_iterates)
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_engine_iterates(self, sgd_iterates, monkeypatch):
        data = make_rng(54).uniform(-1, 1, size=(3, 500))
        grid = [100, 500]
        paths = _median_sgd_paths(data, 1.0, ONE, make_rng(55), grid)
        (iterates,) = sgd_iterates
        monkeypatch.undo()
        assert np.array_equal(paths, _median_sgd_paths(data, 1.0, ONE, make_rng(55), grid))
        assert iterates.shape == (3, 500)
        assert np.all(np.abs(iterates) <= 1.0)
        for g, n in enumerate(grid):
            np.testing.assert_allclose(paths[g], iterates[:, :n].mean(axis=1), atol=1e-12)

    @pytest.mark.parametrize("radius", [0.0, -1.0, float("nan")])
    def test_engine_rejects_bad_radius(self, radius):
        with pytest.raises(ParameterError, match="radius"):
            _median_sgd_paths(np.zeros((2, 10)), radius, ONE, make_rng(0), [10])

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_engine_rejects_bad_grid_before_any_draw(self, grid):
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="grid"):
            _median_sgd_paths(np.zeros((2, 10)), 1.0, ONE, rng, grid)
        assert rng.bit_generator.state == state

    def test_a_nan_record_is_rejected_before_any_draw(self):
        # as the naive-median channel rejects it, so both median mechanisms take the same records
        records, rng = [math.nan, 0.5, 0.2, math.nan], make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(DomainError) as excinfo:
            private_median_sgd(records, 1.0, ONE, rng)
        assert str(excinfo.value) == "record 0 is NaN"
        assert rng.bit_generator.state == state
        with pytest.raises(DomainError, match="^record 0 is NaN$"):
            Channel.naive_median(1.0, ONE).privatize_batch(records, make_rng(0))

    def test_the_engine_names_a_nan_record_by_its_flat_index(self):
        data = np.zeros((3, 10))
        data[1, 4] = math.nan
        with pytest.raises(DomainError, match="^record 14 is NaN$"):
            _median_sgd_paths(data, 1.0, ONE, make_rng(0), [10])

    def test_infinite_records_pass(self):
        # +-inf records are clamped signs, as the naive-median channel clamps them
        estimate = private_median_sgd([math.inf, -math.inf, 0.2], 1.0, ONE, make_rng(0))
        assert -1.0 <= estimate <= 1.0


class TestRadiusRule:
    """The library estimators reject a radius that is not finite and > 0 before any draw."""

    @pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0])
    @pytest.mark.parametrize("call", [
        lambda r, rng: private_median_sgd([1.0, 2.0, 3.0], r, ONE, rng),
        lambda r, rng: private_mean_vector(np.zeros((3, 2)), "l2", r, ONE, rng),
        lambda r, rng: private_mean_vector(np.zeros((3, 2)), "linf", r, ONE, rng),
        lambda r, rng: sparse_mean(np.zeros((3, 2)), r, ONE, rng),
        lambda r, rng: private_logistic_sgd((np.zeros((3, 2)), np.ones(3)), "l2", r, ONE, rng),
        lambda r, rng: private_logistic_sgd((np.zeros((3, 2)), np.ones(3)), "linf", r, ONE, rng),
    ], ids=["median", "mean-l2", "mean-linf", "sparse", "logistic-l2", "logistic-linf"])
    def test_rejects_before_any_draw(self, call, radius):
        rng = make_rng(0)
        state = rng.bit_generator.state
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ParameterError, match="radius must be finite and > 0"):
                call(radius, rng)
        assert rng.bit_generator.state == state


class TestSoftThreshold:
    def test_examples(self):
        assert soft_threshold(np.array([0.5]), 0.2)[0] == pytest.approx(0.3)
        assert soft_threshold(np.array([-0.1]), 0.2)[0] == 0.0
        assert soft_threshold(np.array([-0.5]), 0.2)[0] == pytest.approx(-0.3)

    def test_rejects_negative_threshold(self):
        with pytest.raises(ParameterError):
            soft_threshold(np.array([1.0]), -0.1)
        with pytest.raises(ParameterError):  # NaN fails the rule too
            soft_threshold(np.array([1.0]), math.nan)

    def test_matches_prox_oracle(self):
        # independent oracle: ternary search on the 1-D strongly convex objective
        def prox_oracle(v, lam):
            lo, hi = v - lam - 1.0, v + lam + 1.0
            for _ in range(200):
                m1 = lo + (hi - lo) / 3.0
                m2 = hi - (hi - lo) / 3.0
                f1 = 0.5 * (m1 - v) ** 2 + lam * abs(m1)
                f2 = 0.5 * (m2 - v) ** 2 + lam * abs(m2)
                if f1 < f2:
                    hi = m2
                else:
                    lo = m1
            return 0.5 * (lo + hi)

        rng = make_rng(54)
        for _ in range(1000):
            v = rng.uniform(-3, 3)
            lam = rng.uniform(0, 2)
            assert soft_threshold(np.array([v]), lam)[0] == pytest.approx(
                prox_oracle(v, lam), abs=1e-6
            )

    @given(
        st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=8),
        st.floats(min_value=0, max_value=50),
    )
    @settings(deadline=None)
    def test_shrinks_toward_zero(self, values, lam):
        v = np.array(values)
        out = soft_threshold(v, lam)
        assert np.all(np.abs(out) <= np.abs(v))
        assert np.all(np.sign(out) * np.sign(v) >= 0)


class TestSparseMean:
    def test_lambda_zero_returns_average(self):
        data = np.zeros((50, 4))
        rng_a, rng_b = make_rng(55), make_rng(55)
        from privest.mechanisms import _linf_ball_batch

        estimate = sparse_mean(data, 1.0, ONE, rng_a, lam=0.0)
        z_bar = _linf_ball_batch(data, 1.0, ONE, rng_b).mean(axis=0)
        np.testing.assert_allclose(estimate, z_bar, atol=1e-15)

    def test_huge_lambda_returns_zero(self):
        estimate = sparse_mean(np.zeros((50, 4)), 1.0, ONE, make_rng(56), lam=1e9)
        assert np.all(estimate == 0.0)

    def test_rejects_d1(self):
        with pytest.raises(ParameterError):
            sparse_mean(np.zeros((10, 1)), 1.0, ONE, make_rng(0))

    @pytest.mark.parametrize("eps", [1e-155, 1e-200])
    def test_a_tiny_eps_thresholds_at_the_infinite_limit(self, eps):
        # n eps^2 is subnormal at 1e-155 and 0 at 1e-200; both give the limit lam = inf
        assert sparse_mean_threshold(3, 64, PrivacyLevel(eps), 1.0) == math.inf
        data = np.tile([0.5, 0.0, 0.0], (64, 1))
        assert np.all(sparse_mean(data, 1.0, PrivacyLevel(eps), make_rng(0)) == 0.0)

    def test_a_huge_eps_thresholds_at_zero(self):
        # n eps^2 overflows to inf at eps = 1e200 (a float's ** would raise): the limit lam = 0
        assert sparse_mean_threshold(3, 64, PrivacyLevel(1e200), 1.0) == 0.0

    @pytest.mark.xfail(
        strict=True,
        reason="stated factor-4 window is unattainable for the soft-threshold "
        "estimator at this channel's variance (measured ~12x the target for "
        "every lambda; see decisions ledger)",
    )
    def test_one_sparse_error_within_factor_four(self):
        d, n, reps = 32, 10_000, 30
        theta = np.zeros(d)
        theta[0] = 1.0
        errors = []
        for rep in range(reps):
            estimate = sparse_mean(np.tile(theta, (n, 1)), 1.0, ONE, make_rng(57, rep))
            errors.append(float(np.sum((estimate - theta) ** 2)))
        target = d * math.log(2 * d) / n
        assert target / 4.0 <= float(np.median(errors)) <= 4.0 * target


def _two_branch_sigmoid(t):
    """The masked two-branch logistic function, the oracle of :func:`_sigmoid`."""
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class TestSigmoid:
    EDGES = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
             -2.2250738585072014e-308, 745.0, -745.0, 709.79, -709.79, 1e308, -1e308, 36.0, -36.0]

    @staticmethod
    def _assert_bit_equal(t):
        t = np.array(t, dtype=float)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _sigmoid(t)
        assert np.array_equal(got.view(np.int64), _two_branch_sigmoid(t).view(np.int64))

    def test_edge_values(self):
        self._assert_bit_equal(self.EDGES)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(st.lists(st.floats(allow_nan=False), min_size=1, max_size=40))
    def test_equals_the_two_branch_form_bit_for_bit(self, values):
        self._assert_bit_equal(values)

    def test_nan_stays_nan(self):
        assert np.isnan(_sigmoid(np.array([math.nan, -math.nan]))).all()


class TestLogisticGradient:
    def test_zero_theta(self):
        theta = np.zeros(3)
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_allclose(logistic_gradient(theta, x, 1.0), -x / 2.0)
        np.testing.assert_allclose(logistic_gradient(theta, x, -1.0), x / 2.0)

    def test_saturation(self):
        theta = np.array([50.0])
        x = np.array([1.0])
        assert abs(logistic_gradient(theta, x, 1.0)[0]) < 1e-20

    def test_dimension_mismatch(self):
        with pytest.raises(ParameterError):
            logistic_gradient(np.zeros(2), np.zeros(3), 1.0)

    def test_bad_label(self):
        with pytest.raises(ParameterError):
            logistic_gradient(np.zeros(2), np.zeros(2), 0.0)

    def test_matches_finite_differences(self):
        rng = make_rng(58)
        h = 1e-6
        for _ in range(1000):
            d = rng.integers(1, 6)
            theta = rng.uniform(-2, 2, size=d)
            x = rng.uniform(-2, 2, size=d)
            y = 1.0 if rng.random() < 0.5 else -1.0

            def loss(t):
                return math.log1p(math.exp(-y * float(t @ x)))

            grad = logistic_gradient(theta, x, y)
            for j in range(d):
                e = np.zeros(d)
                e[j] = h
                fd = (loss(theta + e) - loss(theta - e)) / (2.0 * h)
                scale = max(1.0, abs(fd))
                assert abs(grad[j] - fd) <= 1e-6 * scale


class TestLogisticSgd:
    def _stream(self, n, d, seed, theta=None):
        rng = make_rng(seed)
        x = np.where(rng.random((n, d)) < 0.5, 1.0, -1.0)
        if theta is None:
            y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        else:
            p = 1.0 / (1.0 + np.exp(-(x @ theta)))
            y = np.where(rng.random(n) < p, 1.0, -1.0)
        return x, y

    def test_polyak_identity_and_projection(self, sgd_iterates):
        x, y = self._stream(500, 4, 59)
        estimate = private_logistic_sgd((x, y), "l2", 2.0, ONE, make_rng(60), proj_radius=5.0)
        (iterates,) = sgd_iterates[0]
        np.testing.assert_allclose(estimate, iterates.mean(axis=0), atol=1e-12)
        assert np.all(np.linalg.norm(iterates, axis=1) <= 5.0 + 1e-9)
        assert np.all(np.isfinite(iterates))

    @pytest.mark.parametrize("radius", [1e-300, 0.3, 5.0, 1e300])
    def test_projection_equals_the_boolean_index_form(self, radius):
        # zero rows, boundary rows (whose squared norm must not overflow) and rows of many scales
        rows = [np.zeros(3), np.full(3, -0.0)]
        rows += [[radius, 0.0, 0.0], [0.0, -radius, -0.0]] if radius < 1e150 else []
        rows += list(make_rng(62).standard_normal((60, 3)) * np.repeat(
            [1e-310, 1e-3, 0.3, 1.0, 5.0, 1e3, 1e100], [8, 8, 8, 9, 9, 9, 9])[:, None])
        theta = np.array(rows, dtype=float)
        want = theta.copy()
        norms = np.linalg.norm(want, axis=1)
        over = norms > radius
        want[over] *= (radius / norms[over])[:, None]
        got = _l2_project(radius, theta.copy())
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_mechanism_validation(self):
        x, y = self._stream(10, 2, 61)
        with pytest.raises(ParameterError):
            private_logistic_sgd((x, y), "l2", math.sqrt(2), ONE, make_rng(0), mechanism="foo")

    def test_covariate_domain_check(self):
        x = np.full((5, 2), 2.0)
        y = np.ones(5)
        with pytest.raises(DomainError):
            private_logistic_sgd((x, y), "linf", 1.0, ONE, make_rng(0))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("geometry", ["l2", "linf"])
    @pytest.mark.parametrize("mechanism", ["nonprivate", "laplace_baseline", "optimal"])
    def test_non_finite_covariate_rejected(self, bad, geometry, mechanism):
        x, y = self._stream(20, 2, 61)
        x[7, 1] = bad
        with pytest.raises(DomainError) as excinfo:
            private_logistic_sgd(
                (x, y), geometry, 2.0, ONE, make_rng(0), mechanism=mechanism
            )
        norm = {"l2": "2", "linf": "inf"}[geometry]
        assert str(excinfo.value) == f"record 7: ||x||_{norm} = {abs(bad):.6g} exceeds the radius 2"

    @pytest.mark.parametrize(
        "gamma0, beta_exp", [(-1.0, 0.6), (0.0, 0.6), (1.0, 0.5), (1.0, 1.0), (1.0, 3.0)]
    )
    def test_engine_rejects_bad_schedule(self, gamma0, beta_exp):
        x, y = self._stream(10, 2, 61)
        with pytest.raises(ParameterError, match="gamma0|beta_exp"):
            _logistic_sgd_paths(
                x[None], y[None], "l2", 2.0, ONE, gamma0, beta_exp, None, "optimal",
                make_rng(0), [10],
            )

    @pytest.mark.parametrize("proj_radius", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("mechanism", ["nonprivate", "laplace_baseline", "optimal"])
    def test_engine_rejects_bad_proj_radius_before_any_draw(self, proj_radius, mechanism):
        x, y = self._stream(10, 2, 61)
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="radius must be finite and > 0"):
            _logistic_sgd_paths(
                x[None], y[None], "l2", 2.0, ONE, 1.0, 0.6, proj_radius, mechanism, rng, [10]
            )
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    def test_engine_rejects_bad_grid_before_any_draw(self, grid):
        x, y = self._stream(10, 2, 61)
        rng = make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="grid"):
            _logistic_sgd_paths(
                x[None], y[None], "l2", 2.0, ONE, 1.0, 0.6, None, "optimal", rng, grid
            )
        assert rng.bit_generator.state == state

    def test_engine_rejects_bad_labels(self):
        x, y = self._stream(10, 2, 61)
        y[3] = 0.0
        with pytest.raises(ParameterError, match="labels"):
            _logistic_sgd_paths(
                x[None], y[None], "l2", 2.0, ONE, 1.0, 0.6, None, "optimal", make_rng(0), [10]
            )

    def test_engine_iterates(self, sgd_iterates, monkeypatch):
        xs = np.stack([self._stream(300, 3, 70 + r)[0] for r in range(2)])
        ys = np.stack([self._stream(300, 3, 80 + r)[1] for r in range(2)])
        args = (xs, ys, "l2", math.sqrt(3), ONE, 1.0, 0.6, 5.0, "optimal")
        paths = _logistic_sgd_paths(*args, make_rng(71), [100, 300])
        (iterates,) = sgd_iterates
        monkeypatch.undo()
        assert np.array_equal(paths, _logistic_sgd_paths(*args, make_rng(71), [100, 300]))
        assert iterates.shape == (2, 300, 3)
        assert np.all(np.linalg.norm(iterates, axis=2) <= 5.0 + 1e-9)
        np.testing.assert_allclose(paths[0], iterates[:, :100].mean(axis=1), atol=1e-12)
        np.testing.assert_allclose(paths[1], iterates.mean(axis=1), atol=1e-12)

    def test_single_and_batch_implementations_agree(self):
        x, y = self._stream(400, 3, 62)
        single = private_logistic_sgd(
            (x, y), "l2", math.sqrt(3), ONE, make_rng(63), proj_radius=5.0
        )
        batch = _logistic_sgd_paths(
            x[None], y[None], "l2", math.sqrt(3), ONE, 1.0, 0.6, 5.0, "optimal",
            make_rng(63), [400],
        )[0, 0]
        np.testing.assert_allclose(single, batch, atol=1e-12)

    def test_nonprivate_mode_learns_signal(self):
        theta = np.array([1.0, -0.5, 0.0, 0.25])
        x, y = self._stream(40_000, 4, 64, theta)
        estimate = private_logistic_sgd(
            (x, y), "l2", 2.0, ONE, make_rng(65), mechanism="nonprivate", gamma0=0.5
        )
        assert float(np.sum((estimate - theta) ** 2)) < 0.05

    @pytest.mark.xfail(
        strict=True,
        reason="stated constant C = 10 is unattainable: the hypercube gradient "
        "channel's asymptotic variance exceeds it by ~80x (see decisions ledger)",
    )
    def test_zero_signal_linf_example_constant(self):
        d, n, reps = 8, 2000, 8
        xs = np.stack([self._stream(n, d, 66 + r)[0] for r in range(reps)])
        ys = np.stack([self._stream(n, d, 90 + r)[1] for r in range(reps)])
        paths = _logistic_sgd_paths(
            xs, ys, "linf", 1.0, ONE, 1.0, 0.6, 5.0, "optimal", make_rng(67), [n]
        )
        mse = float(np.mean(np.sum(paths[0] ** 2, axis=1)))
        assert mse <= 10.0 * d * d / n


class TestTrigBasis:
    def test_examples(self):
        # columns cos 1, sin 1, cos 2, sin 2 at t = 1/4
        root2 = math.sqrt(2.0)
        np.testing.assert_allclose(
            trig_basis_matrix(4, 0.25)[0], [0.0, root2, -root2, 0.0], atol=1e-12
        )

    def test_domain_check(self):
        with pytest.raises(DomainError):
            trig_basis_matrix(2, 1.5)

    def test_gram_matrix_orthonormal(self):
        # quadrature oracle: 10^4-point midpoint rule over [0, 1]
        t = (np.arange(10_000) + 0.5) / 10_000
        basis = np.column_stack([np.ones_like(t), trig_basis_matrix(8, t)])
        gram = basis.T @ basis / t.size
        np.testing.assert_allclose(gram, np.eye(9), atol=1e-3)


def _trig_basis_reference(k, t):
    """The basis matrix by the direct formula, one cos or sin per entry."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.empty((t.size, k))
    n_cos = (k + 1) // 2
    n_sin = k // 2
    two_pi_t = 2.0 * math.pi * t[:, None]
    out[:, 0::2] = ORTH_BOUND * np.cos(two_pi_t * np.arange(1, n_cos + 1))
    if n_sin:
        out[:, 1::2] = ORTH_BOUND * np.sin(two_pi_t * np.arange(1, n_sin + 1))
    return out


_NEEDS_WIDE_LONG_DOUBLE = pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="long double is no wider than float"
)


def _trig_basis_exact(k, t):
    """sqrt(2) cos and sin of 2 pi m t in long double: the accuracy reference."""
    t = np.asarray(t, dtype=np.longdouble)[:, None]
    pi = 4 * np.arctan(np.longdouble(1))
    out = np.empty((t.size, k), dtype=np.longdouble)
    root2 = np.sqrt(np.longdouble(2))
    out[:, 0::2] = root2 * np.cos(2 * pi * t * np.arange(1, (k + 1) // 2 + 1))
    out[:, 1::2] = root2 * np.sin(2 * pi * t * np.arange(1, k // 2 + 1))
    return out


def _basis_rows(k):
    """Rows per block of the basis evaluation at order k."""
    return block_rows(2 * ((k + 1) // 2) + 3)


class TestBlockedBasis:
    """The recurrence basis: within 8 k 2^-52 of exact, and bit-equal across blocks and orders.

    numpy's complex multiply need not round as the real formula written out
    does, so the bit-exact references are the function itself, evaluated
    at other positions and orders.
    """

    @_NEEDS_WIDE_LONG_DOUBLE
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 23, 64, 256])
    def test_accuracy_against_long_double(self, k):
        # the direct one-call-per-entry formula meets the same bound
        t = np.concatenate([[0.0, 0.25, 0.5, 1.0], make_rng(79, k).random(3000)])
        exact = _trig_basis_exact(k, t)
        for basis in (trig_basis_matrix(k, t), _trig_basis_reference(k, t)):
            assert float(np.max(np.abs(basis.astype(np.longdouble) - exact))) <= 8 * k * 2.0**-52

    @pytest.mark.parametrize("k", [1, 2, 3, 23, 64])
    def test_matrix_equals_reference(self, k):
        # the reference is each point evaluated alone
        rows = _basis_rows(k)
        t = make_rng(80, k).random(2 * rows + 3)
        t[0], t[rows], t[-1] = 0.0, 1.0, 0.5
        alone = np.vstack([trig_basis_matrix(k, t[i : i + 1]) for i in range(t.size)])
        for size in (1, 2, rows - 1, rows, rows + 1, t.size):
            assert np.array_equal(trig_basis_matrix(k, t[:size]), alone[:size])

    @pytest.mark.parametrize("k, order", [(1, 2), (2, 3), (3, 64), (22, 23), (23, 64), (64, 256)])
    def test_lower_orders_are_column_prefixes(self, k, order):
        t = make_rng(83, k).random(3 * _basis_rows(k) + 7)
        assert np.array_equal(trig_basis_matrix(k, t), trig_basis_matrix(order, t)[:, :k])

    def test_fills_given_output(self):
        t = make_rng(81).random(1000)
        out = np.full((1000, 5), np.nan)
        assert trig_basis_matrix(5, t, out=out) is out
        assert np.array_equal(out, trig_basis_matrix(5, t))

    @pytest.mark.parametrize("k", [1, 2, 7, 64])
    def test_classical_coefficients_unchanged(self, k):
        n = 3 * (BLOCK // max(k, 2)) + 11
        data = make_rng(82, k).random(n)
        estimate = density_estimate(data, 1.0, None, None, k=k)
        assert np.array_equal(estimate.coeffs, _row_order_mean(trig_basis_matrix(k, data)))

    @pytest.mark.parametrize("seed, eps", [(84, 1.0), (85, 4.0)])
    def test_channel_draws_unchanged(self, seed, eps):
        # The channel output is a vertex of the cube: the basis's last bits
        # move a rounding probability by ~1e-16, so the hypercube channel on
        # the direct formula draws the same coefficients bit for bit.
        level, grid = PrivacyLevel(eps), (100, 700, 3000)
        data = make_rng(seed).random(grid[-1])
        got = density_estimate(data, 1.0, level, make_rng(seed, 1), grid=grid)
        orders = [series_bandwidth(n, level, 1.0) for n in grid]
        basis, rng = _trig_basis_reference(max(orders), data), make_rng(seed, 1)
        for estimate, n, k in zip(got, grid, orders):
            want = _linf_ball_batch(basis[:n, :k], ORTH_BOUND, level, rng, grid=(n,))[0]
            assert estimate.k == k and np.array_equal(estimate.coeffs, want)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_points_rejected(self, bad):
        t = np.array([0.25, bad, 0.5])
        with pytest.raises(DomainError):
            trig_basis_matrix(3, t)
        for level in (ONE, None):
            with pytest.raises(DomainError):
                density_estimate(t, 1.0, level, make_rng(0), k=3)


class TestStreamedMeans:
    """The streamed library means equal the row-order mean of the materialised channel output."""

    @staticmethod
    def _assert_equal_streams(estimate, reference, seed):
        ours, theirs = make_rng(seed), make_rng(seed)
        got, want = estimate(ours), reference(theirs)
        assert np.array_equal(got, want)
        assert ours.bit_generator.state == theirs.bit_generator.state

    @pytest.mark.parametrize("geometry, kernel", [("l2", _l2_ball_batch),
                                                  ("linf", _linf_ball_batch)])
    @pytest.mark.parametrize("d", [1, 2, 27])
    def test_private_mean_vector(self, geometry, kernel, d):
        n = 2 * (BLOCK // d) + 5
        x = make_rng(90, d).uniform(-1.0, 1.0, size=(n, d)) * (0.9 / math.sqrt(d))
        self._assert_equal_streams(
            lambda rng: private_mean_vector(x, geometry, 1.0, ONE, rng),
            lambda rng: _row_order_mean(kernel(x, 1.0, ONE, rng)), d,
        )

    @pytest.mark.parametrize("d", [2, 32])
    def test_sparse_mean(self, d):
        n = 2 * (BLOCK // d) + 5
        x = np.zeros((n, d))
        x[:, 0] = 1.0
        self._assert_equal_streams(
            lambda rng: sparse_mean(x, 1.0, ONE, rng, lam=0.05),
            lambda rng: soft_threshold(_linf_ball_batch(x, 1.0, ONE, rng).mean(axis=0), 0.05),
            d,
        )

    @pytest.mark.parametrize("k", [1, 2, 23])
    def test_density_estimate(self, k):
        data = make_rng(91, k).random(2 * (BLOCK // k) + 5)
        self._assert_equal_streams(
            lambda rng: density_estimate(data, 1.0, ONE, rng, k=k).coeffs,
            lambda rng: _row_order_mean(
                _linf_ball_batch(trig_basis_matrix(k, data), ORTH_BOUND, ONE, rng)
            ),
            k,
        )


class TestGrid:
    """``grid=`` returns one estimate per n, drawn as the bench arms draw them."""

    X_VECTOR = make_rng(98).uniform(-0.5, 0.5, (300, 4))
    T = make_rng(99).random(300)
    CALLS = {
        "mean_vector": lambda x, rng, **kw: private_mean_vector(x, "l2", 1.0, ONE, rng, **kw),
        "sparse": lambda x, rng, **kw: sparse_mean(x, 1.0, ONE, rng, **kw),
        "density": lambda x, rng, **kw: density_estimate(x, 1.0, ONE, rng, **kw),
        # no channel: the same grid rule
        "mean_vector-raw": lambda x, rng, **kw: private_mean_vector(x, "l2", 1.0, None, None, **kw),
        "sparse-raw": lambda x, rng, **kw: sparse_mean(x, 1.0, None, None, **kw),
        "density-raw": lambda x, rng, **kw: density_estimate(x, 1.0, None, None, **kw),
    }

    def _data(self, name):
        return self.T if name.startswith("density") else self.X_VECTOR

    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_one_point_grid_is_the_plain_call(self, name):
        call, x = self.CALLS[name], self._data(name)
        (got,) = call(x, make_rng(1), grid=[len(x)])
        want = call(x, make_rng(1))
        if name.startswith("density"):
            got, want = got.coeffs, want.coeffs
        assert np.array_equal(got, want)

    def test_each_density_n_is_privatized_afresh(self):
        grid, rng = [40, 120, 300], make_rng(2)
        got = density_estimate(self.T, 1.0, ONE, make_rng(2), grid=grid)
        want = [density_estimate(self.T[:n], 1.0, ONE, rng) for n in grid]
        assert [e.k for e in got] == [e.k for e in want]
        assert all(np.array_equal(a.coeffs, b.coeffs) for a, b in zip(got, want))

    def test_vector_means_are_prefixes_of_one_pass(self):
        grid = [40, 120, 300]
        got = private_mean_vector(self.X_VECTOR, "linf", 1.0, ONE, make_rng(3), grid=grid)
        z = _linf_ball_batch(self.X_VECTOR, 1.0, ONE, make_rng(3))
        assert np.array_equal(got, [_row_order_mean(z[:n]) for n in grid])
        lam = sparse_mean_threshold(4, 40, ONE, 1.0)
        sparse = sparse_mean(self.X_VECTOR, 1.0, ONE, make_rng(3), grid=grid)
        assert np.array_equal(sparse[0], soft_threshold(_row_order_mean(z[:40]), lam))

    @pytest.mark.parametrize("grid", BAD_GRIDS)
    @pytest.mark.parametrize("name", sorted(CALLS))
    def test_rejects_a_bad_grid(self, name, grid):
        with pytest.raises(ParameterError, match="grid"):
            self.CALLS[name](self._data(name)[:10], make_rng(4), grid=grid)


class TestDensityEstimate:
    def test_bandwidth_example(self):
        assert series_bandwidth(10_000, ONE, 1.0) == 10
        assert series_bandwidth(2, PrivacyLevel(0.1), 5.0) == 1
        # no channel: the classical order n^(1/(2 beta + 1))
        assert series_bandwidth(10_000, None, 1.0) == 22
        assert series_bandwidth(2, None, 5.0) == 1

    def test_an_overflowing_order_is_rejected(self):
        # n eps^2 overflows at eps = 1e200, so the order has no integer value
        with pytest.raises(ParameterError, match="basis order overflows at n = 64, eps = 1e"):
            series_bandwidth(64, PrivacyLevel(1e200), 1.0)

    def test_an_order_above_n_is_rejected(self):
        # (16 eps^2)^(1/4) is 16 at eps = 64 and 20 at eps = 100: more coefficients than points
        assert series_bandwidth(16, PrivacyLevel(64.0), 1.0) == 16
        with pytest.raises(ParameterError, match="basis order 20 exceeds n = 16 at eps = 100.0"):
            series_bandwidth(16, PrivacyLevel(100.0), 1.0)

    def test_an_order_above_a_small_n_is_rejected_at_moderate_eps(self):
        # at n = 2 the order (2 eps^2)^(1/4) rounds to 2 at eps 4 and to 3 at eps 5; at n = 3
        # and eps 10 it is 4.16, so one small grid point rejects a moderate eps
        assert series_bandwidth(2, PrivacyLevel(4.0), 1.0) == 2
        with pytest.raises(ParameterError, match="basis order 2.65915 exceeds n = 2 at eps = 5.0"):
            series_bandwidth(2, PrivacyLevel(5.0), 1.0)
        with pytest.raises(ParameterError, match="basis order 4.16179 exceeds n = 3 at eps = 10.0"):
            density_estimate(np.array([0.1, 0.5, 0.9]), 1.0, PrivacyLevel(10.0), make_rng(0))

    @pytest.mark.parametrize("level", [ONE, None], ids=["private", "no-channel"])
    def test_an_explicit_order_above_the_smallest_n_is_rejected(self, level):
        data, rng = np.array([0.1, 0.5, 0.9]), make_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ParameterError, match="basis order 50 exceeds n = 3"):
            density_estimate(data, 1.0, level, rng, k=50)
        with pytest.raises(ParameterError, match="basis order 3 exceeds n = 2"):
            density_estimate(data, 1.0, level, rng, k=3, grid=[2, 3])
        with pytest.raises(ParameterError, match="need at least one basis element, got k=0"):
            density_estimate(data, 1.0, level, rng, k=0)
        assert rng.bit_generator.state == state
        assert density_estimate(data, 1.0, level, rng, k=3).k == 3

    def test_the_private_basis_is_never_formed(self):
        # the density-rate preset's grid at its own n_max, 2^18 (order 23 at eps 1); at 2^16 the
        # fixed O(block) buffers alone, about 2 MB, are a quarter of that n's 8.4 MB basis
        grid = [2**j for j in range(12, 19)]
        data = make_rng(73).random(grid[-1])
        k_max = series_bandwidth(grid[-1], ONE, 1.0)
        tracemalloc.start()
        try:
            density_estimate(data, 1.0, ONE, make_rng(74), grid=grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * grid[-1] * k_max / 4

    def test_validations(self):
        for level in (ONE, None):
            with pytest.raises(ParameterError):
                density_estimate(np.array([0.5]), 1.0, level, make_rng(0))
            with pytest.raises(ParameterError):
                density_estimate(np.array([0.5, 0.6]), 0.4, level, make_rng(0))
            with pytest.raises(DomainError):
                density_estimate(np.array([0.5, 1.2]), 1.0, level, make_rng(0))
        # classical mode picks its own basis order
        assert density_estimate(np.array([0.5, 0.6]), 1.0, None, None).k == 1

    def test_uniform_data_coefficients_center_on_zero(self):
        rng = make_rng(68)
        coeff_draws = np.array([
            density_estimate(rng.random(100), 1.0, ONE, rng).coeffs for _ in range(1000)
        ])
        stderr = coeff_draws.std(axis=0, ddof=1) / math.sqrt(coeff_draws.shape[0])
        assert np.all(np.abs(coeff_draws.mean(axis=0)) <= 5.0 * stderr)

    def test_cosine_coefficient_unbiased(self):
        from privest.generators import TrigDensity

        gen = TrigDensity(coeffs=(0.5,))
        rng = make_rng(69)
        first = np.array([
            density_estimate(gen.sample(400, rng), 1.0, ONE, rng).coeffs[0]
            for _ in range(400)
        ])
        stderr = first.std(ddof=1) / math.sqrt(first.size)
        assert abs(first.mean() - 0.5) <= 5.0 * stderr

    def test_classical_mode_is_plain_projection(self):
        rng = make_rng(70)
        data = rng.random(500)
        estimate = density_estimate(data, 1.0, None, None, k=7)
        np.testing.assert_allclose(
            estimate.coeffs, trig_basis_matrix(7, data).mean(axis=0), atol=1e-15
        )

    def test_integrates_to_one(self):
        rng = make_rng(71)
        estimate = density_estimate(rng.random(200), 1.0, ONE, rng)
        t = np.linspace(0.0, 1.0, 4097)
        assert float(np.trapezoid(estimate(t), t)) == pytest.approx(1.0, abs=1e-10)

    def test_one_channel_call_per_record(self):
        reset_privatization_count()
        rng = make_rng(72)
        density_estimate(rng.random(250), 1.0, ONE, rng)
        assert privatization_count() == 250

    def test_scalar_evaluation(self):
        est = DensityEstimate(k=2, coeffs=np.array([0.5, 0.0]))
        assert est(0.0) == pytest.approx(1.0 + 0.5 * math.sqrt(2.0))


class TestNoChannel:
    """``level=None`` is each estimator on the raw records, bit for bit, with no channel call."""

    GRID = (3, 40, 300)

    @staticmethod
    def _no_channel(estimate):
        reset_privatization_count()
        got = estimate()
        assert privatization_count() == 0
        return got

    def test_private_mean_scalar_is_the_sample_mean(self):
        data = make_rng(100).standard_normal(1001)
        got = self._no_channel(lambda: private_mean_scalar(data, MomentAssumption(2.0), None, None))
        assert got == float(np.mean(data))

    @pytest.mark.parametrize("grid", [None, GRID])
    @pytest.mark.parametrize("geometry", ["l2", "linf"])
    @pytest.mark.parametrize("d", [1, 2, 27])
    def test_private_mean_vector_is_the_prefix_means(self, d, geometry, grid):
        x = make_rng(101, d).uniform(-1.0, 1.0, (300, d)) / math.sqrt(d)
        want = _prefix_means(x, grid or [300])
        got = self._no_channel(lambda: private_mean_vector(x, geometry, 1.0, None, None, grid))
        assert np.array_equal(got, want if grid else want[0])

    @pytest.mark.parametrize("grid", [None, GRID])
    @pytest.mark.parametrize("lam", [None, 0.05])
    def test_sparse_mean_thresholds_the_prefix_means(self, lam, grid):
        x = make_rng(102).uniform(-0.5, 0.5, (300, 4))
        # no lam: the raw average, the eps -> inf limit of the default threshold
        want = [mean if lam is None else soft_threshold(mean, lam)
                for mean in _prefix_means(x, grid or [300])]
        got = self._no_channel(lambda: sparse_mean(x, 1.0, None, None, lam, grid))
        assert np.array_equal(got, want if grid else want[0])

    @pytest.mark.parametrize("beta", [0.75, 1.0, 2.0])
    def test_density_estimate_is_the_classical_projection(self, beta):
        data = make_rng(103).random(5000)
        grid = [2, 40, 1000, 5000]
        ks = [max(1, round(n ** (1.0 / (2.0 * beta + 1.0)))) for n in grid]
        want = _projection_coeffs(data, grid, ks, trig_basis_matrix)
        got = self._no_channel(lambda: density_estimate(data, beta, None, None, grid=grid))
        assert [e.k for e in got] == ks
        assert all(np.array_equal(e.coeffs, coeffs) for e, coeffs in zip(got, want))
        whole = self._no_channel(lambda: density_estimate(data, beta, None, None))
        assert whole.k == ks[-1] and np.array_equal(whole.coeffs, want[-1])


class TestOneChannelCallPerRecord:
    """Privacy by construction: every estimator privatizes each record once."""

    def test_every_estimator(self):
        n = 64
        rng = make_rng(73)
        cases = [
            lambda: private_mean_scalar(
                np.zeros(n), MomentAssumption(k=2.0), ONE, make_rng(74)
            ),
            lambda: private_mean_vector(np.zeros((n, 3)), "l2", 1.0, ONE, make_rng(75)),
            lambda: private_mean_vector(np.zeros((n, 3)), "linf", 1.0, ONE, make_rng(76)),
            lambda: private_median_sgd(rng.uniform(-1, 1, n), 1.0, ONE, make_rng(77)),
            lambda: sparse_mean(np.zeros((n, 4)), 1.0, ONE, make_rng(78)),
            lambda: private_logistic_sgd(
                (np.where(rng.random((n, 2)) < 0.5, 1.0, -1.0),
                 np.where(rng.random(n) < 0.5, 1.0, -1.0)),
                "l2", math.sqrt(2.0), ONE, make_rng(79),
            ),
            lambda: density_estimate(rng.random(n), 1.0, ONE, make_rng(95)),
        ]
        for run in cases:
            reset_privatization_count()
            run()
            assert privatization_count() == n
        # non-private modes never touch a channel
        reset_privatization_count()
        private_logistic_sgd(
            (np.ones((n, 2)), np.ones(n)), "l2", math.sqrt(2.0), ONE, make_rng(96),
            mechanism="nonprivate",
        )
        density_estimate(rng.random(n), 1.0, None, None, k=3)
        assert privatization_count() == 0
