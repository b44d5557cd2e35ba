"""Estimation procedures built on privatized samples.

Scalar and vector mean estimation, median estimation by projected
stochastic gradient descent over sign randomized response, sparse mean
estimation by soft thresholding, logistic regression by SGD over privatized
gradients, and orthogonal-series density estimation on [0, 1].

All estimators are single-pass and privatize each raw record exactly once
(the SGD procedures are sequentially interactive: the channel input at step
i depends on the current iterate, never on other records).  The vector mean,
sparse and density estimators also take ``grid``, increasing sample sizes as
for the vector kernels, and then return one estimate per n, from data[:n].

The mean, sparse and density estimators take ``level=None`` for "no
channel": the same estimator on the raw records, its eps -> inf limit, with
the same range rules.  That is the non-private reference of the paper.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .bounds import _check_smoothness
from .core import (DomainError, ParameterError, PrivacyLevel, _check_count, _check_n,
                   block_rows, row_blocks)
from .mechanisms import (
    MomentAssumption,
    RowSource,
    _check_ball,
    _check_grid,
    _check_radius,
    _l2_ball_batch,
    _laplace_vector_batch,
    _linf_ball_batch,
    _prefix_means,
    _reject_nan,
    _running_means,
    _sign_rr_batch,
    _truncated_laplace_batch,
    truncation_level,
)

# sup-norm bound of the non-constant trigonometric basis elements
ORTH_BOUND = math.sqrt(2.0)
_KNOTS = 1 << 12  # _rotations' table e^(2 pi i j / 2^12): 2^10 needs a y^5 term, 2^14 no faster
_OCTANT = np.exp(np.arange(_KNOTS // 8 + 1) * (8j * np.arctan(np.longdouble(1)) / _KNOTS))
_QUARTER = np.r_[_OCTANT, 1j * _OCTANT[-2::-1].conj()].astype(complex)  # e^(i(pi/2 - x)), exact
_KNOT_TABLE = np.r_[_QUARTER, 1j * _QUARTER[1:], -_QUARTER[1:], -1j * _QUARTER[1:]]  # quarter turns


# ---------------------------------------------------------------------------
# mean estimation


def private_mean_scalar(
    data, assumption: MomentAssumption, level: PrivacyLevel | None, rng: np.random.Generator
) -> float:
    """Mean of truncated-Laplace privatized scalars.

    Each record is clamped to [-T, T] with T = radius_k (n eps^2)^(1/(2k))
    and corrupted with Laplace(eps / (2T)) noise; the estimate is the plain
    average of the privatized values, or of the raw ones for ``level=None``.
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ParameterError("cannot estimate a mean from an empty sample")
    if level is None:
        return float(data.mean())
    t_level = truncation_level(assumption, data.size, level)
    z = _truncated_laplace_batch(data, t_level, level, rng)
    return float(z.mean())


def private_mean_vector(
    data, geometry: str, radius: float, level: PrivacyLevel | None, rng: np.random.Generator,
    grid=None,
) -> np.ndarray:
    """Average of per-record ball-channel outputs; unbiased for the population mean.

    Args:
        data: (n, d) records, each inside the stated ball.
        geometry: "l2" for the sphere sampler, "linf" for the hypercube sampler.
        radius: Ball radius of the data domain.
        level: Privacy budget; None averages the raw records.
        rng: Source of randomness.
        grid: Optional sample sizes, averaged over prefixes of one channel pass.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ParameterError("data must be a non-empty (n, d) array")
    kernel = {"l2": _l2_ball_batch, "linf": _linf_ball_batch}.get(geometry)
    if kernel is None:
        raise ParameterError(f"unknown geometry {geometry!r} (use 'l2' or 'linf')")
    sizes = _check_grid([len(data)] if grid is None else grid, len(data))
    means = (_prefix_means(data, sizes) if level is None
             else kernel(data, radius, level, rng, grid=sizes))
    return means[0] if grid is None else means


# ---------------------------------------------------------------------------
# median estimation


def private_median_sgd(
    stream,
    radius: float,
    level: PrivacyLevel,
    rng: np.random.Generator,
    one_sided: bool = False,
) -> float:
    """Median estimate by projected SGD over sign randomized response.

    Starting from theta_0 uniform on the projection interval, each step
    privatizes sign(theta_i - X_i) with the sign channel and applies

        theta_{i+1} = proj(theta_i - gamma_i Z_i),   gamma_i = eps r / sqrt(i),

    projecting onto [0, r] when ``one_sided`` else [-r, r].  Returns the
    Polyak average of the iterates; with eps <= 1 its expected excess risk
    is at most 6 r / sqrt(n eps^2).  A single run of :func:`_median_sgd_paths`.
    """
    x = np.asarray(stream, dtype=float).reshape(1, -1)
    if x.size == 0:
        raise ParameterError("cannot estimate a median from an empty stream")
    return float(_median_sgd_paths(x, radius, level, rng, [x.size], one_sided)[0, 0])


def _median_sgd_paths(x_mat, radius, level, rng, grid, one_sided=False):
    """Replicate-lockstep median SGD returning prefix Polyak averages.

    ``x_mat`` is (reps, n); the returned array is (len(grid), reps) with
    row g holding each replicate's average of the first grid[g] iterates.  Runs
    :func:`_sgd_paths` on sign RR of sign(theta - x_i), step eps r / sqrt(i)
    and the clip to the projection interval.
    """
    _check_radius(radius)
    reps, n = x_mat.shape
    grid = _check_grid(grid, n)  # before theta_0 is drawn
    _reject_nan(x_mat)  # the naive-median channel's rule; +-inf records pass
    lo = 0.0 if one_sided else -radius
    eps_r = level.epsilon * radius

    def gradient(theta, j):
        return _sign_rr_batch(np.where(theta >= x_mat[:, j], 1.0, -1.0), level, rng)

    step = lambda i: eps_r / math.sqrt(i)
    return _sgd_paths(rng.uniform(lo, radius, size=reps), gradient, step,
                      lambda t: np.clip(t, lo, radius), n, grid)


def _sgd_paths(theta0, gradient, step, project, n, grid):
    """The one projected-SGD step loop, run by a block of replicates in lockstep.

    From the (reps, ...) block ``theta0``, step i = 1..n adds theta to the
    running sum and sets theta = project(theta - step(i) gradient(theta, i - 1)),
    ``gradient`` privatizing the (sub)gradient at record i - 1.  Returns
    (len(grid), reps, ...): plane g holds each replicate's Polyak average of the
    first grid[g] iterates, ``grid`` being checked by the caller before any draw.
    All n steps run, so the channel draws do not depend on the grid.
    """
    stops = set(grid)
    theta, theta_sum, means = theta0, np.zeros_like(theta0), []
    for i in range(1, n + 1):
        theta_sum += theta
        theta = project(theta - step(i) * gradient(theta, i - 1))
        if i in stops:
            means.append(theta_sum / i)
    return np.stack(means)


# ---------------------------------------------------------------------------
# sparse mean estimation


def soft_threshold(v, lam: float):
    """Componentwise sign(v) * max(|v| - lam, 0); the exact prox of lam * ||.||_1."""
    if not (lam >= 0.0):  # NaN fails too
        raise ParameterError(f"threshold must be >= 0, got {lam!r}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def sparse_mean_threshold(d: int, n: int, level: PrivacyLevel | None, radius: float) -> float:
    """Default regularization 2 r sqrt(d log d / (n eps^2)); for ``level=None`` its limit 0."""
    _check_n(n)
    if level is None:
        return 0.0
    n_eps_sq = n * level.eps_sq  # 0 once eps^2 underflows (eps < ~2e-162): the limit is inf
    return 2.0 * radius * math.sqrt(d * math.log(d) / n_eps_sq) if n_eps_sq else math.inf


def sparse_mean(
    data,
    radius: float,
    level: PrivacyLevel | None,
    rng: np.random.Generator,
    lam: float | None = None,
    grid=None,
) -> np.ndarray:
    """Sparse mean estimate: hypercube-privatize, average, soft-threshold.

    The default threshold is :func:`sparse_mean_threshold`; passing ``lam``
    overrides it (``lam=0``, or ``level=None`` without ``lam``, returns the
    raw average).  Whenever lam >= 2 ||Zbar - theta||_inf, the estimate of
    an s-sparse theta satisfies ||estimate - theta||_2 <= 3 lam sqrt(s).
    Each n of ``grid`` thresholds the mean of the first n outputs of one
    channel pass.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ParameterError("data must be a non-empty (n, d) array")
    n, d = data.shape
    _check_count(d, "sparse mean needs dimension", 2)
    sizes = [n] if grid is None else _check_grid(grid, n)
    means = private_mean_vector(data, "linf", radius, level, rng, grid=sizes)
    lams = [sparse_mean_threshold(d, m, level, radius) if lam is None else lam for m in sizes]
    estimates = [soft_threshold(mean, lam_n) for mean, lam_n in zip(means, lams)]
    return estimates[0] if grid is None else np.array(estimates)


# ---------------------------------------------------------------------------
# logistic regression


def _sigmoid(t):
    e = np.exp(-np.abs(t))  # never overflows
    return np.where(t >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def logistic_gradient(theta, x, y) -> np.ndarray:
    """Gradient of the logistic log-loss log(1 + exp(-y <theta, x>)) at theta.

    Equals -y * x * sigmoid(-y <theta, x>), so its norm never exceeds ||x||.
    """
    theta = np.asarray(theta, dtype=float)
    x = np.asarray(x, dtype=float)
    if y not in (-1, 1, -1.0, 1.0):
        raise ParameterError(f"label must be -1 or +1, got {y!r}")
    if theta.shape != x.shape:
        raise ParameterError(f"dimension mismatch: theta {theta.shape} vs x {x.shape}")
    return _logistic_grad_batch(theta[None], x[None], np.array([float(y)]))[0]


def _logistic_grad_batch(theta, x, y):
    """Gradients for a (reps, d) iterate block against (reps, d) records."""
    margin = y * np.einsum("ij,ij->i", theta, x)
    return -(y * _sigmoid(-margin))[:, None] * x


def _gradient_channel(mechanism, geometry, grad_bound, level, rng, d):
    """The map that privatizes a (reps, d) gradient block, chosen once per run."""
    if mechanism == "nonprivate":
        return lambda g: g
    if mechanism == "laplace_baseline":
        # calibrate on the l2 ball enclosing the gradient domain
        l2_bound = grad_bound if geometry == "l2" else grad_bound * math.sqrt(d)
        return lambda g: _laplace_vector_batch(g, l2_bound, level, "l2_paper", rng)
    if mechanism != "optimal":
        raise ParameterError(f"unknown mechanism {mechanism!r}")
    ball = _l2_ball_batch if geometry == "l2" else _linf_ball_batch
    return lambda g: ball(g, grad_bound, level, rng)


def private_logistic_sgd(
    stream,
    geometry: str,
    radius: float,
    level: PrivacyLevel,
    rng: np.random.Generator,
    gamma0: float = 1.0,
    beta_exp: float = 0.6,
    proj_radius: float | None = None,
    mechanism: str = "optimal",
) -> np.ndarray:
    """Logistic regression by SGD over privatized gradients.

    Each step privatizes the current log-loss gradient with the ball channel
    of the chosen geometry, constructed with radius 2 * ``radius`` (the bound
    on the centered gradient, which is what keeps the channel unbiased for
    any iterate).  Step sizes are gamma0 * i^(-beta_exp); the return value
    is the Polyak average.  ``proj_radius`` optionally projects iterates
    onto an l2 ball for numerical stability, and ``mechanism`` switches to
    the additive-Laplace baseline or a channel-free non-private run.
    A single run of :func:`_logistic_sgd_paths`.

    Args:
        stream: Pair (X, y) of an (n, d) design and length-n labels in {-1, +1}.
        geometry: Norm bounding the covariates ("l2" or "linf").
        radius: Bound r with ||x||_geometry <= r for every record.
        level: Privacy budget.
        rng: Source of randomness.
    """
    x, y = (np.asarray(column, dtype=float) for column in stream)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[0] != y.size:
        raise ParameterError("stream must be a non-empty (n, d) design with n labels")
    return _logistic_sgd_paths(
        x[None], y.reshape(1, -1), geometry, radius, level, gamma0, beta_exp, proj_radius,
        mechanism, rng, [y.size],
    )[0, 0]


def _logistic_sgd_paths(xs, ys, geometry, radius, level, gamma0, beta_exp, proj_radius, mechanism,
                        rng, grid):
    """Replicate-lockstep logistic SGD returning prefix Polyak averages.

    ``xs`` is (reps, n, d), ``ys`` is (reps, n); returns (len(grid), reps, d)
    with plane g holding each replicate's iterate average after grid[g] steps.  Runs
    :func:`_sgd_paths` on the privatized log-loss gradient, step
    gamma0 i^(-beta_exp) and the optional l2 projection.  A covariate outside the
    ball is named by its row of ``xs.reshape(-1, d)``.
    """
    if not np.all(np.abs(ys) == 1.0):
        raise ParameterError("labels must be -1 or +1")
    _check_radius(radius)
    if geometry not in ("l2", "linf"):
        raise ParameterError(f"unknown geometry {geometry!r} (use 'l2' or 'linf')")
    reps, n, d = xs.shape
    _check_ball(xs.reshape(-1, d), geometry, radius)
    if not (gamma0 > 0.0):
        raise ParameterError(f"gamma0 must be > 0, got {gamma0!r}")
    if not (0.5 < beta_exp < 1.0):
        raise ParameterError(f"beta_exp must lie in (1/2, 1), got {beta_exp!r}")
    project = ((lambda theta: theta) if proj_radius is None  # chosen once, before the loop
               else partial(_l2_project, _check_radius(proj_radius, "proj_radius")))
    grid = _check_grid(grid, n)
    privatize = _gradient_channel(mechanism, geometry, 2.0 * radius, level, rng, d)

    def gradient(theta, j):
        return privatize(_logistic_grad_batch(theta, xs[:, j, :], ys[:, j]))

    step = lambda i: gamma0 * i ** (-beta_exp)
    return _sgd_paths(np.zeros((reps, d)), gradient, step, project, n, grid)


def _l2_project(radius, theta):
    """Rows of ``theta`` scaled in place by radius / max(norm, radius): 1.0 exactly inside."""
    theta *= (radius / np.maximum(np.linalg.norm(theta, axis=1), radius))[:, None]
    return theta


# ---------------------------------------------------------------------------
# density estimation


def _check_unit_interval(t, message):
    if t.size and not (t.min() >= 0.0 and t.max() <= 1.0):  # NaN fails too
        raise DomainError(message)


def trig_basis_matrix(k: int, t) -> np.ndarray:
    """Matrix of the first k non-constant trigonometric basis elements at t in [0, 1].

    With the constant 1 the basis is orthonormal on [0, 1].  Columns 2m - 2 and 2m - 1 hold
    sqrt(2) cos(2 pi m t) and sqrt(2) sin(2 pi m t) (cos 1, sin 1, cos 2, ...), bounded by sqrt(2).
    Harmonic m is harmonic m - 1 rotated by e^(2 pi i t) from :func:`_rotations`, with no cos or
    sin per point, within 8 k 2^-52 of exact.  A row does not depend on its row block, and lower
    orders are bit for bit the first columns of higher.
    """
    if k < 1:
        raise ParameterError(f"need at least one basis element, got k={k}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _check_unit_interval(t, "basis argument must lie in [0, 1]")
    out = np.empty((t.size, k))
    rotation = _rotations(t)
    for lo, hi in row_blocks(0, t.size, 2 * ((k + 1) // 2) + 3):  # 2 per harmonic, 3 spare
        _basis_block(k, rotation, lo, out[lo:hi])
    return out


def _rotations(t):
    """e^(2 pi i t) at t in [0, 1], as every caller checks: T[j] + T[j] (cos y - 1) + T[j] i sin y,
    T[j] = e^(2 pi i j / 2^12) from the knot table at j = rint(2^12 t), y = 2 pi (t - j / 2^12)
    rounded once, each series through y^4, and each complex product one real product per part, so
    that every numpy loop rounds alike.  Within 1.01 2^-53 of exact; cos, sin of fl(2 pi t): 6.2."""
    out, rows = np.empty(t.size, dtype=complex), min(block_rows(15), t.size)
    scratch, w, index = np.empty((3, rows)), np.zeros((4, rows), complex), np.empty(rows, int)
    for lo, hi in row_blocks(0, t.size, 15):  # t, y, y^2, r, j, 4 complex buffers and out per point
        (y, y2, r), (p, q, u, v), j = scratch[:, : hi - lo], w[:, : hi - lo], index[: hi - lo]
        np.copyto(j, np.rint(np.multiply(t[lo:hi], _KNOTS, out=y), out=r), casting="unsafe")
        np.square(np.multiply(np.subtract(y, r, out=y), 2.0 * math.pi / _KNOTS, out=y), out=y2)
        p.real = np.multiply(np.subtract(np.multiply(y2, 1 / 24, out=r), 0.5, out=r), y2, out=r)
        q.imag = np.add(np.multiply(np.multiply(y2, -1 / 6, out=r), y, out=r), y, out=r)
        knot = np.take(_KNOT_TABLE, j, out=out[lo:hi])  # p.imag and q.real stay 0
        knot += np.add(np.multiply(knot, p, out=u), np.multiply(knot, q, out=v), out=u)
    return out


def _basis_block(k, rotation, lo, out):
    """Basis rows lo, lo + 1, ... at order k into ``out``, from the points' :func:`_rotations`,
    by the one basis recurrence: harmonic m + 1 is harmonic m rotated by e^(i theta), scaled
    in place and stored as one complex copy, cos m and sin m adjacent."""
    z = np.empty(((k + 1) // 2, len(out)), dtype=complex)  # e^(i m theta), m = 1, 2, ...
    z[0] = rotation[lo : lo + len(out)]
    for m in range(1, len(z)):
        np.multiply(z[m - 1], z[0], out=z[m])
    np.multiply(z.view(float), ORTH_BOUND, out=z.view(float))
    out[:, : k - k % 2].view(complex)[...] = z[: k // 2].T  # cos m, sin m as one complex
    out[:, k - k % 2 :] = z[k // 2 :].real.T  # odd k: the last cos


@dataclass(frozen=True)
class DensityEstimate:
    """Orthogonal-series density estimate 1 + trig_basis_matrix(k, t) @ coeffs.

    The constant coefficient is pinned at 1 (densities integrate to one),
    so the estimate integrates to 1 exactly; it may still be negative
    pointwise, as usual for projection estimators.
    """

    k: int
    coeffs: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        values = 1.0 + trig_basis_matrix(self.k, np.atleast_1d(t)) @ self.coeffs
        return float(values[0]) if t.ndim == 0 else values


def series_bandwidth(n: int, level: PrivacyLevel | None, beta: float) -> int:
    """Basis order k = max(1, round((n eps^2)^(1/(2 beta + 2)))).

    ``level=None`` gives the classical order max(1, round(n^(1/(2 beta + 1)))).
    """
    _check_n(n)
    _check_smoothness(beta)
    if level is None:
        return max(1, round(n ** (1.0 / (2.0 * beta + 1.0))))
    order = (n * level.eps_sq) ** (1.0 / (2.0 * beta + 2.0))
    if not order < math.inf:
        raise ParameterError(f"basis order overflows at n = {n}, eps = {level.epsilon!r}")
    k = max(1, round(order))
    if k > n:  # more coefficients than observations
        raise ParameterError(f"basis order {order:.6g} exceeds n = {n} at eps = {level.epsilon!r}")
    return k


def density_estimate(
    data,
    beta: float,
    level: PrivacyLevel | None,
    rng: np.random.Generator | None,
    k: int | None = None,
    grid=None,
):
    """Orthogonal-series density estimator for samples on [0, 1].

    Per record the vector of the first k non-constant basis values (sup
    norm <= sqrt(2)) is privatized in a single hypercube-channel call; the
    estimated coefficients are the averages of the privatized vectors.
    Passing ``level=None`` disables the channel and reproduces the classical
    projection estimator at the classical order.  Each n of ``grid`` has its
    own order k and channel pass (without the channel, one running sum at the
    largest order).  Both arms build the basis rows a block at a time from one
    kept e^(2 pi i t) per point.  ``k`` may not exceed the smallest n.
    """
    data = np.asarray(data, dtype=float)
    sizes = [data.size] if grid is None else _check_grid(grid, data.size)
    if sizes[0] < 2:
        raise ParameterError("density estimation needs at least 2 observations")
    _check_smoothness(beta)
    _check_unit_interval(data, "density observations must lie in [0, 1]")
    if k is not None and not 1 <= k <= sizes[0]:  # as series_bandwidth: at most n coefficients
        raise ParameterError(f"basis order {k} exceeds n = {sizes[0]}" if k > 0 else
                             f"need at least one basis element, got k={k}")
    ks = [series_bandwidth(n, level, beta) if k is None else k for n in sizes]
    rotation = _rotations(data[: sizes[-1]])
    if level is None:
        k_max = max(ks)
        means = _running_means(partial(_basis_block, k_max, rotation), k_max, sizes)
        coeffs = [mean[:k_n] for mean, k_n in zip(means, ks)]
    else:
        coeffs = [_linf_ball_batch(RowSource((n, k_n), partial(_basis_block, k_n, rotation)),
                                   ORTH_BOUND, level, rng, grid=(n,))[0]
                  for n, k_n in zip(sizes, ks)]
    estimates = [DensityEstimate(k=k_n, coeffs=c) for k_n, c in zip(ks, coeffs)]
    return estimates[0] if grid is None else estimates
