"""Estimation procedures built on privatized samples.

Scalar and vector mean estimation, median estimation by projected
stochastic gradient descent over sign randomized response, sparse mean
estimation by soft thresholding, logistic regression by SGD over privatized
gradients, and orthogonal-series density estimation on [0, 1].

All estimators are single-pass and privatize each raw record exactly once
(the SGD procedures are sequentially interactive: the channel input at step
i depends on the current iterate, never on other records).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import DomainError, ParameterError, PrivacyLevel, make_rng
from .mechanisms import (
    MomentAssumption,
    _l2_ball_batch,
    _laplace_vector_batch,
    _linf_ball_batch,
    _sign_rr_batch,
    _truncated_laplace_batch,
)

# sup-norm bound of the non-constant trigonometric basis elements
ORTH_BOUND = math.sqrt(2.0)

# Entries per row block of the basis evaluation and of a running-sum fold.
_BASIS_BLOCK = 1 << 15
_FOLD_BLOCK = 1 << 16


@dataclass
class SgdState:
    """Mutable SGD carrier: current iterate, step count, running iterate sum.

    ``theta_sum / step_index`` is the Polyak average of the iterates at
    which gradients have been evaluated.  ``step_size`` maps the 1-based
    step index to gamma_i.
    """

    theta: np.ndarray
    step_size: object
    proj_lo: float | None = None
    proj_hi: float | None = None
    proj_l2: float | None = None
    step_index: int = 0
    theta_sum: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.theta_sum is None:
            self.theta_sum = np.zeros_like(self.theta)

    def step(self, gradient) -> None:
        self.step_index += 1
        self.theta_sum = self.theta_sum + self.theta
        gamma = self.step_size(self.step_index)
        theta = self.theta - gamma * gradient
        if self.proj_lo is not None:
            theta = np.clip(theta, self.proj_lo, self.proj_hi)
        if self.proj_l2 is not None:
            norm = float(np.linalg.norm(theta))
            if norm > self.proj_l2:
                theta = theta * (self.proj_l2 / norm)
        self.theta = theta

    @property
    def polyak_average(self):
        return self.theta_sum / self.step_index


def median_schedule(level: PrivacyLevel, radius: float):
    """Step sizes gamma_i = eps * r / sqrt(i) for the median SGD."""
    eps_r = level.epsilon * radius
    return lambda i: eps_r / math.sqrt(i)


def polyak_schedule(gamma0: float, beta_exp: float):
    """Step sizes gamma_i = gamma0 * i^(-beta) with beta in (1/2, 1)."""
    if not (gamma0 > 0.0):
        raise ParameterError(f"gamma0 must be > 0, got {gamma0!r}")
    if not (0.5 < beta_exp < 1.0):
        raise ParameterError(f"beta_exp must lie in (1/2, 1), got {beta_exp!r}")
    return lambda i: gamma0 * i ** (-beta_exp)


# ---------------------------------------------------------------------------
# mean estimation


def private_mean_scalar(
    data, assumption: MomentAssumption, level: PrivacyLevel, rng: np.random.Generator
) -> float:
    """Mean of truncated-Laplace privatized scalars.

    Each record is clamped to [-T, T] with T = radius_k (n eps^2)^(1/(2k))
    and corrupted with Laplace(eps / (2T)) noise; the estimate is the plain
    average of the privatized values.
    """
    data = np.asarray(data, dtype=float)
    if data.size == 0:
        raise ParameterError("cannot estimate a mean from an empty sample")
    z = _truncated_laplace_batch(data, assumption, data.size, level, rng)
    return float(z.mean())


def private_mean_vector(
    data, geometry: str, radius: float, level: PrivacyLevel, rng: np.random.Generator
) -> np.ndarray:
    """Average of per-record ball-channel outputs; unbiased for the population mean.

    Args:
        data: (n, d) records, each inside the stated ball.
        geometry: "l2" for the sphere sampler, "linf" for the hypercube sampler.
        radius: Ball radius of the data domain.
        level: Privacy budget.
        rng: Source of randomness.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ParameterError("data must be a non-empty (n, d) array")
    if geometry == "l2":
        z = _l2_ball_batch(data, radius, level, rng)
    elif geometry == "linf":
        z = _linf_ball_batch(data, radius, level, rng)
    else:
        raise ParameterError(f"unknown geometry {geometry!r} (use 'l2' or 'linf')")
    return z.mean(axis=0)


# ---------------------------------------------------------------------------
# median estimation


def private_median_sgd(
    stream,
    radius: float,
    level: PrivacyLevel,
    rng: np.random.Generator,
    one_sided: bool = False,
    return_iterates: bool = False,
):
    """Median estimate by projected SGD over sign randomized response.

    Starting from theta_0 uniform on the projection interval, each step
    privatizes sign(theta_i - X_i) with the sign channel and applies

        theta_{i+1} = proj(theta_i - gamma_i Z_i),   gamma_i = eps r / sqrt(i),

    projecting onto [0, r] when ``one_sided`` else [-r, r].  Returns the
    Polyak average of the iterates; with eps <= 1 its expected excess risk
    is at most 6 r / sqrt(n eps^2).
    """
    x = np.asarray(stream, dtype=float)
    if x.size == 0:
        raise ParameterError("cannot estimate a median from an empty stream")
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    lo = 0.0 if one_sided else -radius
    theta0 = rng.uniform(lo, radius)
    state = SgdState(
        theta=np.array([theta0]),
        step_size=median_schedule(level, radius),
        proj_lo=lo,
        proj_hi=radius,
    )
    iterates = np.empty(x.size) if return_iterates else None
    for i in range(x.size):
        if return_iterates:
            iterates[i] = state.theta[0]
        sign = np.where(state.theta >= x[i], 1.0, -1.0)
        state.step(_sign_rr_batch(sign, level, rng))
    estimate = float(state.polyak_average[0])
    return (estimate, iterates) if return_iterates else estimate


def _median_sgd_paths(x_mat, radius, level, rng, grid, one_sided=False):
    """Replicate-lockstep median SGD returning prefix Polyak averages.

    ``x_mat`` is (reps, n); the returned array is (reps, len(grid)) with
    column g holding the average of the first grid[g] iterates.
    """
    reps, n = x_mat.shape
    lo = 0.0 if one_sided else -radius
    grid = list(grid)
    theta = rng.uniform(lo, radius, size=reps)
    theta_sum = np.zeros(reps)
    out = np.empty((reps, len(grid)))
    eps_r = level.epsilon * radius
    g = 0
    for i in range(1, n + 1):
        theta_sum += theta
        sign = np.where(theta >= x_mat[:, i - 1], 1.0, -1.0)
        z = _sign_rr_batch(sign, level, rng)
        theta = np.clip(theta - eps_r / math.sqrt(i) * z, lo, radius)
        if g < len(grid) and i == grid[g]:
            out[:, g] = theta_sum / i
            g += 1
    if g != len(grid):
        raise ParameterError("grid entries must be increasing and <= stream length")
    return out


# ---------------------------------------------------------------------------
# sparse mean estimation


def soft_threshold(v, lam: float):
    """Componentwise sign(v) * max(|v| - lam, 0); the exact prox of lam * ||.||_1."""
    if lam < 0.0:
        raise ParameterError(f"threshold must be >= 0, got {lam!r}")
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - lam, 0.0)


def sparse_mean_threshold(d: int, n: int, level: PrivacyLevel, radius: float) -> float:
    """Default regularization 2 r sqrt(d log d / (n eps^2)) for the sparse mean."""
    return 2.0 * radius * math.sqrt(d * math.log(d) / (n * level.epsilon**2))


def sparse_mean(
    data,
    radius: float,
    level: PrivacyLevel,
    rng: np.random.Generator,
    lam: float | None = None,
) -> np.ndarray:
    """Sparse mean estimate: hypercube-privatize, average, soft-threshold.

    The default threshold is :func:`sparse_mean_threshold`; passing ``lam``
    overrides it (``lam=0`` returns the raw average).  Whenever
    lam >= 2 ||Zbar - theta||_inf, the estimate of an s-sparse theta
    satisfies ||estimate - theta||_2 <= 3 lam sqrt(s).
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2 or data.shape[0] == 0:
        raise ParameterError("data must be a non-empty (n, d) array")
    n, d = data.shape
    if d < 2:
        raise ParameterError(f"sparse mean needs dimension >= 2, got {d}")
    if lam is None:
        lam = sparse_mean_threshold(d, n, level, radius)
    z_bar = _linf_ball_batch(data, radius, level, rng).mean(axis=0)
    return soft_threshold(z_bar, lam)


# ---------------------------------------------------------------------------
# logistic regression


def _sigmoid(t):
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


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
    margin = float(y) * float(theta @ x)
    return -float(y) * x * float(_sigmoid(np.array(-margin)))


def _logistic_grad_batch(theta, x, y):
    """Gradients for a (reps, d) iterate block against (reps, d) records."""
    margin = y * np.einsum("ij,ij->i", theta, x)
    return -(y * _sigmoid(-margin))[:, None] * x


def _privatize_gradient(g, geometry, grad_bound, level, mechanism, rng):
    if mechanism == "nonprivate":
        return g
    if mechanism == "laplace_baseline":
        # calibrate on the l2 ball enclosing the gradient domain
        l2_bound = grad_bound if geometry == "l2" else grad_bound * math.sqrt(g.shape[1])
        return _laplace_vector_batch(g, l2_bound, level, "l2_paper", rng)
    if mechanism != "optimal":
        raise ParameterError(f"unknown mechanism {mechanism!r}")
    if geometry == "l2":
        return _l2_ball_batch(g, grad_bound, level, rng)
    if geometry == "linf":
        return _linf_ball_batch(g, grad_bound, level, rng)
    raise ParameterError(f"unknown geometry {geometry!r} (use 'l2' or 'linf')")


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
    return_iterates: bool = False,
):
    """Logistic regression by SGD over privatized gradients.

    Each step privatizes the current log-loss gradient with the ball channel
    of the chosen geometry, constructed with radius 2 * ``radius`` (the bound
    on the centered gradient, which is what keeps the channel unbiased for
    any iterate).  Step sizes are gamma0 * i^(-beta_exp); the return value
    is the Polyak average.  ``proj_radius`` optionally projects iterates
    onto an l2 ball for numerical stability, and ``mechanism`` switches to
    the additive-Laplace baseline or a channel-free non-private run.

    Args:
        stream: Pair (X, y) of an (n, d) design and length-n labels in {-1, +1}.
        geometry: Norm bounding the covariates ("l2" or "linf").
        radius: Bound r with ||x||_geometry <= r for every record.
        level: Privacy budget.
        rng: Source of randomness.
    """
    x, y = stream
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 2 or x.shape[0] == 0 or x.shape[0] != y.size:
        raise ParameterError("stream must be a non-empty (n, d) design with n labels")
    if not np.all(np.abs(y) == 1.0):
        raise ParameterError("labels must be -1 or +1")
    _check_covariates(x, geometry, radius)
    n, d = x.shape
    state = SgdState(
        theta=np.zeros(d), step_size=polyak_schedule(gamma0, beta_exp), proj_l2=proj_radius
    )
    iterates = np.empty((n, d)) if return_iterates else None
    for i in range(n):
        if return_iterates:
            iterates[i] = state.theta
        g = logistic_gradient(state.theta, x[i], y[i])
        z = _privatize_gradient(
            g[None, :], geometry, 2.0 * radius, level, mechanism, rng
        )[0]
        state.step(z)
    estimate = state.polyak_average
    return (estimate, iterates) if return_iterates else estimate


def _check_covariates(x, geometry, radius):
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    if geometry == "l2":
        worst = float(np.max(np.linalg.norm(x, axis=1)))
    elif geometry == "linf":
        worst = float(np.max(np.abs(x)))
    else:
        raise ParameterError(f"unknown geometry {geometry!r} (use 'l2' or 'linf')")
    if worst > radius * (1.0 + 1e-9):
        raise DomainError(f"covariate {geometry} norm {worst:.6g} exceeds radius {radius:.6g}")


def _logistic_sgd_paths(
    xs, ys, geometry, radius, level, gamma0, beta_exp, proj_radius, mechanism, rng, grid
):
    """Replicate-lockstep logistic SGD returning prefix Polyak averages.

    ``xs`` is (reps, n, d), ``ys`` is (reps, n); returns (reps, G, d) with
    plane g holding the iterate average after grid[g] steps.
    """
    reps, n, d = xs.shape
    grid = list(grid)
    theta = np.zeros((reps, d))
    theta_sum = np.zeros((reps, d))
    out = np.empty((reps, len(grid), d))
    g_idx = 0
    for i in range(1, n + 1):
        theta_sum += theta
        g = _logistic_grad_batch(theta, xs[:, i - 1, :], ys[:, i - 1])
        z = _privatize_gradient(g, geometry, 2.0 * radius, level, mechanism, rng)
        theta = theta - gamma0 * i ** (-beta_exp) * z
        if proj_radius is not None:
            norms = np.linalg.norm(theta, axis=1)
            over = norms > proj_radius
            if np.any(over):
                theta[over] *= (proj_radius / norms[over])[:, None]
        if g_idx < len(grid) and i == grid[g_idx]:
            out[:, g_idx, :] = theta_sum / i
            g_idx += 1
    if g_idx != len(grid):
        raise ParameterError("grid entries must be increasing and <= stream length")
    return out


# ---------------------------------------------------------------------------
# density estimation


def _check_unit_interval(t, message):
    if t.size and not (t.min() >= 0.0 and t.max() <= 1.0):  # NaN fails too
        raise DomainError(message)


def trig_basis_eval(j: int, t):
    """Evaluate the j-th trigonometric basis element on t in [0, 1].

    The enumeration is the classical one: element 0 is the constant 1, and
    for frequencies m >= 1 element 2m is sqrt(2) cos(2 pi m t) while element
    2m+1 is sqrt(2) sin(2 pi m t).  Index 1 does not name a basis element
    under this numbering (it would be the sine at frequency zero) and is
    rejected.
    """
    if j < 0:
        raise ParameterError(f"basis index must be >= 0, got {j}")
    if j == 1:
        raise ParameterError("index 1 is the degenerate frequency-zero sine; not a basis element")
    t = np.asarray(t, dtype=float)
    _check_unit_interval(t, "basis argument must lie in [0, 1]")
    if j == 0:
        out = np.ones_like(t)
    elif j % 2 == 0:
        out = ORTH_BOUND * np.cos(2.0 * math.pi * (j // 2) * t)
    else:
        out = ORTH_BOUND * np.sin(2.0 * math.pi * ((j - 1) // 2) * t)
    return float(out) if out.ndim == 0 else out


def trig_basis_matrix(k: int, t, out=None) -> np.ndarray:
    """Matrix of the first k non-constant basis elements at points t.

    Column c (0-based) holds basis element c + 2, i.e. the order is
    cos 1, sin 1, cos 2, sin 2, ...; every entry is bounded by sqrt(2).
    The first k columns for any larger order are identical, so bases of
    different orders can share one matrix.  ``out``, if given, is the
    (t.size, k) float array to fill.  Row blocks go through one reused
    contiguous buffer: the same elementwise operations as on the whole matrix.
    """
    if k < 1:
        raise ParameterError(f"need at least one basis element, got k={k}")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _check_unit_interval(t, "basis argument must lie in [0, 1]")
    if out is None:
        out = np.empty((t.size, k))
    n_cos = (k + 1) // 2
    freqs = np.arange(1, n_cos + 1)
    two_pi_t = 2.0 * math.pi * t[:, None]
    rows = max(1, _BASIS_BLOCK // k)
    buf = np.empty(min(rows, t.size) * n_cos)
    for lo in range(0, t.size, rows):
        hi = min(lo + rows, t.size)
        for fn, m, col in ((np.cos, n_cos, 0), (np.sin, k // 2, 1)):
            arg = buf[: (hi - lo) * m].reshape(hi - lo, m)
            np.multiply(two_pi_t[lo:hi], freqs[:m], out=arg)
            np.multiply(fn(arg, out=arg), ORTH_BOUND, out=out[lo:hi, col::2])
    return out


def _running_means(fill, d, grid):
    """Mean of the first n rows of an (N, d) array, d >= 2, for each n of the increasing grid.

    ``fill(lo, out)`` writes rows lo, lo + 1, ... into ``out``, a block that
    sits below the sum so far in one C-contiguous buffer.  There numpy's
    axis-0 sum adds rows one after another, as cumsum and an axis-0 mean do,
    so each mean is theirs bit for bit (``initial=-0.0`` is an exact identity).
    """
    rows = max(1, _FOLD_BLOCK // d)
    buf = np.empty((rows + 1, d))
    buf[0] = -0.0
    out, prev = [], 0
    for n in grid:
        for lo in range(prev, n, rows):
            r = min(rows, n - lo)
            fill(lo, buf[1 : r + 1])
            buf[0] = np.add.reduce(buf[: r + 1], axis=0, initial=-0.0)
        out.append((n, buf[0] / n))
        prev = n
    return out


def _projection_coeffs(data, k_for, basis):
    """Map each n of ``k_for`` (n -> order k, n increasing) to ``basis(k, data[:n]).mean(axis=0)``.

    Bit for bit, from one running sum of basis rows at the largest order
    (lower orders are column prefixes).  numpy sums a single column
    pairwise, so k = 1 cells evaluate their column whole.
    """
    k_max = max(k_for.values())
    coeffs = {}
    if k_max > 1:
        fill = lambda lo, out: basis(k_max, data[lo : lo + len(out)], out=out)
        coeffs = {n: mean[: k_for[n]] for n, mean in _running_means(fill, k_max, list(k_for))}
    for n, k in k_for.items():
        if k == 1:
            coeffs[n] = basis(1, data[:n]).mean(axis=0)
    return coeffs


@dataclass(frozen=True)
class DensityEstimate:
    """Orthogonal-series density estimate 1 + sum_j coeffs[j] basis_{j+2}(t).

    The constant coefficient is pinned at 1 (densities integrate to one),
    so the estimate integrates to 1 exactly; it may still be negative
    pointwise, as usual for projection estimators.
    """

    k: int
    coeffs: np.ndarray
    beta: float

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        values = 1.0 + trig_basis_matrix(self.k, np.atleast_1d(t)) @ self.coeffs
        return float(values[0]) if t.ndim == 0 else values


def series_bandwidth(n: int, level: PrivacyLevel, beta: float) -> int:
    """Basis order k = max(1, round((n eps^2)^(1/(2 beta + 2))))."""
    return max(1, round((n * level.epsilon**2) ** (1.0 / (2.0 * beta + 2.0))))


def density_estimate(
    data,
    beta: float,
    level: PrivacyLevel | None,
    rng: np.random.Generator | None,
    k: int | None = None,
) -> DensityEstimate:
    """Orthogonal-series density estimator for samples on [0, 1].

    Per record the vector of the first k non-constant basis values (sup
    norm <= sqrt(2)) is privatized in a single hypercube-channel call; the
    estimated coefficients are the averages of the privatized vectors.
    Passing ``level=None`` disables the channel and reproduces the classical
    projection estimator (``k`` must then be given explicitly).
    """
    data = np.asarray(data, dtype=float)
    if data.size < 2:
        raise ParameterError("density estimation needs at least 2 observations")
    if not (beta > 0.5):
        raise ParameterError(f"smoothness beta must be > 1/2, got {beta!r}")
    _check_unit_interval(data, "density observations must lie in [0, 1]")
    if k is None:
        if level is None:
            raise ParameterError("classical mode needs an explicit basis order k")
        k = series_bandwidth(data.size, level, beta)
    if level is None:
        coeffs = _projection_coeffs(data, {data.size: k}, trig_basis_matrix)[data.size]
    else:
        basis_values = trig_basis_matrix(k, data)
        coeffs = _linf_ball_batch(basis_values, ORTH_BOUND, level, rng).mean(axis=0)
    return DensityEstimate(k=k, coeffs=coeffs, beta=beta)
