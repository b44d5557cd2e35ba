"""Independent verification machinery.

Exact enumeration of the small discrete channels, Monte-Carlo unbiasedness
checks, likelihood-ratio certification of the privacy guarantee, and the
log-log slope fits used by the rate experiments.  Everything here is
deliberately independent of the closed-form constants in
:mod:`privest.mechanisms`: the enumeration and quadrature routines recompute
the channel laws from the sampling procedure itself, so agreement between
the two is evidence, not circularity.

Exact rational arithmetic is *not* used for the channel pmfs: e^eps is
irrational, so exactness is unattainable anyway; compensated float
summation with 1e-9 .. 1e-12 tolerances is used instead.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import DomainError, ParameterError, SizeError, UnsupportedChannelError, _check_count
from .mechanisms import Channel, _check_ball, _check_signs, cube_tie_gamma, cube_vertices

_ENUMERATION_DIM_CAP = 20
MC_MIN_DRAWS = 1000  # fewest draws monte_carlo_unbias accepts
_PMF_DIM_CAP = 8
_SIMPSON_NODES = 20001  # odd, as Simpson's rule needs


@dataclass(frozen=True)
class EnumeratedPmf:
    """Exact output law of a discrete channel: support rows and probabilities."""

    support: np.ndarray  # (m, d)
    probs: np.ndarray  # (m,)

    def mean(self) -> np.ndarray:
        return self.probs @ self.support


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    intercept: float
    r_squared: float


def halfspace_expectation_cube(x_vertex) -> np.ndarray:
    """Mean of a uniform hypercube vertex conditioned on the closed halfspace of x.

    For x a vertex of {-1, 1}^d, returns E[Z | <Z, x> >= 0] by exact
    enumeration of all 2^d vertices (ties included on the accept side).
    """
    x = np.asarray(x_vertex, dtype=float)
    d = x.size
    if d > _ENUMERATION_DIM_CAP:
        raise SizeError(f"vertex enumeration capped at d <= {_ENUMERATION_DIM_CAP}, got {d}")
    _check_signs(x)
    vertices = cube_vertices(d)
    accepted = vertices[vertices @ x >= 0.0]
    return accepted.mean(axis=0)


def _flip_probability(level) -> float:
    """1 / (1 + e^eps) as e^-eps pi_eps: 1 - pi_eps would lose about 2^-53 e^eps."""
    return math.exp(-level.epsilon) * level.pi_eps


def _rounding_probs(x_grid: np.ndarray, radius: float, vertices: np.ndarray) -> np.ndarray:
    """P(X~ = radius * v | x) for every grid row x and vertex row v."""
    g, d = x_grid.shape
    probs = np.ones((g, vertices.shape[0]))
    for j in range(d):
        p_plus = 0.5 + x_grid[:, j] / (2.0 * radius)
        probs *= np.where(vertices[None, :, j] > 0.0, p_plus[:, None], 1.0 - p_plus[:, None])
    return probs


def _linf_conditional_matrix(d: int, level) -> np.ndarray:
    """M[v, z] = P(Z = B * vertex_z | X~ = radius * vertex_v) for the hypercube channel.

    Recomputed from the sampling procedure: a uniform vertex lands on z or
    -z with probability 2^(1-d) and is flipped onto the positive side of v
    with probability p_plus = (1 + gamma_d / phi_eps) / 2, so onto the other
    with (1 - gamma_d) / 2 + gamma_d / (1 + e^eps); tie vertices (<z, v> = 0,
    even d only) keep their unconditional weight 2^-d.
    """
    vertices = cube_vertices(d)
    gram = vertices @ vertices.T
    gamma = cube_tie_gamma(d)
    out = np.full((2**d, 2**d), 2.0 ** (-d))
    out[gram > 0.0] = 2.0 ** (1 - d) * 0.5 * (1.0 + gamma / level.phi_eps)
    out[gram < 0.0] = 2.0 ** (1 - d) * (0.5 * (1.0 - gamma) + gamma * _flip_probability(level))
    return out


def channel_pmf_grid(channel: Channel, x_grid) -> tuple:
    """Exact pmfs of a discrete channel for every row of ``x_grid``.

    Returns ``(support, probs_matrix)`` with ``probs_matrix`` of shape
    (grid, support).  Shared support makes likelihood ratios directly
    comparable across inputs.
    """
    x_grid = np.atleast_2d(np.asarray(x_grid, dtype=float))
    if channel.kind == "sign_rr":
        _check_signs(x_grid)
        pi, flip = channel.level.pi_eps, _flip_probability(channel.level)
        # support rows are [-phi, +phi]
        return channel.support_points(), np.where(x_grid > 0, [[flip, pi]], [[pi, flip]])
    if channel.kind == "linf_ball":
        d = channel.dim
        if d > _PMF_DIM_CAP:
            raise SizeError(f"pmf enumeration capped at d <= {_PMF_DIM_CAP}, got {d}")
        if x_grid.shape[1] != d:
            raise ParameterError(f"inputs must have dimension {d}")
        _check_ball(x_grid, "linf", channel.radius)
        probs = _rounding_probs(x_grid, channel.radius, cube_vertices(d))
        probs = probs @ _linf_conditional_matrix(d, channel.level)
        return channel.support_points(), probs
    raise UnsupportedChannelError(
        f"{channel.kind} has continuous output; only sign_rr and linf_ball enumerate"
    )


def channel_pmf(channel: Channel, x) -> EnumeratedPmf:
    """Exact output pmf of a discrete channel at a single input."""
    support, probs = channel_pmf_grid(channel, np.atleast_1d(np.asarray(x, dtype=float)))
    return EnumeratedPmf(support, probs[0])


def verify_dp(channel: Channel, x_grid) -> float:
    """Certify the likelihood-ratio privacy bound by exact enumeration.

    Returns max over output points z and input pairs (x, x') of
    log(p(z|x) / p(z|x')); for an eps-LDP channel this is <= eps, with
    equality for randomized response.
    """
    support, probs = channel_pmf_grid(channel, x_grid)
    if np.any(probs <= 0.0):
        raise DomainError("zero-probability output point; channel should have full support")
    logs = np.log(probs)
    return float(np.max(logs.max(axis=0) - logs.min(axis=0)))


def monte_carlo_unbias(channel: Channel, x, n: int, rng) -> tuple:
    """Sample mean and per-coordinate standard error of N channel draws at x.

    The harness assertion is |mean_j - x_j| <= 5 stderr_j for all j.
    """
    if n < MC_MIN_DRAWS:
        raise ParameterError(f"need at least {MC_MIN_DRAWS} draws for a stable stderr, got {n}")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    draws = channel.privatize_batch(np.broadcast_to(x, (n, x.size)), rng)
    mean = draws.mean(axis=0)
    # in units of the largest |draw|, so no square overflows at a bound B near the float limit
    scale = np.abs(draws).max(axis=0)
    stderr = scale * (draws / scale).std(axis=0, ddof=1) / math.sqrt(n)
    return mean, stderr


def slope_fit(points) -> SlopeFit:
    """Ordinary least squares on (log n, log error); errors must be positive."""
    pts = [(float(n), float(v)) for n, v in points]
    if len(pts) < 3:
        raise ParameterError(f"need at least 3 points for a slope fit, got {len(pts)}")
    if any(n <= 0 or v <= 0 for n, v in pts):
        raise DomainError("slope fits need strictly positive sizes and errors")
    logn = np.log([n for n, _ in pts])
    logv = np.log([v for _, v in pts])
    slope, intercept = np.polyfit(logn, logv, 1)
    fitted = slope * logn + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - logv.mean()) ** 2))
    r_sq = 1.0 if ss_tot == 0.0 else max(0.0, 1.0 - ss_res / ss_tot)
    return SlopeFit(float(slope), float(intercept), float(r_sq))


def sphere_halfspace_mean_quadrature(d: int) -> float:
    """Hemisphere mean factor c_d by 1-D angular quadrature (Simpson).

    Integrates 2 (s_{d-1}/s_d) * cos(phi)^(d-2) sin(phi) over [0, pi/2],
    where s_d is the unit-sphere surface area in R^d.  Independent of the
    Gamma-ratio closed form, hence usable as its oracle.
    """
    _check_count(d)
    if d == 1:
        # the "hemisphere" is the single point {+1}
        return 1.0
    phi = np.linspace(0.0, math.pi / 2.0, _SIMPSON_NODES)
    y = np.cos(phi) ** (d - 2) * np.sin(phi)
    h = phi[1] - phi[0]
    integral = float(h / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()))
    # s_{d-1}(1) / s_d(1) with s_d(1) = d pi^(d/2) / Gamma(d/2 + 1)
    log_ratio = (
        math.log(d - 1)
        - math.log(d)
        - 0.5 * math.log(math.pi)
        + math.lgamma(d / 2 + 1)
        - math.lgamma((d - 1) / 2 + 1)
    )
    return 2.0 * math.exp(log_ratio) * integral
