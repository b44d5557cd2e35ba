"""Epsilon-LDP privatization channels.

Implements the minimax-optimal channels (truncated-Laplace scalar, l2-ball
and hypercube halfspace samplers, sign randomized response) together with
the additive-Laplace baselines they are benchmarked against.

Every channel is unbiased, ``E[Z | X = x] = x``, and emits each raw record
exactly once.  The halfspace samplers condition a uniform point of a sphere
or hypercube on the side of a random hyperplane through the rounded input;
the side is "true" with probability pi_eps.

Hypercube ties: for even d some vertices satisfy <z, X~> = 0 exactly.
Sampling each branch uniformly over its *closed* halfspace keeps the
channel unbiased but is not exactly eps-DP (a tie then has probability
1/N under every branch, versus (1-pi)/N for a strictly-negative vertex, a
ratio of 1 + e^eps).  The implementation below therefore passes tie
vertices through at their unconditional weight 2^-d and flips strict
vertices onto the selected side with the tie-corrected probability
(1 + gamma_d / phi_eps) / 2, gamma_d = 2^(d-1) / (2^(d-1) + C(d, d/2)/2).
This law is exactly unbiased with the same closed-form bound B, satisfies
the likelihood-ratio bound exactly, and coincides with halfspace-uniform
sampling whenever d is odd (gamma_d = 1, no ties).
"""

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .core import (
    DomainError,
    ParameterError,
    PrivacyLevel,
    bernoulli_pi,
    clamp,
    laplace_sample,
    uniform_sphere,
)

MAX_REJECTION_ATTEMPTS = 10_000

# Relative slack on domain checks, to absorb float dust from callers.
_DOMAIN_SLACK = 1e-9

# Entries per row block of the hypercube kernel's draws.
_LINF_BLOCK = 1 << 15

# Count of raw records pushed through any channel; test-only bookkeeping
# used to assert the one-channel-call-per-record privacy structure.
_records_privatized = 0


def privatization_count() -> int:
    return _records_privatized


def reset_privatization_count() -> None:
    global _records_privatized
    _records_privatized = 0


def _count(n: int) -> None:
    global _records_privatized
    _records_privatized += n


@dataclass(frozen=True)
class MomentAssumption:
    """Moment condition E[|X|^k]^(1/k) <= radius_k with order k > 1.

    ``k = math.inf`` means the data are bounded, |X| <= radius_k almost
    surely.
    """

    k: float
    radius_k: float = 1.0

    def __post_init__(self):
        if not (self.k > 1.0):
            raise ParameterError(f"moment order k must be > 1, got {self.k!r}")
        if not (self.radius_k > 0.0) or not math.isfinite(self.radius_k):
            raise ParameterError(f"radius_k must be finite and > 0, got {self.radius_k!r}")


def sphere_halfspace_mean(d: int) -> float:
    """First coordinate of the mean of a uniform point on a closed unit hemisphere.

    Equals ``2 Gamma(d/2 + 1) / (sqrt(pi) d Gamma((d-1)/2 + 1))``; computed
    through log-Gamma so large d does not overflow.
    """
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    return 2.0 * math.exp(math.lgamma(d / 2 + 1) - math.lgamma((d - 1) / 2 + 1)) / (
        math.sqrt(math.pi) * d
    )


def cube_halfspace_mean(d: int) -> float:
    """Scaling factor C_d^{-1} of the hypercube halfspace mean.

    For x a vertex of {-1, 1}^d, the mean of a uniform vertex Z conditioned
    on <Z, x> >= 0 equals C_d^{-1} x, where

        C_d^{-1} = 2^(1-d) binom(d-1, (d-1)/2)                  (d odd)
        C_d^{-1} = binom(d-1, d/2) / (2^(d-1) + binom(d, d/2)/2)  (d even)

    Ties <Z, x> = 0 (even d) are counted inside the closed halfspace, which
    has 2^(d-1) + binom(d, d/2)/2 vertices.  Exact integer arithmetic.
    """
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    if d % 2 == 1:
        return float(Fraction(math.comb(d - 1, (d - 1) // 2), 2 ** (d - 1)))
    return float(Fraction(2 * math.comb(d - 1, d // 2), 2**d + math.comb(d, d // 2)))


def cube_tie_gamma(d: int) -> float:
    """Tie-correction factor gamma_d = 2^(d-1) / (2^(d-1) + binom(d, d/2)/2).

    Equals 1 for odd d (the hypercube has no tie vertices); for even d it
    shrinks the side-selection bias just enough that passing ties through
    at weight 2^-d leaves the channel unbiased at the closed-form B.
    """
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    if d % 2 == 1:
        return 1.0
    return float(Fraction(2**d, 2**d + math.comb(d, d // 2)))


def l2_bound_B(d: int, radius: float, level: PrivacyLevel) -> float:
    """Output magnitude B of the l2-ball channel.

    B = radius * phi_eps / c_d with c_d = :func:`sphere_halfspace_mean`;
    equivalently radius * phi_eps * (sqrt(pi)/2) * d * Gamma((d-1)/2 + 1)
    / Gamma(d/2 + 1).  Satisfies B <= radius * phi_eps * (3 sqrt(pi)/4) * sqrt(d).
    """
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    return radius * level.phi_eps / sphere_halfspace_mean(d)


def linf_bound_B(d: int, radius: float, level: PrivacyLevel) -> float:
    """Output magnitude B of the hypercube channel: radius * phi_eps * C_d."""
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    return radius * level.phi_eps / cube_halfspace_mean(d)


def truncation_level(assumption: MomentAssumption, n: int, level: PrivacyLevel) -> float:
    """Truncation point T_k = radius_k * (n eps^2)^(1/(2k)); T = radius_k for k = inf."""
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    if math.isinf(assumption.k):
        return assumption.radius_k
    return assumption.radius_k * (n * level.epsilon**2) ** (1.0 / (2.0 * assumption.k))


# ---------------------------------------------------------------------------
# scalar channels


def truncated_laplace_mean_channel(
    x: float, assumption: MomentAssumption, n: int, level: PrivacyLevel, rng: np.random.Generator
) -> float:
    """Privatize a scalar for mean estimation: clamp to [-T, T], add Laplace noise.

    T = truncation_level(assumption, n, level) and the noise has inverse
    scale eps / (2T), so the output variance given x is 8 T^2 / eps^2.
    """
    t_level = truncation_level(assumption, n, level)
    _count(1)
    return clamp(float(x), t_level) + laplace_sample(rng, level.epsilon / (2.0 * t_level))


def _truncated_laplace_batch(x, assumption, n, level, rng):
    t_level = truncation_level(assumption, n, level)
    x = np.asarray(x, dtype=float)
    _count(x.size)
    noise = laplace_sample(rng, level.epsilon / (2.0 * t_level), size=x.shape)
    noise += clamp(x, t_level)
    return noise


def naive_median_channel(
    x: float,
    radius: float,
    level: PrivacyLevel,
    rng: np.random.Generator,
    one_sided: bool = False,
) -> float:
    """Baseline for median estimation: project onto the interval, add Laplace(eps/(2r)).

    ``one_sided=True`` projects onto [0, r] instead of [-r, r] (useful when
    the median is known to be non-negative); the noise scale is kept at
    eps/(2r) in both cases, so the mechanism stays eps-LDP.
    """
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    lo = 0.0 if one_sided else -radius
    _count(1)
    return float(np.clip(x, lo, radius)) + laplace_sample(rng, level.epsilon / (2.0 * radius))


def _naive_median_batch(x, radius, level, rng, one_sided=False):
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    lo = 0.0 if one_sided else -radius
    x = np.asarray(x, dtype=float)
    _count(x.size)
    noise = laplace_sample(rng, level.epsilon / (2.0 * radius), size=x.shape)
    noise += np.clip(x, lo, radius)
    return noise


def sign_rr_channel(s: float, level: PrivacyLevel, rng: np.random.Generator) -> float:
    """Randomized response on a sign: return phi_eps * s w.p. pi_eps, else -phi_eps * s.

    Unbiased for s, and the likelihood ratio between the two inputs is
    exactly exp(eps).
    """
    if s not in (-1, 1, -1.0, 1.0):
        raise DomainError(f"sign must be -1 or +1, got {s!r}")
    w = 1.0 if bernoulli_pi(rng, level) else -1.0
    _count(1)
    return level.phi_eps * w * float(s)


def _sign_rr_batch(s, level, rng):
    s = np.asarray(s, dtype=float)
    if not np.all(np.abs(s) == 1.0):
        raise DomainError("signs must be -1 or +1")
    w = np.where(rng.random(s.shape) < level.pi_eps, 1.0, -1.0)
    _count(s.size)
    return level.phi_eps * w * s


# ---------------------------------------------------------------------------
# vector channels


def _check_l2_domain(x, radius):
    norm = float(np.linalg.norm(x))
    if not (norm <= radius * (1.0 + _DOMAIN_SLACK)):  # NaN fails too
        raise DomainError(f"||x||_2 = {norm:.6g} exceeds the channel radius {radius:.6g}")
    return norm


def l2_ball_channel(
    x, radius: float, level: PrivacyLevel, rng: np.random.Generator
) -> np.ndarray:
    """Privatize a vector with ||x||_2 <= radius; output lies on the sphere ||Z||_2 = B.

    Steps: (i) round x to +/- radius * x/||x|| with P(+) = 1/2 + ||x||/(2 radius)
    (a uniform direction with a fair sign when x = 0); (ii) draw the channel
    bit T; (iii) rejection-sample a uniform sphere point on the halfspace
    side selected by T, scaled to norm B = :func:`l2_bound_B`.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    norm = _check_l2_domain(x, radius)
    if norm == 0.0:
        direction = uniform_sphere(rng, d)
        sign = 1.0 if rng.random() < 0.5 else -1.0
    else:
        direction = x / norm
        sign = 1.0 if rng.random() < 0.5 + norm / (2.0 * radius) else -1.0
    x_rounded = radius * sign * direction
    t = bernoulli_pi(rng, level)
    bound = l2_bound_B(d, radius, level)
    for _ in range(MAX_REJECTION_ATTEMPTS):
        z = uniform_sphere(rng, d)
        ip = float(z @ x_rounded)
        if (t == 1 and ip > 0.0) or (t == 0 and ip <= 0.0):
            _count(1)
            return bound * z
    raise RuntimeError("rejection sampling failed to accept; this has probability ~2^-10000")


def _l2_ball_batch(x, radius, level, rng):
    """Vectorized l2 channel for an (n, d) batch.

    Law-identical to :func:`l2_ball_channel`: instead of rejecting, a uniform
    sphere point is reflected onto the required halfspace side, which by the
    negation symmetry of the sphere measure is exactly the conditional law
    (ties have measure zero).
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    norms = np.linalg.norm(x, axis=1)
    limit = radius * (1.0 + _DOMAIN_SLACK)
    if n and not (norms.max() <= limit):  # NaN fails too
        i = int(np.argmax(~(norms <= limit)))
        raise DomainError(
            f"record {i}: ||x||_2 = {norms[i]:.6g} exceeds the channel radius {radius:.6g}"
        )
    zero = norms == 0.0
    n_zero = int(np.count_nonzero(zero))
    if n_zero:
        directions = uniform_sphere(rng, d, size=n_zero)
    # sign prob 1/2 + ||x||/(2r); reduces to a fair sign for zero records
    sign = np.where(rng.random(n) < 0.5 + norms / (2.0 * radius), 1.0, -1.0)
    t_sign = np.where(rng.random(n) < level.pi_eps, 1.0, -1.0)
    u = uniform_sphere(rng, d, size=n)
    # The rounded input is radius * sign * x/||x||, so for a nonzero record
    # the side of <u, x_rounded> is that of sign * <u, x>; only zero records
    # need the inner product with their drawn direction.
    ip = sign * np.einsum("ij,ij->i", u, x)
    if n_zero:
        x_rounded = radius * sign[zero, None] * directions
        ip[zero] = np.einsum("ij,ij->i", u[zero], x_rounded)
    side = np.where(ip >= 0.0, 1.0, -1.0)
    _count(n)
    u *= l2_bound_B(d, radius, level)
    u *= (side * t_sign)[:, None]
    return u


def linf_ball_channel(
    x, radius: float, level: PrivacyLevel, rng: np.random.Generator
) -> np.ndarray:
    """Privatize a vector with ||x||_inf <= radius; output in {-B, +B}^d.

    Steps: (i) round each coordinate independently to +/- radius with
    P(+radius) = 1/2 + x_j/(2 radius); (ii) draw a uniform hypercube vertex
    V; (iii) if <V, X~> = 0 (possible for even d) output B * V as is, else
    flip V onto the positive side of X~ with probability
    (1 + gamma_d / phi_eps) / 2 and onto the negative side otherwise,
    scaled by B = :func:`linf_bound_B`.  The flip probability combines the
    channel bit T ~ Bernoulli(pi_eps) with the tie correction
    :func:`cube_tie_gamma`; for odd d it reduces to sampling the closed
    halfspace selected by T uniformly.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    amax = np.max(np.abs(x))
    if not (amax <= radius * (1.0 + _DOMAIN_SLACK)):
        raise DomainError(f"||x||_inf = {amax:.6g} exceeds the channel radius {radius:.6g}")
    x_rounded = np.where(rng.random(d) < 0.5 + x / (2.0 * radius), 1.0, -1.0)
    v = np.where(rng.random(d) < 0.5, 1.0, -1.0)
    ip = float(v @ x_rounded)
    bound = linf_bound_B(d, radius, level)
    _count(1)
    if ip == 0.0:
        return bound * v
    p_plus = 0.5 * (1.0 + cube_tie_gamma(d) / level.phi_eps)
    side = 1.0 if rng.random() < p_plus else -1.0
    return bound * v * math.copysign(1.0, ip) * side


def _linf_ball_batch(x, radius, level, rng):
    """Vectorized hypercube channel for an (n, d) batch (same law).

    The (n, d) uniform draws fill one reused buffer block by block, the
    stream of one large draw; only their boolean comparisons are kept.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    # one global test (NaN fails it too); the record is found only on failure
    limit = radius * (1.0 + _DOMAIN_SLACK)
    if x.size and not (max(x.max(), -x.min()) <= limit):
        amax = np.max(np.abs(x), axis=1)
        i = int(np.argmax(~(amax <= limit)))
        raise DomainError(
            f"record {i}: ||x||_inf = {amax[i]:.6g} exceeds the channel radius {radius:.6g}"
        )
    # Rounded input and vertex stay boolean (True = +1): their inner product
    # is d minus twice the number of disagreeing coordinates, exactly.
    rounded = np.empty((n, d), dtype=bool)
    vertex = np.empty((n, d), dtype=bool)
    rows = max(1, _LINF_BLOCK // max(d, 1))
    u = np.empty((min(rows, n), d))
    threshold = np.empty_like(u)
    for lo in range(0, n, rows):
        r = min(rows, n - lo)
        np.add(np.divide(x[lo : lo + r], 2.0 * radius, out=threshold[:r]), 0.5, out=threshold[:r])
        np.less(rng.random(out=u[:r]), threshold[:r], out=rounded[lo : lo + r])
    for lo in range(0, n, rows):
        r = min(rows, n - lo)
        np.less(rng.random(out=u[:r]), 0.5, out=vertex[lo : lo + r])
    ip = d - 2 * np.count_nonzero(np.not_equal(rounded, vertex, out=rounded), axis=1)
    p_plus = 0.5 * (1.0 + cube_tie_gamma(d) / level.phi_eps)
    side = np.where(rng.random(n) < p_plus, 1.0, -1.0)
    # ties (ip == 0) pass through with sign(ip) treated as +1 and no flip
    flip = np.where(ip == 0, 1.0, np.sign(ip) * side)
    _count(n)
    signed_bound = (linf_bound_B(d, radius, level) * flip)[:, None]
    return np.where(vertex, signed_bound, -signed_bound)


def laplace_vector_channel(
    x,
    radius: float,
    level: PrivacyLevel,
    sensitivity_norm: str,
    rng: np.random.Generator,
) -> np.ndarray:
    """Additive-Laplace baseline: Z = x + W with i.i.d. Laplace coordinates.

    Args:
        x: The record to privatize.
        radius: Domain bound; ``sensitivity_norm`` fixes its meaning.
        level: Privacy budget.
        sensitivity_norm: ``"l1"`` calibrates for x in [0, radius]^d per
            coordinate (l1 sensitivity d * radius, noise inverse scale
            eps / (d * radius)); ``"l2_paper"`` calibrates for ||x||_2 <=
            radius (inverse scale eps / (2 * radius * sqrt(d))).
        rng: Source of randomness.
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    inv = _laplace_vector_inv_scale(x[None, :], d, radius, level, sensitivity_norm)
    _count(1)
    return x + laplace_sample(rng, inv, size=d)


def _laplace_vector_inv_scale(x2d, d, radius, level, sensitivity_norm):
    if not (radius > 0.0):
        raise ParameterError(f"radius must be > 0, got {radius!r}")
    if sensitivity_norm == "l1":
        slack = radius * _DOMAIN_SLACK
        if np.any(x2d < -slack) or np.any(x2d > radius + slack):
            raise DomainError(f"l1 mode expects coordinates in [0, {radius:.6g}]")
        return level.epsilon / (d * radius)
    if sensitivity_norm == "l2_paper":
        norms = np.linalg.norm(x2d, axis=1)
        if np.any(norms > radius * (1.0 + _DOMAIN_SLACK)):
            raise DomainError(f"l2_paper mode expects ||x||_2 <= {radius:.6g}")
        return level.epsilon / (2.0 * radius * math.sqrt(d))
    raise ParameterError(f"unknown sensitivity_norm {sensitivity_norm!r}")


def _laplace_vector_batch(x, radius, level, sensitivity_norm, rng):
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    inv = _laplace_vector_inv_scale(x, d, radius, level, sensitivity_norm)
    _count(n)
    noise = laplace_sample(rng, inv, size=(n, d))
    noise += x
    return noise


# ---------------------------------------------------------------------------
# channel objects (used by the audit and experiment layers)


class ChannelKind(Enum):
    TRUNCATED_LAPLACE_SCALAR = "truncated_laplace_scalar"
    L2_BALL = "l2_ball"
    LINF_BALL = "linf_ball"
    SIGN_RR = "sign_rr"
    LAPLACE_VECTOR = "laplace_vector"
    NAIVE_MEDIAN = "naive_median"

    @property
    def discrete_output(self) -> bool:
        return self in (ChannelKind.LINF_BALL, ChannelKind.SIGN_RR)


@dataclass(frozen=True)
class Channel:
    """A configured privatizer: its kind, geometry and output bound.

    ``bound_B`` is always derived from the closed-form formula for the kind,
    never user-set.  For the scalar truncated-Laplace kind, ``radius`` holds
    the truncation level T and ``bound_B`` equals T (the noise itself is
    unbounded).
    """

    kind: ChannelKind
    level: PrivacyLevel
    radius: float
    dim: int
    bound_B: float
    sensitivity_norm: str = "l1"
    one_sided: bool = False

    @staticmethod
    def l2_ball(dim: int, radius: float, level: PrivacyLevel) -> "Channel":
        return Channel(ChannelKind.L2_BALL, level, radius, dim, l2_bound_B(dim, radius, level))

    @staticmethod
    def linf_ball(dim: int, radius: float, level: PrivacyLevel) -> "Channel":
        return Channel(
            ChannelKind.LINF_BALL, level, radius, dim, linf_bound_B(dim, radius, level)
        )

    @staticmethod
    def sign_rr(level: PrivacyLevel) -> "Channel":
        return Channel(ChannelKind.SIGN_RR, level, 1.0, 1, level.phi_eps)

    @staticmethod
    def laplace_vector(
        dim: int, radius: float, level: PrivacyLevel, sensitivity_norm: str = "l1"
    ) -> "Channel":
        if sensitivity_norm not in ("l1", "l2_paper"):
            raise ParameterError(f"unknown sensitivity_norm {sensitivity_norm!r}")
        return Channel(
            ChannelKind.LAPLACE_VECTOR, level, radius, dim, math.inf, sensitivity_norm
        )

    @staticmethod
    def naive_median(radius: float, level: PrivacyLevel, one_sided: bool = False) -> "Channel":
        return Channel(
            ChannelKind.NAIVE_MEDIAN, level, radius, 1, math.inf, one_sided=one_sided
        )

    @staticmethod
    def truncated_laplace(
        assumption: MomentAssumption, n: int, level: PrivacyLevel
    ) -> "Channel":
        t_level = truncation_level(assumption, n, level)
        return Channel(ChannelKind.TRUNCATED_LAPLACE_SCALAR, level, t_level, 1, t_level)

    def privatize(self, x, rng: np.random.Generator):
        """Privatize a single record (scalar or length-dim vector)."""
        k = self.kind
        if k is ChannelKind.L2_BALL:
            return l2_ball_channel(x, self.radius, self.level, rng)
        if k is ChannelKind.LINF_BALL:
            return linf_ball_channel(x, self.radius, self.level, rng)
        if k is ChannelKind.SIGN_RR:
            return sign_rr_channel(x, self.level, rng)
        if k is ChannelKind.LAPLACE_VECTOR:
            return laplace_vector_channel(x, self.radius, self.level, self.sensitivity_norm, rng)
        if k is ChannelKind.NAIVE_MEDIAN:
            return naive_median_channel(x, self.radius, self.level, rng, self.one_sided)
        # truncated laplace: radius stores T, so clamp directly
        _count(1)
        return clamp(float(x), self.radius) + laplace_sample(
            rng, self.level.epsilon / (2.0 * self.radius)
        )

    def privatize_batch(self, x, rng: np.random.Generator):
        """Privatize an (n,) or (n, dim) batch of records in one vectorized call."""
        k = self.kind
        if k is ChannelKind.L2_BALL:
            return _l2_ball_batch(x, self.radius, self.level, rng)
        if k is ChannelKind.LINF_BALL:
            return _linf_ball_batch(x, self.radius, self.level, rng)
        if k is ChannelKind.SIGN_RR:
            return _sign_rr_batch(x, self.level, rng)
        if k is ChannelKind.LAPLACE_VECTOR:
            return _laplace_vector_batch(x, self.radius, self.level, self.sensitivity_norm, rng)
        if k is ChannelKind.NAIVE_MEDIAN:
            return _naive_median_batch(x, self.radius, self.level, rng, self.one_sided)
        x = np.asarray(x, dtype=float)
        _count(x.size)
        noise = laplace_sample(rng, self.level.epsilon / (2.0 * self.radius), size=x.shape)
        noise += clamp(x, self.radius)
        return noise

    def support_points(self) -> np.ndarray:
        """Exact output support for discrete-output kinds (audit helper)."""
        if self.kind is ChannelKind.SIGN_RR:
            return np.array([[-self.bound_B], [self.bound_B]])
        if self.kind is ChannelKind.LINF_BALL:
            return self.bound_B * cube_vertices(self.dim)
        raise ParameterError(f"{self.kind.value} has continuous output")


def cube_vertices(d: int) -> np.ndarray:
    """All 2^d vertices of {-1, +1}^d, row-ordered by binary counting."""
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    idx = np.arange(2**d, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(d, dtype=np.int64)[None, :]) & 1
    return (2.0 * bits - 1.0).astype(float)
