"""Epsilon-LDP privatization channels.

Implements the minimax-optimal channels (truncated-Laplace scalar, l2-ball
and hypercube halfspace samplers, sign randomized response) together with
the additive-Laplace baselines they are benchmarked against.  Each law has
one batch kernel; :class:`Channel` describes the law on its constructor and
is the public entry, per record (``privatize``) or per batch.

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
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import (
    DomainError,
    ParameterError,
    PrivacyLevel,
    laplace_sample,
    uniform_sphere,
)

# Relative slack on domain checks, to absorb float dust from callers.
_DOMAIN_SLACK = 1e-9

# Entries per row block of the hypercube kernel's draws.
_LINF_BLOCK = 1 << 15

# Entries per row block of a running-sum fold and of a vector kernel's output.
_FOLD_BLOCK = 1 << 16

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
        _check_radius(self.radius_k, "radius_k")


def _check_radius(radius, name="radius"):
    """``radius`` if finite and > 0 (NaN fails too), else ParameterError: the one radius rule."""
    if not (0.0 < radius < math.inf):
        raise ParameterError(f"{name} must be finite and > 0, got {radius!r}")
    return radius


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
    _check_radius(radius)
    return _check_radius(radius * level.phi_eps / sphere_halfspace_mean(d), "output bound B")


def linf_bound_B(d: int, radius: float, level: PrivacyLevel) -> float:
    """Output magnitude B of the hypercube channel: radius * phi_eps * C_d."""
    _check_radius(radius)
    return _check_radius(radius * level.phi_eps / cube_halfspace_mean(d), "output bound B")


def truncation_level(assumption: MomentAssumption, n: int, level: PrivacyLevel) -> float:
    """Truncation point T_k = radius_k * (n eps^2)^(1/(2k)); T = radius_k for k = inf."""
    if n < 1:
        raise ParameterError(f"sample size must be >= 1, got {n}")
    if math.isinf(assumption.k):
        return assumption.radius_k
    t_level = assumption.radius_k * (n * level.eps_sq) ** (1.0 / (2.0 * assumption.k))
    return _check_radius(t_level, f"truncation level T at n = {n}, eps = {level.epsilon!r}")


# ---------------------------------------------------------------------------
# channel kernels: one per law (described on its :class:`Channel` constructor),
# each privatizing a whole batch of records


def _reject_nan(x):
    """DomainError if a scalar record is NaN, before any draw; +-inf are clamped as usual."""
    if x.size and np.isnan(x.min()):  # min propagates NaN, with no temporary
        raise DomainError(f"record {int(np.argmax(np.isnan(x.ravel())))} is NaN")


def _truncated_laplace_batch(x, t_level, level, rng):
    # the naive-median law on [-T, T]; a kernel of its own for the tracer's span
    return _naive_median_batch(x, t_level, level, rng)


def _naive_median_batch(x, radius, level, rng, one_sided=False):
    _check_radius(radius)
    lo = 0.0 if one_sided else -radius
    x = np.asarray(x, dtype=float)
    _reject_nan(x)
    _count(x.size)
    noise = laplace_sample(rng, level.epsilon / (2.0 * radius), size=x.shape)
    noise += np.clip(x, lo, radius)
    return noise


def _sign_rr_batch(s, level, rng):
    s = np.asarray(s, dtype=float)
    if not np.all(np.abs(s) == 1.0):
        raise DomainError("signs must be -1 or +1")
    w = np.where(rng.random(s.shape) < level.pi_eps, 1.0, -1.0)
    _count(s.size)
    return level.phi_eps * w * s


def _l2_ball_batch(x, radius, level, rng, grid=None):
    """The channel of :meth:`Channel.l2_ball` for an (n, d) batch.

    A uniform sphere point reflected onto the required halfspace side
    follows the conditional law exactly, by the negation symmetry of the
    sphere measure (ties have measure zero).  The n-length draws come
    first, then the sphere points one row block at a time; ``grid`` is as
    in :func:`_vector_output`.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    bound = l2_bound_B(d, radius, level)  # checks the radius and B before any draw
    norms = _row_norms(x)
    limit = radius * (1.0 + _DOMAIN_SLACK)
    if n and not (norms.max() <= limit):  # NaN fails too
        i = int(np.argmax(~(norms <= limit)))
        raise DomainError(
            f"record {i}: ||x||_2 = {norms[i]:.6g} exceeds the channel radius {radius:.6g}"
        )
    zero_rows = np.flatnonzero(norms == 0.0)
    if zero_rows.size:
        directions = uniform_sphere(rng, d, size=zero_rows.size)
    # sign prob 1/2 + ||x||/(2r); reduces to a fair sign for zero records
    sign = np.where(rng.random(n) < 0.5 + norms / (2.0 * radius), 1.0, -1.0)
    t_sign = np.where(rng.random(n) < level.pi_eps, 1.0, -1.0)
    if zero_rows.size:
        x_rounded = radius * sign[zero_rows, None] * directions
    _count(n)

    def fill(lo, u):
        hi = lo + len(u)
        uniform_sphere(rng, d, out=u)
        # The rounded input is radius * sign * x/||x||, so for a nonzero record
        # the side of <u, x_rounded> is that of sign * <u, x>; only zero records
        # need the inner product with their drawn direction.
        ip = sign[lo:hi] * np.einsum("ij,ij->i", u, x[lo:hi])
        a, b = np.searchsorted(zero_rows, (lo, hi)) if zero_rows.size else (0, 0)
        if b > a:
            rows = zero_rows[a:b] - lo
            ip[rows] = np.einsum("ij,ij->i", u[rows], x_rounded[a:b])
        side = np.where(ip >= 0.0, 1.0, -1.0)
        u *= bound
        u *= (side * t_sign[lo:hi])[:, None]

    return _vector_output(fill, n, d, grid)


def _linf_ball_batch(x, radius, level, rng, grid=None):
    """The channel of :meth:`Channel.linf_ball` for an (n, d) batch.

    The (n, d) uniform draws fill one reused buffer block by block, the
    stream of one large draw; only their boolean comparisons are kept, and
    the output is built from them one row block at a time.  ``grid`` is as
    in :func:`_vector_output`.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    bound = linf_bound_B(d, radius, level)  # checks the radius and B before any draw
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
    signed_bound = (bound * flip)[:, None]

    def fill(lo, out):
        # (2 vertex - 1) * signed_bound: exact, and faster than a broadcast np.where
        hi = lo + len(out)
        np.multiply(vertex[lo:hi], 2.0, out=out)
        np.subtract(out, 1.0, out=out)
        np.multiply(out, signed_bound[lo:hi], out=out)

    return _vector_output(fill, n, d, grid)


def _laplace_vector_inv_scale(x2d, d, radius, level, sensitivity_norm):
    _check_radius(radius)
    # every test is phrased so that NaN fails it too
    if sensitivity_norm == "l1":
        slack = radius * _DOMAIN_SLACK
        if x2d.size and not (-slack <= x2d.min() and x2d.max() <= radius + slack):
            raise DomainError(f"l1 mode expects coordinates in [0, {radius:.6g}]")
        return level.epsilon / (d * radius)
    if sensitivity_norm == "l2_paper":
        norms = _row_norms(x2d)
        if norms.size and not (norms.max() <= radius * (1.0 + _DOMAIN_SLACK)):
            raise DomainError(f"l2_paper mode expects ||x||_2 <= {radius:.6g}")
        return level.epsilon / (2.0 * radius * math.sqrt(d))
    raise ParameterError(f"unknown sensitivity_norm {sensitivity_norm!r}")


def _laplace_vector_batch(x, radius, level, sensitivity_norm, rng, grid=None):
    """The additive-Laplace channel for an (n, d) batch, its noise drawn one row
    block at a time; ``grid`` is as in :func:`_vector_output`."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    inv = _laplace_vector_inv_scale(x, d, radius, level, sensitivity_norm)
    _count(n)

    def fill(lo, out):
        np.add(laplace_sample(rng, inv, size=out.shape), x[lo : lo + len(out)], out=out)

    return _vector_output(fill, n, d, grid)


# ---------------------------------------------------------------------------
# row-blocked output and aggregation of the vector kernels


def _row_norms(x):
    """``np.linalg.norm(x, axis=1)`` of an (n, d) array, one row block at a time.

    Each row's norm is computed as in one whole-array call, without its
    (n, d) temporary of squares.  A row whose squares overflow gets norm
    inf, silently: the caller's domain check rejects it.
    """
    n, d = x.shape
    rows = max(1, _FOLD_BLOCK // max(d, 1))
    with np.errstate(over="ignore"):
        if n <= rows:
            return np.linalg.norm(x, axis=1)
        norms = np.empty(n)
        for lo in range(0, n, rows):
            norms[lo : lo + rows] = np.linalg.norm(x[lo : lo + rows], axis=1)
    return norms


def _running_means(fill, d, grid):
    """Mean of the first n rows of an (N, d) array for each n of the increasing grid.

    ``fill(lo, out)`` writes rows lo, lo + 1, ... into ``out``, a block that
    sits below the sum so far in one C-contiguous buffer.  For d >= 2
    numpy's axis-0 sum there adds rows one after another, as cumsum and an
    axis-0 mean do, so each mean is theirs bit for bit (``initial=-0.0`` is
    an exact identity).  That sum would take a single column pairwise, so
    for d = 1 the block is accumulated in place: each mean is cumsum's.
    """
    rows = max(1, _FOLD_BLOCK // d)
    buf = np.empty((rows + 1, d))
    buf[0] = -0.0
    out, prev = [], 0
    for n in grid:
        for lo in range(prev, n, rows):
            r = min(rows, n - lo)
            fill(lo, buf[1 : r + 1])
            if d == 1:
                buf[0] = np.add.accumulate(buf[: r + 1], axis=0, out=buf[: r + 1])[r]
            else:
                buf[0] = np.add.reduce(buf[: r + 1], axis=0, initial=-0.0)
        out.append((n, buf[0] / n))
        prev = n
    return out


def _prefix_means(z, grid):
    """Mean of the first n rows of an (N, d) z for each n of the increasing grid.

    Each mean equals ``np.cumsum(z, axis=0)[n - 1] / n`` bit for bit, but
    only the grid rows are formed: a running sum is folded through z one
    block at a time (see :func:`_running_means`).
    """
    z = np.asarray(z, dtype=float)

    def fill(lo, out):
        out[...] = z[lo : lo + len(out)]

    return _running_means(fill, z.shape[1], grid)


def _check_grid(grid, n):
    """``grid`` as a list of ints, if its entries are integral and increase strictly within 1..n."""
    ints = [int(g) for g in grid]
    if not (ints and ints == list(grid) == sorted(set(ints)) and 1 <= ints[0] and ints[-1] <= n):
        raise ParameterError(f"grid must be strictly increasing integers in 1..{n}, got {grid!r}")
    return ints


def _vector_output(fill, n, d, grid):
    """The n rows of a vector kernel's output, which ``fill(lo, out)`` writes in order.

    Without ``grid``, the (n, d) array.  With an increasing ``grid`` of row
    counts, the (len(grid), d) array whose row g is the mean of the first
    grid[g] rows: bit for bit the prefix means of the array, from one
    running sum in O(block) memory.  Rows past the last grid point are
    still filled, so the kernel consumes the same draws either way.
    """
    rows = max(1, _FOLD_BLOCK // max(d, 1))
    if grid is None:
        z = np.empty((n, d))
        for lo in range(0, n, rows):
            fill(lo, z[lo : lo + rows])
        return z
    grid = _check_grid(grid, n)
    means = np.array([mean for _, mean in _running_means(fill, d, grid)])
    tail = np.empty((min(rows, n - grid[-1]), d))
    for lo in range(grid[-1], n, rows):
        fill(lo, tail[: min(rows, n - lo)])
    return means


# ---------------------------------------------------------------------------
# channel objects (used by the audit and experiment layers)


_SCALAR_KINDS = ("truncated_laplace", "sign_rr", "naive_median")


@dataclass(frozen=True, eq=False)
class Channel:
    """A configured privatizer: its kind, geometry, output bound and kernel.

    ``kind`` is the name of the constructor that built the channel, and
    ``kernel(x, rng)`` is that kind's batch kernel with the channel's
    parameters bound.  ``bound_B`` is always derived from the closed-form
    formula for the kind, never user-set.  For the scalar truncated-Laplace
    kind, ``radius`` holds the truncation level T and ``bound_B`` equals T
    (the noise itself is unbounded).  Channels compare by identity.
    """

    kind: str
    level: PrivacyLevel
    radius: float
    dim: int
    bound_B: float
    kernel: Callable = field(repr=False)

    @staticmethod
    def l2_ball(dim: int, radius: float, level: PrivacyLevel) -> "Channel":
        """Records with ||x||_2 <= radius; output on the sphere ||Z||_2 = B.

        Steps: (i) round x to +/- radius * x/||x|| with P(+) = 1/2 + ||x||/(2 radius)
        (a uniform direction with a fair sign when x = 0); (ii) draw the channel
        bit T; (iii) draw a uniform sphere point on the halfspace side selected
        by T, scaled to norm B = :func:`l2_bound_B`.
        """
        return Channel("l2_ball", level, radius, dim, l2_bound_B(dim, radius, level),
                       lambda x, rng: _l2_ball_batch(x, radius, level, rng))

    @staticmethod
    def linf_ball(dim: int, radius: float, level: PrivacyLevel) -> "Channel":
        """Records with ||x||_inf <= radius; output in {-B, +B}^d.

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
        return Channel("linf_ball", level, radius, dim, linf_bound_B(dim, radius, level),
                       lambda x, rng: _linf_ball_batch(x, radius, level, rng))

    @staticmethod
    def sign_rr(level: PrivacyLevel) -> "Channel":
        """Randomized response on a sign s: phi_eps * s w.p. pi_eps, else -phi_eps * s.

        Unbiased for s, and the likelihood ratio between the two inputs is
        exactly exp(eps).
        """
        return Channel("sign_rr", level, 1.0, 1, level.phi_eps,
                       lambda x, rng: _sign_rr_batch(x, level, rng))

    @staticmethod
    def laplace_vector(
        dim: int, radius: float, level: PrivacyLevel, sensitivity_norm: str = "l1"
    ) -> "Channel":
        """Additive-Laplace baseline: Z = x + W with i.i.d. Laplace coordinates.

        ``sensitivity_norm="l1"`` calibrates for x in [0, radius]^d per
        coordinate (l1 sensitivity d * radius, noise inverse scale
        eps / (d * radius)); ``"l2_paper"`` calibrates for ||x||_2 <= radius
        (inverse scale eps / (2 * radius * sqrt(d))).
        """
        if dim < 1:
            raise ParameterError(f"dimension must be >= 1, got {dim}")
        if sensitivity_norm not in ("l1", "l2_paper"):
            raise ParameterError(f"unknown sensitivity_norm {sensitivity_norm!r}")
        return Channel("laplace_vector", level, radius, dim, math.inf, lambda x, rng:
                       _laplace_vector_batch(x, radius, level, sensitivity_norm, rng))

    @staticmethod
    def naive_median(radius: float, level: PrivacyLevel, one_sided: bool = False) -> "Channel":
        """Median baseline: project onto [-r, r], add Laplace noise of inverse scale eps/(2r).

        ``one_sided=True`` projects onto [0, r] instead (useful when the
        median is known to be non-negative); the noise scale stays eps/(2r),
        so the channel stays eps-LDP.
        """
        return Channel("naive_median", level, radius, 1, math.inf,
                       lambda x, rng: _naive_median_batch(x, radius, level, rng, one_sided))

    @staticmethod
    def truncated_laplace(
        assumption: MomentAssumption, n: int, level: PrivacyLevel
    ) -> "Channel":
        """Scalar mean channel: clamp to [-T, T], add Laplace noise of inverse scale eps/(2T).

        T = :func:`truncation_level` (assumption, n, level), so the output
        variance given x is 8 T^2 / eps^2.
        """
        t_level = truncation_level(assumption, n, level)
        return Channel("truncated_laplace", level, t_level, 1, t_level,
                       lambda x, rng: _truncated_laplace_batch(x, t_level, level, rng))

    def privatize(self, x, rng: np.random.Generator):
        """Privatize a single record: a batch of one through :meth:`privatize_batch`.

        Scalar kinds return a float, vector kinds a length-dim array.
        """
        z = self.privatize_batch(np.reshape(x, (1, -1)), rng)[0]
        return float(z[0]) if self.kind in _SCALAR_KINDS else z

    def privatize_batch(self, x, rng: np.random.Generator):
        """Privatize a batch of records in one vectorized call.

        Vector kinds take an (n, dim) batch, scalar kinds an (n,) or (n, 1)
        one; the output has the shape of the batch.
        """
        x = np.asarray(x, dtype=float)
        if not (x.ndim == 2 and x.shape[1] == self.dim
                or x.ndim == 1 and self.kind in _SCALAR_KINDS):
            raise ParameterError(
                f"{self.kind} records have dimension {self.dim}; got a batch of shape {x.shape}"
            )
        return self.kernel(x, rng)

    def support_points(self) -> np.ndarray:
        """Exact output support for discrete-output kinds (audit helper)."""
        if self.kind == "sign_rr":
            return np.array([[-self.bound_B], [self.bound_B]])
        if self.kind == "linf_ball":
            return self.bound_B * cube_vertices(self.dim)
        raise ParameterError(f"{self.kind} has continuous output")


def cube_vertices(d: int) -> np.ndarray:
    """All 2^d vertices of {-1, +1}^d, row-ordered by binary counting."""
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    idx = np.arange(2**d, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(d, dtype=np.int64)[None, :]) & 1
    return (2.0 * bits - 1.0).astype(float)
