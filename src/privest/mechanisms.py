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

The hypercube kernel draws, after its checks: the vertex bits (whole bytes
per row, from raw 64-bit generator words), the n side bits, then the (n, d)
rounding uniforms a row block at a time as one stream, so no draw depends on
the block size.
"""

import functools
import math
import operator
from collections import namedtuple
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DomainError,
    ParameterError,
    PrivacyLevel,
    _check_count,
    _check_n,
    block_rows,
    laplace_sample,
    row_blocks,
    uniform_sphere,
)

# Relative slack on domain checks, to absorb float dust from callers.
_DOMAIN_SLACK = 1e-9

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
    _check_count(d)
    return 2.0 * math.exp(math.lgamma(d / 2 + 1) - math.lgamma((d - 1) / 2 + 1)) / (
        math.sqrt(math.pi) * d
    )


@functools.cache  # the exact binomials grow with d: each d is computed once
def cube_halfspace_mean(d: int) -> float:
    """Scaling factor C_d^{-1} of the hypercube halfspace mean.

    For x a vertex of {-1, 1}^d, the mean of a uniform vertex Z conditioned
    on <Z, x> >= 0 equals C_d^{-1} x, where

        C_d^{-1} = 2^(1-d) binom(d-1, (d-1)/2)                  (d odd)
        C_d^{-1} = binom(d-1, d/2) / (2^(d-1) + binom(d, d/2)/2)  (d even)

    Ties <Z, x> = 0 (even d) are counted inside the closed halfspace, which
    has 2^(d-1) + binom(d, d/2)/2 vertices.  Exact integers, one rounding (int / int).
    """
    _check_count(d)
    d = operator.index(d)  # a numpy int would wrap 2**d
    if d % 2 == 1:
        return math.comb(d - 1, (d - 1) // 2) / 2 ** (d - 1)
    return 2 * math.comb(d - 1, d // 2) / (2**d + math.comb(d, d // 2))


@functools.cache
def cube_tie_gamma(d: int) -> float:
    """Tie-correction factor gamma_d = 2^(d-1) / (2^(d-1) + binom(d, d/2)/2).

    Equals 1 for odd d (the hypercube has no tie vertices); for even d it
    shrinks the side-selection bias just enough that passing ties through
    at weight 2^-d leaves the channel unbiased at the closed-form B.
    """
    _check_count(d)
    d = operator.index(d)
    return 1.0 if d % 2 == 1 else 2**d / (2**d + math.comb(d, d // 2))


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
    _check_n(n)
    if math.isinf(assumption.k):
        return assumption.radius_k
    t_level = assumption.radius_k * (n * level.eps_sq) ** (1.0 / (2.0 * assumption.k))
    return _check_radius(t_level, f"truncation level T at n = {n}, eps = {level.epsilon!r}")


# ---------------------------------------------------------------------------
# channel kernels: one per law (described on its :class:`Channel` constructor),
# each privatizing a whole batch of records


def _check_ball(x, geometry, radius, first=0, norms=None):
    """The one ball rule: DomainError naming record first + i, the first row of the (n, d)
    ``x`` whose ``geometry`` ("l2" or "linf") norm is NaN or above radius (1 + _DOMAIN_SLACK).
    ``norms``, if given, are the rows' l2 norms."""
    limit = radius * (1.0 + _DOMAIN_SLACK)
    if geometry == "linf":  # one global test, which NaN fails; row norms only on failure
        if not x.size or max(x.max(), -x.min()) <= limit:
            return
        norms = np.max(np.abs(x), axis=1)
    elif norms is None:
        norms = _row_norms(x)
    if norms.size and not (norms.max() <= limit):
        i = int(np.argmax(~(norms <= limit)))
        raise DomainError(f"record {first + i}: ||x||_{geometry[1:]} = {norms[i]:.6g} "
                          f"exceeds the radius {radius:.6g}")


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


def _check_signs(s):
    """``s`` if its every entry is -1 or +1, else DomainError: the one sign rule."""
    if not np.all(np.abs(s) == 1.0):
        raise DomainError("signs must be -1 or +1")
    return s


def _sign_rr_batch(s, level, rng):
    # unchecked: the entry checks its input by _check_signs, the median engine builds signs
    s = np.asarray(s, dtype=float)
    w = np.where(rng.random(s.shape) < level.pi_eps, 1.0, -1.0)
    _count(s.size)
    return level.phi_eps * w * s


def _l2_ball_batch(x, radius, level, rng, grid=None):
    """The channel of :meth:`Channel.l2_ball` for an (n, d) batch.

    A uniform sphere point reflected onto the required halfspace side
    follows the conditional law exactly, by the negation symmetry of the
    sphere measure (ties have measure zero).  The n-length coin draw comes
    first, then the sphere points one row block at a time; ``grid`` is as
    in :func:`_vector_output`.
    """
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    bound = l2_bound_B(d, radius, level)  # checks the radius and B before any draw
    norms = _row_norms(x)
    _check_ball(x, "l2", radius, norms=norms)
    grid = None if grid is None else _check_grid(grid, n)
    # one coin +-B per record: the rounding sign times the channel bit T (see Channel.l2_ball)
    coin = np.where(rng.random(n) < 0.5 + norms / (2.0 * radius) / level.phi_eps, bound, -bound)
    _count(n)

    def fill(lo, u):
        hi = lo + len(u)
        uniform_sphere(rng, d, out=u)
        # Z = coin sign<u, x> u with sign(+-0.0) = +1: a zero record gives coin u, uniform
        ip = np.einsum("ij,ij->i", u, x[lo:hi])
        u *= np.where(ip >= 0.0, coin[lo:hi], -coin[lo:hi])[:, None]

    return _vector_output(fill, n, d, grid)


# An (n, d) batch that is never formed: fill(lo, out) writes its rows lo, lo + 1, ... into out
RowSource = namedtuple("RowSource", "shape fill")


def _linf_ball_batch(x, radius, level, rng, grid=None):
    """The channel of :meth:`Channel.linf_ball` for an (n, d) batch.

    After the domain and B checks: the vertex bits, ceil(d/8) bytes per row
    from one draw of raw 64-bit words (unpacked big-endian: bit j of a row is
    coordinate j, set = +1); the n side bits; the (n, d) rounding uniforms,
    drawn a row block at a time into one reused buffer.  With ``grid``, row g
    is bound * ((2 P - m) / m) for P the exact count of +B outputs per
    coordinate in the first m = grid[g] rows: within one ulp of B of the exact
    mean, for any block size or summation order.  A ``RowSource`` ``x`` writes
    each block of rows into the output block, checked there before use; the
    draws are those of the array it stands for.  A source that fails its check
    has still advanced ``rng``, by the draws before that block; an array or a
    bad ``grid`` fails before any draw.  Each leaves the privatization count as it was.
    """
    source = isinstance(x, RowSource)
    x = x if source else np.asarray(x, dtype=float)
    n, d = x.shape
    bound = linf_bound_B(d, radius, level)  # checks d, the radius and B before any draw
    if not source:
        _check_ball(x, "linf", radius)
    grid = None if grid is None else _check_grid(grid, n) + [n]  # kept through row n
    nbytes = -(-d // 8)
    words = rng.bit_generator.random_raw(-(-n * nbytes // 8))
    vertex_bits = words.view(np.uint8)[: n * nbytes].reshape(n, nbytes)
    p_plus = 0.5 * (1.0 + cube_tie_gamma(d) / level.phi_eps)
    positive_side = rng.random(n) < p_plus
    rows = min(n, block_rows(d))
    u, rounded, ones = np.empty((rows, d)), np.empty((rows, d), dtype=bool), np.ones(d)

    def fill(lo, out):
        r = len(out)
        vertex = np.unpackbits(vertex_bits[lo : lo + r], axis=1, count=d).view(bool)
        if source:
            x.fill(lo, out)
            _check_ball(out, "linf", radius, lo)
        np.add(np.divide(out if source else x[lo : lo + r], 2.0 * radius, out=out), 0.5, out=out)
        np.less(rng.random(out=u[:r]), out, out=rounded[:r])
        # <vertex, rounded> is d minus twice the disagreements, counted exactly in floats
        ip = d - 2.0 * (np.not_equal(rounded[:r], vertex, out=out) @ ones)
        # ties (ip == 0) pass through; else the vertex is flipped onto the positive
        # side of the rounded input when positive_side holds, else onto the negative
        negate = (ip != 0.0) & ((ip > 0.0) != positive_side[lo : lo + r])
        # 1.0 where the (possibly negated) vertex bit is set (+B); counted, or written as +-B
        np.not_equal(vertex, negate[:, None], out=out)
        return out if grid else np.copysign(bound, np.subtract(out, 0.5, out=out), out=out)

    if grid is not None:  # exact column counts of +B
        tally, block = np.ones(rows), np.empty((rows, d))
        z, plus = np.empty((len(grid), d)), np.zeros(d)
        for g, (start, m) in enumerate(zip([0] + grid, grid)):
            for lo, hi in row_blocks(start, m, d):
                plus += tally[: hi - lo] @ fill(lo, block[: hi - lo])
            z[g] = bound * ((2.0 * plus - m) / m)
    z = _vector_output(fill, n, d, None) if grid is None else z[:-1]
    _count(n)
    return z


def _laplace_vector_inv_scale(x2d, d, radius, level, sensitivity_norm):
    _check_radius(radius)
    # every test is phrased so that NaN fails it too
    if sensitivity_norm == "l1":
        slack = radius * _DOMAIN_SLACK
        if x2d.size and not (-slack <= x2d.min() and x2d.max() <= radius + slack):
            raise DomainError(f"l1 mode expects coordinates in [0, {radius:.6g}]")
        return level.epsilon / (d * radius)
    if sensitivity_norm == "l2_paper":
        _check_ball(x2d, "l2", radius)
        return level.epsilon / (2.0 * radius * math.sqrt(d))
    raise ParameterError(f"unknown sensitivity_norm {sensitivity_norm!r}")


def _laplace_vector_batch(x, radius, level, sensitivity_norm, rng, grid=None):
    """The additive-Laplace channel for an (n, d) batch, its noise drawn one row
    block at a time; ``grid`` is as in :func:`_vector_output`."""
    x = np.asarray(x, dtype=float)
    n, d = x.shape
    inv = _laplace_vector_inv_scale(x, d, radius, level, sensitivity_norm)
    grid = None if grid is None else _check_grid(grid, n)
    _count(n)

    def fill(lo, out):
        np.add(laplace_sample(rng, inv, out=out), x[lo : lo + len(out)], out=out)

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
    with np.errstate(over="ignore"):
        if n <= block_rows(d):  # one block: numpy's own output array
            return np.linalg.norm(x, axis=1)
        norms = np.empty(n)
        for lo, hi in row_blocks(0, n, d):
            norms[lo:hi] = np.linalg.norm(x[lo:hi], axis=1)
    return norms


def _running_means(fill, d, grid):
    """The (len(grid), d) means of the first grid[g] rows of an (N, d) array, grid nondecreasing.

    ``fill(lo, out)`` writes rows lo, lo + 1, ... into ``out``, a block that
    sits below the sum so far in one C-contiguous buffer.  For d >= 2
    numpy's axis-0 sum there adds rows one after another, as cumsum and an
    axis-0 mean do, so each mean is theirs bit for bit (``initial=-0.0`` is
    an exact identity).  That sum would take a single column pairwise, so
    for d = 1 the block is accumulated in place: each mean is cumsum's.
    """
    buf = np.empty((block_rows(d) + 1, d))
    buf[0] = -0.0
    means, prev = np.empty((len(grid), d)), 0
    for g, n in enumerate(grid):
        for lo, hi in row_blocks(prev, n, d):
            r = hi - lo
            fill(lo, buf[1 : r + 1])
            if d == 1:
                buf[0] = np.add.accumulate(buf[: r + 1], axis=0, out=buf[: r + 1])[r]
            else:
                buf[0] = np.add.reduce(buf[: r + 1], axis=0, initial=-0.0)
        np.divide(buf[0], n, out=means[g])
        prev = n
    return means


def _prefix_means(z, grid):
    """The (len(grid), d) means of the first grid[g] rows of an (N, d) z, grid increasing.

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

    Without ``grid``, the (n, d) array.  With a ``grid`` list of row counts,
    which the kernel passes through :func:`_check_grid` before any draw or
    count, the (len(grid), d) array whose row g is the mean of the first
    grid[g] rows: bit for bit the prefix means of the array (the hypercube
    kernel's come from exact counts instead), from one running sum in O(block)
    memory.  The sum runs on to row n, so the kernel draws the same either way.
    """
    if grid is None:
        z = np.empty((n, d))
        for lo, hi in row_blocks(0, n, d):
            fill(lo, z[lo:hi])
        return z
    return _running_means(fill, d, grid + [n])[:-1]


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

        The paper's steps: (i) round x to s * radius * x/||x||, P(s = +1) = 1/2 + ||x||/(2 radius);
        (ii) draw the channel bit T, P(T = +1) = pi_eps; (iii) draw a uniform sphere point u on
        the side of the rounded input selected by T, scaled to norm B = :func:`l2_bound_B`.
        s and T act only through their product, so the kernel draws one coin T * s, +1 with
        probability 1/2 + ||x||/(2 radius phi_eps), and reports B * coin * sign<u, x> * u.
        For x = 0 that is uniform on the B-sphere, as with a uniform rounding direction.
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
                       lambda x, rng: _sign_rr_batch(_check_signs(x), level, rng))

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
        _check_count(dim)
        if sensitivity_norm not in ("l1", "l2_paper"):
            raise ParameterError(f"unknown sensitivity_norm {sensitivity_norm!r}")
        return Channel("laplace_vector", level, _check_radius(radius), dim, math.inf, lambda x, rng:
                       _laplace_vector_batch(x, radius, level, sensitivity_norm, rng))

    @staticmethod
    def naive_median(radius: float, level: PrivacyLevel, one_sided: bool = False) -> "Channel":
        """Median baseline: project onto [-r, r], add Laplace noise of inverse scale eps/(2r).

        ``one_sided=True`` projects onto [0, r] instead (useful when the
        median is known to be non-negative); the noise scale stays eps/(2r),
        so the channel stays eps-LDP.
        """
        return Channel("naive_median", level, _check_radius(radius), 1, math.inf,
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


def cube_vertices(d: int) -> np.ndarray:
    """All 2^d vertices of {-1, +1}^d, row-ordered by binary counting."""
    _check_count(d)
    index = np.arange(2**d, dtype="<u8").view(np.uint8).reshape(-1, 8)  # little-endian bytes
    vertices = np.unpackbits(index, axis=1, count=d, bitorder="little").astype(float)
    vertices *= 2.0  # in place: no second 2^d x d float table
    vertices -= 1.0
    return vertices
