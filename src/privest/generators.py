"""Synthetic data generators for the benchmark experiments.

Each generator exposes its ``kind``, its record dimension ``dim`` (which an
experiment spec takes as its ``d``) and the ground truth needed by its
error metric: the mean, the median plus the absolute-loss risk function,
the model parameter, or the density.  It does not describe its support:
the radius of a channel is an estimator option, checked against each
record by the channel kernel.  Its dataclass fields are its parameters, typed
by the config resolver on construction; a generator that builds can sample.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError, field_schema, resolve, resolve_fields
from .estimators import _sigmoid, trig_basis_matrix

_CDF_GRID = 2**14  # inverse-CDF resolution for density sampling
_BLOCK = 1 << 16  # entries per row block of a Bernoulli product's uniform draws


def _phi(z):
    """Standard normal CDF (vectorized via math.erf; arrays here are tiny)."""
    z = np.asarray(z, dtype=float)
    flat = np.array([math.erf(v / math.sqrt(2.0)) for v in np.ravel(z)])
    return (0.5 * (1.0 + flat)).reshape(z.shape)


class _Generator:
    """Types a generator's fields, every number finite, then applies its ``_check`` range rules."""

    def __post_init__(self):
        resolve_fields(self, f"{self.kind!r} parameter", finite=True)
        if self.dim == 0:  # an empty vector parameter
            raise ConfigError(f"{self.kind.replace('_', ' ')} must be non-empty")
        self._check()

    def _check(self):
        """The kind's own range rules, if any."""


@dataclass(frozen=True)
class BoundedUniform(_Generator):
    """Uniform on [-radius, radius]: bounded scalar data with mean and median 0."""

    radius: float = 1.0

    def _check(self):
        if not (0.0 < 2.0 * self.radius < math.inf):  # the width of the support must be finite
            raise ConfigError(f"radius must be > 0 with 2 * radius finite, got {self.radius!r}")

    kind = "bounded_uniform"
    dim = 1
    true_mean = 0.0
    true_median = 0.0

    def sample(self, n, rng):
        return rng.uniform(-self.radius, self.radius, size=n)

    def abs_risk(self, theta):
        """E|X - theta|, exact for the uniform law."""
        theta = np.asarray(theta, dtype=float)
        inside = self.radius / 2.0 + theta**2 / (2.0 * self.radius)
        return np.where(np.abs(theta) <= self.radius, inside, np.abs(theta))


@dataclass(frozen=True)
class HeavyTail(_Generator):
    """Symmetric Pareto-tail mixture with E|X|^k = radius_k^k exactly.

    With probability 1/2 the draw is 0; otherwise it is a symmetric Pareto
    variable of tail index 3k, scaled so the k-th absolute moment meets the
    bound with equality.  Mean 0, so it realizes the k-th moment family
    while keeping the rate experiments centered.
    """

    k: float = 2.0
    radius_k: float = 1.0

    def _check(self):
        if not (self.k > 1.0 and self.radius_k > 0.0):
            raise ConfigError(f"need k > 1 and radius_k > 0, got {self.k!r}, {self.radius_k!r}")

    kind = "heavy_tail_k"
    dim = 1
    true_mean = 0.0
    true_median = 0.0

    @property
    def scale(self):
        # E|X|^k = (1/2) x0^k * a/(a-k) with a = 3k, so x0 = (4/3)^(1/k) r_k
        return (4.0 / 3.0) ** (1.0 / self.k) * self.radius_k

    def sample(self, n, rng):
        zero = rng.random(n) < 0.5
        magnitude = self.scale * rng.random(n) ** (-1.0 / (3.0 * self.k))
        sign = np.where(rng.random(n) < 0.5, 1.0, -1.0)
        return np.where(zero, 0.0, sign * magnitude)


@dataclass(frozen=True)
class Lognormal(_Generator):
    """Lognormal(mu, sigma): the synthetic stand-in for salary data."""

    mu: float = 10.0
    sigma: float = 1.2

    def _check(self):
        if not (self.sigma > 0.0 and self.mu + self.sigma * self.sigma / 2.0 < 709.0):
            raise ConfigError(f"need sigma > 0 and mu + sigma^2/2 < 709 (a finite mean), got mu "
                              f"{self.mu!r} and sigma {self.sigma!r}")

    kind = "lognormal"
    dim = 1

    @property
    def true_mean(self):
        return math.exp(self.mu + self.sigma**2 / 2.0)

    @property
    def true_median(self):
        return math.exp(self.mu)

    def sample(self, n, rng):
        return rng.lognormal(self.mu, self.sigma, size=n)

    def abs_risk(self, theta):
        """E|X - theta| in closed form (theta <= 0 degenerates to E[X] - theta)."""
        theta = np.maximum(np.asarray(theta, dtype=float), 1e-300)
        w = (np.log(theta) - self.mu) / self.sigma
        return self.true_mean * (1.0 - 2.0 * _phi(w - self.sigma)) + theta * (2.0 * _phi(w) - 1.0)


@dataclass(frozen=True)
class BernoulliProduct(_Generator):
    """Independent 0/1 coordinates with the given marginal frequencies."""

    freqs: tuple[float, ...]

    def _check(self):
        if any(not (0.0 <= f <= 1.0) for f in self.freqs):
            raise ConfigError(f"frequencies must lie in [0, 1], got {self.freqs!r}")

    kind = "bernoulli_product"

    @property
    def dim(self):
        return len(self.freqs)

    @property
    def true_mean(self):
        return np.array(self.freqs)

    def sample(self, n, rng):
        # row blocks of uniforms, the stream of one (n, d) draw, compared straight into the output
        freqs = np.array(self.freqs)
        out = np.empty((n, self.dim))
        rows = max(1, _BLOCK // self.dim)
        u = np.empty((min(rows, n), self.dim))
        for lo in range(0, n, rows):
            r = min(rows, n - lo)
            np.less(rng.random(out=u[:r]), freqs, out=out[lo : lo + r])
        return out


@dataclass(frozen=True)
class FixedVector(_Generator):
    """Point mass at a fixed vector; the degenerate member of every ball family.

    Used by the dimension-scaling experiment, where the mean-squared error
    must isolate the channel variance.  ``sample`` returns a read-only
    (n, d) view of the one point, so a write into it raises instead of
    changing every record.
    """

    value: tuple[float, ...]

    kind = "fixed_vector"

    @property
    def dim(self):
        return len(self.value)

    @property
    def true_mean(self):
        return np.array(self.value)

    def sample(self, n, rng):
        return np.broadcast_to(np.array(self.value), (n, self.dim))


@dataclass(frozen=True)
class LogisticModel(_Generator):
    """Corner covariates x ~ Uniform({-1, +1}^d) with logistic labels.

    P(y = 1 | x) = sigmoid(<theta, x>); theta = 0 gives zero-signal data
    with y independent of x.
    """

    theta: tuple[float, ...]

    kind = "logistic_model"

    @property
    def dim(self):
        return len(self.theta)

    @property
    def true_theta(self):
        return np.array(self.theta)

    def sample(self, n, rng):
        x = np.where(rng.random((n, self.dim)) < 0.5, 1.0, -1.0)
        p_one = _sigmoid(x @ np.array(self.theta))
        y = np.where(rng.random(n) < p_one, 1.0, -1.0)
        return x, y


@dataclass(frozen=True)
class TrigDensity(_Generator):
    """Density 1 + sum_j coeffs[j] basis_{j+2}(t) on [0, 1], sampled by inverse CDF.

    ``coeffs`` follow the same non-constant ordering as the estimator
    (cos 1, sin 1, cos 2, ...).  The configuration is rejected if the
    density is negative anywhere on the sampling grid.
    """

    coeffs: tuple[float, ...]
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def _check(self):
        if len(self.coeffs) == 0:
            raise ConfigError("need at least one basis coefficient")
        grid = np.linspace(0.0, 1.0, _CDF_GRID + 1)
        with np.errstate(over="ignore", invalid="ignore"):  # the test below fails on inf and NaN
            values = self.density(grid)
        if not (np.min(values) >= -1e-9 and np.max(values) < math.inf):
            raise ConfigError("coefficients produce a negative or non-finite density")
        increments = 0.5 * (values[1:] + values[:-1]) * np.diff(grid)
        cdf = np.concatenate([[0.0], np.cumsum(increments)])
        cdf /= cdf[-1]
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "cdf", cdf)

    kind = "trig_density"
    dim = 1

    def density(self, t):
        t = np.asarray(t, dtype=float)
        return 1.0 + trig_basis_matrix(len(self.coeffs), np.atleast_1d(t)) @ np.array(self.coeffs)

    def sample(self, n, rng):
        return np.interp(rng.random(n), self.cdf, self.grid)


GENERATORS = {cls.kind: cls for cls in (
    BoundedUniform, HeavyTail, Lognormal, BernoulliProduct, FixedVector, LogisticModel, TrigDensity,
)}


def make_generator(config: dict):
    """Build a generator from its config: a ``kind`` (any JSON value, so not hashed) and params."""
    if not isinstance(config, dict) or config.get("kind") not in tuple(GENERATORS):
        raise ConfigError(f"generator config must be a mapping with a 'kind' in "
                          f"{sorted(GENERATORS)}, got {config!r}")
    cls = GENERATORS[config["kind"]]
    params = {key: value for key, value in config.items() if key != "kind"}
    return cls(**resolve(params, field_schema(cls), f"{cls.kind!r} parameter"))
