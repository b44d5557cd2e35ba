"""Synthetic data generators for the benchmark experiments.

Each generator exposes its ``kind``, its record dimension ``dim`` (which an
experiment spec takes as its ``d``) and the ground truth needed by its
error metric: the mean, the median plus the absolute-loss risk function,
the model parameter, or the density.  It does not describe its support:
the radius of a channel is an estimator option, checked against each
record by the channel kernel.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import ConfigError
from .estimators import _sigmoid, trig_basis_matrix

_CDF_GRID = 2**14  # inverse-CDF resolution for density sampling
_BLOCK = 1 << 16  # entries per row block of a Bernoulli product's uniform draws


def _phi(z):
    """Standard normal CDF (vectorized via math.erf; arrays here are tiny)."""
    z = np.asarray(z, dtype=float)
    flat = np.array([math.erf(v / math.sqrt(2.0)) for v in np.ravel(z)])
    return (0.5 * (1.0 + flat)).reshape(z.shape)


@dataclass(frozen=True)
class BoundedUniform:
    """Uniform on [-radius, radius]: bounded scalar data with mean and median 0."""

    radius: float = 1.0

    def __post_init__(self):
        if not (self.radius > 0.0):
            raise ConfigError(f"radius must be > 0, got {self.radius!r}")

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
class HeavyTail:
    """Symmetric Pareto-tail mixture with E|X|^k = radius_k^k exactly.

    With probability 1/2 the draw is 0; otherwise it is a symmetric Pareto
    variable of tail index 3k, scaled so the k-th absolute moment meets the
    bound with equality.  Mean 0, so it realizes the k-th moment family
    while keeping the rate experiments centered.
    """

    k: float = 2.0
    radius_k: float = 1.0

    def __post_init__(self):
        if not (self.k > 1.0) or math.isinf(self.k):
            raise ConfigError(f"heavy-tail moment order must be finite and > 1, got {self.k!r}")
        if not (self.radius_k > 0.0):
            raise ConfigError(f"radius_k must be > 0, got {self.radius_k!r}")

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
class Lognormal:
    """Lognormal(mu, sigma): the synthetic stand-in for salary data."""

    mu: float = 10.0
    sigma: float = 1.2

    def __post_init__(self):
        if not (self.sigma > 0.0):
            raise ConfigError(f"sigma must be > 0, got {self.sigma!r}")

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
class BernoulliProduct:
    """Independent 0/1 coordinates with the given marginal frequencies."""

    freqs: tuple

    def __post_init__(self):
        freqs = tuple(float(f) for f in self.freqs)
        if len(freqs) == 0 or any(not (0.0 <= f <= 1.0) for f in freqs):
            raise ConfigError("frequencies must be a non-empty vector inside [0, 1]")
        object.__setattr__(self, "freqs", freqs)

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
class FixedVector:
    """Point mass at a fixed vector; the degenerate member of every ball family.

    Used by the dimension-scaling experiment, where the mean-squared error
    must isolate the channel variance.  ``sample`` returns a read-only
    (n, d) view of the one point, so a write into it raises instead of
    changing every record.
    """

    value: tuple

    def __post_init__(self):
        object.__setattr__(self, "value", tuple(float(v) for v in self.value))
        if len(self.value) == 0:
            raise ConfigError("fixed vector must be non-empty")

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
class LogisticModel:
    """Corner covariates x ~ Uniform({-1, +1}^d) with logistic labels.

    P(y = 1 | x) = sigmoid(<theta, x>); theta = 0 gives zero-signal data
    with y independent of x.
    """

    theta: tuple

    def __post_init__(self):
        object.__setattr__(self, "theta", tuple(float(v) for v in self.theta))
        if len(self.theta) == 0:
            raise ConfigError("model parameter must be non-empty")

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
class TrigDensity:
    """Density 1 + sum_j coeffs[j] basis_{j+2}(t) on [0, 1], sampled by inverse CDF.

    ``coeffs`` follow the same non-constant ordering as the estimator
    (cos 1, sin 1, cos 2, ...).  The configuration is rejected if the
    density is negative anywhere on the sampling grid.
    """

    coeffs: tuple
    grid: np.ndarray = field(init=False, repr=False, compare=False)
    cdf: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) == 0:
            raise ConfigError("need at least one basis coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        grid = np.linspace(0.0, 1.0, _CDF_GRID + 1)
        values = self.density(grid)
        if np.min(values) < -1e-9:
            raise ConfigError("coefficients produce a negative density")
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


_KINDS = {
    "bounded_uniform": (BoundedUniform, ("radius",)),
    "heavy_tail_k": (HeavyTail, ("k", "radius_k")),
    "lognormal": (Lognormal, ("mu", "sigma")),
    "bernoulli_product": (BernoulliProduct, ("freqs",)),
    "fixed_vector": (FixedVector, ("value",)),
    "logistic_model": (LogisticModel, ("theta",)),
    "trig_density": (TrigDensity, ("coeffs",)),
}


def make_generator(config: dict):
    """Build a generator from a config mapping with a ``kind`` key."""
    if not isinstance(config, dict) or "kind" not in config:
        raise ConfigError("generator config must be a mapping with a 'kind' key")
    kind = config["kind"]
    if kind not in _KINDS:
        raise ConfigError(f"unknown generator kind {kind!r}; valid: {sorted(_KINDS)}")
    cls, params = _KINDS[kind]
    extra = set(config) - {"kind"} - set(params)
    if extra:
        raise ConfigError(f"unknown parameters for {kind!r}: {sorted(extra)}")
    kwargs = {p: config[p] for p in params if p in config}
    for key, value in kwargs.items():
        try:
            finite = np.isfinite(np.asarray(value, dtype=float)).all()
        except (TypeError, ValueError):
            continue  # not numeric: the generator's own checks reject it
        if not finite:  # JSON's Infinity and NaN literals parse
            raise ConfigError(f"{kind!r} parameter {key} must be finite, got {value!r}")
    try:
        return cls(**kwargs)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:  # e.g. float("a") of a vector parameter "ab"
        raise ConfigError(f"bad parameters for {kind!r}: {exc}") from exc
