"""Randomness primitives and validated privacy parameters.

Everything downstream (mechanisms, estimators, experiments) builds on the
two types defined here: :class:`PrivacyLevel`, which validates the privacy
budget and caches the derived channel constants, and numpy ``Generator``
streams produced by :func:`make_rng`.

Note on the Laplace convention: throughout this package the Laplace
distribution is parameterized by its *inverse scale* ``a``, with density
``(a/2) * exp(-a*|y|)`` and variance ``2 / a**2``.  Most libraries (numpy
included) use the scale ``1/a`` instead; :func:`laplace_sample` is the one
place that converts, and it draws the noise itself rather than through
numpy's ``rng.laplace``.

Laplace noise is a textbook floating-point sampler.  :func:`laplace_sample`
is the inverse CDF on numpy's 2^-53 uniform grid: each uniform U of
``Generator.random`` gives sign(U - 1/2) |log t| / a with
t = min(2U, 2(1 - U)), and U = 0 is skipped as numpy skips it, so the
generator ends where ``rng.laplace`` would leave it.  Both forms of t are
exact, so the two tails are mirror images and both end at 52 ln 2 ~ 36.04
scales.  Like any such sampler it carries Mironov's caveat ("On significance
of the least significant bits for differential privacy", CCS 2012): the
floats it can output are irregularly spaced and shift with the value the
noise is added to, so the truncated-Laplace channel and both Laplace
baselines (``laplace_vector``, ``naive_median``) are eps-LDP in their ideal
law, not certified for the floating-point one.  Snapping would change those
laws and is out of scope.
"""

import math
import numbers
import sys
from dataclasses import MISSING, dataclass, field, fields
from functools import partial

import numpy as np


class ConfigError(ValueError):
    """An experiment or CLI configuration is invalid or inconsistent."""


class ParameterError(ConfigError):
    """A scalar argument violates its precondition (e.g. a non-positive scale)."""


class DomainError(ValueError):
    """A data record lies outside the domain a mechanism was configured for."""


class SizeError(ValueError):
    """A problem size exceeds the cap of an exact-enumeration routine."""


class UnsupportedChannelError(ValueError):
    """An audit routine was handed a channel kind it cannot analyze."""


@dataclass(frozen=True)
class PrivacyLevel:
    """Validated privacy budget with cached exp(eps) quantities.

    Attributes:
        epsilon: The privacy budget, a finite positive real.
        pi_eps: ``exp(eps) / (1 + exp(eps))``, the probability that the
            randomized-response style channels report the "true" side.
        phi_eps: ``(exp(eps) + 1) / (exp(eps) - 1)``, the inverse-gap factor
            that scales channel outputs to make them unbiased.  It must be a
            finite float, about 2 / eps for small eps, so eps must be at
            least about 1.1e-308.
    """

    epsilon: float
    pi_eps: float = field(init=False)
    phi_eps: float = field(init=False)

    def __post_init__(self):
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps <= 0.0:
            raise ParameterError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)
        # exp(eps) overflows for eps > ~709; the derived quantities below are
        # computed in overflow-safe form and stay meaningful.
        object.__setattr__(self, "pi_eps", 1.0 / (1.0 + math.exp(-eps)))
        tanh_half = math.tanh(eps / 2.0)  # 0 when eps / 2 underflows
        phi_eps = 1.0 / tanh_half if tanh_half > 0.0 else math.inf
        if not math.isfinite(phi_eps):
            raise ParameterError(f"epsilon {eps!r} is too small: 1/tanh(eps/2) overflows")
        object.__setattr__(self, "phi_eps", phi_eps)

    @property
    def eps_sq(self) -> float:
        """eps^2, or inf where it overflows (a float's ``**`` raises instead)."""
        return self.epsilon**2 if self.epsilon < 1e154 else math.inf


@dataclass(frozen=True)
class Option:
    """One config key: its kind (bool, int, float, str, dict or ``tuple[int | float, ...]``), its
    default (a constant or a function of (context, the keys resolved before it)) and, when finite,
    its allowed values; ``nullable`` also accepts JSON null."""

    kind: type
    default: object = field(default_factory=lambda: MISSING)  # MISSING: a required key
    allowed: tuple = ()
    nullable: bool = False


def typed(key, value, kind):
    """``value`` as a ``kind`` of :class:`Option`, else :class:`ConfigError`: an int takes an
    integral float in the int64 range, a float a numeric string (JSON has no infinity)."""
    if getattr(kind, "__origin__", None) is tuple:  # tuple[int, ...] or tuple[float, ...]
        if isinstance(value, (list, tuple)):
            return tuple(typed(f"{key} entry", v, kind.__args__[0]) for v in value)
        raise ConfigError(f"{key} must be a list of {kind.__args__[0].__name__}, got {value!r}")
    number = isinstance(value, numbers.Real) and not isinstance(value, bool)
    try:
        if kind is int and number and value == int(value) and abs(value) < 2**63:
            return int(value)
        if kind is float and (number or isinstance(value, str)):
            return float(value)
    except (ValueError, OverflowError):  # a non-numeric string, or int() of nan or inf
        pass
    if kind is dict or kind in (bool, str) and isinstance(value, kind):  # dict: a nested config
        return value
    raise ConfigError(f"{key} must be {kind.__name__}, got {value!r}")


def resolve(config, schema, what, context=None, finite=False):
    """The one config resolver: every key of ``schema`` (key -> :class:`Option`) typed, allowed
    and defaulted from ``config``, which must be a mapping with no key missing or unknown.
    ``finite`` also rejects a NaN or infinite number."""
    if not isinstance(config, dict):
        raise ConfigError(f"{what} must be a JSON object, got {config!r}")
    extra = set(config) - set(schema)
    if extra:
        raise ConfigError(f"unknown {what} keys: {sorted(extra)}")
    out = {}
    for key, opt in schema.items():
        value = config.get(key, opt.default)
        if value is MISSING:
            raise ConfigError(f"{what} missing key {key!r}")
        if key not in config and callable(value):
            value = value(context, out)
        if not (value is None and opt.nullable):
            value = typed(f"{what} {key}", value, opt.kind)
            if opt.allowed and value not in opt.allowed:
                raise ConfigError(f"{what} {key} must be one of {opt.allowed}, got {value!r}")
            if finite and not np.isfinite(value).all():
                raise ConfigError(f"{what} {key} must be finite, got {value!r}")
        out[key] = value
    return out


def field_schema(cls):
    """The :class:`Option` of each init field of the dataclass ``cls``: its type and default."""
    return {f.name: Option(f.type, f.default if f.default_factory is MISSING
                           else f.default_factory()) for f in fields(cls) if f.init}


def resolve_fields(obj, what, finite=False):
    """Type the init fields of the frozen dataclass ``obj`` in place, through :func:`resolve`."""
    schema = field_schema(type(obj))
    config = {key: getattr(obj, key) for key in schema}
    for key, value in resolve(config, schema, what, finite=finite).items():
        object.__setattr__(obj, key, value)


# Float64s of working set per row block of every streaming loop (512 KB, in L2).  Each
# loop gives its width per row; no output depends on the block size.
BLOCK = 1 << 16


def block_rows(width: int) -> int:
    """Rows per block of a loop that holds ``width`` float64s of working set per row."""
    return (BLOCK // width or 1) if width > 0 else BLOCK  # builtins max() costs more per call


def row_blocks(start: int, stop: int, width: int):
    """The ``(lo, hi)`` bounds of rows start..stop - 1, in blocks of :func:`block_rows` rows."""
    rows = block_rows(width)
    if stop - start <= rows:  # at most one block: no generator to set up per call
        return ((start, stop),) if stop > start else ()
    return ((lo, min(lo + rows, stop)) for lo in range(start, stop, rows))


def _check_count(value, rule="dimension must be", low=1):
    """ParameterError ``"<rule> >= <low>, got <value>"`` unless ``low <= value < 2**63``, the int64
    range that :func:`typed` gives every config int (NaN fails too): the one count rule."""
    if not (low <= value < 2**63):
        raise ParameterError(f"{rule} {'< 2**63' if value >= low else f'>= {low}'}, got {value}")


_check_n = partial(_check_count, rule="sample size must be")  # the one sample-size rule


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a reproducible generator for (seed, stream...) derivation.

    Identical arguments always produce identical draw sequences; distinct
    stream keys (e.g. replicate indices) give statistically independent
    streams.  This is the only constructor of randomness in the package.
    """
    _check_count(seed, "seed must be", 0)  # the rule ExperimentSpec applies to its seed
    key = tuple(int(s) for s in stream)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


# Draws lie within 52 ln 2 ~ 36.04 scales of 0 (-log 2^-52, the smallest inverse-CDF argument),
# so this cap keeps them finite
_LAPLACE_SCALE_MAX = sys.float_info.max / 64


def laplace_sample(rng: np.random.Generator, inv_scale: float, size=None, out=None):
    """Draw from the Laplace distribution with density (a/2) exp(-a|y|).

    Each draw is the inverse CDF of one uniform of ``rng.random`` (a uniform of exactly 0 is
    skipped, as numpy skips it), so the generator ends where numpy's ``rng.laplace`` at
    scale 1/a leaves it.

    Args:
        rng: Source of randomness.
        inv_scale: The inverse scale a > 0.  Variance is 2 / a**2.
        size: Optional numpy size; default draws a single float.
        out: Optional C-contiguous float array to fill with the draws of ``size=out.shape``.
    """
    scale = 1.0 / inv_scale if inv_scale > 0.0 else math.inf  # NaN fails too
    if not (0.0 < scale <= _LAPLACE_SCALE_MAX):
        raise ParameterError(f"inv_scale must be finite and > 0 with 1/inv_scale at most "
                             f"{_LAPLACE_SCALE_MAX:.3g}, got {inv_scale!r}")
    u = rng.random(1 if size is None else size) if out is None else rng.random(out=out)
    rows = block_rows(2)  # a draw and its temporary per row
    if u.size <= rows:  # one block: no loop, and numpy's own temporary
        _laplace_inverse_cdf(rng, u, scale)
    else:
        flat, tmp = u.reshape(-1), np.empty(rows)  # reshape: a view, u is C-contiguous
        for lo, _ in row_blocks(0, flat.size, 2):
            _laplace_inverse_cdf(rng, flat[lo:], scale, tmp)
    return float(u[0]) if size is None and out is None else u


def _laplace_inverse_cdf(rng, u, scale, tmp=None):
    """Overwrite ``u`` (or its first ``len(tmp)``, through the reused ``tmp``) with Laplace
    draws of ``scale`` by the module note's inverse CDF.  Zeros are first dropped from ``u``,
    in order, and it is topped up from ``rng``."""
    block = u if tmp is None else u[: len(tmp)]
    while np.count_nonzero(block) < block.size:
        flat = u.reshape(-1)
        keep = flat[flat != 0.0]
        flat[: keep.size] = keep
        flat[keep.size :] = rng.random(flat.size - keep.size)
    a = np.subtract(1.0, block, out=None if tmp is None else tmp[: block.size])
    np.minimum(a, block, out=a)
    np.add(a, a, out=a)
    np.log(a, out=a)
    np.multiply(a, scale, out=a)  # -|draw|
    np.subtract(block, 0.5, out=block)  # exact; U = 1/2 gives +0.0
    np.copysign(a, block, out=block)


def bernoulli_pi(rng: np.random.Generator, level: PrivacyLevel, size=None):
    """Draw the channel bit T with P(T = 1) = pi_eps = e^eps / (1 + e^eps)."""
    if size is None:
        return int(rng.random() < level.pi_eps)
    return (rng.random(size) < level.pi_eps).astype(np.int64)


def uniform_sphere(rng: np.random.Generator, d: int, size=None, out=None) -> np.ndarray:
    """Sample rotationally uniform unit vectors on the l2 sphere in R^d.

    Implemented by normalizing standard Gaussian draws.  Returns shape (d,)
    for ``size=None``, else (size, d).  ``out``, if given, is the
    C-contiguous (rows, d) float array to fill and return instead; filling
    consecutive blocks draws what one large call would.
    """
    _check_count(d)
    if out is None:
        g = rng.standard_normal((1 if size is None else int(size), d))
    else:
        g = rng.standard_normal(out=out)
    norms = np.linalg.norm(g, axis=1)
    # A zero draw has probability 0 but would poison the normalization.
    while np.any(norms == 0.0):
        bad = norms == 0.0
        g[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(g, axis=1)
    g /= norms[:, None]
    return g[0] if size is None and out is None else g

