"""Randomness primitives and validated privacy parameters.

Everything downstream (mechanisms, estimators, experiments) builds on the
two types defined here: :class:`PrivacyLevel`, which validates the privacy
budget and caches the derived channel constants, and numpy ``Generator``
streams produced by :func:`make_rng`.

Note on the Laplace convention: throughout this package the Laplace
distribution is parameterized by its *inverse scale* ``a``, with density
``(a/2) * exp(-a*|y|)`` and variance ``2 / a**2``.  Most libraries (numpy
included) use the scale ``1/a`` instead; the conversion happens in exactly
one place, :func:`laplace_sample`.
"""

import math
import sys
from dataclasses import dataclass, field

import numpy as np


class ParameterError(ValueError):
    """A scalar argument violates its precondition (e.g. a non-positive scale)."""


class DomainError(ValueError):
    """A data record lies outside the domain a mechanism was configured for."""


class SizeError(ValueError):
    """A problem size exceeds the cap of an exact-enumeration routine."""


class UnsupportedChannelError(ValueError):
    """An audit routine was handed a channel kind it cannot analyze."""


class ConfigError(ValueError):
    """An experiment or CLI configuration is invalid or inconsistent."""


@dataclass(frozen=True)
class PrivacyLevel:
    """Validated privacy budget with cached exp(eps) quantities.

    Attributes:
        epsilon: The privacy budget, a finite positive real.
        exp_eps: ``exp(epsilon)`` (``inf`` when epsilon overflows the exponent).
        pi_eps: ``exp(eps) / (1 + exp(eps))``, the probability that the
            randomized-response style channels report the "true" side.
        phi_eps: ``(exp(eps) + 1) / (exp(eps) - 1)``, the inverse-gap factor
            that scales channel outputs to make them unbiased.  It must be a
            finite float, about 2 / eps for small eps, so eps must be at
            least about 1.1e-308.
    """

    epsilon: float
    exp_eps: float = field(init=False)
    pi_eps: float = field(init=False)
    phi_eps: float = field(init=False)

    def __post_init__(self):
        eps = float(self.epsilon)
        if not math.isfinite(eps) or eps <= 0.0:
            raise ParameterError(f"epsilon must be finite and > 0, got {self.epsilon!r}")
        object.__setattr__(self, "epsilon", eps)
        # exp(eps) overflows for eps > ~709; the derived quantities below are
        # computed in overflow-safe form and stay meaningful.
        object.__setattr__(self, "exp_eps", math.exp(eps) if eps < 709.0 else math.inf)
        object.__setattr__(self, "pi_eps", 1.0 / (1.0 + math.exp(-eps)))
        tanh_half = math.tanh(eps / 2.0)  # 0 when eps / 2 underflows
        phi_eps = 1.0 / tanh_half if tanh_half > 0.0 else math.inf
        if not math.isfinite(phi_eps):
            raise ParameterError(f"epsilon {eps!r} is too small: 1/tanh(eps/2) overflows")
        object.__setattr__(self, "phi_eps", phi_eps)


def make_rng(seed: int, *stream: int) -> np.random.Generator:
    """Return a reproducible generator for (seed, stream...) derivation.

    Identical arguments always produce identical draw sequences; distinct
    stream keys (e.g. replicate indices) give statistically independent
    streams.  This is the only constructor of randomness in the package.
    """
    if seed < 0:
        raise ParameterError("seed must be a non-negative integer")
    key = tuple(int(s) for s in stream)
    return np.random.default_rng(np.random.SeedSequence(entropy=int(seed), spawn_key=key))


# numpy's Laplace draws lie within 36.04 scales of 0 (-log 2^-52), so this cap keeps them finite
_LAPLACE_SCALE_MAX = sys.float_info.max / 64


def laplace_sample(rng: np.random.Generator, inv_scale: float, size=None):
    """Draw from the Laplace distribution with density (a/2) exp(-a|y|).

    Args:
        rng: Source of randomness.
        inv_scale: The inverse scale a > 0.  Variance is 2 / a**2.
        size: Optional numpy size; default draws a single float.
    """
    scale = 1.0 / inv_scale if inv_scale > 0.0 else math.inf  # NaN fails too
    if not (0.0 < scale <= _LAPLACE_SCALE_MAX):
        raise ParameterError(f"inv_scale must be finite and > 0 with 1/inv_scale at most "
                             f"{_LAPLACE_SCALE_MAX:.3g}, got {inv_scale!r}")
    out = rng.laplace(loc=0.0, scale=scale, size=size)
    return float(out) if size is None else out


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
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
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

