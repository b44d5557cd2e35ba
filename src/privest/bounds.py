"""Closed-form minimax rate evaluators, used as reference curves in benchmarks.

Each evaluator returns the *rate shape* only (no sharp constants).  Where
the literature states a rate both with eps^2 and with (e^eps - 1)^2, the
``eps_form`` switch selects which one is evaluated; CSV output labels the
choice so plotted curves are unambiguous.
"""

import math
from dataclasses import dataclass

from .core import ParameterError, PrivacyLevel, _check_count, _check_n
from .mechanisms import _check_radius


def _n_eps_sq(n: int, eps: float, eps_form: str) -> float:
    _check_n(n)
    eps = PrivacyLevel(eps).epsilon  # the one eps rule
    if eps_form not in ("eps2", "exp"):
        raise ParameterError(f"unknown eps_form {eps_form!r} (use 'eps2' or 'exp')")
    try:
        sq = eps * eps if eps_form == "eps2" else math.expm1(eps) ** 2
    except OverflowError:
        sq = math.inf
    if not (0.0 < sq < math.inf):
        name = "eps^2" if eps_form == "eps2" else "(e^eps - 1)^2"
        raise ParameterError(f"{name} is not a positive finite float at eps = {eps!r}")
    return n * sq


def mean_rate(k: float, n: int, eps: float, eps_form: str = "eps2") -> float:
    """Scalar-mean minimax rate min(1, (n eps^2)^(-(k-1)/k)) for the k-th moment family."""
    if not (k > 1.0):
        raise ParameterError(f"moment order k must be > 1, got {k!r}")
    exponent = 1.0 if math.isinf(k) else (k - 1.0) / k
    return min(1.0, _n_eps_sq(n, eps, eps_form) ** (-exponent))


def median_rate(radius: float, n: int, eps: float, eps_form: str = "eps2") -> float:
    """Median excess-risk rate radius * min(1, (n eps^2)^(-1/2))."""
    _check_radius(radius)
    return radius * min(1.0, _n_eps_sq(n, eps, eps_form) ** -0.5)


def sparse_mean_lower(d: int, n: int, eps: float) -> float:
    """1-sparse mean linf lower bound sqrt(d log(2d) / (n (e^eps - 1)^2))."""
    _check_count(d, low=2)
    return math.sqrt(d * math.log(2 * d) / _n_eps_sq(n, eps, "exp"))


def _check_smoothness(beta):
    """ParameterError unless the Sobolev smoothness beta is > 1/2 (NaN fails): the one rule."""
    if not (beta > 0.5):
        raise ParameterError(f"smoothness beta must be > 1/2, got {beta!r}")


def density_rate(beta: float, n: int, eps: float, eps_form: str = "eps2") -> float:
    """Sobolev-beta density L2 rate (n eps^2)^(-2 beta / (2 beta + 2))."""
    _check_smoothness(beta)
    exponent = 1.0 if math.isinf(beta) else beta / (beta + 1.0)  # no inf / inf
    return _n_eps_sq(n, eps, eps_form) ** (-exponent)


def logistic_lower(d: int, n: int, eps: float) -> float:
    """Logistic-regression lower bound min(d/4, d^2 / (4 n (e^eps - 1)^2))."""
    _check_count(d)
    return min(d / 4.0, d * d / (4.0 * _n_eps_sq(n, eps, "exp")))


@dataclass(frozen=True)
class RateCurve:
    """A labelled reference curve: value of one evaluator over an n grid."""

    label: str
    points: tuple  # of (n, value) pairs

    def __post_init__(self):
        for n, v in self.points:
            if not (0.0 < v < math.inf):
                raise ParameterError(f"rate values must be finite and > 0, got {v!r} at n = {n}")


def build_curve(label: str, fn, n_grid, **kwargs) -> RateCurve:
    return RateCurve(label, tuple((int(n), float(fn(n=int(n), **kwargs))) for n in n_grid))
