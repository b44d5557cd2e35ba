"""Sampler conformance: the draws of a sampler against its exact law.

These tests guard the law of a sampler whose draws change on purpose (a new
draw order or primitive), where the golden digests and the bit-for-bit pins
are regenerated and so prove nothing about the law.
"""

import math

import numpy as np
import pytest
from scipy.stats import beta, binomtest, chisquare, kstest

from privest.audit import channel_pmf_grid
from privest.core import BLOCK, PrivacyLevel, block_rows, make_rng
from privest.generators import TrigDensity
from privest.mechanisms import Channel, _l2_ball_batch, _linf_ball_batch, l2_bound_B

# The 36 hypercube cases below read p >= 0.02 at their fixed seeds.  Each of these
# mutants of the sampler fails at least one of them: a vertex bit forced, the first
# row block's vertex bits reused by every block, gamma_d = 1 at even d, the side
# comparison reversed.
P_FLOOR = 1e-4


def _records(d):
    """An interior point, a corner of mixed signs (ties at even d) and zero."""
    interior = np.linspace(0.6, -0.3, d)
    corner = np.where(np.arange(d) % 3 == 1, -1.0, 1.0)
    return {"interior": interior, "corner": corner, "zero": np.zeros(d)}


@pytest.mark.parametrize("eps", [0.5, math.log(3.0)])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5, 6])
def test_linf_vertex_frequencies_match_the_enumerated_pmf(d, eps):
    level = PrivacyLevel(eps)
    channel = Channel.linf_ball(d, 1.0, level)
    n = 3 * (BLOCK // d) + 7  # the kernel fills its output in several row blocks
    index = 1 << np.arange(d)  # row i of cube_vertices has bit j set where coordinate j is +1
    for i, (name, x) in enumerate(_records(d).items()):
        z = _linf_ball_batch(np.broadcast_to(x, (n, d)), 1.0, level, make_rng(800, d, i))
        counts = np.bincount((z > 0.0) @ index, minlength=2**d)
        expected = n * channel_pmf_grid(channel, [x])[1][0]
        pvalue = chisquare(counts, expected).pvalue
        assert pvalue > P_FLOOR, f"{name} record {x}: p = {pvalue:.3g}"


@pytest.mark.parametrize("coeffs", [(0.5, 0.0, 0.25), (1.0 / math.sqrt(2.0),)],
                         ids=["density-rate", "zero-at-half"])
def test_trig_density_draws_follow_the_cdf_they_invert(coeffs):
    """Kolmogorov-Smirnov against the piecewise-linear CDF that ``sample`` inverts.

    Both cases read p = 0.72 at this seed, and each fails on either of these mutants: the
    first row block's output read back as uniforms by every later block, the guide bucket
    halved.  A draw in the neighbouring CDF interval moves by at most 2^-14, below what this
    test sees; ``test_generators`` pins every draw to ``np.interp`` bit for bit.
    """
    gen = TrigDensity(coeffs=coeffs)
    draws = gen.sample(8 * block_rows(8) + 7, make_rng(801))  # several of the sampler's blocks
    pvalue = kstest(draws, lambda t: np.interp(t, gen.grid, gen.cdf)).pvalue
    assert pvalue > P_FLOOR, f"coeffs {coeffs}: p = {pvalue:.3g}"


L2_DRAWS = 200_000  # several of the kernel's row blocks at every d below


@pytest.mark.parametrize("eps", [0.5, math.log(3.0)])
@pytest.mark.parametrize("d", [1, 3, 8])
def test_l2_side_frequency_matches_the_channel_law(d, eps):
    """P(<Z, x> > 0) = 1/2 + ||x|| / (2 r phi_eps) at a nonzero record, every |Z| = B.

    Binomial tests at an interior record and one on the sphere; all read p >= 0.14 at
    their fixed seeds (the lowest: eps 0.5, d = 3, ||x|| = r).  Each of these mutants of
    the kernel fails all six cases: the side comparison reversed, the channel bit T
    ignored, pi_eps replaced by 1/2.
    """
    level, radius = PrivacyLevel(eps), 1.3
    direction = np.linspace(0.6, -0.3, d)
    direction /= np.linalg.norm(direction)
    for i, scale in enumerate([0.55, 1.0]):
        x = scale * radius * direction
        z = _l2_ball_batch(np.broadcast_to(x, (L2_DRAWS, d)), radius, level, make_rng(802, d, i))
        assert np.allclose(np.linalg.norm(z, axis=1), l2_bound_B(d, radius, level))
        p_side = 0.5 + scale / (2.0 * level.phi_eps)
        pvalue = binomtest(int(np.count_nonzero(z @ x > 0.0)), L2_DRAWS, p_side).pvalue
        assert pvalue > P_FLOOR, f"||x|| = {scale} r: p = {pvalue:.3g}"


@pytest.mark.parametrize("eps", [0.5, math.log(3.0)])
@pytest.mark.parametrize("d", [1, 3, 8])
def test_l2_zero_record_is_uniform_on_the_sphere(d, eps):
    """At x = 0 (also -0.0) the output is uniform on the B-sphere: a fair sign at d = 1,
    else Z_1 / B = 2 W - 1 with W ~ Beta((d - 1) / 2, (d - 1) / 2), by Kolmogorov-Smirnov.
    All read p >= 0.02 at their fixed seeds."""
    level = PrivacyLevel(eps)
    for i, zero in enumerate([0.0, -0.0]):
        x = np.full((L2_DRAWS, d), zero)
        z = _l2_ball_batch(x, 1.0, level, make_rng(803, d, i)) / l2_bound_B(d, 1.0, level)
        if d == 1:
            pvalue = binomtest(int(np.count_nonzero(z > 0.0)), L2_DRAWS, 0.5).pvalue
        else:
            pvalue = kstest((z[:, 0] + 1.0) / 2.0, beta((d - 1) / 2, (d - 1) / 2).cdf).pvalue
        assert pvalue > P_FLOOR, f"x = {zero}: p = {pvalue:.3g}"
