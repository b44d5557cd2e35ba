"""Fixed-size probes of single layers, identical in every workload's traced run.

Rates and latencies come from here rather than from the workload spans, so
they exist, and compare, on every workload.  Each probe repeats its call and
keeps the fastest time, as ``run.py`` does for passes.  Channels are driven
through ``Channel.privatize_batch``, the SGD engines through the
``privest.experiments`` names the tracer wraps.
"""

import math
import time

import numpy as np
from privest import audit, experiments
from privest.core import PrivacyLevel, bernoulli_pi, laplace_sample, make_rng, uniform_sphere
from privest.estimators import trig_basis_matrix
from privest.mechanisms import Channel, MomentAssumption

REPEATS = 5
COORDS = 1_000_000  # work per throughput probe, in coordinates or draws
SMALL_CALLS = 1000  # calls per latency probe
SGD_WIDTH = 20  # replicate lockstep width of the sgd-stream presets


def _best_s(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def _calls(fn, x, rng):
    def run():
        for _ in range(SMALL_CALLS):
            fn(x, rng)

    return run


def run_probes(seed):
    level = PrivacyLevel(1.0)
    rng = make_rng(seed, 9)
    m = {}

    m["core.make_rng_us"] = 1e6 / SMALL_CALLS * _best_s(
        lambda: [make_rng(seed, 2, 1, r) for r in range(SMALL_CALLS)]
    )
    m["core.laplace_Mdraws_s"] = COORDS / 1e6 / _best_s(
        lambda: laplace_sample(rng, 1.0, size=COORDS)
    )
    m["core.sphere_Mcoords_s"] = COORDS / 1e6 / _best_s(
        lambda: uniform_sphere(rng, 64, size=COORDS // 64)
    )
    m["core.bernoulli_Mdraws_s"] = COORDS / 1e6 / _best_s(
        lambda: bernoulli_pi(rng, level, size=COORDS)
    )

    def l2_inputs(n, d):
        return uniform_sphere(rng, d, size=n) * rng.random(n)[:, None]

    vector = {
        "l2_ball": (lambda d: Channel.l2_ball(d, 1.0, level), l2_inputs),
        "linf_ball": (
            lambda d: Channel.linf_ball(d, 1.0, level),
            lambda n, d: rng.uniform(-1.0, 1.0, (n, d)),
        ),
        "laplace_vector": (
            lambda d: Channel.laplace_vector(d, 1.0, level, "l2_paper"),
            l2_inputs,
        ),
    }
    for kind, (make, inputs) in vector.items():
        for d in (8, 64):
            x = inputs(COORDS // d, d)
            channel = make(d)
            m[f"mechanisms.{kind}.d{d}.Mcoords_s"] = x.size / 1e6 / _best_s(
                lambda: channel.privatize_batch(x, rng)
            )
    scalar = {
        "truncated_laplace_scalar": (
            Channel.truncated_laplace(MomentAssumption(math.inf), COORDS, level),
            rng.uniform(-1.0, 1.0, COORDS),
        ),
        "sign_rr": (Channel.sign_rr(level), np.where(rng.random(COORDS) < 0.5, 1.0, -1.0)),
        "naive_median": (Channel.naive_median(1.0, level), rng.uniform(-1.0, 1.0, COORDS)),
    }
    for kind, (channel, x) in scalar.items():
        m[f"mechanisms.{kind}.Mrecords_s"] = x.size / 1e6 / _best_s(
            lambda: channel.privatize_batch(x, rng)
        )
    narrow = {
        "sign_rr": (Channel.sign_rr(level), np.where(rng.random(SGD_WIDTH) < 0.5, 1.0, -1.0)),
        "l2_ball": (Channel.l2_ball(8, 1.0, level), l2_inputs(SGD_WIDTH, 8)),
        "laplace_vector": (
            Channel.laplace_vector(8, 1.0, level, "l2_paper"),
            l2_inputs(SGD_WIDTH, 8),
        ),
    }
    for kind, (channel, x) in narrow.items():
        m[f"mechanisms.{kind}.b20_us"] = 1e6 / SMALL_CALLS * _best_s(
            _calls(channel.privatize_batch, x, rng)
        )

    t = rng.random(COORDS // 16)
    m["estimators.trig_basis_Mentries_s"] = COORDS / 1e6 / _best_s(
        lambda: trig_basis_matrix(16, t)
    )
    steps = 2048
    salaries = rng.lognormal(10.0, 1.2, size=(SGD_WIDTH, steps))
    m["estimators.median_sgd_steps_s"] = salaries.size / _best_s(
        lambda: experiments._median_sgd_paths(
            salaries, 2.0 * math.exp(10.0), level, rng, (steps,), True
        )
    )
    xs = np.where(rng.random((SGD_WIDTH, steps, 8)) < 0.5, 1.0, -1.0)
    ys = np.where(rng.random((SGD_WIDTH, steps)) < 0.5, 1.0, -1.0)
    m["estimators.logistic_sgd_steps_s"] = ys.size / _best_s(
        lambda: experiments._logistic_sgd_paths(
            xs, ys, "l2", math.sqrt(8), level, 1.0, 0.6, 5.0, "optimal", rng, (steps,)
        )
    )

    d = 6
    grid = np.array(np.meshgrid(*([[-1.0, 0.0, 1.0]] * d))).reshape(d, -1).T
    cube = Channel.linf_ball(d, 1.0, level)
    m["audit.pmf_grid_d6_ms"] = 1e3 * _best_s(lambda: audit.channel_pmf_grid(cube, grid))
    m["audit.verify_dp_d6_ms"] = 1e3 * _best_s(lambda: audit.verify_dp(cube, grid))
    draws = 200_000
    sphere = Channel.l2_ball(3, 1.0, level)
    m["audit.mc_unbias_Mdraws_s"] = draws / 1e6 / _best_s(
        lambda: audit.monte_carlo_unbias(sphere, np.array([0.3, 0.4, 0.0]), draws, rng)
    )
    m["audit.halfspace_quad_ms"] = 1e3 * _best_s(
        lambda: [audit.sphere_halfspace_mean_quadrature(k) for k in range(1, 9)]
    )
    return m
