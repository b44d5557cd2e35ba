"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Every tolerance is pinned here, not calibrated at runtime.  Criteria 9 and
10 are known-red and asserted as written: the sparse-mean factor-4 window
is out of reach because the hypercube channel's per-coordinate deviation
already costs ~2.3x the target on the spike before any shrinkage bias (no
threshold does better than ~10x), and the 20x lower-bound cap for logistic
SGD is out of reach because the privatized gradient's second moment exceeds
the raw gradient's by a factor of order phi^2 d, putting the Polyak-average
MSE hundreds of times over the cap at every sample size.  The failure
messages carry the measured values.
"""

import math
import time

import numpy as np
import pytest

from privest.audit import (
    channel_pmf_grid,
    halfspace_expectation_cube,
    slope_fit,
    sphere_halfspace_mean_quadrature,
    verify_dp,
)
from privest.core import PrivacyLevel, make_rng
from privest.estimators import (
    _median_sgd_paths,
    logistic_gradient,
    soft_threshold,
)
from privest.experiments import ExperimentSpec, run_experiment, summarize
from privest.mechanisms import (
    Channel,
    MomentAssumption,
    _l2_ball_batch,
    cube_halfspace_mean,
    cube_vertices,
    sphere_halfspace_mean,
    truncation_level,
)

SEED = 20260808


def _report(number, name, ok, detail, start, budget_s):
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= budget_s
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} "
          f"({detail}) [{elapsed:.1f}s, budget {budget_s:.0f}s]")
    return ok


def _axis_grid(d, radius=1.0):
    axes = [np.array([-radius, 0.0, radius])] * d
    return np.array(np.meshgrid(*axes)).reshape(d, -1).T


def _mean_by_n(records):
    acc = {}
    for r in records:
        acc.setdefault(r.n, []).append(r.value)
    return {n: float(np.mean(v)) for n, v in acc.items()}


def test_criterion_01_unbiasedness():
    start = time.perf_counter()
    level = PrivacyLevel(1.0)
    worst_enum = 0.0
    for d in range(1, 9):
        channel = Channel.linf_ball(d, 1.0, level)
        grid = _axis_grid(d)
        support, probs = channel_pmf_grid(channel, grid)
        worst_enum = max(worst_enum, float(np.max(np.abs(probs @ support - grid))))
    enum_ok = worst_enum <= 1e-9

    mc_ok = True
    draws_per_point = 1_000_000
    for d in range(1, 9):
        points = [np.zeros(d), np.eye(d)[0], np.full(d, 1.0 / math.sqrt(d))]
        if d >= 2:
            mixed = np.zeros(d)
            mixed[0], mixed[1] = 0.3, 0.4
            points.append(mixed)
        else:
            points.append(np.array([-0.5]))
        for j, x in enumerate(points):
            z = _l2_ball_batch(
                np.broadcast_to(x, (draws_per_point, d)).copy(), 1.0, level,
                make_rng(SEED, 4, d, j),
            )
            stderr = z.std(axis=0, ddof=1) / math.sqrt(draws_per_point)
            mc_ok = mc_ok and bool(np.all(np.abs(z.mean(axis=0) - x) <= 5.0 * stderr))
    ok = _report(
        1, "unbiasedness (linf enumeration + l2 Monte Carlo)", enum_ok and mc_ok,
        f"max enum deviation {worst_enum:.2e}; l2 MC 5-stderr at 1e6 draws "
        f"{'all pass' if mc_ok else 'FAILED'}", start, 60,
    )
    assert ok


def test_criterion_02_constants():
    start = time.perf_counter()
    worst_cube = 0.0
    for d in range(1, 11):
        factor = cube_halfspace_mean(d)
        for vertex in cube_vertices(d):
            dev = np.max(np.abs(halfspace_expectation_cube(vertex) - factor * vertex))
            worst_cube = max(worst_cube, float(dev))
    worst_sphere = max(
        abs(sphere_halfspace_mean_quadrature(d) - sphere_halfspace_mean(d))
        for d in range(1, 9)
    )
    ok = _report(
        2, "bound constants vs enumeration/quadrature",
        worst_cube <= 1e-9 and worst_sphere <= 1e-8,
        f"C_d dev {worst_cube:.2e} (d<=10), c_d dev {worst_sphere:.2e} (d<=8)", start, 10,
    )
    assert ok


def test_criterion_03_privacy():
    start = time.perf_counter()
    level = PrivacyLevel(1.0)
    sign_ratio = verify_dp(Channel.sign_rr(level), np.array([[-1.0], [1.0]]))
    sign_ok = abs(sign_ratio - level.epsilon) <= 1e-9
    worst = 0.0
    for d in range(1, 9):
        ratio = verify_dp(Channel.linf_ball(d, 1.0, level), _axis_grid(d))
        worst = max(worst, ratio - level.epsilon)
    linf_ok = worst <= 1e-9

    rng = make_rng(SEED, 5)
    t_level = truncation_level(MomentAssumption(k=2.0), 1000, level)
    kappa = level.epsilon / (2.0 * t_level)
    trunc_ok = True
    for _ in range(1000):
        x, xp = rng.uniform(-50, 50, size=2)
        z = rng.uniform(-3 * t_level, 3 * t_level)
        log_ratio = kappa * (
            abs(z - np.clip(xp, -t_level, t_level)) - abs(z - np.clip(x, -t_level, t_level))
        )
        trunc_ok = trunc_ok and log_ratio <= level.epsilon + 1e-9
    ok = _report(
        3, "privacy certification", sign_ok and linf_ok and trunc_ok,
        f"sign ratio - eps = {sign_ratio - level.epsilon:.2e}; "
        f"max linf excess {worst:.2e}; truncated-Laplace spot checks "
        f"{'pass' if trunc_ok else 'FAIL'}", start, 30,
    )
    assert ok


def test_criterion_04_mean_rate_exponents():
    start = time.perf_counter()
    grid = tuple(2**j for j in range(10, 18))
    slopes = {}
    for label, gen, k in (
        ("kinf", {"kind": "bounded_uniform", "radius": 1.0}, math.inf),
        ("k2", {"kind": "heavy_tail_k", "k": 2.0, "radius_k": 1.0}, 2.0),
    ):
        spec = ExperimentSpec(
            f"c4_{label}", "mean_scalar", "optimal", 1.0, grid, 1, 200, gen, SEED,
            options={"moment_k": k, "radius_k": 1.0},
        )
        means = _mean_by_n(run_experiment(spec))
        slopes[label] = slope_fit(sorted(means.items())).slope
    ok = _report(
        4, "scalar mean rate exponents",
        abs(slopes["kinf"] + 1.0) <= 0.15 and abs(slopes["k2"] + 0.5) <= 0.15,
        f"k=inf slope {slopes['kinf']:.3f} (want -1.0 +/- 0.15); "
        f"k=2 slope {slopes['k2']:.3f} (want -0.5 +/- 0.15)", start, 300,
    )
    assert ok


def test_criterion_05_median_guarantee():
    start = time.perf_counter()
    reps, radius = 200, 1.0
    grid = (1000, 10_000, 100_000)
    failures = []
    for eps in (0.5, 1.0):
        level = PrivacyLevel(eps)
        data = make_rng(SEED, 6, int(eps * 10)).uniform(-1.0, 1.0, size=(reps, grid[-1]))
        paths = _median_sgd_paths(data, radius, level, make_rng(SEED, 7, int(eps * 10)), grid)
        for j, n in enumerate(grid):
            excess = float(np.mean(paths[:, j] ** 2) / (2.0 * radius))
            bound = 6.0 * radius / math.sqrt(n * eps * eps)
            if excess > bound:
                failures.append((eps, n, excess, bound))
    ok = _report(
        5, "median SGD excess-risk bound 6r/sqrt(n eps^2)", not failures,
        "all (n, eps) cells under the bound" if not failures else f"violations: {failures}",
        start, 180,
    )
    assert ok


def test_criterion_06_mechanism_ordering():
    start = time.perf_counter()
    freqs = make_rng(SEED, 1, 0).uniform(0.05, 0.5, size=27)
    gen = {"kind": "bernoulli_product", "freqs": [float(f) for f in freqs]}
    grid = (16_384, 32_768, 65_536, 100_000, 131_072)
    means = {}
    for mech in ("optimal", "laplace_baseline", "nonprivate"):
        spec = ExperimentSpec(
            "c6_drug_use", "mean_vector", mech, 0.5, grid, 27, 50, gen, SEED,
            options={"geometry": "linf"},
        )
        means[mech] = _mean_by_n(run_experiment(spec))
    below = all(means["optimal"][n] < means["laplace_baseline"][n] for n in grid)
    sane = all(
        means["nonprivate"][n] <= min(means["optimal"][n], means["laplace_baseline"][n])
        for n in grid
    )
    ratio = means["laplace_baseline"][100_000] / means["optimal"][100_000]
    ok = _report(
        6, "drug-use analog: optimal below Laplace baseline",
        below and sane and ratio >= 3.0,
        f"baseline/optimal mean linf-error ratio at n=1e5: {ratio:.2f} (need >= 3); "
        f"ordering for all n >= 1e4: {below}; nonprivate below both: {sane}", start, 300,
    )
    assert ok


def test_criterion_07_dimension_scaling():
    start = time.perf_counter()
    mse = {"optimal": {}, "laplace_baseline": {}}
    for d in (4, 16, 64):
        theta = [0.5] + [0.0] * (d - 1)
        gen = {"kind": "fixed_vector", "value": theta}
        for mech in mse:
            spec = ExperimentSpec(
                f"c7_d{d}", "mean_vector", mech, 1.0, (100_000,), d, 40, gen, SEED,
                metric="l2_error_sq", options={"geometry": "l2", "radius": 1.0},
            )
            mse[mech][d] = _mean_by_n(run_experiment(spec))[100_000]
    opt_ratio = mse["optimal"][64] / mse["optimal"][4]
    lap_ratio = mse["laplace_baseline"][64] / mse["laplace_baseline"][4]
    per_d = [mse["optimal"][d] / d for d in (4, 16, 64)]
    linear = max(per_d) / min(per_d)  # MSE grows linearly in d within factor 1.5
    ok = _report(
        7, "l2 mean MSE dimension scaling (d vs d^2)",
        8.0 <= opt_ratio <= 32.0 and 64.0 <= lap_ratio <= 1024.0 and linear <= 1.5,
        f"optimal 64/4 MSE ratio {opt_ratio:.1f} (want [8, 32]); "
        f"Laplace ratio {lap_ratio:.1f} (want [64, 1024]); "
        f"optimal MSE/d spread {linear:.2f} (want <= 1.5)", start, 300,
    )
    assert ok


def test_criterion_08_density_rate():
    start = time.perf_counter()
    spec = ExperimentSpec(
        "c8_density", "density", "optimal", 1.0, tuple(2**j for j in range(12, 19)),
        1, 100, {"kind": "trig_density", "coeffs": [0.5, 0.0, 0.25]}, SEED,
        options={"beta": 1.0},
    )
    means = _mean_by_n(run_experiment(spec))
    slope = slope_fit(sorted(means.items())).slope
    ok = _report(
        8, "density estimation rate (beta = 1)", abs(slope + 0.5) <= 0.15,
        f"L2-error log-log slope {slope:.3f} (want -0.5 +/- 0.15)", start, 300,
    )
    assert ok


def test_criterion_09_sparse_mean():
    start = time.perf_counter()
    # prox-oracle half: soft_threshold against independent ternary search
    rng = make_rng(SEED, 8)
    prox_ok = True
    for _ in range(1000):
        v, lam = rng.uniform(-3, 3), rng.uniform(0, 2)
        lo, hi = v - lam - 1.0, v + lam + 1.0
        for _ in range(200):
            m1, m2 = lo + (hi - lo) / 3.0, hi - (hi - lo) / 3.0
            if 0.5 * (m1 - v) ** 2 + lam * abs(m1) < 0.5 * (m2 - v) ** 2 + lam * abs(m2):
                hi = m2
            else:
                lo = m1
        prox_ok = prox_ok and abs(soft_threshold(np.array([v]), lam)[0] - 0.5 * (lo + hi)) <= 1e-6

    d, n = 32, 100_000
    theta = [1.0] + [0.0] * (d - 1)
    spec = ExperimentSpec(
        "c9_sparse", "sparse", "optimal", 1.0, (n,), d, 100,
        {"kind": "fixed_vector", "value": theta}, SEED, options={"radius": 1.0},
    )
    errors = [r.value for r in run_experiment(spec)]
    median_err = float(np.median(errors))
    target = d * math.log(2 * d) / n
    in_window = target / 4.0 <= median_err <= 4.0 * target
    ok = _report(
        9, "sparse mean error within factor 4 of d log(2d)/(n eps^2)",
        prox_ok and in_window,
        f"prox oracle {'pass' if prox_ok else 'FAIL'}; median l2^2 error "
        f"{median_err:.3e} vs target {target:.3e} (ratio {median_err / target:.1f}, "
        f"needs [0.25, 4])", start, 120,
    )
    assert ok, (
        f"median error {median_err:.3e} is {median_err / target:.1f}x the target "
        f"{target:.3e}; the factor-4 window is unattainable for the soft-threshold "
        f"estimator here (see decisions ledger: no lambda achieves better than ~10x)"
    )


def test_criterion_10_logistic_sanity():
    start = time.perf_counter()
    # (a) gradient vs central finite differences, 1e3 points at 1e-6 relative
    rng = make_rng(SEED, 9)
    fd_ok = True
    h = 1e-6
    for _ in range(1000):
        dim = int(rng.integers(1, 6))
        theta, x = rng.uniform(-2, 2, size=dim), rng.uniform(-2, 2, size=dim)
        y = 1.0 if rng.random() < 0.5 else -1.0
        grad = logistic_gradient(theta, x, y)
        for j in range(dim):
            e = np.zeros(dim)
            e[j] = h
            fd = (
                math.log1p(math.exp(-y * float((theta + e) @ x)))
                - math.log1p(math.exp(-y * float((theta - e) @ x)))
            ) / (2.0 * h)
            fd_ok = fd_ok and abs(grad[j] - fd) <= 1e-6 * max(1.0, abs(fd))

    d, n, reps = 8, 10_000, 40
    gen = {"kind": "logistic_model", "theta": [0.5] * d}
    truth_norm_sq = 0.25 * d

    def run(mechanism, eps):
        spec = ExperimentSpec(
            "c10_logistic", "logistic", mechanism, eps, (n,), d, reps, gen, SEED,
            options={"geometry": "l2", "proj_radius": 5.0},
        )
        return _mean_by_n(run_experiment(spec))[n]

    mse_nonprivate = run("nonprivate", 1.0)
    # (b) vanishing-noise limit: additive-Laplace gradients at eps = 1e6
    # reproduce the non-private run (same per-replicate data streams)
    mse_laplace_huge_eps = run("laplace_baseline", 1e6)
    ratio_huge = mse_laplace_huge_eps / mse_nonprivate
    huge_ok = ratio_huge <= 1.2
    # (c) optimal channel at eps = 1 against the minimax reference
    mse_private = run("optimal", 1.0)
    from privest.bounds import logistic_lower

    cap = 20.0 * logistic_lower(d, n, 1.0)
    bracket_ok = mse_nonprivate <= mse_private <= cap
    ok = _report(
        10, "logistic SGD sanity", fd_ok and huge_ok and bracket_ok,
        f"finite-diff {'pass' if fd_ok else 'FAIL'}; eps=1e6 MSE ratio "
        f"{ratio_huge:.3f} (need <= 1.2); eps=1 private MSE {mse_private:.3e} vs "
        f"[nonprivate {mse_nonprivate:.3e}, 20x lower bound {cap:.3e}] "
        f"(||theta*||^2 = {truth_norm_sq})", start, 180,
    )
    assert ok, (
        f"private MSE {mse_private:.3e} exceeds 20x the lower-bound reference "
        f"{cap:.3e} by {mse_private / cap:.0f}x; the 20x cap is unattainable for "
        f"the halfspace gradient channel (see decisions ledger)"
    )


def test_criterion_11_determinism(tmp_path):
    start = time.perf_counter()
    from privest.cli import main

    out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["bench", "--preset", "sparse-mean", "--seed", "17", "--out", str(out_a)]) == 0
    assert main(["bench", "--preset", "sparse-mean", "--seed", "17", "--out", str(out_b)]) == 0
    identical = out_a.read_bytes() == out_b.read_bytes()
    ok = _report(
        11, "byte-identical CSV for identical seed", identical,
        f"{out_a.stat().st_size} bytes compared", start, 60,
    )
    assert ok
