"""Batch experiment runner: declarative specs, deterministic replication, CSV output.

An :class:`ExperimentSpec` names one (estimator, mechanism) arm over a grid
of sample sizes; :func:`run_experiment` produces one :class:`RunRecord` per
(replicate, n) cell, fully determined by the spec and its seed.  Raw data
for replicate r always comes from the stream (seed, 0, r), so different
mechanism arms of the same experiment see identical samples and their error
curves are paired.  Channel randomness comes from per-arm streams.

``wall_ms`` is written as 0.0 unless timing is explicitly requested: the
output contract is byte-identical CSV for identical (spec, seed), and
wall-clock measurements would break it.
"""

import csv
import math
import time
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .core import ConfigError, PrivacyLevel, make_rng
from .estimators import (
    ORTH_BOUND,
    MomentAssumption,
    _logistic_sgd_paths,
    _median_sgd_paths,
    _projection_coeffs,
    _running_means,
    series_bandwidth,
    soft_threshold,
    sparse_mean_threshold,
    trig_basis_matrix,
)
from .generators import make_generator
from .mechanisms import (
    _l2_ball_batch,
    _laplace_vector_batch,
    _linf_ball_batch,
    _naive_median_batch,
    _truncated_laplace_batch,
    truncation_level,
)

CSV_HEADER = "experiment,mechanism,n,eps,replicate,metric_name,value,wall_ms"

_VALID_MECHANISMS = {
    "mean_scalar": ("optimal", "nonprivate"),
    "mean_vector": ("optimal", "laplace_baseline", "nonprivate"),
    "median": ("optimal", "laplace_baseline", "nonprivate"),
    "sparse": ("optimal", "nonprivate"),
    "logistic": ("optimal", "laplace_baseline", "nonprivate"),
    "density": ("optimal", "nonprivate"),
}

_VALID_GENERATORS = {
    "mean_scalar": ("bounded_uniform", "heavy_tail_k", "lognormal"),
    "mean_vector": ("bernoulli_product", "fixed_vector"),
    "median": ("bounded_uniform", "lognormal"),
    "sparse": ("fixed_vector", "bernoulli_product"),
    "logistic": ("logistic_model",),
    "density": ("trig_density",),
}

_DEFAULT_METRIC = {
    "mean_scalar": "l2_error_sq",
    "mean_vector": "linf_error",
    "median": "excess_risk",
    "sparse": "l2_error_sq",
    "logistic": "l2_error_sq",
    "density": "l2_density_error",
}

# assigned stream keys: (seed, 0, rep) data, (seed, 1, j) metadata,
# (seed, 2, arm, ...) channel noise
_ARM_TAG = {"optimal": 1, "laplace_baseline": 2, "nonprivate": 3}


@dataclass(frozen=True)
class RunRecord:
    """One CSV row: the error of one replicate at one sample size."""

    experiment: str
    mechanism: str
    n: int
    eps: float
    replicate: int
    metric_name: str
    value: float
    wall_ms: float = 0.0


@dataclass(frozen=True)
class SummaryRow:
    experiment: str
    mechanism: str
    n: int
    mean: float
    p5: float
    p95: float


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one Monte-Carlo experiment arm."""

    name: str
    estimator: str
    mechanism: str
    eps: float
    n_grid: tuple
    d: int
    replicates: int
    generator: dict
    seed: int = 0
    metric: str = ""
    options: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.estimator not in _VALID_MECHANISMS:
            raise ConfigError(
                f"unknown estimator {self.estimator!r}; valid: {sorted(_VALID_MECHANISMS)}"
            )
        valid = _VALID_MECHANISMS[self.estimator]
        if self.mechanism not in valid:
            raise ConfigError(
                f"mechanism {self.mechanism!r} is incompatible with {self.estimator!r}; "
                f"valid pairs: {[(self.estimator, m) for m in valid]}"
            )
        grid = tuple(int(n) for n in self.n_grid)
        if len(grid) == 0 or any(n < 1 for n in grid) or any(
            b <= a for a, b in zip(grid, grid[1:])
        ):
            raise ConfigError("n_grid must be a non-empty strictly increasing integer sequence")
        object.__setattr__(self, "n_grid", grid)
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if not (self.eps > 0.0):
            raise ConfigError(f"eps must be > 0, got {self.eps!r}")
        gen = make_generator(dict(self.generator))
        if gen.kind not in _VALID_GENERATORS[self.estimator]:
            raise ConfigError(
                f"generator {gen.kind!r} is incompatible with estimator {self.estimator!r}; "
                f"valid: {_VALID_GENERATORS[self.estimator]}"
            )
        gen_dim = getattr(gen, "dim", 1)
        if self.d != gen_dim:
            raise ConfigError(f"d = {self.d} does not match the generator's dimension {gen_dim}")
        if not self.metric:
            object.__setattr__(self, "metric", _DEFAULT_METRIC[self.estimator])
        for text in (self.name, self.mechanism, self.metric):
            if "," in text or "\n" in text:
                raise ConfigError(f"text field {text!r} must not contain commas or newlines")

    def build_generator(self):
        return make_generator(dict(self.generator))

    @property
    def level(self) -> PrivacyLevel:
        return PrivacyLevel(self.eps)


def run_experiment(spec: ExperimentSpec, timing: bool = False) -> list:
    """Execute one experiment arm; deterministic given (spec, seed).

    Returns records ordered by (replicate, n).  ``timing=True`` fills
    ``wall_ms`` with the per-replicate wall time split over grid cells,
    which breaks byte-determinism of the CSV and is therefore opt-in.
    """
    runner = {
        "mean_scalar": _run_mean_scalar,
        "mean_vector": _run_mean_vector,
        "median": _run_median,
        "sparse": _run_sparse,
        "logistic": _run_logistic,
        "density": _run_density,
    }[spec.estimator]
    records = runner(spec, timing)
    return sorted(records, key=lambda r: (r.replicate, r.n))


def _record_eps(spec):
    return math.inf if spec.mechanism == "nonprivate" else spec.eps


def _metric_value(metric, estimate, truth):
    err = np.atleast_1d(np.asarray(estimate, dtype=float) - truth)
    if metric == "linf_error":
        return float(np.max(np.abs(err)))
    if metric == "l2_error_sq":
        return float(np.sum(err**2))
    raise ConfigError(f"unknown metric {metric!r}")


def _emit(spec, rep, values_by_n, elapsed_ms):
    eps = _record_eps(spec)
    per_cell = elapsed_ms / len(spec.n_grid)
    return [
        RunRecord(spec.name, spec.mechanism, n, eps, rep, spec.metric, v, per_cell)
        for n, v in values_by_n
    ]


def _run_mean_scalar(spec, timing):
    gen = spec.build_generator()
    assumption = MomentAssumption(
        k=float(spec.options.get("moment_k", math.inf)),
        radius_k=float(spec.options.get("radius_k", 1.0)),
    )
    level = spec.level
    records = []
    for rep in range(spec.replicates):
        start = time.perf_counter()
        data = gen.sample(max(spec.n_grid), make_rng(spec.seed, 0, rep))
        rng = make_rng(spec.seed, 2, _ARM_TAG[spec.mechanism], rep)
        values = []
        for n in spec.n_grid:
            if spec.mechanism == "nonprivate":
                est = float(np.mean(data[:n]))
            else:
                t_level = truncation_level(assumption, n, level)
                est = float(_truncated_laplace_batch(data[:n], t_level, level, rng).mean())
            values.append((n, _metric_value(spec.metric, est, gen.true_mean)))
        elapsed = (time.perf_counter() - start) * 1e3 if timing else 0.0
        records.extend(_emit(spec, rep, values, elapsed))
    return records


def _prefix_means(z, grid):
    """Mean of the first n rows of z for each n of the increasing grid.

    Each mean equals ``np.cumsum(z, axis=0)[n - 1] / n`` bit for bit, but
    only the grid rows are formed: a running sum is folded through z one
    block at a time (see :func:`_running_means`).  A single column would be
    summed pairwise there, so it takes the cumsum of its n entries.
    """
    z = np.asarray(z, dtype=float)
    if z.ndim == 1 or z.shape[1] == 1:
        csum = np.cumsum(z, axis=0)
        return [(n, csum[n - 1] / n) for n in grid]

    def fill(lo, out):
        out[...] = z[lo : lo + len(out)]

    return _running_means(fill, z.shape[1], grid)


def _run_mean_vector(spec, timing):
    gen = spec.build_generator()
    level = spec.level
    geometry = spec.options.get("geometry", "linf")
    # [0,1]^d data is privatized in the centered ball of radius 1/2, the
    # smallest symmetric ball containing the domain; the estimate adds the
    # center back.  The Laplace baseline keeps the per-coordinate range 1.
    centered = gen.kind == "bernoulli_product"
    center = 0.5 if centered else 0.0
    radius = float(spec.options.get("radius", 0.5 if centered else 1.0))
    truth = gen.true_mean
    records = []
    for rep in range(spec.replicates):
        start = time.perf_counter()
        data = gen.sample(max(spec.n_grid), make_rng(spec.seed, 0, rep))
        rng = make_rng(spec.seed, 2, _ARM_TAG[spec.mechanism], rep)
        if spec.mechanism == "nonprivate":
            z, offset = data, 0.0
        elif spec.mechanism == "laplace_baseline":
            range_bound = float(spec.options.get("laplace_range", 1.0)) if centered else radius
            mode = "l1" if centered else "l2_paper"
            z, offset = _laplace_vector_batch(data, range_bound, level, mode, rng), 0.0
        elif geometry == "linf":
            z, offset = _linf_ball_batch(data - center, radius, level, rng), center
        else:
            z, offset = _l2_ball_batch(data - center, radius, level, rng), center
        values = [
            (n, _metric_value(spec.metric, mean + offset, truth))
            for n, mean in _prefix_means(z, spec.n_grid)
        ]
        elapsed = (time.perf_counter() - start) * 1e3 if timing else 0.0
        records.extend(_emit(spec, rep, values, elapsed))
    return records


def _replicate_chunks(replicates, cells_per_rep, budget=4_000_000):
    size = max(1, int(budget / max(cells_per_rep, 1)))
    return [range(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]


def _run_median(spec, timing):
    gen = spec.build_generator()
    level = spec.level
    one_sided = bool(spec.options.get("one_sided", gen.kind == "lognormal"))
    radius = spec.options.get("radius")
    if radius is None:
        radius = float(spec.options.get("radius_multiplier", 2.0)) * gen.true_median
    radius = float(radius)
    risk_star = float(gen.abs_risk(gen.true_median))
    max_n = max(spec.n_grid)
    records = []
    for chunk in _replicate_chunks(spec.replicates, max_n):
        start = time.perf_counter()
        reps = list(chunk)
        data = np.stack([gen.sample(max_n, make_rng(spec.seed, 0, r)) for r in reps])
        rng = make_rng(spec.seed, 2, _ARM_TAG[spec.mechanism], reps[0])
        if spec.mechanism == "optimal":
            paths = _median_sgd_paths(data, radius, level, rng, spec.n_grid, one_sided)
            estimates = {n: paths[:, j] for j, n in enumerate(spec.n_grid)}
        elif spec.mechanism == "laplace_baseline":
            z = _naive_median_batch(data, radius, level, rng, one_sided)
            estimates = {n: np.median(z[:, :n], axis=1) for n in spec.n_grid}
        else:
            estimates = {n: np.median(data[:, :n], axis=1) for n in spec.n_grid}
        elapsed = (time.perf_counter() - start) * 1e3 / len(reps) if timing else 0.0
        for j, rep in enumerate(reps):
            # the gap is nonnegative by definition of the median; clip float dust
            values = [
                (n, max(0.0, float(gen.abs_risk(estimates[n][j])) - risk_star))
                for n in spec.n_grid
            ]
            records.extend(_emit(spec, rep, values, elapsed))
    return records


def _run_sparse(spec, timing):
    gen = spec.build_generator()
    level = spec.level
    radius = float(spec.options.get("radius", 1.0))
    lam_override = spec.options.get("lam")
    truth = gen.true_mean
    d = truth.size
    records = []
    for rep in range(spec.replicates):
        start = time.perf_counter()
        data = gen.sample(max(spec.n_grid), make_rng(spec.seed, 0, rep))
        rng = make_rng(spec.seed, 2, _ARM_TAG[spec.mechanism], rep)
        if spec.mechanism == "nonprivate":
            z = data
        else:
            z = _linf_ball_batch(data, radius, level, rng)
        values = []
        for n, mean in _prefix_means(z, spec.n_grid):
            if spec.mechanism == "nonprivate":
                est = mean
            else:
                lam = sparse_mean_threshold(d, n, level, radius) if lam_override is None else float(lam_override)
                est = soft_threshold(mean, lam)
            values.append((n, _metric_value(spec.metric, est, truth)))
        elapsed = (time.perf_counter() - start) * 1e3 if timing else 0.0
        records.extend(_emit(spec, rep, values, elapsed))
    return records


def _run_logistic(spec, timing):
    gen = spec.build_generator()
    level = spec.level
    geometry = spec.options.get("geometry", "l2")
    default_radius = math.sqrt(gen.dim) if geometry == "l2" else 1.0
    radius = float(spec.options.get("radius", default_radius))
    gamma0 = float(spec.options.get("gamma0", 1.0))
    beta_exp = float(spec.options.get("beta_exp", 0.6))
    proj_radius = spec.options.get("proj_radius", 5.0)
    proj_radius = None if proj_radius is None else float(proj_radius)
    truth = gen.true_theta
    max_n = max(spec.n_grid)
    records = []
    for chunk in _replicate_chunks(spec.replicates, max_n * gen.dim):
        start = time.perf_counter()
        reps = list(chunk)
        xs, ys = [], []
        for r in reps:
            x, y = gen.sample(max_n, make_rng(spec.seed, 0, r))
            xs.append(x)
            ys.append(y)
        xs, ys = np.stack(xs), np.stack(ys)
        rng = make_rng(spec.seed, 2, _ARM_TAG[spec.mechanism], reps[0])
        paths = _logistic_sgd_paths(
            xs, ys, geometry, radius, level, gamma0, beta_exp, proj_radius,
            spec.mechanism, rng, spec.n_grid,
        )
        elapsed = (time.perf_counter() - start) * 1e3 / len(reps) if timing else 0.0
        for j, rep in enumerate(reps):
            values = [
                (n, _metric_value(spec.metric, paths[j, g], truth))
                for g, n in enumerate(spec.n_grid)
            ]
            records.extend(_emit(spec, rep, values, elapsed))
    return records


def _run_density(spec, timing):
    gen = spec.build_generator()
    level = spec.level
    beta = float(spec.options.get("beta", 1.0))
    quad_nodes = int(spec.options.get("quad_nodes", 2**12))
    t = np.linspace(0.0, 1.0, quad_nodes + 1)
    f_true = gen.density(t)
    if spec.mechanism == "nonprivate":
        # classical projection estimator at the classical bandwidth
        k_for = {n: max(1, round(n ** (1.0 / (2.0 * beta + 1.0)))) for n in spec.n_grid}
    else:
        k_for = {n: series_bandwidth(n, level, beta) for n in spec.n_grid}
    k_max = max(k_for.values())
    basis_quad = trig_basis_matrix(k_max, t)
    records = []
    for rep in range(spec.replicates):
        start = time.perf_counter()
        data = gen.sample(max(spec.n_grid), make_rng(spec.seed, 0, rep))
        rng = make_rng(spec.seed, 2, _ARM_TAG[spec.mechanism], rep)
        if spec.mechanism == "nonprivate":
            # streamed: the N x k_max basis of the data is never formed; the
            # basis is looked up here at call time, as perfbench's tracer expects
            coeffs = _projection_coeffs(data, k_for, trig_basis_matrix)
        else:
            # lower basis orders are column prefixes, so one build serves all n
            basis_data = trig_basis_matrix(k_max, data)
            coeffs = {
                n: _linf_ball_batch(basis_data[:n, :k_for[n]], ORTH_BOUND, level, rng).mean(axis=0)
                for n in spec.n_grid
            }
        values = []
        for n in spec.n_grid:
            k = k_for[n]
            f_hat = 1.0 + basis_quad[:, :k] @ coeffs[n]
            values.append((n, float(np.trapezoid((f_hat - f_true) ** 2, t))))
        elapsed = (time.perf_counter() - start) * 1e3 if timing else 0.0
        records.extend(_emit(spec, rep, values, elapsed))
    return records


# ---------------------------------------------------------------------------
# summaries and CSV


def nearest_rank(values, p: float) -> float:
    """Nearest-rank percentile: the value at 1-based rank ceil(p/100 * N)."""
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = max(1, math.ceil(p / 100.0 * ordered.size))
    return float(ordered[rank - 1])


def summarize(records) -> list:
    """Per-(experiment, mechanism, n) mean and nearest-rank 5th/95th percentiles."""
    groups = {}
    for rec in records:
        groups.setdefault((rec.experiment, rec.mechanism, rec.n), []).append(rec.value)
    rows = []
    for (experiment, mechanism, n), values in sorted(groups.items()):
        if not values:
            warnings.warn(f"empty cell ({experiment}, {mechanism}, n={n}); skipped")
            continue
        rows.append(
            SummaryRow(
                experiment,
                mechanism,
                n,
                float(np.mean(values)),
                nearest_rank(values, 5.0),
                nearest_rank(values, 95.0),
            )
        )
    return rows


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def emit_csv(records, path) -> None:
    """Write records as UTF-8 CSV with LF endings and 17-significant-digit floats."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in records:
            fh.write(
                f"{r.experiment},{r.mechanism},{r.n},{_fmt(r.eps)},{r.replicate},"
                f"{r.metric_name},{_fmt(r.value)},{_fmt(r.wall_ms)}\n"
            )


def parse_csv(path) -> list:
    """Inverse of :func:`emit_csv`; floats round-trip exactly at 17 digits."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if ",".join(header) != CSV_HEADER:
            raise ConfigError(f"unexpected CSV header {header!r}")
        return [
            RunRecord(
                row[0], row[1], int(row[2]), float(row[3]), int(row[4]),
                row[5], float(row[6]), float(row[7]),
            )
            for row in reader
        ]


def emit_summary_csv(rows, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("experiment,mechanism,n,mean,p5,p95\n")
        for r in rows:
            fh.write(
                f"{r.experiment},{r.mechanism},{r.n},{_fmt(r.mean)},{_fmt(r.p5)},{_fmt(r.p95)}\n"
            )


# ---------------------------------------------------------------------------
# presets reproducing the benchmark designs at desk scale


def _dyadic(lo: int, hi: int) -> tuple:
    grid = []
    n = lo
    while n < hi:
        grid.append(n)
        n *= 2
    grid.append(hi)
    return tuple(grid)


def preset_drug_use(full=False, eps=0.5, seed=0) -> list:
    """Proportion estimation at d = 27 with product-Bernoulli admissions data."""
    freqs = make_rng(seed, 1, 0).uniform(0.05, 0.5, size=27)
    gen = {"kind": "bernoulli_product", "freqs": [float(f) for f in freqs]}
    grid = _dyadic(2**10, 600_000 if full else 2**16)
    reps = 100 if full else 20
    return [
        ExperimentSpec(
            "drug_use", "mean_vector", mech, eps, grid, 27, reps, gen, seed,
            options={"geometry": "linf"},
        )
        for mech in ("optimal", "laplace_baseline", "nonprivate")
    ]


def preset_median_salary(full=False, eps=1.0, seed=0) -> list:
    """Median estimation on lognormal salaries over a ladder of radius guesses."""
    gen = {"kind": "lognormal", "mu": 10.0, "sigma": 1.2}
    grid = _dyadic(2**10, 2**17 if full else 2**14)
    reps = 200 if full else 20
    specs = []
    for mult in (1.5, 2.0, 4.0, 8.0, 16.0):
        for mech in ("optimal", "laplace_baseline", "nonprivate"):
            specs.append(
                ExperimentSpec(
                    f"median_salary_r{mult:g}", "median", mech, eps, grid, 1, reps, gen,
                    seed, options={"radius_multiplier": mult, "one_sided": True},
                )
            )
    return specs


def preset_mean_rates(full=False, eps=1.0, seed=0) -> list:
    """Scalar-mean rate experiments for the bounded and k = 2 moment families."""
    grid = _dyadic(2**10, 2**17)
    reps = 200 if full else 50
    specs = []
    for label, gen, options in (
        ("mean_rate_kinf", {"kind": "bounded_uniform", "radius": 1.0},
         {"moment_k": math.inf, "radius_k": 1.0}),
        ("mean_rate_k2", {"kind": "heavy_tail_k", "k": 2.0, "radius_k": 1.0},
         {"moment_k": 2.0, "radius_k": 1.0}),
    ):
        for mech in ("optimal", "nonprivate"):
            specs.append(
                ExperimentSpec(label, "mean_scalar", mech, eps, grid, 1, reps, gen, seed,
                               options=options)
            )
    return specs


def preset_dimension_scaling(full=False, eps=1.0, seed=0) -> list:
    """l2-ball mean estimation MSE at fixed n across d in {4, 16, 64}."""
    reps = 100 if full else 30
    specs = []
    for d in (4, 16, 64):
        theta = [0.5] + [0.0] * (d - 1)
        gen = {"kind": "fixed_vector", "value": theta}
        for mech in ("optimal", "laplace_baseline", "nonprivate"):
            specs.append(
                ExperimentSpec(
                    f"dim_scaling_d{d}", "mean_vector", mech, eps, (100_000,), d, reps,
                    gen, seed, metric="l2_error_sq",
                    options={"geometry": "l2", "radius": 1.0},
                )
            )
    return specs


def preset_density_rate(full=False, eps=1.0, seed=0) -> list:
    """Sobolev beta = 1 density estimation rate experiment."""
    gen = {"kind": "trig_density", "coeffs": [0.5, 0.0, 0.25]}
    grid = _dyadic(2**12, 2**18)
    reps = 100 if full else 20
    return [
        ExperimentSpec("density_rate_beta1", "density", mech, eps, grid, 1, reps, gen,
                       seed, options={"beta": 1.0})
        for mech in ("optimal", "nonprivate")
    ]


def preset_sparse_mean(full=False, eps=1.0, seed=0) -> list:
    """1-sparse mean estimation at d = 32."""
    theta = [1.0] + [0.0] * 31
    gen = {"kind": "fixed_vector", "value": theta}
    grid = (2**14, 100_000) if full else (2**14,)
    reps = 100 if full else 30
    return [
        ExperimentSpec("sparse_mean_d32", "sparse", mech, eps, grid, 32, reps, gen, seed,
                       options={"radius": 1.0})
        for mech in ("optimal", "nonprivate")
    ]


def preset_logistic(full=False, eps=1.0, seed=0) -> list:
    """Private logistic regression on zero-signal corner covariates at d = 8."""
    gen = {"kind": "logistic_model", "theta": [0.0] * 8}
    grid = (10_000,)
    reps = 50 if full else 20
    return [
        ExperimentSpec("logistic_d8", "logistic", mech, eps, grid, 8, reps, gen, seed,
                       options={"geometry": "l2", "proj_radius": 5.0})
        for mech in ("optimal", "laplace_baseline", "nonprivate")
    ]


PRESETS = {
    "drug-use": preset_drug_use,
    "median-salary": preset_median_salary,
    "mean-rates": preset_mean_rates,
    "dimension-scaling": preset_dimension_scaling,
    "density-rate": preset_density_rate,
    "sparse-mean": preset_sparse_mean,
    "logistic": preset_logistic,
}


def build_preset(name: str, full=False, eps=None, seed=None) -> list:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; valid: {sorted(PRESETS)}")
    kwargs = {"full": full}
    if eps is not None:
        kwargs["eps"] = eps
    if seed is not None:
        kwargs["seed"] = seed
    return PRESETS[name](**kwargs)


def spec_from_config(config: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a JSON-style mapping."""
    required = {"name", "estimator", "mechanism", "eps", "n_grid", "d", "replicates", "generator"}
    missing = required - set(config)
    if missing:
        raise ConfigError(f"experiment config missing keys: {sorted(missing)}")
    known = required | {"seed", "metric", "options"}
    extra = set(config) - known
    if extra:
        raise ConfigError(f"unknown experiment config keys: {sorted(extra)}")
    return ExperimentSpec(
        name=str(config["name"]),
        estimator=str(config["estimator"]),
        mechanism=str(config["mechanism"]),
        eps=float(config["eps"]),
        n_grid=tuple(config["n_grid"]),
        d=int(config["d"]),
        replicates=int(config["replicates"]),
        generator=dict(config["generator"]),
        seed=int(config.get("seed", 0)),
        metric=str(config.get("metric", "")),
        options=dict(config.get("options", {})),
    )


def override_specs(specs, eps=None, seed=None) -> list:
    """Apply CLI-style --eps/--seed overrides to a list of specs."""
    out = []
    for spec in specs:
        if eps is not None:
            spec = replace(spec, eps=float(eps))
        if seed is not None:
            spec = replace(spec, seed=int(seed))
        out.append(spec)
    return out
