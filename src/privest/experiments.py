"""Batch experiment runner: one estimator table, deterministic replication, CSV output.

An :class:`ExperimentSpec` names one (estimator, mechanism) arm over a grid
of sample sizes; :func:`run_experiment` produces one :class:`RunRecord` per
(replicate, n) cell, fully determined by the spec and its seed.  Raw data
for replicate r always comes from the stream (seed, 0, r), so different
mechanism arms of the same experiment see identical samples and their error
curves are paired.  Channel randomness comes from per-arm streams.

:data:`ESTIMATORS` is the one place that knows each estimator: its valid
mechanisms, generators and metrics, its option schema, the arm that turns
samples into estimates and the scorer that turns an estimate into an error.
``bench`` and ``privest estimate`` both go through it.

``wall_ms`` is written as 0.0 unless timing is explicitly requested: the
output contract is byte-identical CSV for identical (spec, seed), and
wall-clock measurements would break it.
"""

import csv
import math
import time
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .core import (
    ConfigError,
    Option,
    PrivacyLevel,
    field_schema,
    make_rng,
    resolve,
    resolve_fields,
)
from .estimators import (
    MomentAssumption,
    _logistic_sgd_paths,
    _median_sgd_paths,
    density_estimate,
    private_mean_scalar,
    private_mean_vector,
    series_bandwidth,
    sparse_mean,
    trig_basis_matrix,
)
from .generators import make_generator
from .mechanisms import (_check_grid, _check_radius, _laplace_vector_batch, _naive_median_batch,
                         _prefix_means)

# Wrap points of perfbench/tracing.py, which checks each name with hasattr: the
# optimal arms now reach these kernels through the library estimators.
from .mechanisms import _l2_ball_batch, _linf_ball_batch, _truncated_laplace_batch  # noqa: F401

CSV_HEADER = "experiment,mechanism,n,eps,replicate,metric_name,value,wall_ms"

# assigned stream keys: (seed, 0, rep) data, (seed, 1, j) metadata,
# (seed, 2, arm, ...) channel noise
_ARM_TAG = {"optimal": 1, "laplace_baseline": 2, "nonprivate": 3}

# trapezoid nodes on [0, 1] for the integrated squared density error
_QUAD_NODES = 2**12


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
class Estimator:
    """One problem family: a channel plus an aggregator.

    ``arm(spec, gen, samples, rng)`` maps each n of the grid to one estimate
    per sample, all drawn from the one noise stream ``rng``.  The arm owns
    ``samples`` and may overwrite them; a sample may also be a read-only
    view (see :class:`~privest.generators.FixedVector`).
    ``scorer(spec, gen)`` returns the function that scores one estimate.
    A ``lockstep`` arm takes a chunk of replicates at a time, any other
    arm a single replicate.
    """

    mechanisms: tuple
    generators: tuple
    metrics: tuple  # the first is the default
    options: dict
    arm: object
    scorer: object
    lockstep: bool = False


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one Monte-Carlo experiment arm.

    Construction resolves every field, the generator and ``options`` (by the
    estimator's schema), so a bad config fails before any arm runs.  ``d`` is
    the generator's dimension and ``level`` the privacy level of ``eps`` (checked
    on every mechanism), or None on ``nonprivate``, which runs each estimator
    with no channel; neither is given.
    """

    name: str
    estimator: str
    mechanism: str
    eps: float
    n_grid: tuple[int, ...]
    replicates: int
    generator: dict
    seed: int = 0
    metric: str = ""
    options: dict = field(default_factory=dict)
    d: int = field(init=False)
    level: PrivacyLevel | None = field(init=False)

    def __post_init__(self):
        resolve_fields(self, "experiment config")
        if self.estimator not in ESTIMATORS:
            raise ConfigError(f"unknown estimator {self.estimator!r}; valid: {sorted(ESTIMATORS)}")
        entry = ESTIMATORS[self.estimator]
        if self.mechanism not in entry.mechanisms:
            raise ConfigError(
                f"mechanism {self.mechanism!r} is incompatible with {self.estimator!r}; "
                f"valid pairs: {[(self.estimator, m) for m in entry.mechanisms]}"
            )
        _check_grid(self.n_grid, math.inf)
        if self.replicates < 1:
            raise ConfigError(f"replicates must be >= 1, got {self.replicates}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        gen = make_generator(self.generator)
        if gen.kind not in entry.generators:
            raise ConfigError(
                f"generator {gen.kind!r} is incompatible with estimator {self.estimator!r}; "
                f"valid: {entry.generators}"
            )
        object.__setattr__(self, "d", gen.dim)
        object.__setattr__(self, "metric", self.metric or entry.metrics[0])
        if self.metric not in entry.metrics:
            raise ConfigError(
                f"metric {self.metric!r} does not apply to {self.estimator!r}; "
                f"valid: {entry.metrics}"
            )
        if "," in self.name or "\n" in self.name:
            raise ConfigError(f"name {self.name!r} must not contain commas or newlines")
        options = resolve(self.options, entry.options, f"{self.estimator} option", gen)
        object.__setattr__(self, "options", options)
        if "radius" in options:
            _check_radius(options["radius"], "options.radius")
        level = PrivacyLevel(self.eps)
        object.__setattr__(self, "level", level if self.mechanism != "nonprivate" else None)

    def build_generator(self):
        return make_generator(dict(self.generator))


def _replicate_chunks(replicates, cells_per_rep, budget=4_000_000):
    size = max(1, int(budget / max(cells_per_rep, 1)))
    return [range(lo, min(lo + size, replicates)) for lo in range(0, replicates, size)]


def run_experiment(spec: ExperimentSpec, timing: bool = False) -> list:
    """Execute one experiment arm; deterministic given (spec, seed).

    Returns records ordered by (replicate, n).  Channel noise comes from
    the stream (seed, 2, arm, r) of each replicate r, or for a lockstep
    estimator from (seed, 2, arm, first replicate of the chunk).
    ``timing=True`` fills ``wall_ms`` with the time a chunk took to sample and
    run its arm, split over its cells, which breaks byte-determinism of the
    CSV and is therefore opt-in.  numpy's floating-point warnings are off
    inside; a metric that is not finite is a :class:`ConfigError` naming its cell.
    """
    entry = ESTIMATORS[spec.estimator]
    gen = spec.build_generator()
    score = entry.scorer(spec, gen)
    eps = math.inf if spec.level is None else spec.eps
    max_n = max(spec.n_grid)
    if entry.lockstep:
        chunks = _replicate_chunks(spec.replicates, max_n * spec.d)
    else:
        chunks = [range(r, r + 1) for r in range(spec.replicates)]
    records = []
    for reps in chunks:
        start = time.perf_counter()
        with np.errstate(all="ignore"):
            samples = [gen.sample(max_n, make_rng(spec.seed, 0, r)) for r in reps]
            rng = make_rng(spec.seed, 2, _ARM_TAG[spec.mechanism], reps[0])
            estimates = entry.arm(spec, gen, samples, rng)
            cells = len(reps) * len(spec.n_grid)
            wall_ms = (time.perf_counter() - start) * 1e3 / cells if timing else 0.0
            values = [(rep, n, score(estimates[n][j])) for j, rep in enumerate(reps)
                      for n in spec.n_grid]
        for rep, n, value in values:
            if not math.isfinite(value):
                raise ConfigError(f"arm {spec.name}/{spec.mechanism} at n = {n}, eps = {eps!r}: "
                                  f"the {spec.metric} is {value!r}, not a finite float")
        records.extend(RunRecord(spec.name, spec.mechanism, n, eps, rep, spec.metric, value,
                                 wall_ms) for rep, n, value in values)
        # released before the next chunk is drawn, so only one chunk's data is held
        del samples, estimates
    return records


# ---------------------------------------------------------------------------
# the estimator table: arms call the library estimators with the spec's level.
# Arms and estimators look kernels, engines and aggregation helpers up as module
# globals when they run, which is where perfbench's tracer replaces them


def _metric_value(metric, estimate, truth):
    err = np.atleast_1d(np.asarray(estimate, dtype=float) - truth)
    if metric == "linf_error":
        return float(np.max(np.abs(err)))
    return float(np.sum(err**2))


def _error_scorer(truth):
    """Scorer of the spec's metric against the generator attribute ``truth``."""
    return lambda spec, gen: partial(_metric_value, spec.metric, truth=getattr(gen, truth))


def _mean_scalar_arm(spec, gen, samples, rng):
    (data,) = samples
    # built on every mechanism, so each rejects a bad moment assumption
    assumption = MomentAssumption(k=spec.options["moment_k"], radius_k=spec.options["radius_k"])
    return {n: [private_mean_scalar(data[:n], assumption, spec.level, rng)] for n in spec.n_grid}


def _centered(gen):
    # [0,1]^d data is privatized in the centered ball of radius 1/2, the
    # smallest symmetric ball containing the domain; the estimate adds the
    # center back.  The Laplace baseline keeps the per-coordinate range 1.
    return gen.kind == "bernoulli_product"


def _mean_vector_arm(spec, gen, samples, rng):
    (data,) = samples
    radius, level, grid = spec.options["radius"], spec.level, spec.n_grid
    if level is None:
        # private_mean_vector's sum, called here for the tracer's prefix-means span
        return {n: [mean] for n, mean in _prefix_means(data, grid)}
    if spec.mechanism == "laplace_baseline":
        range_bound, mode = (1.0, "l1") if _centered(gen) else (radius, "l2_paper")
        means = _laplace_vector_batch(data, range_bound, level, mode, rng, grid=grid)
        return {n: [mean] for n, mean in zip(grid, means)}
    center = 0.5 if _centered(gen) else 0.0
    if center:
        data -= center  # in place: the arm owns its sample
    means = private_mean_vector(data, spec.options["geometry"], radius, level, rng, grid=grid)
    return {n: [mean + center] for n, mean in zip(grid, means)}


def _median_arm(spec, gen, samples, rng):
    data = np.stack(samples)
    radius, one_sided = spec.options["radius"], spec.options["one_sided"]
    if spec.mechanism == "optimal":
        paths = _median_sgd_paths(data, radius, spec.level, rng, spec.n_grid, one_sided)
        return {n: paths[:, j] for j, n in enumerate(spec.n_grid)}
    if spec.mechanism == "laplace_baseline":
        data = _naive_median_batch(data, radius, spec.level, rng, one_sided)
    return {n: np.median(data[:, :n], axis=1) for n in spec.n_grid}


def _median_scorer(spec, gen):
    risk_star = float(gen.abs_risk(gen.true_median))
    # the gap is nonnegative by definition of the median; clip float dust
    return lambda estimate: max(0.0, float(gen.abs_risk(estimate)) - risk_star)


def _sparse_arm(spec, gen, samples, rng):
    (data,) = samples
    opts = spec.options
    means = sparse_mean(data, opts["radius"], spec.level, rng, opts["lam"], grid=spec.n_grid)
    return {n: [mean] for n, mean in zip(spec.n_grid, means)}


def _logistic_arm(spec, gen, samples, rng):
    xs, ys = (np.stack(column) for column in zip(*samples))
    opts = spec.options
    paths = _logistic_sgd_paths(
        xs, ys, opts["geometry"], opts["radius"], spec.level, opts["gamma0"], opts["beta_exp"],
        opts["proj_radius"], spec.mechanism, rng, spec.n_grid,
    )
    return {n: paths[:, g] for g, n in enumerate(spec.n_grid)}


def _density_arm(spec, gen, samples, rng):
    (data,) = samples
    estimates = density_estimate(data, spec.options["beta"], spec.level, rng, grid=spec.n_grid)
    return {n: [estimate.coeffs] for n, estimate in zip(spec.n_grid, estimates)}


def _density_scorer(spec, gen):
    t = np.linspace(0.0, 1.0, _QUAD_NODES + 1)
    f_true = gen.density(t)
    beta = spec.options["beta"]  # the order is nondecreasing in n
    basis = trig_basis_matrix(series_bandwidth(spec.n_grid[-1], spec.level, beta), t)
    return lambda coeffs: float(
        np.trapezoid((1.0 + basis[:, : coeffs.size] @ coeffs - f_true) ** 2, t)
    )


_ALL_MECHANISMS = ("optimal", "laplace_baseline", "nonprivate")

ESTIMATORS = {
    "mean_scalar": Estimator(
        mechanisms=("optimal", "nonprivate"),
        generators=("bounded_uniform", "heavy_tail_k", "lognormal"),
        metrics=("l2_error_sq", "linf_error"),
        options={"moment_k": Option(float, math.inf), "radius_k": Option(float, 1.0)},
        arm=_mean_scalar_arm, scorer=_error_scorer("true_mean"),
    ),
    "mean_vector": Estimator(
        mechanisms=_ALL_MECHANISMS, generators=("bernoulli_product", "fixed_vector"),
        metrics=("linf_error", "l2_error_sq"),
        options={
            "geometry": Option(str, "linf", ("linf", "l2")),
            "radius": Option(float, lambda gen, opts: 0.5 if _centered(gen) else 1.0),
        },
        arm=_mean_vector_arm, scorer=_error_scorer("true_mean"),
    ),
    "median": Estimator(
        mechanisms=_ALL_MECHANISMS, generators=("bounded_uniform", "lognormal"),
        metrics=("excess_risk",),
        options={
            "one_sided": Option(bool, lambda gen, opts: gen.kind == "lognormal"),
            "radius": Option(float, lambda gen, opts: 2.0 * gen.true_median),
        },
        arm=_median_arm, scorer=_median_scorer, lockstep=True,
    ),
    "sparse": Estimator(
        mechanisms=("optimal", "nonprivate"), generators=("fixed_vector", "bernoulli_product"),
        metrics=("l2_error_sq", "linf_error"),
        options={"radius": Option(float, 1.0), "lam": Option(float, None, nullable=True)},
        arm=_sparse_arm, scorer=_error_scorer("true_mean"),
    ),
    "logistic": Estimator(
        mechanisms=_ALL_MECHANISMS, generators=("logistic_model",),
        metrics=("l2_error_sq", "linf_error"),
        options={
            "geometry": Option(str, "l2", ("l2", "linf")),
            "radius": Option(
                float, lambda gen, opts: math.sqrt(gen.dim) if opts["geometry"] == "l2" else 1.0
            ),
            "gamma0": Option(float, 1.0),
            "beta_exp": Option(float, 0.6),
            "proj_radius": Option(float, 5.0, nullable=True),
        },
        arm=_logistic_arm, scorer=_error_scorer("true_theta"), lockstep=True,
    ),
    "density": Estimator(
        mechanisms=("optimal", "nonprivate"), generators=("trig_density",),
        metrics=("l2_density_error",), options={"beta": Option(float, 1.0)},
        arm=_density_arm, scorer=_density_scorer,
    ),
}


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


def _arms(name, estimator, eps, grid, reps, gen, seed, **fields) -> list:
    """One spec per mechanism of ``estimator``, in the table's order, all on the same data."""
    return [
        ExperimentSpec(name, estimator, mech, eps, grid, reps, gen, seed, **fields)
        for mech in ESTIMATORS[estimator].mechanisms
    ]


def preset_drug_use(full=False, eps=0.5, seed=0) -> list:
    """Proportion estimation at d = 27 with product-Bernoulli admissions data."""
    freqs = make_rng(seed, 1, 0).uniform(0.05, 0.5, size=27)
    gen = {"kind": "bernoulli_product", "freqs": [float(f) for f in freqs]}
    grid = _dyadic(2**10, 600_000 if full else 2**16)
    reps = 100 if full else 20
    return _arms("drug_use", "mean_vector", eps, grid, reps, gen, seed,
                 options={"geometry": "linf"})


def preset_median_salary(full=False, eps=1.0, seed=0) -> list:
    """Median estimation on lognormal salaries over a ladder of radius guesses."""
    gen = {"kind": "lognormal", "mu": 10.0, "sigma": 1.2}
    grid = _dyadic(2**10, 2**17 if full else 2**14)
    reps = 200 if full else 20
    specs = []
    for mult in (1.5, 2.0, 4.0, 8.0, 16.0):
        # each guess is a multiple of the true median e^mu
        specs.extend(_arms(f"median_salary_r{mult:g}", "median", eps, grid, reps, gen, seed,
                           options={"radius": mult * math.exp(gen["mu"]), "one_sided": True}))
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
        specs.extend(_arms(label, "mean_scalar", eps, grid, reps, gen, seed, options=options))
    return specs


def preset_dimension_scaling(full=False, eps=1.0, seed=0) -> list:
    """l2-ball mean estimation MSE at fixed n across d in {4, 16, 64}."""
    reps = 100 if full else 30
    specs = []
    for d in (4, 16, 64):
        theta = [0.5] + [0.0] * (d - 1)
        gen = {"kind": "fixed_vector", "value": theta}
        specs.extend(_arms(f"dim_scaling_d{d}", "mean_vector", eps, (100_000,), reps, gen, seed,
                           metric="l2_error_sq", options={"geometry": "l2", "radius": 1.0}))
    return specs


def preset_density_rate(full=False, eps=1.0, seed=0) -> list:
    """Sobolev beta = 1 density estimation rate experiment."""
    gen = {"kind": "trig_density", "coeffs": [0.5, 0.0, 0.25]}
    grid = _dyadic(2**12, 2**18)
    reps = 100 if full else 20
    return _arms("density_rate_beta1", "density", eps, grid, reps, gen, seed,
                 options={"beta": 1.0})


def preset_sparse_mean(full=False, eps=1.0, seed=0) -> list:
    """1-sparse mean estimation at d = 32."""
    theta = [1.0] + [0.0] * 31
    gen = {"kind": "fixed_vector", "value": theta}
    grid = (2**14, 100_000) if full else (2**14,)
    reps = 100 if full else 30
    return _arms("sparse_mean_d32", "sparse", eps, grid, reps, gen, seed, options={"radius": 1.0})


def preset_logistic(full=False, eps=1.0, seed=0) -> list:
    """Private logistic regression on zero-signal corner covariates at d = 8."""
    gen = {"kind": "logistic_model", "theta": [0.0] * 8}
    grid = (10_000,)
    reps = 50 if full else 20
    return _arms("logistic_d8", "logistic", eps, grid, reps, gen, seed,
                 options={"geometry": "l2", "proj_radius": 5.0})


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
    return PRESETS[name](full=full, **_given(eps=eps, seed=seed))


def spec_from_config(config: dict) -> ExperimentSpec:
    """Build an ExperimentSpec from a JSON-style mapping."""
    return ExperimentSpec(**resolve(config, field_schema(ExperimentSpec), "experiment config"))


def override_specs(specs, eps=None, seed=None) -> list:
    """Apply CLI-style --eps/--seed overrides to a list of specs."""
    return [replace(spec, **_given(eps=eps, seed=seed)) for spec in specs]


def _given(**overrides):
    return {key: value for key, value in overrides.items() if value is not None}
