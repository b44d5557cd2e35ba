"""The three benchmark workloads and the counts each arm must produce.

Every workload runs the arms of named ``privest`` presets unchanged except
for the replicate count, which this file fixes and which sets the length of
one pass.  The workloads stress different layers:

* ``mean-batch`` -- bulk channel kernels on large (n, d) batches, sphere and
  Laplace draws, and prefix-mean aggregation; its (n, d) channel
  temporaries (up to 100000 x 64) set its peak RSS.
* ``sgd-stream`` -- sequential projected-SGD loops that call the channel
  layer with batches only as wide as the replicate count (20), tens of
  thousands of times; per-call overhead shows here and nowhere else.
  Prefix aggregation and basis evaluation do nothing in it.
* ``density-series`` -- trigonometric basis evaluation plus the hypercube
  channel on narrow (k <= 64) feature rows, re-privatized per grid size;
  the non-private arm's 262144 x 64 basis matrix sets its peak RSS.
"""

from dataclasses import replace

from privest.experiments import build_preset

WORKLOADS = {
    "mean-batch": {
        "presets": {"drug-use": 2, "dimension-scaling": 1, "sparse-mean": 10, "mean-rates": 10},
        # span names a traced pass must record at least once
        "required_spans": (
            "generators.sample",
            "mechanisms.linf_ball",
            "mechanisms.l2_ball",
            "mechanisms.laplace_vector",
            "mechanisms.truncated_laplace_scalar",
            "experiments.prefix_means",
        ),
    },
    "sgd-stream": {
        "presets": {"median-salary": 20, "logistic": 20},
        "required_spans": (
            "generators.sample",
            "estimators.median_sgd_paths",
            "estimators.logistic_sgd_paths",
            "mechanisms.sign_rr",
            "mechanisms.naive_median",
            "mechanisms.l2_ball",
            "mechanisms.laplace_vector",
        ),
    },
    "density-series": {
        "presets": {"density-rate": 3},
        "required_spans": (
            "generators.sample",
            "estimators.trig_basis",
            "mechanisms.linf_ball",
        ),
    },
}

# Estimators whose runner privatizes data[:n] afresh for every grid size n.
_PER_GRID_CELL = ("mean_scalar", "density")


def build_specs(workload, seed):
    """The workload's experiment specs at its replicate counts, in run order."""
    specs = []
    for preset, replicates in WORKLOADS[workload]["presets"].items():
        specs.extend(replace(s, replicates=replicates) for s in build_preset(preset, seed=seed))
    return specs


def warmup_specs(specs):
    """One replicate of every arm at a tiny grid, touching the same code paths."""
    return [replace(s, replicates=1, n_grid=(min(s.n_grid[0], 256),)) for s in specs]


def arm_records(spec):
    """Raw records one arm draws: replicates x max(n_grid)."""
    return spec.replicates * max(spec.n_grid)


def expected_privatizations(spec):
    """Channel records one arm must push through ``privatization_count``."""
    if spec.mechanism == "nonprivate":
        return 0
    if spec.estimator in _PER_GRID_CELL:
        return spec.replicates * sum(spec.n_grid)
    return arm_records(spec)


def arm_key(spec):
    return f"{spec.name}/{spec.mechanism}"
