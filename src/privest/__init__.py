"""Locally differentially private estimation: channels, estimators, benchmarks."""

from .core import (
    ConfigError,
    DomainError,
    ParameterError,
    PrivacyLevel,
    bernoulli_pi,
    laplace_sample,
    make_rng,
    uniform_sphere,
)
from .mechanisms import (
    Channel,
    MomentAssumption,
    cube_halfspace_mean,
    l2_bound_B,
    linf_bound_B,
    sphere_halfspace_mean,
    truncation_level,
)
from .estimators import (
    DensityEstimate,
    density_estimate,
    logistic_gradient,
    private_logistic_sgd,
    private_mean_scalar,
    private_mean_vector,
    private_median_sgd,
    series_bandwidth,
    soft_threshold,
    sparse_mean,
)
from .bounds import (
    density_rate,
    logistic_lower,
    mean_rate,
    median_rate,
    sparse_mean_lower,
)
from .audit import (
    SlopeFit,
    halfspace_expectation_cube,
    monte_carlo_unbias,
    slope_fit,
    verify_dp,
)
from .experiments import (
    ExperimentSpec,
    RunRecord,
    emit_csv,
    parse_csv,
    run_experiment,
    summarize,
)
from .generators import make_generator

__version__ = "0.1.0"
