"""Variance reduction for MCMC ergodic averages.

Control variates are built from the target's score function, then fitted by
minimizing a windowed spectral estimate of the chain's long-run variance (or,
as a baseline, the plain sample variance). The package also ships the three
samplers used in the experiments, analytic target models, and a reproducible
experiment harness with a CLI.
"""

from .chains import (
    SeedKey,
    Trajectory,
    TrajectoryMeta,
    ergodic_average,
    export_csv,
    load_trajectory,
    save_trajectory,
)
from .errors import ConfigError, EsvmError, NumericError, StageError
from .fitting import (
    DesignSet,
    FitResult,
    RbfResponse,
    esvm_objective,
    evm_objective,
    fit,
    fit_quasi_newton,
    solve_linear,
)
from .harness import (
    ExperimentConfig,
    FunctionalSpec,
    VRFReport,
    acf_dump,
    bn_sweep,
    emit_report,
    make_functional,
    run_experiment,
    vrf,
)
from .samplers import (
    AcceptanceStats,
    SamplerConfig,
    sample_chain,
    sample_chains,
)
from .stein import (
    SteinFamily,
    feature_matrix,
    feature_row,
    rbf_gradient,
    rbf_quantile_centers,
    stein_value,
    stein_values,
)
from .targets import (
    Dataset,
    TargetModel,
    ar1_reference,
    banana_target,
    gmm_isolated_target,
    gmm_target,
    ingest_csv,
    logistic_target,
    probit_target,
    synthetic_logistic_dataset,
)
from .variance import (
    LagWindow,
    SpectralVariance,
    default_truncation,
    empirical_variance,
    long_run_covariance,
    quadratic_form_apply,
    sample_autocovariance,
    spectral_variance,
    trapezoid_kernel,
    weight_matrix_oracle,
)

__version__ = "0.1.0"
