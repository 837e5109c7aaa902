"""Population-size estimation from dual-record (two-list) count data.

Two overlapping enumeration attempts of one closed population yield a 2x2
table with a structurally missing cell (individuals missed by both lists).
This package estimates the population size N from the three observed cells,
under the classical independence model and under a behavioral-response model
in which a first capture changes the second-capture probability by a factor
phi. It provides:

- table and parameter types with validation (:mod:`dualrec.tables`),
- log-likelihood kernels in N: profile, modified-profile, and
  adjusted-profile variants (:mod:`dualrec.kernels`),
- point estimators, including the dual-system estimator, exact integer
  maximizers of the profile and modified-profile kernels, and the
  adjusted-profile estimator whose adjustment coefficient delta < 1 restores
  a finite maximum under the behavioral model (:mod:`dualrec.estimators`),
- moment approximations quantifying the dual-system estimator's bias when
  behavior matters (:mod:`dualrec.estimators`),
- a deterministic Monte Carlo harness for sampling-distribution studies,
  size-scaling experiments, coverage bands, and behavioral-effect sweeps
  (:mod:`dualrec.simulate`),
- a CLI (``dualrec``) for single-table estimation, configured studies, and
  regeneration of the bundled study tables and figure datasets.
"""

from .estimators import (
    BootstrapResult,
    DeltaPolicy,
    EstimateReport,
    EstimatorSpec,
    bias_dse_under_mtb,
    dse,
    mle_adpl_mt,
    mle_adpl_mtb,
    mle_mpl_mt,
    mle_profile_mt,
    mle_profile_mtb,
    parametric_bootstrap,
    parse_estimator,
    ratio_moment_approx,
    recover_nuisance,
    var_dse_under_mtb,
)
from .kernels import (
    log_adpl_mt,
    log_adpl_mtb,
    log_mpl_mt,
    log_mpl_mtb,
    log_profile_mt,
    log_profile_mtb,
    loglik_mt_full,
    loglik_mtb_full,
)
from .randomness import DEFAULT_SEED
from .simulate import (
    PopulationSpec,
    SCALING_SITUATIONS,
    StudyConfig,
    StudySummary,
    SWEEP_SITUATIONS,
    TABLE2_POPULATIONS,
    coverage_bands,
    robustness_sweep,
    run_study,
    se_scaling_study,
    summaries_to_csv,
)
from .tables import (
    CellProbabilities,
    DomainError,
    DrsError,
    DualRecordTable,
    EstimationError,
    FeasibilityError,
    MtParams,
    MtbParams,
    NoFiniteMaximumError,
    UndefinedEstimateError,
    ValidationError,
    cell_probs_mt,
    cell_probs_mtb,
    expected_distinct,
    p_from_marginals,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # tables
    "DualRecordTable",
    "MtParams",
    "MtbParams",
    "CellProbabilities",
    "cell_probs_mt",
    "cell_probs_mtb",
    "p_from_marginals",
    "expected_distinct",
    "DrsError",
    "ValidationError",
    "FeasibilityError",
    "DomainError",
    "EstimationError",
    "UndefinedEstimateError",
    "NoFiniteMaximumError",
    # kernels
    "log_profile_mt",
    "log_profile_mtb",
    "log_mpl_mt",
    "log_mpl_mtb",
    "log_adpl_mt",
    "log_adpl_mtb",
    "loglik_mt_full",
    "loglik_mtb_full",
    # estimators
    "EstimateReport",
    "DeltaPolicy",
    "EstimatorSpec",
    "BootstrapResult",
    "dse",
    "mle_profile_mt",
    "mle_mpl_mt",
    "mle_profile_mtb",
    "mle_adpl_mtb",
    "mle_adpl_mt",
    "recover_nuisance",
    "ratio_moment_approx",
    "bias_dse_under_mtb",
    "var_dse_under_mtb",
    "parametric_bootstrap",
    "parse_estimator",
    # simulation
    "PopulationSpec",
    "StudyConfig",
    "StudySummary",
    "TABLE2_POPULATIONS",
    "SCALING_SITUATIONS",
    "SWEEP_SITUATIONS",
    "run_study",
    "summaries_to_csv",
    "se_scaling_study",
    "coverage_bands",
    "robustness_sweep",
    "DEFAULT_SEED",
]
