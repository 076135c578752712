"""Empirical Bayes multi-task linear regression.

m regression tasks ("tissues") share one design matrix; each task's
coefficient vector is either exactly zero or drawn around a shared mean
with spread proportional to (X'X)^-1.  The package estimates the shared
prior by EM (tolerating missing responses), reports per-task association
probabilities and shrunken coefficients, and ships the simulation and
risk machinery used to evaluate the estimator.
"""

from .crossval import CvReport, kfold_cv, predict, r_squared, stouffer_combine
from .em import (
    FitOptions,
    FitResult,
    ResponsePanel,
    fit,
    ols,
    tissue_posterior,
)
from .errors import (
    BadConfig,
    BadShape,
    DegenerateLabels,
    EbshrinkError,
    FoldTooSmall,
    NaInCovariates,
    NonFinite,
    ParseError,
    RankDeficient,
)
from .fileio import (
    MatrixFile,
    read_fit_json,
    read_matrix_tsv,
    write_fit_json,
    write_matrix_tsv,
)
from .linalg import Design, build_design
from .posterior import PriorParams
from .simulate import (
    RiskEstimate,
    Setting,
    SimConfig,
    SimData,
    SimReport,
    auc,
    mc_bayes_risk,
    mse,
    ols_estimator,
    ols_risk_exact,
    oracle_posterior_estimator,
    run_replications,
    simulate_model_panel,
    simulate_setting,
)

__version__ = "0.1.0"

__all__ = [
    "BadConfig",
    "BadShape",
    "CvReport",
    "DegenerateLabels",
    "Design",
    "EbshrinkError",
    "FitOptions",
    "FitResult",
    "FoldTooSmall",
    "MatrixFile",
    "NaInCovariates",
    "NonFinite",
    "ParseError",
    "PriorParams",
    "RankDeficient",
    "ResponsePanel",
    "RiskEstimate",
    "Setting",
    "SimConfig",
    "SimData",
    "SimReport",
    "auc",
    "build_design",
    "fit",
    "kfold_cv",
    "mc_bayes_risk",
    "mse",
    "ols",
    "ols_estimator",
    "ols_risk_exact",
    "oracle_posterior_estimator",
    "predict",
    "r_squared",
    "read_fit_json",
    "read_matrix_tsv",
    "run_replications",
    "simulate_model_panel",
    "simulate_setting",
    "stouffer_combine",
    "tissue_posterior",
    "write_fit_json",
    "write_matrix_tsv",
]
