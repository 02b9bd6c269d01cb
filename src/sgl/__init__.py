"""Sparse group lasso: penalized least squares with a group two-norm penalty
plus an elementwise one-norm penalty, solved by blockwise coordinate descent
with exact zero tests, along with path computation, a synthetic benchmark
generator, and an independent reference solver."""

from .model import (
    Coefficients,
    FitResult,
    GroupedProblem,
    LoadedProblem,
    PenaltySpec,
    build_problem,
    load_problem_csv,
    objective,
    predict,
)
from .oracle import OracleFit, OracleOptions, fit_oracle, prox_sgl
from .path import PathPoint, PathResult, PathSpec, fit_path, lambda_max
from .sim import (
    SimConfig,
    SimDataset,
    coef_misclassification,
    generate,
    group_misclassification,
    write_dataset,
)
from .solver import (
    KktReport,
    SolverOptions,
    fit,
    kkt_residual,
    soft_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "Coefficients",
    "FitResult",
    "GroupedProblem",
    "KktReport",
    "LoadedProblem",
    "OracleFit",
    "OracleOptions",
    "PathPoint",
    "PathResult",
    "PathSpec",
    "PenaltySpec",
    "SimConfig",
    "SimDataset",
    "SolverOptions",
    "build_problem",
    "coef_misclassification",
    "fit",
    "fit_oracle",
    "fit_path",
    "generate",
    "group_misclassification",
    "kkt_residual",
    "lambda_max",
    "load_problem_csv",
    "objective",
    "predict",
    "prox_sgl",
    "soft_threshold",
    "write_dataset",
]
