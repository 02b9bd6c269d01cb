"""The package's public names: a pinned list, so growing the API takes a
visible edit here."""

import importlib

import sgl

PUBLIC = [
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

LIBRARY_MODULES = ["model", "oracle", "path", "sim", "solver"]


def test_public_names_are_pinned_and_resolve():
    assert len(PUBLIC) == 29
    assert sgl.__all__ == sorted(PUBLIC)
    for name in sgl.__all__:
        assert getattr(sgl, name) is not None, name


def test_every_library_module_export_is_reexported():
    for module_name in LIBRARY_MODULES:
        module = importlib.import_module(f"sgl.{module_name}")
        for name in module.__all__:
            assert name in sgl.__all__, f"sgl.{module_name}.{name}"
            assert getattr(sgl, name) is getattr(module, name)
