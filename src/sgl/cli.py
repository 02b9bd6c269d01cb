"""Command-line surface: simulate, fit, path, check.

Exit status 0 on success, 1 on input errors (bad flags, unreadable or
malformed files), 2 when a solve did not converge (outputs are still
written)."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

import numpy as np

from .model import LoadedProblem, PenaltySpec, _read_csv_rows, load_problem_csv, objective
from .oracle import fit_oracle
from .path import PathSpec, fit_path
from .sim import (
    SimConfig,
    coef_misclassification,
    generate,
    group_misclassification,
    write_dataset,
)
from .solver import SolverOptions, fit, kkt_residual

__all__ = ["run"]


def _fmt(v: float) -> str:
    return repr(float(v))


def _resolve_seed(seed: int | None) -> int:
    if seed is not None:
        return seed
    raw = os.environ.get("SGL_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"SGL_SEED={raw!r} is not an integer") from None


def _parse_counts(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--counts {text!r} is not a comma-separated integer list") from None


def _weight_mode(flag: str) -> str:
    return "sqrt-size" if flag == "sqrt" else "unit"


def _given(ns: argparse.Namespace, *names: str) -> dict:
    """The named flags the user set. Their parser default is suppressed, so
    each default lives only in the library dataclass the flags feed."""
    return {name: getattr(ns, name) for name in names if hasattr(ns, name)}


def _write_coefficients(path: str, loaded: LoadedProblem, beta: np.ndarray) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["index", "group", "value"])
        for i, (gid, value) in enumerate(zip(loaded.column_group_ids, beta)):
            writer.writerow([i, gid, _fmt(value)])


def _read_indexed(
    path: str, loaded: LoadedProblem, value: str, order: np.ndarray
) -> np.ndarray:
    """Read an ``index,group,<value>`` file into problem column order.

    Problem column k is the file's index ``order[k]``: ``coefficients.csv``
    is indexed by problem column, ``truth.csv`` by data-file feature
    position (``loaded.data_positions``). Every index must appear once,
    labelled with its column's group, with a finite value.
    """
    p = loaded.problem.p
    groups = np.empty(p, dtype=object)
    groups[order] = loaded.column_group_ids
    rows = _read_csv_rows(path)
    if not rows or rows[0][1] != ["index", "group", value]:
        raise ValueError(f"{path}: expected header 'index,group,{value}'")
    values = np.full(p, np.nan)
    for lineno, row in rows[1:]:
        if len(row) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 3 fields")
        try:
            idx = int(row[0])
            v = float(row[2])
        except ValueError:
            raise ValueError(f"{path}: line {lineno}: unparseable entry") from None
        # a NaN would also pass for the unset marker of the duplicate check
        if not np.isfinite(v):
            raise ValueError(f"{path}: line {lineno}: value {row[2]!r} is not finite")
        if not 0 <= idx < p:
            raise ValueError(f"{path}: line {lineno}: index {idx} out of range")
        if not np.isnan(values[idx]):
            raise ValueError(f"{path}: line {lineno}: duplicate index {idx}")
        if row[1] != groups[idx]:
            raise ValueError(
                f"{path}: line {lineno}: group {row[1]!r} does not match "
                f"problem group {groups[idx]!r}"
            )
        values[idx] = v
    if np.isnan(values).any():
        raise ValueError(f"{path}: {int(np.isnan(values).sum())} coefficient(s) missing")
    return values[order]


def _cmd_simulate(ns: argparse.Namespace) -> int:
    kwargs = _given(ns, "n")
    if ns.counts is not None:
        kwargs["nonzero_counts"] = _parse_counts(ns.counts)
    dataset = generate(SimConfig(seed=_resolve_seed(ns.seed), **kwargs))
    paths = write_dataset(dataset, ns.out)
    for name in ("data", "groups", "truth"):
        print(f"wrote {paths[name]}")
    return 0


def _cmd_fit(ns: argparse.Namespace) -> int:
    loaded = load_problem_csv(ns.data, ns.groups, weight_mode=_weight_mode(ns.weights))
    problem = loaded.problem
    penalty = PenaltySpec(lambda1=ns.lambda1, lambda2=ns.lambda2)
    result = fit(problem, penalty, opts=SolverOptions(**_given(ns, "outer_tol", "max_sweeps")))
    os.makedirs(ns.out, exist_ok=True)
    _write_coefficients(os.path.join(ns.out, "coefficients.csv"), loaded, result.coefficients.beta)
    summary = {
        "objective": result.objective,
        "sweeps": result.sweeps,
        "converged": result.converged,
        "kkt_worst": result.kkt.worst_violation,
        "lambda1": penalty.lambda1,
        "lambda2": penalty.lambda2,
        "n": problem.n,
        "p": problem.p,
        "L": problem.n_groups,
    }
    with open(os.path.join(ns.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(
        f"fit: objective={_fmt(result.objective)} sweeps={result.sweeps} "
        f"converged={str(result.converged).lower()}"
    )
    return 0 if result.converged else 2


def _cmd_path(ns: argparse.Namespace) -> int:
    loaded = load_problem_csv(ns.data, ns.groups, weight_mode=_weight_mode(ns.weights))
    problem = loaded.problem
    truth = None
    if ns.truth:
        truth = _read_indexed(ns.truth, loaded, "beta_true", loaded.data_positions)
    spec = PathSpec(**_given(ns, "n_points", "ratio_min", "mixing"))
    result = fit_path(problem, spec, opts=SolverOptions(**_given(ns, "outer_tol", "max_sweeps")))
    os.makedirs(ns.out, exist_ok=True)
    path_file = os.path.join(ns.out, "path.csv")
    with open(path_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        if ns.wide:
            writer.writerow(["point", "lambda"] + list(loaded.feature_names))
            for i, point in enumerate(result.points):
                writer.writerow(
                    [i, _fmt(point.lam)] + [_fmt(v) for v in point.coefficients.beta]
                )
        else:
            writer.writerow(["point", "lambda", "index", "group", "value"])
            for i, point in enumerate(result.points):
                for j, (gid, v) in enumerate(
                    zip(loaded.column_group_ids, point.coefficients.beta)
                ):
                    writer.writerow([i, _fmt(point.lam), j, gid, _fmt(v)])
    metrics_file = os.path.join(ns.out, "metrics.csv")
    header = [
        "point", "lambda", "lambda1", "lambda2", "objective", "sweeps",
        "converged", "kkt_worst", "active_groups", "nonzeros",
    ]
    if truth is not None:
        header += ["group_misclass", "coef_misclass"]
    with open(metrics_file, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        sizes = problem.group_sizes
        for i, point in enumerate(result.points):
            row = [
                i, _fmt(point.lam), _fmt(point.penalty.lambda1), _fmt(point.penalty.lambda2),
                _fmt(point.objective), point.sweeps, str(point.converged).lower(),
                _fmt(point.kkt_worst), point.n_active_groups, point.n_nonzero,
            ]
            if truth is not None:
                beta = point.coefficients.beta
                row += [
                    group_misclassification(truth, beta, sizes),
                    coef_misclassification(truth, beta),
                ]
            writer.writerow(row)
    print(f"wrote {path_file}")
    print(f"wrote {metrics_file}")
    if all(point.converged for point in result.points):
        return 0
    bad = sum(1 for point in result.points if not point.converged)
    print(f"warning: {bad} path point(s) did not converge", file=sys.stderr)
    return 2


def _cmd_check(ns: argparse.Namespace) -> int:
    loaded = load_problem_csv(ns.data, ns.groups, weight_mode=_weight_mode(ns.weights))
    problem = loaded.problem
    beta = _read_indexed(ns.coefs, loaded, "value", np.arange(problem.p))
    penalty = PenaltySpec(lambda1=ns.lambda1, lambda2=ns.lambda2)
    report = kkt_residual(problem, beta, penalty)
    obj = objective(problem, beta, penalty)
    print(f"objective: {_fmt(obj)}")
    print(f"kkt_worst: {_fmt(report.worst_violation)}")
    print(f"active_groups: {int(report.active.sum())}")
    print(f"nonzeros: {int(np.count_nonzero(beta))}")
    for ell, gid in enumerate(loaded.group_ids):
        print(
            f"group {gid}: active={'yes' if report.active[ell] else 'no'} "
            f"violation={_fmt(report.per_group[ell])}"
        )
    if ns.oracle:
        reference = fit_oracle(problem, penalty)
        gap = abs(obj - reference.objective)
        print(f"oracle_objective: {_fmt(reference.objective)}")
        print(f"oracle_gap: {_fmt(gap)}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgl",
        description="Sparse group lasso: simulate benchmark data, fit, trace "
        "regularization paths, and check optimality of coefficient files.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    sim = sub.add_parser("simulate", help="write a synthetic dataset (data/groups/truth CSVs)")
    sim.set_defaults(handler=_cmd_simulate)
    sim.add_argument("--seed", type=int, default=None, help="generator seed (default: $SGL_SEED or 0)")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--n", type=int, default=argparse.SUPPRESS, help="number of observations")
    sim.add_argument("--counts", default=None, help="per-block nonzero counts, e.g. 10,8,6,4,2")

    def add_io(p, with_solver=True):
        p.add_argument("--data", required=True, help="data CSV with a 'y' column")
        p.add_argument("--groups", required=True, help="column,group CSV")
        p.add_argument("--weights", choices=("unit", "sqrt"), default="unit",
                       help="group weights: all one, or sqrt of group size")
        if with_solver:
            p.add_argument("--outer-tol", type=float, default=argparse.SUPPRESS)
            p.add_argument("--max-sweeps", type=int, default=argparse.SUPPRESS)

    fit_p = sub.add_parser("fit", help="fit at one penalty level, write coefficients and summary")
    fit_p.set_defaults(handler=_cmd_fit)
    add_io(fit_p)
    fit_p.add_argument("--lambda1", type=float, required=True, help="group two-norm penalty level")
    fit_p.add_argument("--lambda2", type=float, required=True, help="one-norm penalty level")
    fit_p.add_argument("--out", default=".", help="output directory")

    path_p = sub.add_parser("path", help="fit a log-spaced penalty grid with warm starts")
    path_p.set_defaults(handler=_cmd_path)
    add_io(path_p)
    path_p.add_argument("--alpha", type=float, default=argparse.SUPPRESS, dest="mixing",
                        metavar="ALPHA", help="one-norm share of the total level")
    path_p.add_argument("--npoints", type=int, default=argparse.SUPPRESS, dest="n_points",
                        metavar="NPOINTS", help="grid size")
    path_p.add_argument("--ratio-min", type=float, default=argparse.SUPPRESS,
                        help="smallest level as a fraction of the all-zero level")
    path_p.add_argument("--truth", default=None, help="truth CSV for misclassification metrics")
    path_p.add_argument("--wide", action="store_true", help="one row per level in path.csv")
    path_p.add_argument("--out", default=".", help="output directory")

    check_p = sub.add_parser("check", help="report optimality of a coefficients file")
    check_p.set_defaults(handler=_cmd_check)
    add_io(check_p, with_solver=False)
    check_p.add_argument("--coefs", required=True, help="coefficients CSV (index,group,value)")
    check_p.add_argument("--lambda1", type=float, required=True)
    check_p.add_argument("--lambda2", type=float, required=True)
    check_p.add_argument("--oracle", action="store_true",
                         help="also fit the reference solver and report the objective gap")
    return parser


def run(argv=None) -> int:
    """Parse flags, dispatch, and map failures to exit codes (0 ok, 1 input
    error, 2 non-convergence)."""
    try:
        namespace = _build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; fold every parser failure into
        # the input-error status, keep 0 for --help
        return 0 if not exc.code else 1
    try:
        return namespace.handler(namespace)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

