"""Problem representation: centered data, group partition, penalty levels, objective.

The response and every feature column are centered to mean zero at
construction time, so no intercept appears in the penalized criterion; the
stored means reconstitute the intercept at prediction time.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

if TYPE_CHECKING:
    from .solver import KktReport

__all__ = [
    "PenaltySpec",
    "GroupedProblem",
    "Coefficients",
    "FitResult",
    "LoadedProblem",
    "build_problem",
    "objective",
    "predict",
    "load_problem_csv",
]


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class PenaltySpec:
    """Penalty levels: ``lambda1`` scales the group two-norm term, ``lambda2`` the one-norm term."""

    lambda1: float
    lambda2: float

    def __post_init__(self):
        lam1, lam2 = float(self.lambda1), float(self.lambda2)
        if not (math.isfinite(lam1) and math.isfinite(lam2)):
            raise ValueError("penalty levels must be finite")
        if lam1 < 0.0 or lam2 < 0.0:
            raise ValueError("penalty levels must be nonnegative")
        object.__setattr__(self, "lambda1", lam1)
        object.__setattr__(self, "lambda2", lam2)


@dataclass(frozen=True)
class GroupedProblem:
    """Centered least-squares data with a contiguous group partition of the columns.

    Immutable after construction; a single instance is safe to share across
    concurrent fits. ``X`` is stored Fortran-ordered so column access during
    coordinate descent is contiguous.
    """

    y: np.ndarray
    X: np.ndarray
    group_sizes: np.ndarray
    weights: np.ndarray
    y_mean: float = 0.0
    x_means: np.ndarray | None = None

    def __post_init__(self):
        y = _frozen(np.array(self.y, dtype=float))
        X = _frozen(np.asfortranarray(np.array(self.X, dtype=float)))
        if y.ndim != 1 or X.ndim != 2:
            raise ValueError("y must be a vector and X a matrix")
        n, p = X.shape
        if y.shape[0] != n:
            raise ValueError(f"y has {y.shape[0]} rows but X has {n}")
        if n < 1 or p < 1:
            raise ValueError("need at least one observation and one feature")
        sizes = _frozen(np.array(self.group_sizes, dtype=int))
        if sizes.ndim != 1 or sizes.size < 1:
            raise ValueError("group_sizes must be a nonempty vector")
        if (sizes < 1).any():
            raise ValueError("every group must be nonempty")
        if int(sizes.sum()) != p:
            raise ValueError(f"group sizes sum to {int(sizes.sum())} but X has {p} columns")
        weights = _frozen(np.array(self.weights, dtype=float))
        if weights.shape != sizes.shape:
            raise ValueError("one weight per group required")
        if not np.isfinite(weights).all() or (weights <= 0.0).any():
            raise ValueError("group weights must be positive and finite")
        if not np.isfinite(y).all() or not np.isfinite(X).all():
            raise ValueError("non-finite values in y or X")
        if abs(float(y.mean())) > 1e-12 * max(1.0, float(np.abs(y).max())):
            raise ValueError("response is not centered")
        col_scale = np.maximum(1.0, np.abs(X).max(axis=0))
        if (np.abs(X.mean(axis=0)) > 1e-12 * col_scale).any():
            raise ValueError("feature columns are not centered")
        x_means = self.x_means
        x_means = np.zeros(p) if x_means is None else np.array(x_means, dtype=float)
        if x_means.shape != (p,):
            raise ValueError("x_means must have one entry per column")
        ends = np.cumsum(sizes)
        slices = tuple(slice(int(e - s), int(e)) for s, e in zip(sizes, ends))
        starts = _frozen(ends - sizes)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "group_sizes", sizes)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "y_mean", float(self.y_mean))
        object.__setattr__(self, "x_means", _frozen(x_means))
        object.__setattr__(self, "_slices", slices)
        object.__setattr__(self, "_starts", starts)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def p(self) -> int:
        return self.X.shape[1]

    @property
    def n_groups(self) -> int:
        return self.group_sizes.size

    @property
    def slices(self) -> tuple[slice, ...]:
        """Column slice of each group, in group order."""
        return self._slices

    def coefficients(self, beta) -> "Coefficients":
        """Validate a length-p vector against this problem and wrap it."""
        coefs = beta if isinstance(beta, Coefficients) else Coefficients(beta)
        if coefs.beta.shape != (self.p,):
            raise ValueError(f"expected {self.p} coefficients, got {coefs.beta.shape}")
        return coefs

    def active_groups(self, beta) -> np.ndarray:
        """Boolean mask of groups holding at least one nonzero coefficient."""
        return _group_norms(self, self.coefficients(beta).beta, np.inf) != 0.0


@dataclass(frozen=True)
class Coefficients:
    """A coefficient vector whose block partition mirrors the owning problem's groups."""

    beta: np.ndarray

    def __post_init__(self):
        arr = np.array(self.beta, dtype=float)
        if arr.ndim != 1:
            raise ValueError("coefficients must be a vector")
        if not np.isfinite(arr).all():
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "beta", _frozen(arr))

    def __len__(self) -> int:
        return self.beta.size

    @property
    def n_nonzero(self) -> int:
        return int(np.count_nonzero(self.beta))


@dataclass(frozen=True)
class FitResult:
    """Outcome of a single solve: coefficients plus convergence and optimality diagnostics."""

    coefficients: Coefficients
    objective: float
    sweeps: int
    converged: bool
    max_coef_delta: float
    kkt: "KktReport"
    objective_history: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        object.__setattr__(
            self, "objective_history", _frozen(np.array(self.objective_history, dtype=float))
        )


def build_problem(raw_y, raw_X, group_sizes: Sequence[int], weight_mode: str = "unit") -> GroupedProblem:
    """Center raw data and attach the group partition.

    ``weight_mode`` is ``"unit"`` (all group weights one) or ``"sqrt-size"``
    (weight sqrt(group size), compensating for unequal group sizes).
    """
    y = np.asarray(raw_y, dtype=float)
    # fixed layout so the centering sums round identically however the caller
    # assembled the matrix (slices, stacking, and fancy indexing differ in ulps)
    X = np.ascontiguousarray(raw_X, dtype=float)
    if y.ndim != 1 or X.ndim != 2:
        raise ValueError("raw_y must be a vector and raw_X a matrix")
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"raw_y has {y.shape[0]} rows but raw_X has {X.shape[0]}")
    if y.shape[0] < 2:
        raise ValueError("need at least two observations to center")
    if not np.isfinite(y).all() or not np.isfinite(X).all():
        raise ValueError("non-finite values in raw input")
    sizes = np.asarray(group_sizes, dtype=int)
    if weight_mode == "unit":
        weights = np.ones(sizes.size)
    elif weight_mode == "sqrt-size":
        weights = np.sqrt(sizes.astype(float))
    else:
        raise ValueError(f"unknown weight_mode {weight_mode!r}")
    y_mean = float(y.mean())
    x_means = X.mean(axis=0)
    return GroupedProblem(
        y=y - y_mean,
        X=X - x_means,
        group_sizes=sizes,
        weights=weights,
        y_mean=y_mean,
        x_means=x_means,
    )


def _group_norms(problem: GroupedProblem, v: np.ndarray, order: float = 2) -> np.ndarray:
    """Norm of each group's segment of the length-p vector ``v``, in group order.

    ``order`` is 2 (Euclidean) or ``np.inf`` (largest magnitude). The
    solver's all-groups zero test (fit's screen, ``kkt_residual``,
    ``lambda_max``) and the objective form their group norms here.
    """
    if order == 2:
        return np.sqrt(np.add.reduceat(v * v, problem._starts))
    return np.maximum.reduceat(np.abs(v), problem._starts)


def _objective_from_residual(
    problem: GroupedProblem, residual: np.ndarray, beta: np.ndarray, penalty: PenaltySpec
) -> float:
    # fsum keeps sweep-over-sweep objective comparisons meaningful at 1e-12
    # scale; it sums exactly, so the exact zeros of the penalty terms, most
    # of them on a sparse fit, are left out without changing a bit
    rss = math.fsum((residual * residual).tolist())
    group_terms = problem.weights * _group_norms(problem, beta)
    group_term = math.fsum(group_terms[group_terms != 0.0].tolist())
    l1 = math.fsum(np.abs(beta[beta != 0.0]).tolist())
    return 0.5 * rss + penalty.lambda1 * group_term + penalty.lambda2 * l1


def objective(problem: GroupedProblem, beta, penalty: PenaltySpec) -> float:
    """Penalized criterion: half the residual sum of squares plus both penalty terms."""
    b = problem.coefficients(beta).beta
    residual = problem.y - problem.X @ b
    return _objective_from_residual(problem, residual, b, penalty)


def predict(problem: GroupedProblem, beta, new_rows) -> np.ndarray:
    """Fitted values for new rows on the original (uncentered) scale."""
    b = problem.coefficients(beta).beta
    rows = np.asarray(new_rows, dtype=float)
    if rows.ndim == 1:
        rows = rows.reshape(1, -1)
    if rows.ndim != 2 or rows.shape[1] != problem.p:
        raise ValueError(f"new rows must have {problem.p} columns")
    return (rows - problem.x_means) @ b + problem.y_mean


@dataclass(frozen=True)
class LoadedProblem:
    """A problem read from CSV plus the bookkeeping linking it back to the files.

    ``data_positions[k]`` is the 0-based position, within the data file's
    feature columns, of the problem's k-th column (the loader reorders
    columns so each group is contiguous).
    """

    problem: GroupedProblem
    feature_names: tuple[str, ...]
    group_ids: tuple[str, ...]
    data_positions: np.ndarray

    @property
    def column_group_ids(self) -> tuple[str, ...]:
        """Group id of each problem column, in problem order."""
        out: list[str] = []
        for gid, sl in zip(self.group_ids, self.problem.slices):
            out.extend([gid] * (sl.stop - sl.start))
        return tuple(out)


def _open_csv(path):
    try:
        return open(path, newline="")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc


def _read_csv_rows(path) -> list[tuple[int, list[str]]]:
    """The file's non-blank rows, each paired with the physical line it ends on."""
    with _open_csv(path) as fh:
        reader = csv.reader(fh)
        return [(reader.line_num, row) for row in reader if row]


# the data body's one parser; quoted cells and surrounding spaces are accepted
_LOADTXT = dict(delimiter=",", quotechar='"', comments=None, ndmin=2)


def _bad_data_row(path, width: int, cause: str) -> ValueError:
    """Name the first data row the bulk parse rejects (the error path only).

    Each row goes back through the same parser, its cells quoted, so a row
    is called unparseable exactly when the bulk parse could not read it.
    """
    for lineno, row in _read_csv_rows(path)[1:]:
        if len(row) != width:
            return ValueError(f"{path}: line {lineno}: expected {width} fields, got {len(row)}")
        quoted = ",".join('"' + cell.replace('"', '""') + '"' for cell in row)
        try:
            np.loadtxt([quoted], **_LOADTXT)
        except ValueError:
            return ValueError(f"{path}: line {lineno}: unparseable number")
    return ValueError(f"{path}: {cause}")


def load_problem_csv(data_path, groups_path, weight_mode: str = "unit") -> LoadedProblem:
    """Read a data CSV (header row with a ``y`` column) and its column->group sidecar.

    Feature columns are reordered so that the groups, taken in order of first
    appearance in the data file, occupy contiguous column ranges.
    """
    with _open_csv(data_path) as fh:
        header = next((row for row in csv.reader(fh) if row), None)
        if header is None:
            raise ValueError(f"{data_path}: empty file")
        if "y" not in header:
            raise ValueError(f"{data_path}: no 'y' column in header")
        y_pos = header.index("y")
        feature_names = [c for c in header if c != "y"]
        if len(set(feature_names)) != len(feature_names):
            raise ValueError(f"{data_path}: duplicate column names")
        if not feature_names:
            raise ValueError(f"{data_path}: no feature columns")
        first = next((line for line in fh if line.strip("\r\n")), None)
        if first is None:
            raise ValueError(f"{data_path}: no data rows")
        try:
            matrix = np.loadtxt(itertools.chain([first], fh), **_LOADTXT)
            if matrix.shape[1] != len(header):
                raise ValueError(f"expected {len(header)} fields, got {matrix.shape[1]}")
        except ValueError as exc:
            raise _bad_data_row(data_path, len(header), str(exc)) from None

    grows = _read_csv_rows(groups_path)
    if not grows or [c.strip() for c in grows[0][1]] != ["column", "group"]:
        raise ValueError(f"{groups_path}: expected header 'column,group'")
    mapping: dict[str, str] = {}
    for lineno, row in grows[1:]:
        if len(row) != 2:
            raise ValueError(f"{groups_path}: line {lineno}: expected 2 fields")
        col, gid = row[0], row[1]
        if col in mapping:
            raise ValueError(f"{groups_path}: column {col!r} mapped twice")
        mapping[col] = gid
    missing = [c for c in feature_names if c not in mapping]
    if missing:
        raise ValueError(f"{groups_path}: no group for column(s) {', '.join(missing)}")
    known = set(feature_names)
    extra = [c for c in mapping if c not in known]
    if extra:
        raise ValueError(f"{groups_path}: unknown column(s) {', '.join(extra)}")

    # data-file positions of each group's columns, groups in order of first
    # appearance (dicts keep insertion order)
    positions: dict[str, list[int]] = {}
    for i, name in enumerate(feature_names):
        positions.setdefault(mapping[name], []).append(i)
    perm = [i for members in positions.values() for i in members]
    sizes = [len(members) for members in positions.values()]
    # data-file column of each problem column: feature positions skip over y
    columns = [i + (i >= y_pos) for i in perm]
    problem = build_problem(matrix[:, y_pos], matrix[:, columns], sizes, weight_mode=weight_mode)
    return LoadedProblem(
        problem=problem,
        feature_names=tuple(feature_names[i] for i in perm),
        group_ids=tuple(positions),
        data_positions=np.asarray(perm, dtype=int),
    )
