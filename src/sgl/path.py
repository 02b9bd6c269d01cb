"""Regularization paths over a logarithmic penalty grid, fitted with warm starts.

A single total level ``lam`` is split by a mixing weight ``alpha`` into the
group two-norm level ``(1-alpha)*lam`` and the one-norm level ``alpha*lam``;
the grid starts at the smallest level whose optimum is all-zero.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .model import Coefficients, GroupedProblem, PenaltySpec, _segment_norms
from .solver import SolverOptions, _block_cache, _sharing_block_cache, _shrink, _zero_test_excess, fit

__all__ = ["PathSpec", "PathPoint", "PathResult", "lambda_max", "fit_path"]


@dataclass(frozen=True)
class PathSpec:
    """Grid shape: ``n_points`` levels, log-spaced from the all-zero level down
    to ``ratio_min`` times it, mixed by ``mixing`` (0 = group penalty only,
    1 = one-norm only)."""

    n_points: int = 100
    ratio_min: float = 1e-3
    mixing: float = 0.5

    def __post_init__(self):
        if not isinstance(self.n_points, numbers.Integral) or self.n_points < 2:
            raise ValueError(f"n_points must be an integer of at least 2, got {self.n_points!r}")
        if not (0.0 < self.ratio_min < 1.0):
            raise ValueError(f"ratio_min must be in (0, 1), got {self.ratio_min}")
        if not (0.0 <= self.mixing <= 1.0):
            raise ValueError(f"mixing must be in [0, 1], got {self.mixing}")


@dataclass(frozen=True)
class PathPoint:
    """One grid point: the penalty levels, the fitted coefficients, and
    per-fit diagnostics."""

    lam: float
    penalty: PenaltySpec
    coefficients: Coefficients
    objective: float
    sweeps: int
    converged: bool
    kkt_worst: float
    n_active_groups: int
    n_nonzero: int


@dataclass(frozen=True)
class PathResult:
    """A fitted path: strictly decreasing levels, one PathPoint per level."""

    lambdas: np.ndarray
    points: tuple[PathPoint, ...]
    lambda_max: float
    mixing: float

    def __post_init__(self):
        lams = np.asarray(self.lambdas, dtype=float)
        lams.setflags(write=False)
        object.__setattr__(self, "lambdas", lams)


def lambda_max(problem: GroupedProblem, mixing: float) -> float:
    """Smallest total level at which every block's zero test passes at beta = 0.

    Each group's excess ``||S(X_g'y, alpha lam)|| - (1-alpha) lam w_g`` is
    convex and decreasing in ``lam``, so Newton on the worst group from 0,
    with slope ``alpha ||S||_1 / ||S|| + (1-alpha) w_g`` and at least one
    ulp a step, climbs to the root from below; rounding can carry it a few
    ulps past, so it then steps back while the float below passes too.
    Every decision is the zero-test kernel of fit's first screen on the
    same ``X'y``, so a fit at the level is all-zero, and that screen fails
    one float below it.
    """
    alpha = float(mixing)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"mixing must be in [0, 1], got {mixing}")
    # inside fit_path, the array that the first level's screen tests
    grad = _block_cache(problem).xty

    def excess(lam: float) -> np.ndarray:
        return _zero_test_excess(problem, grad, PenaltySpec((1.0 - alpha) * lam, alpha * lam))

    lam = 0.0
    gap = excess(lam)
    while gap.max() > 0.0:
        g = int(np.argmax(gap))
        shrunk = _shrink(grad[problem.slices[g]], alpha * lam)
        slope = alpha * float(np.abs(shrunk).sum()) / float(_segment_norms(shrunk)[0])
        slope += (1.0 - alpha) * float(problem.weights[g])
        lam = max(lam + float(gap[g]) / slope, float(np.nextafter(lam, np.inf)))
        gap = excess(lam)
    while lam > 0.0 and excess(below := float(np.nextafter(lam, 0.0))).max() <= 0.0:
        lam = below
    return lam


def fit_path(
    problem: GroupedProblem,
    spec: PathSpec | None = None,
    opts: SolverOptions | None = None,
) -> PathResult:
    """Fit the whole grid in decreasing order, warm-starting each level from
    the previous solution. Non-convergence at a level is recorded on its
    PathPoint, not raised.

    The levels share what does not depend on the penalty: each block's Gram
    matrix and its largest eigenvalue, and ``X'y``, formed once for
    :func:`lambda_max` and the KKT gate's scale. So a Gram is built and
    decomposed once per path; each level's result is the same as a lone
    :func:`fit` from the same warm start.
    """
    spec = spec or PathSpec()
    opts = opts or SolverOptions()
    alpha = spec.mixing
    warm: Coefficients | None = None
    points: list[PathPoint] = []
    with _sharing_block_cache(problem):
        lmax = lambda_max(problem, alpha)
        if lmax <= 0.0:
            raise ValueError("response carries no signal: the all-zero level is 0")
        exponents = np.linspace(0.0, 1.0, spec.n_points)
        lambdas = lmax * spec.ratio_min**exponents
        for lam in lambdas:
            penalty = PenaltySpec(lambda1=(1.0 - alpha) * lam, lambda2=alpha * lam)
            result = fit(problem, penalty, opts=opts, warm=warm)
            warm = result.coefficients
            points.append(
                PathPoint(
                    lam=float(lam),
                    penalty=penalty,
                    coefficients=result.coefficients,
                    objective=result.objective,
                    sweeps=result.sweeps,
                    converged=result.converged,
                    kkt_worst=result.kkt.worst_violation,
                    n_active_groups=int(result.kkt.active.sum()),
                    n_nonzero=result.coefficients.n_nonzero,
                )
            )
    return PathResult(
        lambdas=lambdas,
        points=tuple(points),
        lambda_max=lmax,
        mixing=alpha,
    )
