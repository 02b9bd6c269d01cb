"""Regularization paths over a logarithmic penalty grid, fitted with warm starts.

A single total level ``lam`` is split by a mixing weight ``alpha`` into the
group two-norm level ``(1-alpha)*lam`` and the one-norm level ``alpha*lam``;
the grid starts at the smallest level whose optimum is all-zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import Coefficients, GroupedProblem, PenaltySpec, _group_norms
from .solver import SolverOptions, _sharing_block_cache, _zero_test_excess, fit

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
        if int(self.n_points) < 2:
            raise ValueError(f"n_points must be at least 2, got {self.n_points}")
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

    Closed form at the mixing endpoints; in between, the pass condition is
    monotone in the level, so the root is found by bisection to 1e-10
    relative width. The returned level always passes the test exactly as
    fit's first screen evaluates it, so fitting there yields all zeros.
    """
    alpha = float(mixing)
    if not (0.0 <= alpha <= 1.0):
        raise ValueError(f"mixing must be in [0, 1], got {mixing}")
    # X'y, formed as fit's first screen forms it at beta = 0 and tested by
    # the same zero-test kernel with the same level split
    grad = problem.X.T @ problem.y
    sup = float(np.abs(grad).max())
    if sup == 0.0:
        return 0.0
    if alpha == 1.0:
        return sup

    def passes(lam: float) -> bool:
        penalty = PenaltySpec((1.0 - alpha) * lam, alpha * lam)
        return bool((_zero_test_excess(problem, grad, penalty) <= 0.0).all())

    norms = _group_norms(problem, grad)
    if alpha == 0.0:
        # norm / w * w may round an ulp above the norm; step to the passing side
        level = float((norms / problem.weights).max())
        while not passes(level):
            level = float(np.nextafter(level, np.inf))
        return level
    # per-block passing levels: a level large enough that either the shrunk
    # vector vanishes or its norm is inside the group radius; doubled so the
    # starting point passes with margin, not by an ulp
    hi = 2.0 * float(np.minimum(
        norms / ((1.0 - alpha) * problem.weights),
        _group_norms(problem, grad, np.inf) / alpha,
    ).max())
    lo = 0.0
    while hi - lo > 1e-10 * hi:
        mid = 0.5 * (lo + hi)
        if passes(mid):
            hi = mid
        else:
            lo = mid
    return hi


def fit_path(
    problem: GroupedProblem,
    spec: PathSpec | None = None,
    opts: SolverOptions | None = None,
) -> PathResult:
    """Fit the whole grid in decreasing order, warm-starting each level from
    the previous solution. Non-convergence at a level is recorded on its
    PathPoint, not raised.

    The levels share what does not depend on the penalty: each block's Gram
    matrix, the eigendecomposition of its Gram on the support of its last
    face solve, and the KKT gate's scale. So a Gram is built once per path
    and a block whose support holds across sweeps and levels decomposes it
    once; each level's result is the same as a lone :func:`fit` from the
    same warm start.
    """
    spec = spec or PathSpec()
    opts = opts or SolverOptions()
    lmax = lambda_max(problem, spec.mixing)
    if lmax <= 0.0:
        raise ValueError("response carries no signal: the all-zero level is 0")
    exponents = np.linspace(0.0, 1.0, int(spec.n_points))
    lambdas = lmax * spec.ratio_min**exponents
    alpha = spec.mixing
    warm: Coefficients | None = None
    points: list[PathPoint] = []
    with _sharing_block_cache(problem):
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
