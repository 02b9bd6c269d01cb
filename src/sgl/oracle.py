"""Proximal-gradient reference solver.

Deliberately a different algorithm family from the coordinate-descent
fitter, so that agreement between the two is evidence of correctness for
both. Verification-grade, not performance-grade.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .model import Coefficients, GroupedProblem, PenaltySpec, _objective_from_residual
from .solver import soft_threshold

__all__ = ["OracleOptions", "OracleFit", "prox_sgl", "fit_oracle"]


@dataclass(frozen=True)
class OracleOptions:
    """``step=None`` selects 0.9 over the largest eigenvalue of X'X, the
    squared spectral norm of X (exact, from the singular values; the step is
    1 when X is zero); iteration stops when one step's objective decrease
    falls below ``tol * (1 + |objective|)``."""

    step: float | None = None
    max_iters: int = 500000
    tol: float = 1e-13

    def __post_init__(self):
        if self.step is not None and not (self.step > 0.0):
            raise ValueError(f"step must be positive, got {self.step}")
        if not isinstance(self.max_iters, numbers.Integral) or self.max_iters < 1:
            raise ValueError(f"max_iters must be an integer of at least 1, got {self.max_iters!r}")
        if not (self.tol >= 0.0) or not math.isfinite(self.tol):
            raise ValueError(f"tol must be nonnegative, got {self.tol}")


@dataclass(frozen=True)
class OracleFit:
    """Reference solution: the iterate, its objective, and stopping facts."""

    coefficients: Coefficients
    objective: float
    iterations: int
    converged: bool
    objective_history: np.ndarray

    def __post_init__(self):
        hist = np.asarray(self.objective_history, dtype=float)
        hist.setflags(write=False)
        object.__setattr__(self, "objective_history", hist)


def prox_sgl(v, step: float, penalty: PenaltySpec, w: float) -> np.ndarray:
    """Proximal map of one block's penalty at scale ``step``: elementwise
    soft threshold by step*lambda2, then shrink the survivor vector toward
    zero by step*lambda1*w (to zero if its norm is inside that radius)."""
    if not (step > 0.0) or not math.isfinite(step):
        raise ValueError(f"step must be positive and finite, got {step}")
    v = np.atleast_1d(np.asarray(v, dtype=float))
    g = soft_threshold(v, step * penalty.lambda2)
    radius = step * penalty.lambda1 * float(w)
    gnorm = float(np.linalg.norm(g))
    if gnorm <= radius:
        return np.zeros_like(v)
    if radius == 0.0:
        return g
    return (1.0 - radius / gnorm) * g


def fit_oracle(
    problem: GroupedProblem,
    penalty: PenaltySpec,
    opts: OracleOptions | None = None,
) -> OracleFit:
    """Run blockwise proximal-gradient descent from zero with a fixed step.

    Each iteration takes a gradient step on the half residual sum of squares
    and applies the block penalty prox; with the step below the curvature
    bound, the objective never increases.
    """
    opts = opts or OracleOptions()
    X, y = problem.X, problem.y
    if opts.step is not None:
        step = float(opts.step)
    else:
        bound = float(np.linalg.norm(X, 2)) ** 2
        step = 0.9 / bound if bound > 0.0 else 1.0
    beta = np.zeros(problem.p)
    res = y.copy()
    f_prev = _objective_from_residual(problem, res, beta, penalty)
    history = [f_prev]
    converged = False
    iterations = 0
    for _ in range(opts.max_iters):
        iterations += 1
        v = beta + step * (X.T @ res)
        for sl, w in zip(problem.slices, problem.weights):
            beta[sl] = prox_sgl(v[sl], step, penalty, float(w))
        res = y - X @ beta
        f_new = _objective_from_residual(problem, res, beta, penalty)
        history.append(f_new)
        if f_prev - f_new <= opts.tol * (1.0 + abs(f_new)):
            converged = True
            break
        f_prev = f_new
    return OracleFit(
        coefficients=Coefficients(beta),
        objective=history[-1],
        iterations=iterations,
        converged=converged,
        objective_history=np.asarray(history),
    )
