"""Blockwise coordinate descent for least squares under a group two-norm
penalty plus an elementwise one-norm penalty.

The solver cycles over a working set of coefficient blocks. Each visit
first runs a cheap exact test deciding whether the whole block is zero at
the optimum. An active block is then minimized by active-set steps, each an
exact solve on a support and its signs: one eigendecomposition of the
support's Gram matrix and Newton on a scalar secular equation. A block
without a group penalty is a lasso, minimized by closed-form coordinate
shrinks. Blocks outside the working set stay zero and are screened all at
once whenever the working set settles. A fixed point of these rules is a
global optimum of the convex criterion.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .model import (
    Coefficients,
    FitResult,
    GroupedProblem,
    PenaltySpec,
    _group_norms,
    _objective_from_residual,
)

__all__ = [
    "KktReport",
    "SolverOptions",
    "soft_threshold",
    "fit",
    "kkt_residual",
]

# The secular equation of a face solve takes at most 5 evaluations on the
# benchmark's paths; a solve that reaches the cap fails, and the block
# restarts from the origin step
_SECULAR_MAX_STEPS = 50
# A block visit takes at most 7 active-set steps on the benchmark's paths;
# this cap, also on a lasso block's passes, only guards against a defect
_BLOCK_MAX_STEPS = 500


def soft_threshold(z, lam):
    """Shrink ``z`` toward zero by ``lam``: sign(z) * max(|z| - lam, 0), elementwise."""
    lam = float(lam)
    if not (lam >= 0.0) or not math.isfinite(lam):
        raise ValueError(f"threshold must be nonnegative and finite, got {lam}")
    z = np.asarray(z, dtype=float)
    out = np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)
    return float(out) if out.ndim == 0 else out


def _block_prox(a: np.ndarray, lam1w: float, lam2: float) -> np.ndarray:
    """The block penalty's proximal map at unit step: S(a, lam2) shrunk in
    norm by ``lam1w``.

    It is zero exactly when the block zero test ||S(a, lam2)|| <= lam1w
    passes, and it is the block minimizer when the block's columns are
    orthonormal. The norm is summed like :func:`_zero_test_excess` sums a
    group's segment, so on the same vector the two decide alike.
    """
    g = soft_threshold(a, lam2)
    gnorm = float(np.sqrt(np.add.reduceat(g * g, [0])[0]))
    if gnorm <= lam1w:
        return np.zeros_like(g)
    # gnorm - lam1w is exact near the boundary (Sterbenz), so the factor
    # keeps its relative precision where 1 - lam1w / gnorm would cancel
    return g * ((gnorm - lam1w) / gnorm)


def _zero_test_excess(
    problem: GroupedProblem, grad: np.ndarray, penalty: PenaltySpec
) -> np.ndarray:
    """Per group, ||S(grad_g, lambda2)|| - lambda1 * w_g: a zero block is
    optimal exactly when its entry is at most 0, with ``grad`` the columns
    against the block's partial residual."""
    shrunk = soft_threshold(grad, penalty.lambda2)
    return _group_norms(problem, shrunk) - penalty.lambda1 * problem.weights


@dataclass(frozen=True)
class KktReport:
    """First-order optimality violations of a coefficient vector.

    ``per_group`` holds one nonnegative residual per block (in gradient
    units for zero blocks, sup norm of the stationarity residual for active
    blocks); ``per_coordinate`` holds the coordinate-level violations inside
    active blocks; ``worst_violation`` is the overall maximum.
    """

    per_group: np.ndarray
    per_coordinate: np.ndarray
    active: np.ndarray
    worst_violation: float


@dataclass(frozen=True)
class SolverOptions:
    """Convergence controls for :func:`fit`.

    A fit is declared converged when a sweep over its working set moves no
    coefficient by more than ``outer_tol``, a screen of every other group
    finds none failing the zero test, and the worst first-order violation
    is below ``5 * outer_tol * max(1, ||X'y||_inf)``. A fit whose sweep
    moves nothing by more than ``1e-4 * outer_tol`` while that gate fails
    stops there, reported as not converged. ``max_sweeps`` caps the
    working-set sweeps. Blocks are solved exactly, or, without a group
    term, by coordinate passes to ``outer_tol / 10``; ``inner_tol`` is
    validated but changes no result.
    """

    outer_tol: float = 1e-7
    max_sweeps: int = 10000
    inner_tol: float | None = None

    def __post_init__(self):
        if not (self.outer_tol > 0.0) or not math.isfinite(self.outer_tol):
            raise ValueError(f"outer_tol must be positive, got {self.outer_tol}")
        if int(self.max_sweeps) < 1:
            raise ValueError(f"max_sweeps must be at least 1, got {self.max_sweeps}")
        if self.inner_tol is not None and not (self.inner_tol > 0.0):
            raise ValueError(f"inner_tol must be positive, got {self.inner_tol}")


class _FaceSlot:
    """One block's last face support and the eigendecomposition of its Gram
    there, ``(support, mu, V)`` with ``mu`` clipped at 0.

    A face solve on the same support reuses them and one on another support
    replaces them, so a slot holds one decomposition at a time. It belongs
    to one Gram matrix: the support alone is its key.
    """

    __slots__ = ("key", "support", "mu", "V")

    def __init__(self):
        self.key = None

    def decompose(self, gram: np.ndarray, signs: np.ndarray) -> tuple[np.ndarray, ...]:
        key = (signs != 0.0).tobytes()
        if key != self.key:
            support = np.flatnonzero(signs)
            mu, V = np.linalg.eigh(gram[support][:, support])
            self.key, self.support, self.mu, self.V = key, support, np.maximum(mu, 0.0), V
        return self.support, self.mu, self.V


class _BlockCache:
    """What every fit of one problem can share, whatever its penalty: each
    block's Gram and :class:`_FaceSlot`, built on the block's first nonzero
    visit, so groups that never enter cost nothing, and the scale
    ``max(1, ||X'y||_inf)`` of the KKT gate.

    A block holds its Gram and at most one decomposition of a principal
    submatrix of it, so the cache holds at most about twice the Grams'
    sum of k_g^2 floats.
    """

    def __init__(self, problem: GroupedProblem):
        self.problem = problem
        self._blocks: list[tuple[np.ndarray, _FaceSlot] | None] = [None] * problem.n_groups

    def block(self, ell: int) -> tuple[np.ndarray, _FaceSlot]:
        """Block ``ell``'s Gram matrix and face slot."""
        entry = self._blocks[ell]
        if entry is None:
            Z = self.problem.X[:, self.problem.slices[ell]]
            entry = self._blocks[ell] = (Z.T @ Z, _FaceSlot())
        return entry

    @cached_property
    def gate_scale(self) -> float:
        return max(1.0, float(np.abs(self.problem.X.T @ self.problem.y).max()))


# the cache that the fits of one problem share inside _sharing_block_cache
_shared_cache: ContextVar[_BlockCache | None] = ContextVar("_shared_cache", default=None)


@contextmanager
def _sharing_block_cache(problem: GroupedProblem):
    """Let every :func:`fit` of ``problem`` inside the ``with`` block share one
    :class:`_BlockCache`, as :func:`sgl.path.fit_path`'s levels do.

    The levels keep calling the public ``fit`` (whose binding in
    ``sgl.path`` perfbench's tracer times), and a context variable keeps
    the sharing to this thread or task and to this very problem.
    """
    token = _shared_cache.set(_BlockCache(problem))
    try:
        yield
    finally:
        _shared_cache.reset(token)


def _solve_on_support(
    a0: np.ndarray, gram: np.ndarray, theta: np.ndarray, signs: np.ndarray,
    lam1w: float, lam2: float, slot: _FaceSlot | None = None,
) -> np.ndarray | None:
    """The block minimizer on the face of ``signs``, free of their sign
    constraints; ``theta``, a point of the face, seeds it. Needs ``lam1w > 0``.

    On the support S of ``signs``, with their signs s, the one-norm term is
    linear and the criterion smooth; its minimizer solves
    ``(G_SS + t I) theta_S = a0_S - lam2 s`` with ``t = lam1w / ||theta_S||``.
    With ``G_SS = V diag(mu) V'`` (``mu`` clipped at 0) and
    ``w = V'(a0_S - lam2 s)``, ``sigma = 1 / t`` is the root of the secular
    equation

        F(sigma) = sum_i w_i^2 / (1 + mu_i sigma)^2 - lam1w^2 = 0,

    and ``theta_S = V (sigma w / (1 + mu sigma))``. ``F`` is convex and
    decreasing on ``sigma >= 0``; as for the trust-region step of Moré &
    Sorensen (1983), Newton runs on ``1/sqrt(F + lam1w^2) - 1/lam1w``, which
    has the same root and is concave and increasing, so from the warm start
    ``||theta|| / lam1w`` it lands left of the root in at most one step and
    then climbs to it monotonically, in few steps even where ``F`` flattens
    like ``1/sigma^2``. When ``||w|| <= lam1w`` the minimizer is the origin.
    When the part ``w_0`` of ``w`` on the null directions ``V_0`` of
    ``G_SS`` has ``||w_0|| >= lam1w``, there is none: the criterion falls at
    least at rate ``||w_0|| - lam1w`` along ``V_0 w_0``, and the point
    returned is where that ray from ``theta`` first zeroes a coordinate.
    Returns None when it zeroes none or the secular equation reaches its
    cap.

    The decomposition comes from ``slot``, the block's :class:`_FaceSlot`,
    when its support is this one, and is computed and stored there
    otherwise (in a fresh slot when none is given). ``eigh`` sees the same
    matrix either way, so reuse changes no result.
    """
    support, mu, V = (_FaceSlot() if slot is None else slot).decompose(gram, signs)
    s = signs[support]
    w = V.T @ (a0[support] - lam2 * s)
    pairs = list(zip(mu.tolist(), (w * w).tolist()))
    target = lam1w * lam1w
    out = np.zeros_like(theta)
    # F falls from ||w||^2 at 0 to the weight of the null directions at
    # infinity; a root needs the first above lam1w^2 and the second below
    if sum(q for _, q in pairs) <= target:
        return out
    if sum(q for m, q in pairs if m == 0.0) >= target:
        null = mu == 0.0
        ray = V[:, null] @ w[null]
        start = theta[support]
        ahead = np.flatnonzero(ray * s < 0.0)
        if not ahead.size:
            return None
        steps = -start[ahead] / ray[ahead]
        first = int(np.argmin(steps))
        out[support] = start + steps[first] * ray
        out[support[ahead[first]]] = 0.0
        return out
    sigma = math.sqrt(float(theta @ theta)) / lam1w
    for _ in range(_SECULAR_MAX_STEPS):
        f, slope, scale = -target, 0.0, target
        for m, q in pairs:
            inv = 1.0 / (1.0 + m * sigma)
            term = q * inv * inv
            f += term
            scale += term
            slope -= 2.0 * m * term * inv
        # below the evaluation noise of its terms F carries no sign
        # information and sigma is resolved to machine precision
        if abs(f) <= 4e-16 * scale:
            break
        if not slope < 0.0:
            # every curved term underflowed: sigma ran off to infinity
            return None
        # the reciprocal form's Newton step is F's times
        # 2 g^2 / (lam1w (lam1w + g)) with g^2 = F + lam1w^2, written so to
        # avoid the cancellation in 1/g - 1/lam1w near the root
        gsq = f + target
        nxt = max(sigma - f / slope * (2.0 * gsq / (lam1w * (lam1w + math.sqrt(gsq)))), 0.0)
        if abs(nxt - sigma) <= 4e-16 * sigma:
            sigma = nxt
            break
        sigma = nxt
    else:
        return None
    out[support] = V @ (w * (sigma / (1.0 + sigma * mu)))
    return out


def _lasso_passes(
    a0: np.ndarray, gram: np.ndarray, theta0: np.ndarray, lam2: float, tol: float,
) -> np.ndarray:
    """Minimize a block without a group term, a lasso, by cyclic closed-form
    coordinate shrinks until no pass moves a coordinate by more than ``tol``.
    Each pass runs on Python floats: the gradient ``a0 - gram @ theta`` is
    formed exactly at its start, and a coordinate that moves by ``d``
    subtracts ``d`` times its Gram row (glmnet's covariance update), so
    rounding drift never outlives a pass."""
    theta = np.array(theta0, dtype=float)
    rows = gram.tolist()
    diag = np.diagonal(gram).tolist()
    for _ in range(_BLOCK_MAX_STEPS):
        grad = (a0 - gram @ theta).tolist()
        th = theta.tolist()
        max_move = 0.0
        for j, colsq in enumerate(diag):
            old = th[j]
            b = grad[j] + colsq * old
            new = math.copysign(abs(b) - lam2, b) / colsq if colsq > 0.0 and abs(b) > lam2 else 0.0
            if new != old:
                th[j] = new
                d = new - old
                max_move = max(max_move, abs(d))
                grad = [g - r * d for g, r in zip(grad, rows[j])]
        theta = np.array(th)
        if max_move <= tol:
            break
    return theta


def _block_minimize(
    a0: np.ndarray, gram: np.ndarray, theta0: np.ndarray, prox: np.ndarray,
    lam1w: float, lam2: float, tol: float, slot: _FaceSlot | None = None,
) -> np.ndarray:
    """Minimize the criterion over one block whose zero test fails, the rest
    of the fit fixed.

    Works entirely in block coordinates: ``a0`` is the block columns against
    the block partial residual at theta = 0, ``gram`` the block's Gram
    matrix, which together determine the criterion's restriction up to a
    constant, and ``prox`` the nonzero :func:`_block_prox` of ``a0``.

    With ``lam1w > 0`` this is the active-set method of Osborne, Presnell
    & Turlach (2000) for the lasso, carried to the block. Each step solves
    the block exactly on a face, a support and its signs
    (:func:`_solve_on_support`), first on the face of ``theta0``. When the
    face minimizer flips a sign, the iterate moves toward it to the first
    zero on the segment and drops that coordinate: the criterion is the
    face's up to there, convex along the segment, so the move descends.
    Otherwise the iterate becomes the face minimizer, and the off-support
    coordinate with the largest ``|(a0 - G theta)_j| > lam2`` joins the face
    with that gradient's sign, which the next face minimizer keeps. When
    none is left, the block's optimality conditions hold, so a warm start
    on the optimum's face takes one face solve. A zero ``theta0`` starts at
    the origin step, the exact minimizing step along ``prox`` (the
    soft-thresholded gradient, a descent direction at the origin); a
    support that empties or a failed face solve restarts there, once.
    Every face solve goes through ``slot``, the block's :class:`_FaceSlot`.
    With ``lam1w == 0`` the block is a lasso (:func:`_lasso_passes`).
    """
    if lam1w == 0.0:
        return _lasso_passes(a0, gram, theta0, lam2, tol)
    theta = np.array(theta0, dtype=float)
    signs = np.sign(theta)
    can_restart = True
    for _ in range(_BLOCK_MAX_STEPS):
        face = _solve_on_support(a0, gram, theta, signs, lam1w, lam2, slot) if signs.any() else None
        if face is None:
            if not can_restart:
                break
            can_restart = False
            # prox is (||S(a0, lam2)|| - lam1w) times the unit direction u:
            # the minimizing step at unit curvature, rescaled to u'Gu
            u = prox / float(np.linalg.norm(prox))
            theta = prox / max(float(u @ gram @ u), 1e-300)
            signs = np.sign(theta)
            continue
        flipped = np.flatnonzero(np.sign(face) != signs)
        # signs constrain a face only through the one-norm term
        if lam2 > 0.0 and flipped.size:
            # coordinate j of the segment reaches zero at the share
            # |theta_j| / (|theta_j| + |face_j|) of it, at once if theta_j = 0
            here = np.abs(theta[flipped])
            shares = np.divide(here, here + np.abs(face[flipped]),
                               out=np.zeros_like(here), where=here > 0.0)
            first = int(np.argmin(shares))
            theta = theta + shares[first] * (face - theta)
            # rounding may carry a coordinate tied with the first past zero
            gone = theta * signs < 0.0
            gone[flipped[first]] = True
            theta[gone] = 0.0
            signs[gone] = 0.0
            continue
        theta = face
        grad = a0 - gram @ theta
        off = np.where(signs == 0.0, np.abs(grad), 0.0)
        j = int(np.argmax(off))
        if off[j] <= lam2:
            break
        signs[j] = np.sign(grad[j])
    return theta


def _block_penalty(theta: np.ndarray, lam1w: float, lam2: float) -> float:
    # on Python floats: numpy's per-call overhead dwarfs a block's arithmetic
    t = theta.tolist()
    return lam1w * math.hypot(*t) + lam2 * sum(map(abs, t))


def _screen(problem: GroupedProblem, res: np.ndarray, penalty: PenaltySpec) -> np.ndarray:
    """Mask of the groups failing the exact zero test at residual ``res``,
    all groups at once. Only meaningful for zero blocks, whose partial
    residual is ``res`` itself."""
    return _zero_test_excess(problem, problem.X.T @ res, penalty) > 0.0


def fit(
    problem: GroupedProblem,
    penalty: PenaltySpec,
    opts: SolverOptions | None = None,
    warm: Coefficients | None = None,
) -> FitResult:
    """Solve the penalized least-squares problem by blockwise coordinate descent.

    Sweeps cyclically over a working set of groups: those nonzero at the
    start plus those failing the exact zero test there. Each visit forms
    one block gradient against the block's partial residual, ``Z'r + G b``
    (``Z'r`` for a zero block), zeroes the block when the test allows it and
    otherwise minimizes over the block by active-set steps from its current
    support and signs, each an exact solve (see :func:`_block_minimize`; a
    block without a group term by coordinate shrinks). Every other
    group stays exactly zero. A visit that changes the block by ``d``
    accepts the change only when the criterion's exact change,
    ``Zd'(Zd/2 - r)`` plus the block penalty's change, is at most 1e-14 of
    the criterion's scale, and then updates the residual by ``-Zd``; so no
    accepted update raises the criterion beyond its rounding, and the
    objective is nonincreasing sweep over sweep. After each sweep the
    residual is formed afresh from the working set's columns, the only ones
    that can be nonzero. When a sweep moves no coefficient by more than
    ``outer_tol``, all other groups are screened at once at that residual,
    and any that fail the zero test join the working set; once none do,
    the fit stops, converged if its first-order violations pass the gate of
    :class:`SolverOptions` and unconverged if its sweeps have stalled short
    of it. With both penalties zero this is plain least squares; a
    rank-deficient design then sets ``degenerate`` (the returned solution
    is one minimizer among many).

    What does not depend on the penalty sits in a :class:`_BlockCache`: the
    block Gram ``G``, built on the block's first nonzero visit, the
    eigendecomposition of ``G`` on the support of the block's last face
    solve, reused while that support holds, and the gate's scale
    ``max(1, ||X'y||_inf)``. Each call makes a fresh one, except inside
    :func:`sgl.path.fit_path`, whose levels share one; the results are the
    same either way.
    """
    opts = opts or SolverOptions()
    X, y = problem.X, problem.y
    p = problem.p
    if warm is None:
        beta = np.zeros(p)
    else:
        beta = np.array(problem.coefficients(warm).beta, dtype=float)
    lam1, lam2 = penalty.lambda1, penalty.lambda2
    slices = problem.slices
    cache = _shared_cache.get()
    if cache is None or cache.problem is not problem:
        cache = _BlockCache(problem)
    kkt_gate = 5.0 * opts.outer_tol * cache.gate_scale
    block_tol = opts.outer_tol / 10.0

    res = y - X @ beta if beta.any() else y.copy()
    work = problem.active_groups(beta) | _screen(problem, res, penalty)

    def working_columns(work: np.ndarray) -> np.ndarray:
        return np.flatnonzero(np.repeat(work, problem.group_sizes))

    # only working-set columns can be nonzero, so each sweep's exact
    # residual is formed from those alone
    cols = working_columns(work)
    X_work = X[:, cols]
    history = [_objective_from_residual(problem, res, beta, penalty)]
    converged = False
    max_delta = 0.0
    sweeps = 0
    for _ in range(opts.max_sweeps):
        sweeps += 1
        max_delta = 0.0
        report = None
        for ell in np.flatnonzero(work):
            sl = slices[ell]
            Z = X[:, sl]
            bl = beta[sl]
            # the block gradient against the block's partial residual
            a = Z.T @ res
            if bl.any():
                a += cache.block(ell)[0] @ bl
            lam1w = lam1 * float(problem.weights[ell])
            new_bl = _block_prox(a, lam1w, lam2)
            if new_bl.any():
                gram, slot = cache.block(ell)
                new_bl = _block_minimize(a, gram, bl, new_bl, lam1w, lam2, block_tol, slot)
            d = new_bl - bl
            if d.any():
                Zd = Z @ d
                pen_old = _block_penalty(bl, lam1w, lam2)
                pen_new = _block_penalty(new_bl, lam1w, lam2)
                change = float(Zd @ (0.5 * Zd - res)) + pen_new - pen_old
                # the update is the exact minimizer of its restriction, so a
                # true rise is a pathology; but near a flat optimum genuine
                # progress sits below the rounding of the criterion, and
                # rejecting it would freeze the iterate early
                if change <= 1e-14 * (1.0 + 0.5 * float(res @ res) + pen_old):
                    max_delta = max(max_delta, float(np.abs(d).max()))
                    beta[sl] = new_bl
                    res -= Zd
        res = y - X_work @ beta[cols]
        history.append(_objective_from_residual(problem, res, beta, penalty))
        if max_delta <= opts.outer_tol:
            entering = _screen(problem, res, penalty) & ~work
            if entering.any():
                work |= entering
                cols = working_columns(work)
                X_work = X[:, cols]
                continue
            report = kkt_residual(problem, beta, penalty)
            converged = report.worst_violation <= kkt_gate
            # a stalled fit stops too, but it has not converged
            if converged or max_delta <= 1e-4 * opts.outer_tol:
                break
    if report is None:
        # no gate ran on the final beta
        report = kkt_residual(problem, beta, penalty)
    degenerate = False
    if lam1 == 0.0 and lam2 == 0.0:
        degenerate = int(np.linalg.matrix_rank(X)) < p
    return FitResult(
        coefficients=Coefficients(beta),
        objective=history[-1],
        sweeps=sweeps,
        converged=converged,
        max_coef_delta=max_delta,
        kkt=report,
        objective_history=np.asarray(history),
        degenerate=degenerate,
    )


def kkt_residual(problem: GroupedProblem, beta, penalty: PenaltySpec) -> KktReport:
    """Measure first-order optimality violations of ``beta``, in gradient units.

    Active blocks report the sup norm of the stationarity residual, using
    the best feasible one-norm multiplier at zero coordinates. Zero blocks
    report how far the soft-thresholded gradient vector sticks out of the
    ball of radius ``lambda1 * w`` (its sup norm when that radius is zero).
    All entries vanish exactly at an optimum.
    """
    coefs = problem.coefficients(beta)
    b = coefs.beta
    grad = problem.X.T @ (problem.y - problem.X @ b)
    lam1, lam2 = penalty.lambda1, penalty.lambda2
    active = problem.active_groups(coefs)
    sizes = problem.group_sizes
    # zero blocks: the soft-thresholded gradient against the group radius
    stat = grad
    if lam1 > 0.0:
        outside = np.maximum(_zero_test_excess(problem, grad, penalty), 0.0)
        # active blocks: subtract the group term's gradient lam1 * w * b / ||b_g||,
        # with b_g first scaled by its largest magnitude so that a norm whose
        # square underflows still divides
        peaks = np.where(active, _group_norms(problem, b, np.inf), 1.0)
        scaled = b / np.repeat(peaks, sizes)
        norms = np.where(active, _group_norms(problem, scaled), 1.0)
        stat = grad - np.repeat(lam1 * problem.weights, sizes) * (scaled / np.repeat(norms, sizes))
    else:
        outside = _group_norms(problem, soft_threshold(grad, lam2), np.inf)
    viol = np.where(
        b != 0.0, np.abs(stat - lam2 * np.sign(b)), np.maximum(np.abs(stat) - lam2, 0.0)
    )
    per_coord = np.where(np.repeat(active, sizes), viol, 0.0)
    per_group = np.where(active, _group_norms(problem, per_coord, np.inf), outside)
    return KktReport(
        per_group=per_group,
        per_coordinate=per_coord,
        active=active,
        worst_violation=float(per_group.max()),
    )
