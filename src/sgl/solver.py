"""Blockwise coordinate descent for least squares under a group two-norm
penalty plus an elementwise one-norm penalty.

The solver cycles over a working set of coefficient blocks. Each visit
first runs a cheap exact test deciding whether the whole block is zero at
the optimum. An active block is then minimized by active-set steps, each an
exact solve on a support and its signs: one eigendecomposition of the
support's Gram matrix and Newton on a scalar secular equation, or, for a
block without a group penalty (a lasso), a least-squares solve. Blocks
outside the working set stay zero and are screened all at once whenever
the working set settles. After each sweep that moves a coefficient, and at
a warm start before the first sweep, a Newton step on the working set's
sign face is tried (on a face of n columns or more, only once a sweep
leaves every sign as the sweep before did), and when it does not lower
the criterion, the same step stopped where it first zeroes a coordinate;
either is kept only when it lowers the criterion. A fixed point of these
rules is a global optimum of the convex criterion.
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
# this cap only guards against a defect
_BLOCK_MAX_STEPS = 500
# Without a group term, a face direction whose curvature and pull are both
# below this share of the face's scales is flat: both are rounding there
_ROUNDING = 1e-12


def soft_threshold(z, lam):
    """Shrink ``z`` toward zero by ``lam``: sign(z) * max(|z| - lam, 0), elementwise."""
    lam = float(lam)
    if not (lam >= 0.0) or not math.isfinite(lam):
        raise ValueError(f"threshold must be nonnegative and finite, got {lam}")
    out = _shrink(np.asarray(z, dtype=float), lam)
    return float(out) if out.ndim == 0 else out


def _shrink(z: np.ndarray, lam: float) -> np.ndarray:
    # soft_threshold's arithmetic without its checks, for the solver's own
    # arrays and levels
    return np.sign(z) * np.maximum(np.abs(z) - lam, 0.0)


def _block_prox(a: np.ndarray, lam1w: float, lam2: float) -> np.ndarray:
    """The block penalty's proximal map at unit step: S(a, lam2) shrunk in
    norm by ``lam1w``.

    It is zero exactly when the block zero test ||S(a, lam2)|| <= lam1w
    passes, and it is the block minimizer when the block's columns are
    orthonormal. The norm is summed like :func:`_zero_test_excess` sums a
    group's segment, so on the same vector the two decide alike.
    """
    g = _shrink(a, lam2)
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
    shrunk = _shrink(grad, penalty.lambda2)
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
    working-set sweeps. Blocks are solved exactly, so ``inner_tol`` is
    validated but changes no result.

    No option controls the face steps that :func:`fit` tries at a warm
    start and between sweeps. A point is kept only when its exact criterion
    is strictly below the one it would replace, and none is tried after the
    last allowed sweep, so a fit always returns a sweep's output or, when
    the sweep after a kept point cannot lower it, that point, with the
    sweep's signs.
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


class _Columns:
    """The columns of the groups of a mask, whose bytes are ``key``: their
    indices ``cols``, ``X`` itself when that is every column and a copy of
    them otherwise, and, formed on first use, their Gram ``X'X``."""

    def __init__(self, problem: GroupedProblem, groups: np.ndarray):
        self.key = groups.tobytes()
        self.cols = np.flatnonzero(np.repeat(groups, problem.group_sizes))
        self.X = problem.X if self.cols.size == problem.p else problem.X[:, self.cols]

    @cached_property
    def gram(self) -> np.ndarray:
        return self.X.T @ self.X


class _BlockCache:
    """What every fit of one problem can share, whatever its penalty: each
    block's Gram and :class:`_FaceSlot`, built on the block's first nonzero
    visit, so groups that never enter cost nothing; ``X'y``, which sets
    the scale ``max(1, ||X'y||_inf)`` of the KKT gate and, in
    :func:`sgl.path.lambda_max`, the path's first level; the last ``X'r``
    that :meth:`gradient` formed, with its residual; and the
    :class:`_Columns` of the last residual's groups and of the last working
    set.

    A block holds its Gram and at most one decomposition of a principal
    submatrix of it, so the blocks hold at most about twice the Grams' sum
    of k_g^2 floats; the two column sets hold at most two copies of ``X``
    and the Gram of the working set's columns.
    """

    def __init__(self, problem: GroupedProblem):
        self.problem = problem
        self._blocks: list[tuple[np.ndarray, _FaceSlot] | None] = [None] * problem.n_groups
        # the bytes of the last residual asked of gradient, and its X'r
        self._res_key: bytes | None = None
        self._xtr: np.ndarray | None = None
        # the columns of the last residual's groups and of the last working set
        self._support: _Columns | None = None
        self._work: _Columns | None = None

    def block(self, ell: int) -> tuple[np.ndarray, _FaceSlot]:
        """Block ``ell``'s Gram matrix and face slot."""
        entry = self._blocks[ell]
        if entry is None:
            Z = self.problem.X[:, self.problem.slices[ell]]
            entry = self._blocks[ell] = (Z.T @ Z, _FaceSlot())
        return entry

    @cached_property
    def xty(self) -> np.ndarray:
        xty = self.problem.X.T @ self.problem.y
        xty.setflags(write=False)
        return xty

    def _columns(self, held: _Columns | None, groups: np.ndarray) -> _Columns:
        # held when it is the columns of the groups of mask groups
        if held is not None and held.key == groups.tobytes():
            return held
        return _Columns(self.problem, groups)

    def working_set(self, work: np.ndarray) -> _Columns:
        """The columns of the groups of mask ``work`` and their Gram, kept
        while the working set holds, across the levels of a path too."""
        self._work = self._columns(self._work, work)
        return self._work

    def residual(self, beta: np.ndarray, active: np.ndarray | None = None) -> np.ndarray:
        """``y - X_A beta_A``, with A the columns of the groups of ``beta``
        that hold a nonzero (``active``, their mask, when the caller knows
        it).

        Every residual of a fit and of :func:`kkt_residual` is formed here,
        so the same ``beta`` gives the same bits wherever it is formed, and
        :meth:`gradient` can tell a residual it has seen. When every group
        is nonzero the product is with ``X`` as it is; otherwise with a copy
        of the columns of A (none when ``beta`` is zero: then the residual
        has the bits of ``y``), kept while the next residual's groups are
        the same.
        """
        if active is None:
            active = _group_norms(self.problem, beta, np.inf) != 0.0
        support = self._support = self._columns(self._support, active)
        return self.problem.y - support.X @ beta[support.cols]

    def gradient(self, res: np.ndarray) -> np.ndarray:
        """``X'res``, read-only, formed only when ``res`` is not bit for bit
        the residual of the last call.

        The residual is kept as a copy of its bytes, so one changed in
        place since the call is a new one. A residual with the bits of ``y``
        takes :attr:`xty`: a fit from zero screens the very array that
        :func:`sgl.path.lambda_max` tests, so a fit at that level is
        all-zero. A residual formed by :meth:`residual` from the same
        coefficients has the same bits, so inside :func:`sgl.path.fit_path`
        the product of a level's last screen also serves its KKT report and
        the next level's warm start.
        """
        key = res.tobytes()
        if key != self._res_key:
            if key == self.problem.y.tobytes():
                xtr = self.xty
            else:
                xtr = self.problem.X.T @ res
                xtr.setflags(write=False)
            self._res_key, self._xtr = key, xtr
        return self._xtr

    @cached_property
    def gate_scale(self) -> float:
        return max(1.0, float(np.abs(self.xty).max()))


# the cache that the fits of one problem share inside _sharing_block_cache
_shared_cache: ContextVar[_BlockCache | None] = ContextVar("_shared_cache", default=None)


@contextmanager
def _sharing_block_cache(problem: GroupedProblem, cache: _BlockCache | None = None):
    """Let every :func:`fit` and :func:`kkt_residual` of ``problem`` inside
    the ``with`` block share one :class:`_BlockCache`, ``cache`` or a fresh
    one, as :func:`sgl.path.fit_path`'s levels and a fit's KKT report do.

    The callers keep calling the public ``fit`` and ``kkt_residual`` (whose
    bindings perfbench's tracer times), and a context variable keeps the
    sharing to this thread or task and to this very problem.
    """
    token = _shared_cache.set(_BlockCache(problem) if cache is None else cache)
    try:
        yield
    finally:
        _shared_cache.reset(token)


def _block_cache(problem: GroupedProblem) -> _BlockCache:
    """The :class:`_BlockCache` shared for ``problem``, or a fresh one."""
    cache = _shared_cache.get()
    return cache if cache is not None and cache.problem is problem else _BlockCache(problem)


def _first_zero(
    start: np.ndarray, move: np.ndarray, signs: np.ndarray, reach: float = math.inf,
) -> np.ndarray | None:
    """The point ``start + t move`` at the least ``t`` in [0, reach] where a
    coordinate that ``move`` carries toward zero from the side of its sign
    in ``signs`` reaches zero; None when none does by ``reach``.

    That coordinate is set to exactly 0, as is any that rounding carries past
    zero with it. Up to this point every other coordinate keeps its sign, so
    the criterion along the move is the smooth one of the face of ``signs``.
    """
    toward = np.flatnonzero(move * signs < 0.0)
    if not toward.size:
        return None
    steps = -start[toward] / move[toward]
    first = int(np.argmin(steps))
    if not steps[first] <= reach:
        return None
    out = start + steps[first] * move
    out[out * signs < 0.0] = 0.0
    out[toward[first]] = 0.0
    return out


def _solve_on_support(
    a0: np.ndarray, gram: np.ndarray, theta: np.ndarray, signs: np.ndarray,
    lam1w: float, lam2: float, slot: _FaceSlot | None = None,
) -> np.ndarray | None:
    """The block minimizer on the face of ``signs``, free of their sign
    constraints; ``theta``, a point of the face, seeds it.

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
    Without a group term (``lam1w = 0``) sigma is infinite and the minimizer
    is the face's least-squares solution ``V (w / mu)``; a direction whose
    curvature and pull are both at rounding level, ``mu_i`` against the
    largest ``mu`` and ``w_i`` against ``|a0_S| + lam2``, is flat, like the
    difference of two duplicate columns, and the minimum-norm solution puts
    nothing there. When the part ``w_0`` of ``w`` on the other null
    directions ``V_0`` of ``G_SS`` has ``||w_0|| >= lam1w`` (``> 0`` without
    a group term), there is no minimizer: the criterion falls at least at
    rate ``||w_0|| - lam1w`` along ``V_0 w_0``, and the point returned is
    where that ray from ``theta`` first zeroes a coordinate. Returns None
    when it zeroes none or the secular equation reaches its cap.

    The decomposition comes from ``slot``, the block's :class:`_FaceSlot`,
    when its support is this one, and is computed and stored there
    otherwise (in a fresh slot when none is given). ``eigh`` sees the same
    matrix either way, so reuse changes no result.
    """
    support, mu, V = (_FaceSlot() if slot is None else slot).decompose(gram, signs)
    s = signs[support]
    a = a0[support]
    w = V.T @ (a - lam2 * s)
    out = np.zeros_like(theta)
    if lam1w == 0.0:
        rounding = _ROUNDING * float(np.linalg.norm(np.abs(a) + lam2))
        flat = (mu <= _ROUNDING * mu[-1]) & (np.abs(w) <= rounding)
        null = (mu == 0.0) & ~flat
        if not null.any():
            out[support] = V[:, ~flat] @ (w[~flat] / mu[~flat])
            return out
    else:
        pairs = list(zip(mu.tolist(), (w * w).tolist()))
        target = lam1w * lam1w
        # F falls from ||w||^2 at 0 to the weight of the null directions at
        # infinity; a root needs the first above lam1w^2 and the second below
        if sum(q for _, q in pairs) <= target:
            return out
        null = mu == 0.0
    if lam1w == 0.0 or sum(q for m, q in pairs if m == 0.0) >= target:
        stop = _first_zero(theta[support], V[:, null] @ w[null], s)
        if stop is None:
            return None
        out[support] = stop
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


def _block_minimize(
    a0: np.ndarray, gram: np.ndarray, theta0: np.ndarray, prox: np.ndarray,
    lam1w: float, lam2: float, slot: _FaceSlot | None = None,
) -> np.ndarray:
    """Minimize the criterion over one block whose zero test fails, the rest
    of the fit fixed.

    Works entirely in block coordinates: ``a0`` is the block columns against
    the block partial residual at theta = 0, ``gram`` the block's Gram
    matrix, which together determine the criterion's restriction up to a
    constant, and ``prox`` the :func:`_block_prox` of ``a0``.

    This is the active-set method of Osborne, Presnell & Turlach (2000) for
    the lasso, carried to the block; a block without a group term
    (``lam1w = 0``) is a lasso. Each step solves the block exactly on a
    face, a support and its signs (:func:`_solve_on_support`), first on the
    face of ``theta0``. When the face minimizer flips a sign, the iterate
    moves toward it to the first zero on the segment (:func:`_first_zero`)
    and drops that coordinate: the criterion is the face's up to there,
    convex along the segment, so the move descends. Otherwise the iterate
    becomes the face minimizer, and the off-support coordinate with the
    largest ``|(a0 - G theta)_j| > lam2`` joins the face with that
    gradient's sign, which the next face minimizer keeps. When none is
    left, the block's optimality conditions hold, so a warm start on the
    optimum's face takes one face solve. A zero ``theta0`` starts at the
    origin step, the exact minimizing step along ``prox`` (the
    soft-thresholded gradient, a descent direction at the origin); a
    support that empties or a failed face solve restarts there, once, and
    at the origin itself when ``prox`` is zero (the zero test passes).
    Every face solve goes through ``slot``, the block's :class:`_FaceSlot`.
    """
    theta = np.array(theta0, dtype=float)
    signs = np.sign(theta)
    can_restart = True
    for _ in range(_BLOCK_MAX_STEPS):
        face = _solve_on_support(a0, gram, theta, signs, lam1w, lam2, slot) if signs.any() else None
        if face is None:
            if not can_restart:
                break
            can_restart = False
            norm = float(np.linalg.norm(prox))
            if norm == 0.0:
                return np.zeros_like(theta)
            # prox is (||S(a0, lam2)|| - lam1w) times the unit direction u:
            # the minimizing step at unit curvature, rescaled to u'Gu
            u = prox / norm
            theta = prox / max(float(u @ gram @ u), 1e-300)
            signs = np.sign(theta)
            continue
        # signs constrain a face only through the one-norm term; the sign
        # test first keeps the common step, which flips none, cheap
        flipped = lam2 > 0.0 and bool((np.sign(face) != signs).any())
        stop = _first_zero(theta, face - theta, signs, 1.0) if flipped else None
        if stop is not None:
            theta = stop
            signs[theta == 0.0] = 0.0
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


def _screen(problem: GroupedProblem, xtr: np.ndarray, penalty: PenaltySpec) -> np.ndarray:
    """Mask of the groups failing the exact zero test at ``xtr = X'r``, all
    groups at once. Only meaningful for zero blocks, whose partial residual
    is ``r`` itself."""
    return _zero_test_excess(problem, xtr, penalty) > 0.0


def _newton_step(
    X_work: np.ndarray, res: np.ndarray, b: np.ndarray, groups: np.ndarray,
    lam1w: np.ndarray, lam2: float, gram: np.ndarray | None = None,
) -> np.ndarray | None:
    """One Newton step on the face of ``b``, the working set's coefficients,
    with ``X_work`` their columns, ``res`` the residual, ``groups`` their
    groups, ``lam1w`` every group's ``lambda1 * w`` and ``gram``
    ``X_work'X_work`` (formed here when not given).

    On the face, the support S of ``b`` and its signs s, the criterion is
    smooth: with ``u_g = b_g / ||b_g||`` its gradient is
    ``-X_S'r + lambda1 w_g u_g + lambda2 s`` and its Hessian
    ``X_S'X_S + (+)_g lambda1 w_g / ||b_g|| (I - u_g u_g')``. Only S moves,
    so every zero of ``b`` stays an exact zero.

    A face of fewer than n columns takes the plain solve. On a wider one
    ``X_S'X_S`` is singular (centered columns span at most n - 1
    dimensions), and so it is on a narrower one whose solve fails (say,
    with duplicate columns); there the step is taken on the Hessian's
    range: in its eigendecomposition, eigenvalues at or below 1e-10 of the
    largest are dropped. Where the gradient has a part ``g0`` on the
    dropped directions, the face's quadratic model falls linearly along
    ``-g0``, and the step runs on along it to the first coordinate it
    zeroes, as the ray of :func:`_solve_on_support` does. None when the
    eigendecomposition fails too or the step is not finite.
    """
    face = np.flatnonzero(b)
    b_S, g_S = b[face], groups[face]
    if gram is None:
        gram = X_work.T @ X_work
    with np.errstate(all="ignore"):
        norms = np.sqrt(np.bincount(g_S, weights=b_S * b_S))[g_S]
        c = lam1w[g_S] / norms
        u = b_S / norms
        hess = gram[np.ix_(face, face)] + np.diag(c) - (g_S[:, None] == g_S) * np.outer(c * u, u)
        grad = c * b_S + lam2 * np.sign(b_S) - (res @ X_work)[face]
        stop = None
        if face.size < len(res):
            try:
                stop = b_S - np.linalg.solve(hess, grad)
            except np.linalg.LinAlgError:
                pass  # singular after all: the range step below
        if stop is None:
            try:
                mu, V = np.linalg.eigh(hess)
            except np.linalg.LinAlgError:
                return None
            live = mu > 1e-10 * mu[-1]
            w = V.T @ grad
            stop = b_S - V[:, live] @ (w[live] / mu[live])
            ray = _first_zero(stop, -(V[:, ~live] @ w[~live]), np.sign(stop))
            if ray is not None:
                stop = ray
    if not np.isfinite(stop).all():
        return None
    trial = b.copy()
    trial[face] = stop
    return trial


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
    support and signs, each an exact solve (see :func:`_block_minimize`),
    with or without a group term. Every other group stays exactly zero. A
    visit that changes the block by ``d`` accepts the change only when the
    criterion's exact change, ``Zd'(Zd/2 - r)`` plus the block penalty's
    change, is at most 1e-14 of the criterion's scale, and then updates the
    residual by ``-Zd``; so no accepted update raises the criterion beyond
    its rounding, and the objective is nonincreasing sweep over sweep up to
    that rounding. After each sweep the residual is formed afresh as
    ``y - X_A b_A``, with A the columns of the nonzero groups, the one
    formula for every residual of a fit and of :func:`kkt_residual`, so the
    same coefficients give the same bits wherever they are formed. When a
    sweep moves no coefficient by more than ``outer_tol``, all other groups
    are screened at once at that residual, and any that fail the zero test
    join the working set; once none do, the fit stops, converged if its
    first-order violations pass the gate of :class:`SolverOptions` and
    unconverged if its sweeps have stalled short of it. With both penalties
    zero this is plain least squares; a rank-deficient design then sets
    ``degenerate`` (the returned solution is one minimizer among many).

    Block coordinate descent converges at a linear rate that can be slow
    (near-interpolating designs with n < p, warm-started levels with every
    group active), so each sweep that moves a coefficient by more than
    ``outer_tol`` is followed by a Newton step on the sign face of the
    working set's coefficients, their support and signs (see
    :func:`_newton_step`; the Hessian-based steps of Zhang, Zhang, Sun &
    Toh 2020). A face of n columns or more, whose Hessian is singular,
    waits until a sweep leaves every working-set coefficient with the sign
    (-1, 0 or +1) it had after the sweep before. A warm start tries one
    step on its own face before the first sweep: the solution of a nearby
    penalty carries its signs, and the step is the predictor of a homotopy
    method (Osborne, Presnell & Turlach 2000). On a face the criterion is
    smooth, and only its nonzero coefficients move, so every zero stays
    exactly zero. When the full step is not kept, the step is tried once
    more, stopped at the first coordinate whose sign it would flip, which
    is set to exactly 0 (see :func:`_first_zero`); up to there the
    criterion is the face's. When neither is kept, that sign pattern is not
    tried again until it changes. The steps slice ``X_S'X_S`` from one
    Gram of the working set's columns, formed at the first step on them
    and kept while the working set holds.

    A trial is kept, with its residual and its objective as the sweep's
    history entry (the start's, at a warm start), only when that exact
    objective is strictly below the entry's; so a trial never raises the
    history, groups outside the working set stay exactly zero, and a
    singular or non-finite solve changes nothing. A kept trial can land on
    the optimum itself; when the sweep after it moves nothing beyond
    ``outer_tol``, leaves every sign as the trial's and still reads above
    it, that sweep could not lower the point, and the fit goes back to the
    trial's point and objective.
    None is tried after a sweep that meets the stop rule or after the last
    allowed sweep, so the returned ``beta`` is always a block sweep's
    output or a point with the same signs, and has a sweep's exact zeros.

    What does not depend on the penalty sits in a :class:`_BlockCache`: the
    block Gram ``G``, built on the block's first nonzero visit, the
    eigendecomposition of ``G`` on the support of the block's last face
    solve, reused while that support holds, ``X'y`` for the gate's scale
    ``max(1, ||X'y||_inf)`` and the first screen of a start from zero, the
    working set's columns and their Gram, kept while the working set holds,
    and the last ``X'r`` it formed, with its residual. So a fit forms one
    ``X'r`` per screen: one at a warm start and one at each stop screen,
    whose last also serves the KKT report, which :func:`kkt_residual` makes
    on the fit's cache. Each call makes a fresh cache, except inside
    :func:`sgl.path.fit_path`, whose levels share one, so that a level's
    warm start takes the product of the level before's last screen; the
    results are the same either way.
    """
    opts = opts or SolverOptions()
    X = problem.X
    p = problem.p
    if warm is None:
        beta = np.zeros(p)
    else:
        beta = np.array(problem.coefficients(warm).beta, dtype=float)
    lam1, lam2 = penalty.lambda1, penalty.lambda2
    slices = problem.slices
    cache = _block_cache(problem)
    kkt_gate = 5.0 * opts.outer_tol * cache.gate_scale

    active = problem.active_groups(beta)
    res = cache.residual(beta, active)
    work = active | _screen(problem, cache.gradient(res), penalty)

    col_groups = np.repeat(np.arange(problem.n_groups), problem.group_sizes)
    group_lam1w = lam1 * problem.weights

    def keep_if_lower(trial: np.ndarray | None) -> bool:
        # keep a trial of the working set's coefficients only when its exact
        # objective is strictly below the history's last entry
        nonlocal beta, res, kept
        if trial is None:
            return False
        trial_beta = np.zeros(p)
        trial_beta[work_set.cols] = trial
        with np.errstate(all="ignore"):
            trial_res = cache.residual(trial_beta)
            trial_obj = _objective_from_residual(problem, trial_res, trial_beta, penalty)
        if not trial_obj < history[-1]:
            return False
        beta, res, history[-1] = trial_beta, trial_res, trial_obj
        kept = trial_beta.copy(), trial_res.copy()
        return True

    def report_kkt() -> KktReport:
        # the public kkt_residual on this fit's cache: at the stop it forms
        # no product, its residual being the last screen's bit for bit
        with _sharing_block_cache(problem, cache):
            return kkt_residual(problem, beta, penalty)

    def face_step(b_work: np.ndarray, key: bytes) -> None:
        # the Newton step on the face of b_work, whose signs are key, then
        # that step stopped at its first sign change; a face where neither
        # is kept is not tried again until the signs change
        nonlocal rejected_key
        if key == rejected_key or not b_work.any():
            return
        trial = _newton_step(
            work_set.X, res, b_work, col_groups[work_set.cols], group_lam1w, lam2, work_set.gram
        )
        if trial is None or not (
            keep_if_lower(trial)
            or keep_if_lower(_first_zero(b_work, trial - b_work, np.sign(b_work), 1.0))
        ):
            rejected_key = key

    # the working set's columns; their Gram is formed for the first face
    # step on them and kept while the working set holds
    work_set = cache.working_set(work)
    history = [_objective_from_residual(problem, res, beta, penalty)]
    # the working set's signs after the last sweep, and those of the last
    # face whose step was rejected
    signs_key = rejected_key = None
    # the point of a trial kept since the last sweep, as (beta, residual)
    kept = None
    # a warm start carries the signs of a nearby optimum: step on its face
    # before the first sweep
    face_step(beta[work_set.cols], np.sign(beta[work_set.cols]).tobytes())
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
                new_bl = _block_minimize(a, gram, bl, new_bl, lam1w, lam2, slot)
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
        b_work = beta[work_set.cols]
        res = cache.residual(beta)
        history.append(_objective_from_residual(problem, res, beta, penalty))
        if (
            kept is not None and max_delta <= opts.outer_tol and history[-1] > history[-2]
            and np.array_equal(np.sign(kept[0][work_set.cols]), np.sign(b_work))
        ):
            # the trial sat at the optimum to within outer_tol, and the
            # sweep could not lower it: go back to the trial's point, which
            # has the sweep's signs and so its zeros
            beta, res = kept
            b_work = beta[work_set.cols]
            history[-1] = history[-2]
        kept = None
        previous, signs_key = signs_key, np.sign(b_work).tobytes()
        if max_delta <= opts.outer_tol:
            entering = _screen(problem, cache.gradient(res), penalty) & ~work
            if entering.any():
                work |= entering
                work_set = cache.working_set(work)
                continue
            report = report_kkt()
            converged = report.worst_violation <= kkt_gate
            # a stalled fit stops too, but it has not converged
            if converged or max_delta <= 1e-4 * opts.outer_tol:
                break
        elif sweeps < opts.max_sweeps and (
            np.count_nonzero(b_work) < problem.n or signs_key == previous
        ):
            # never after the last sweep: a fit returns a sweep's output. A
            # face of n columns or more waits until its signs settle
            face_step(b_work, signs_key)
    if report is None:
        # no gate ran on the final beta
        report = report_kkt()
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

    The gradient is ``X'r`` at the residual that :func:`fit` forms for
    ``beta``, taken from the problem's shared :class:`_BlockCache` when one
    is set: inside a fit or a path, a report on the coefficients of the last
    screen forms no product of its own.
    """
    b = problem.coefficients(beta).beta
    peaks = _group_norms(problem, b, np.inf)
    active = peaks != 0.0
    cache = _block_cache(problem)
    grad = cache.gradient(cache.residual(b, active))
    lam1, lam2 = penalty.lambda1, penalty.lambda2
    sizes = problem.group_sizes
    # zero blocks: the soft-thresholded gradient against the group radius
    stat = grad
    if lam1 > 0.0:
        outside = np.maximum(_zero_test_excess(problem, grad, penalty), 0.0)
        # active blocks: subtract the group term's gradient lam1 * w * b / ||b_g||,
        # with b_g first scaled by its largest magnitude so that a norm whose
        # square underflows still divides
        peaks = np.where(active, peaks, 1.0)
        scaled = b / np.repeat(peaks, sizes)
        norms = np.where(active, _group_norms(problem, scaled), 1.0)
        stat = grad - np.repeat(lam1 * problem.weights, sizes) * (scaled / np.repeat(norms, sizes))
    else:
        outside = _group_norms(problem, _shrink(grad, lam2), np.inf)
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
