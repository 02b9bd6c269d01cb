"""Blockwise coordinate descent for least squares under a group two-norm
penalty plus an elementwise one-norm penalty.

The solver cycles over a working set of coefficient blocks. Each visit
first runs a cheap exact test deciding whether the whole block is zero at
the optimum. An active block then takes one proximal-gradient step of
length 1/L, with L the largest eigenvalue of the block's Gram matrix.
Blocks outside the working set stay zero and are screened all at once
whenever the working set settles. Newton steps on the working set's sign
face follow the sweeps: one at a warm start, before the first sweep, and
after any sweep that does not end the fit, a chain of steps each from
the last point kept; a full step that does not lower the criterion is
tried again stopped where it first zeroes a coordinate, and the chain
goes on from whichever point is kept, on its new face when its signs
changed. A fit stops, converged, at a sweep or a full step that
moves nothing by more than its tolerance, when that point's KKT report,
its one certificate, reads 0 at every zero group and every zero
coordinate (each passes its zero test or entry test) and its worst
violation is within the KKT gate; and it stops, unconverged, at such a
sweep that fails the certificate without lowering the criterion or
bringing in a group. A fixed point of these rules is a global optimum of
the convex criterion.
"""

from __future__ import annotations

import math
import numbers
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
    _segment_norms,
)

__all__ = [
    "KktReport",
    "SolverOptions",
    "soft_threshold",
    "fit",
    "kkt_residual",
]

# A chain of face steps after a sweep, each from the last point kept,
# reaches this cap in 72 of the 1,496 chains on the benchmark's paths
# (paper draws 100-112 and 700-712, wide draws 1300-1311, at mixings 0,
# 0.5 and 1); past it a sweep follows
_FACE_STEPS = 10


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
    passes, its norm formed as :func:`_zero_test_excess` forms a group's,
    and it is the block minimizer when the block's columns are orthonormal.
    """
    g = _shrink(a, lam2)
    gnorm = float(_segment_norms(g)[0])
    if gnorm <= lam1w:
        return np.zeros(g.shape)
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
    active blocks; ``worst_violation`` is the overall maximum. An entry at a
    zero is 0 exactly when its test passes: a zero block's when its zero
    test ``||S(X_g'r, lambda2)|| <= lambda1 w_g`` does, and a zero
    coordinate's of an active block when ``|X_j'r| <= lambda2``. So the
    report is :func:`fit`'s stop certificate.
    """

    per_group: np.ndarray
    per_coordinate: np.ndarray
    active: np.ndarray
    worst_violation: float


@dataclass(frozen=True)
class SolverOptions:
    """Convergence controls for :func:`fit`.

    ``outer_tol`` is the move below which a sweep or a face step is quiet,
    and it sets the KKT gate ``5 * outer_tol * max(1, ||X'y||_inf)`` that
    the report of a quiet point must meet (:func:`fit` states its stop
    rule). ``max_sweeps`` caps the working-set sweeps, which are all that
    ``FitResult.sweeps`` counts; no face step follows the last one. A
    block visit takes one proximal-gradient step, which has no tolerance
    of its own, so ``inner_tol`` is validated but changes no result. No
    option controls the face steps.
    """

    outer_tol: float = 1e-7
    max_sweeps: int = 10000
    inner_tol: float | None = None

    def __post_init__(self):
        if not (self.outer_tol > 0.0) or not math.isfinite(self.outer_tol):
            raise ValueError(f"outer_tol must be positive, got {self.outer_tol}")
        if not isinstance(self.max_sweeps, numbers.Integral) or self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be an integer of at least 1, got {self.max_sweeps!r}")
        if self.inner_tol is not None and not (self.inner_tol > 0.0):
            raise ValueError(f"inner_tol must be positive, got {self.inner_tol}")


class _Columns:
    """The columns of the groups of a mask, whose bytes are ``key``: their
    indices ``cols``, ``X`` itself when that is every column and a copy of
    them otherwise, and, formed on first use, the group of each column,
    read from ``col_groups``, the problem's column-to-group map, and their
    Gram ``X'X``."""

    def __init__(self, problem: GroupedProblem, groups: np.ndarray, col_groups: np.ndarray):
        self.key = groups.tobytes()
        self.cols = np.flatnonzero(np.repeat(groups, problem.group_sizes))
        self.X = problem.X if self.cols.size == problem.p else problem.X[:, self.cols]
        self._col_groups = col_groups
        self._n_groups = problem.n_groups

    @cached_property
    def groups(self) -> np.ndarray:
        return self._col_groups[self.cols]

    @cached_property
    def gram(self) -> np.ndarray:
        return self.X.T @ self.X

    def holding(self, b: np.ndarray) -> np.ndarray:
        """Mask of every group of the problem, true at the groups where
        ``b``, coefficients of these columns, holds a nonzero."""
        mask = np.zeros(self._n_groups, dtype=bool)
        mask[self.groups[b != 0.0]] = True
        return mask


class _BlockCache:
    """What every fit of one problem can share, whatever its penalty: each
    block's Gram and its largest eigenvalue, built on the block's first
    nonzero visit, so groups that never enter cost nothing; ``X'y``, which sets
    the scale ``max(1, ||X'y||_inf)`` of the KKT gate and, in
    :func:`sgl.path.lambda_max`, the path's first level; the last residual
    that :meth:`residual` formed, with its coefficients; the last ``X'r``
    that :meth:`gradient` formed, with its residual; the column-to-group
    map; and the :class:`_Columns` of the last residual's groups and of the
    last working set.

    The blocks hold the Grams' sum of k_g^2 floats; the two column sets
    hold at most two copies of ``X`` and the Gram of the working set's
    columns.
    """

    def __init__(self, problem: GroupedProblem):
        self.problem = problem
        self._blocks: list[tuple[np.ndarray, float] | None] = [None] * problem.n_groups
        # the bytes of the last coefficients asked of residual, and their residual
        self._beta_key: bytes | None = None
        self._res: np.ndarray | None = None
        # the bytes of the last residual asked of gradient, and its X'r
        self._res_key: bytes | None = None
        self._xtr: np.ndarray | None = None
        # the columns of the last residual's groups and of the last working set
        self._support: _Columns | None = None
        self._work: _Columns | None = None

    def block(self, ell: int) -> tuple[np.ndarray, float]:
        """Block ``ell``'s Gram matrix and its largest eigenvalue, the
        Lipschitz constant of the block's gradient."""
        entry = self._blocks[ell]
        if entry is None:
            Z = self.problem.X[:, self.problem.slices[ell]]
            gram = Z.T @ Z
            entry = self._blocks[ell] = (gram, float(np.linalg.eigvalsh(gram)[-1]))
        return entry

    @cached_property
    def xty(self) -> np.ndarray:
        # X and y are finite, so only their scale can make the zero test's
        # norms of X'y lose their meaning: squares that overflow, or, below
        # 2**-459, an ulp of the largest entry that squares to a subnormal
        with np.errstate(over="ignore", invalid="ignore"):
            xty = self.problem.X.T @ self.problem.y
            norms = _group_norms(self.problem, xty)
        if not np.isfinite(norms).all():
            raise ValueError("X'y overflows in its group norms: rescale the response or the features")
        if 0.0 < float(np.abs(xty).max()) < 2.0**-459:
            raise ValueError("X'y underflows in its group norms: rescale the response or the features")
        xty.setflags(write=False)
        return xty

    @cached_property
    def col_groups(self) -> np.ndarray:
        return np.repeat(np.arange(self.problem.n_groups), self.problem.group_sizes)

    def _columns(self, held: _Columns | None, groups: np.ndarray) -> _Columns:
        # held when it is the columns of the groups of mask groups
        if held is not None and held.key == groups.tobytes():
            return held
        return _Columns(self.problem, groups, self.col_groups)

    def working_set(self, work: np.ndarray) -> _Columns:
        """The columns of the groups of mask ``work`` and their Gram, kept
        while the working set holds, across the levels of a path too."""
        self._work = self._columns(self._work, work)
        return self._work

    def residual(self, beta: np.ndarray, active: np.ndarray | None = None) -> np.ndarray:
        """``y - X_A beta_A``, with A the columns of the groups of ``beta``
        that hold a nonzero (``active``, their mask, when the caller knows
        it), as a fresh array.

        Every residual of a fit and of :func:`kkt_residual` is formed here,
        so the same ``beta`` gives the same bits wherever it is formed, and
        :meth:`gradient` can tell a residual it has seen. When every group
        is nonzero the product is with ``X`` as it is; otherwise with a copy
        of the columns of A (none when ``beta`` is zero: then the residual
        has the bits of ``y``), kept while the next residual's groups are
        the same. The last residual is kept with the bytes of its ``beta``,
        so asking again for the same coefficients, as a fit's KKT report and
        the next level's warm start do, forms no product; each call returns
        its own copy, which the caller may change in place.
        """
        key = beta.tobytes()
        if key != self._beta_key:
            if active is None:
                active = _group_norms(self.problem, beta, np.inf) != 0.0
            support = self._support = self._columns(self._support, active)
            self._beta_key, self._res = key, self.problem.y - support.X @ beta[support.cols]
        return self._res.copy()

    def gradient(self, res: np.ndarray) -> np.ndarray:
        """``X'res``, read-only, formed only when ``res`` is not bit for bit
        the residual of the last call.

        The residual is kept as a copy of its bytes, so one changed in
        place since the call is a new one. A residual with the bits of ``y``
        takes :attr:`xty`: a fit from zero screens the very array that
        :func:`sgl.path.lambda_max` tests, so a fit at that level is
        all-zero. A residual formed by :meth:`residual` from the same
        coefficients has the same bits, so inside :func:`sgl.path.fit_path`
        the product that a level's last KKT report formed also serves the
        next level's warm start.
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
    toward = (move * signs < 0.0).nonzero()[0]
    if not toward.size:
        return None
    steps = -start[toward] / move[toward]
    first = int(steps.argmin())
    if not steps[first] <= reach:
        return None
    out = start + steps[first] * move
    out[out * signs < 0.0] = 0.0
    out[toward[first]] = 0.0
    return out


def _block_penalty(theta: np.ndarray, lam1w: float, lam2: float) -> float:
    # on Python floats: numpy's per-call overhead dwarfs a block's arithmetic.
    # For the same reason the hot path calls numpy at C level, where the
    # convenience wrapper only adds Python frames around the same loop:
    # np.count_nonzero(x) for x.any(), x.nonzero()[0] for np.flatnonzero(x),
    # np.zeros(x.shape) for np.zeros_like(x), x.argmax() for np.argmax(x),
    # np.maximum.reduce(x) for x.max() and math.sqrt(x @ x) for
    # np.linalg.norm(x), each with the same bits
    t = theta.tolist()
    return lam1w * math.hypot(*t) + lam2 * sum(map(abs, t))


def _newton_step(
    X_work: np.ndarray, res: np.ndarray, b: np.ndarray, groups: np.ndarray,
    lam1w: np.ndarray, lam2: float, gram: np.ndarray,
) -> np.ndarray | None:
    """One Newton step on the face of ``b``, the working set's coefficients,
    with ``X_work`` their columns, ``res`` the residual, ``groups`` their
    groups, ``lam1w`` every group's ``lambda1 * w`` and ``gram``
    ``X_work'X_work``.

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
    zeroes (:func:`_first_zero`). None when the
    eigendecomposition fails too or the step is not finite.
    """
    face = b.nonzero()[0]
    b_S, g_S = b[face], groups[face]
    with np.errstate(all="ignore"):
        norms = np.sqrt(np.bincount(g_S, weights=b_S * b_S))[g_S]
        c = lam1w[g_S] / norms
        u = b_S / norms
        # X_S'X_S + diag(c), then less each group's c u u' on its own block,
        # assembled in place
        hess = gram.take(face, axis=0).take(face, axis=1)
        hess.flat[:: face.size + 1] += c
        np.subtract(hess, (c * u)[:, None] * u, out=hess, where=g_S[:, None] == g_S)
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
    if np.count_nonzero(np.isfinite(stop)) < stop.size:
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
    otherwise takes one proximal-gradient step from ``b``,
    ``_block_prox(b + Z'r / L, lambda1 w / L, lambda2 / L)``, with ``L``
    the largest eigenvalue of the block Gram ``G``, with or without a group
    term (Ndiaye, Fercoq, Gramfort & Salmon 2016). Every other group stays
    exactly zero. A visit that changes the block by ``d`` accepts the
    change only when the
    criterion's exact change, ``Zd'(Zd/2 - r)`` plus the block penalty's
    change, is at most 1e-14 of the criterion's scale, and then updates the
    residual by ``-Zd``; so no accepted update raises the criterion beyond
    its rounding, and the objective is nonincreasing sweep over sweep up to
    that rounding. After each sweep the residual is formed afresh as
    ``y - X_A b_A``, with A the columns of the nonzero groups, the one
    formula for every residual of a fit and of :func:`kkt_residual`, so the
    same coefficients give the same bits wherever they are formed. With
    both penalties zero this is plain least squares; a rank-deficient
    design then sets ``degenerate`` (the returned solution is one minimizer
    among many).

    Block coordinate descent converges at a linear rate that can be slow
    (near-interpolating designs with n < p, warm-started levels with every
    group active), so Newton steps on the sign face of the working set's
    coefficients, their support and signs, follow the sweeps (see
    :func:`_newton_step`; the Hessian-based steps of Zhang, Zhang, Sun &
    Toh 2020), as a working-set solver pairs cheap block steps with a fast
    local method (Bertrand, Klopfenstein, Massias et al. 2022). On a face
    the criterion is smooth, and only its nonzero coefficients move, so
    every zero stays exactly zero. A full step that is not kept is tried
    once more, stopped at the first coordinate whose sign it would flip,
    which is set to exactly 0 (see :func:`_first_zero`); up to there the
    criterion is the face's. A warm start tries one step on its own face
    before the first sweep: the solution of a nearby penalty carries its
    signs, and the step is the predictor of a homotopy method (Osborne,
    Presnell & Turlach 2000). A trial is kept, with its residual and its
    objective as the history's last entry, only when that exact objective
    is not above the entry's, so a trial never raises the history and a
    singular or non-finite solve changes nothing; a tie is kept because
    near the optimum a step's gain falls below the objective's rounding.
    The steps slice ``X_S'X_S`` from one Gram of the working set's
    columns, formed at the first step on them and kept while the working
    set holds.

    After each sweep one rule decides. A sweep that moves no coefficient by
    more than ``outer_tol`` makes the certificate of its point; the fit
    stops, converged, when it passes, and stops, unconverged, when it fails
    while the sweep did not lower the criterion and no group joined the
    working set: the fit has stalled. Every other sweep but the last
    allowed is followed by a chain of face steps, on any face, each from
    the point the last one kept, on that point's face: a kept step that
    changes signs, the full step or the one stopped at its first zero,
    carries the chain on to its new face. The chain ends at a step that
    keeps nothing, at ``_FACE_STEPS``, or at a full step that keeps every
    sign and moves no coefficient by more than ``outer_tol`` (kept or not:
    that close to the face minimizer its point need not read lower), which
    makes the certificate; the fit stops, converged, when it passes, with
    that step's move as ``max_coef_delta``. So the returned ``beta`` is the
    last sweep's output or the point of a face step after it, which keeps
    every zero of the sweep exact.

    The certificate is the KKT report of the point the fit holds
    (:func:`kkt_residual`, on the fit's cache). It passes when every
    all-zero group, in the working set too, passes the zero test (its entry
    is 0), every zero coordinate of a nonzero group passes the entry test
    ``|X_j'r| <= lambda2`` (its entry is 0), and the worst violation is
    within the KKT gate of :class:`SolverOptions`; then no sweep could
    bring in a group or a coordinate, and the fit returns that report as
    its own. Failing zero groups outside the working set join it, the one
    place after the start where it grows.

    What does not depend on the penalty sits in a :class:`_BlockCache`: the
    block Gram ``G`` and its largest eigenvalue ``L``, built on the block's
    first nonzero visit, ``X'y`` for the gate's scale
    ``max(1, ||X'y||_inf)`` and the first screen of a start from zero, the
    working set's columns and their Gram, kept while the working set holds,
    and the last residual and ``X'r`` it formed, each with what it was
    formed from. So a fit forms one ``X'r`` per screen: one at its start
    and one inside each stop's KKT report; a stop after a sweep that moved
    nothing since the last one reuses its product. Each call makes a fresh
    cache, except inside :func:`sgl.path.fit_path`, whose levels share
    one, so that a level's warm start takes the residual and product of
    the level before's last report; the results are the same either way.
    Raises ``ValueError`` when the group norms of ``X'y``
    overflow, or when ``0 < max|X'y| < 2**-459``, where they underflow.
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

    active = _group_norms(problem, beta, np.inf) != 0.0
    res = cache.residual(beta, active)
    work = active | (_zero_test_excess(problem, cache.gradient(res), penalty) > 0.0)

    group_lam1w = lam1 * problem.weights
    # the same products as Python floats, for the sweep's block visits
    block_lam1w = group_lam1w.tolist()

    def keep_unless_higher(trial: np.ndarray | None) -> bool:
        # keep a trial of the working set's coefficients only when its exact
        # objective is not above the history's last entry
        nonlocal beta, res
        if trial is None:
            return False
        trial_beta = np.zeros(p)
        trial_beta[work_set.cols] = trial
        with np.errstate(all="ignore"):
            trial_res = cache.residual(trial_beta, work_set.holding(trial))
            trial_obj = _objective_from_residual(problem, trial_res, trial_beta, penalty)
        if not trial_obj <= history[-1]:
            return False
        beta, res, history[-1] = trial_beta, trial_res, trial_obj
        return True

    def report_kkt() -> KktReport:
        # the public kkt_residual on this fit's cache, which holds the fit's
        # last residual and forms X'r only for a residual it has not seen
        with _sharing_block_cache(problem, cache):
            return kkt_residual(problem, beta, penalty)

    def face_step(b_work: np.ndarray) -> float | None:
        # the Newton step on the face of b_work, then, when it changes signs
        # and is not kept, that step stopped at its first sign change.
        # Returns the move of a full step that keeps every sign, when it is
        # kept or moves nothing by more than outer_tol (below rounding, its
        # point need not read lower); infinity when the point kept has other
        # signs, so a chain goes on from its face; None when nothing is kept
        if not np.count_nonzero(b_work):
            return None
        trial = _newton_step(
            work_set.X, res, b_work, work_set.groups, group_lam1w, lam2, work_set.gram
        )
        if trial is None:
            return None
        signs = np.sign(b_work)
        if np.count_nonzero(np.sign(trial) != signs):
            kept = keep_unless_higher(trial) or keep_unless_higher(
                _first_zero(b_work, trial - b_work, signs, 1.0)
            )
            return math.inf if kept else None
        move = float(np.maximum.reduce(np.abs(trial - b_work)))
        return move if keep_unless_higher(trial) or move <= opts.outer_tol else None

    def settle_face(b_work: np.ndarray) -> float | None:
        # a chain of face steps, each from the point the last one kept, on
        # that point's face; it ends at a step that keeps nothing, and at
        # the first full step that keeps every sign and moves nothing by
        # more than outer_tol, whose move it returns when the point the fit
        # then holds passes the stop certificate
        for _ in range(_FACE_STEPS):
            move = face_step(b_work)
            if move is None:
                return None
            if move <= opts.outer_tol:
                return move if certified() else None
            b_work = beta[work_set.cols]
        return None

    def certified() -> bool:
        # the stop certificate, at a quiet sweep's or a converged face
        # step's point: the KKT report, whose entry at a zero is 0 exactly
        # when that zero's test passes. Every zero group must pass the zero
        # test (those outside the working set that fail join it, the one
        # place after the start), every zero coordinate of a nonzero group
        # the entry test |X_j'r| <= lambda2, and the worst
        # violation the KKT gate
        nonlocal work, work_set, report
        report = report_kkt()
        failing = (report.per_group > 0.0) & ~report.active
        if np.count_nonzero(failing & ~work):
            work |= failing
            work_set = cache.working_set(work)
        if np.count_nonzero(failing) or np.count_nonzero(report.per_coordinate[beta == 0.0] > 0.0):
            return False
        return report.worst_violation <= kkt_gate

    # the working set's columns; their Gram is formed for the first face
    # step on them and kept while the working set holds
    work_set = cache.working_set(work)
    history = [_objective_from_residual(problem, res, beta, penalty)]
    # a warm start carries the signs of a nearby optimum: step on its face
    # before the first sweep
    face_step(beta[work_set.cols])
    converged = False
    max_delta = 0.0
    sweeps = 0
    for _ in range(opts.max_sweeps):
        sweeps += 1
        max_delta = 0.0
        report = None
        for ell in work.nonzero()[0].tolist():
            sl = slices[ell]
            Z = X[:, sl]
            bl = beta[sl]
            # the block gradient against the block's partial residual, for
            # the zero test
            zr = Z.T @ res
            block = cache.block(ell) if np.count_nonzero(bl) else None
            a = zr if block is None else zr + block[0] @ bl
            lam1w = block_lam1w[ell]
            new_bl = _block_prox(a, lam1w, lam2)
            if np.count_nonzero(new_bl):
                # the test fails: one proximal-gradient step from bl, along
                # the smooth part's negative gradient Z'r = a - G bl
                L = (block or cache.block(ell))[1]
                new_bl = _block_prox(bl + zr / L, lam1w / L, lam2 / L)
            d = new_bl - bl
            if np.count_nonzero(d):
                Zd = Z @ d
                pen_old = _block_penalty(bl, lam1w, lam2)
                pen_new = _block_penalty(new_bl, lam1w, lam2)
                change = float(Zd @ (0.5 * Zd - res)) + pen_new - pen_old
                # a prox step of length 1/L minimizes a majorizer of the
                # block's restriction that touches it at bl, so a true rise
                # is a pathology; but near a flat optimum genuine progress
                # sits below the rounding of the criterion, and rejecting
                # it would freeze the iterate early
                if change <= 1e-14 * (1.0 + 0.5 * float(res @ res) + pen_old):
                    max_delta = max(max_delta, float(np.maximum.reduce(np.abs(d))))
                    beta[sl] = new_bl
                    res -= Zd
        b_work = beta[work_set.cols]
        res = cache.residual(beta, work_set.holding(b_work))
        history.append(_objective_from_residual(problem, res, beta, penalty))
        if max_delta <= opts.outer_tol:
            held = work_set
            converged = certified()
            # a stalled fit stops too, unconverged, unless groups just joined
            if converged or (work_set is held and not history[-1] < history[-2]):
                break
        # never after the last sweep: a fit returns a sweep's output
        if sweeps < opts.max_sweeps:
            # certified() may have grown the working set
            move = settle_face(beta[work_set.cols])
            if move is not None:
                converged, max_delta = True, move
                break
    if report is None:
        # no certificate was made for the final beta
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

    An entry at a zero, a block's or a coordinate's of an active block, is
    0 exactly when its zero test or entry test passes, so the report is
    :func:`fit`'s stop certificate.

    The gradient is ``X'r`` at the residual that :func:`fit` forms for
    ``beta``, taken from the problem's shared :class:`_BlockCache` when one
    is set: inside a fit or a path, a report on coefficients whose residual
    or product the cache holds forms neither again. The active blocks'
    residuals are formed on their own columns only, so a sparse report
    makes no pass over every column beyond finding them.
    """
    b = problem.coefficients(beta).beta
    peaks = _group_norms(problem, b, np.inf)
    active = peaks != 0.0
    cache = _block_cache(problem)
    grad = cache.gradient(cache.residual(b, active))
    lam1, lam2 = penalty.lambda1, penalty.lambda2
    # zero blocks: how far the soft-thresholded gradient sticks out of the
    # group's ball, the zero test's own excess; with no radius its sup norm,
    # max |grad_g| - lambda2 (rounding is monotone, so that is the largest
    # shrunk magnitude bit for bit)
    if lam1 > 0.0:
        per_group = np.maximum(_zero_test_excess(problem, grad, penalty), 0.0)
    else:
        per_group = np.maximum(_group_norms(problem, grad, np.inf) - lam2, 0.0)
    # active blocks, on their own columns only, whose groups' segments
    # start at ``starts``
    sizes = problem.group_sizes[active]
    starts = np.cumsum(sizes) - sizes
    cols = np.repeat(active, problem.group_sizes).nonzero()[0]
    b_A = b[cols]
    stat = grad[cols]
    if lam1 > 0.0:
        # subtract the group term's gradient lam1 * w * b / ||b_g||, with b_g
        # first scaled by its largest magnitude so that a norm whose square
        # underflows still divides
        scaled = b_A / np.repeat(peaks[active], sizes)
        norms = _segment_norms(scaled, starts)
        radii = np.repeat(lam1 * problem.weights[active], sizes)
        stat = stat - radii * (scaled / np.repeat(norms, sizes))
    viol = np.where(
        b_A != 0.0, np.abs(stat - lam2 * np.sign(b_A)), np.maximum(np.abs(stat) - lam2, 0.0)
    )
    per_coord = np.zeros(problem.p)
    per_coord[cols] = viol
    per_group[active] = np.maximum.reduceat(np.abs(viol), starts)
    return KktReport(
        per_group=per_group,
        per_coordinate=per_coord,
        active=active,
        worst_violation=float(per_group.max()),
    )
