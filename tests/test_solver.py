"""Coordinate-descent solver: zero screens, block updates, full fits, and
first-order optimality reporting."""

import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import sgl.solver as solver_module
from sgl import (
    OracleOptions,
    PenaltySpec,
    SolverOptions,
    build_problem,
    fit,
    fit_oracle,
    kkt_residual,
    lambda_max,
    objective,
    prox_sgl,
    soft_threshold,
)
from sgl.solver import _block_prox, _zero_test_excess
from sgl.path import PathSpec, fit_path
from sgl.sim import SimConfig, generate

from _reference import (
    box_grid_min,
    closed_form_block,
    kkt_reference,
    lasso_cd,
    least_squares,
    random_problem,
    ridge_fixed_point_gap,
)

TIGHT = SolverOptions(outer_tol=1e-10)
EPS = float(np.finfo(float).eps)


def _orthonormal_design(rng, n, p):
    M = rng.standard_normal((n, p))
    M -= M.mean(axis=0)
    Q, _ = np.linalg.qr(M)
    return Q


# -------------------------------------------------------------- soft_threshold

def test_soft_threshold_hand_values():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    for z in (-2.5, 0.0, 0.1, 7.0):
        assert soft_threshold(z, 0.0) == z


def test_soft_threshold_applies_elementwise():
    out = soft_threshold(np.array([3.0, -0.5, 0.0, -4.0]), 1.0)
    assert np.array_equal(out, [2.0, 0.0, 0.0, -3.0])


def test_soft_threshold_rejects_bad_levels():
    with pytest.raises(ValueError):
        soft_threshold(1.0, -0.1)
    with pytest.raises(ValueError):
        soft_threshold(1.0, np.nan)


@given(
    z=st.floats(-1e6, 1e6),
    u=st.floats(-1e6, 1e6),
    lam=st.floats(0.0, 1e6),
)
def test_soft_threshold_shrinks_and_is_nonexpansive(z, u, lam):
    sz, su = soft_threshold(z, lam), soft_threshold(u, lam)
    assert abs(sz) <= abs(z)
    assert sz * z >= 0.0
    assert abs(sz - su) <= abs(z - u) + 1e-9 * (1.0 + abs(z - u))


# ------------------------------------------------------------ block zero test

def test_screen_zero_vector_is_zero():
    assert np.array_equal(_block_prox(np.zeros(3), 1.0, 0.5), np.zeros(3))


def test_screen_when_the_one_norm_level_absorbs_everything():
    a = np.array([0.4, -0.9, 0.2])  # every |a_j| <= lambda2: S(a, lambda2) = 0
    assert np.array_equal(_block_prox(a, 0.3, 1.0), np.zeros(3))
    assert np.array_equal(_block_prox(a, 0.0, 1.0), np.zeros(3))


def test_screen_without_one_norm_reduces_to_the_norm_test():
    a = np.array([3.0, 4.0])
    assert not _block_prox(a, 6.0, 0.0).any()
    assert not _block_prox(a, 5.0, 0.0).any()  # boundary inclusive: ||a|| == 5
    assert _block_prox(a, 4.9, 0.0).all()


def test_screen_score_beats_every_grid_point():
    # the closed-form score J = ||S(a, lambda2)||^2 / (lambda1 w)^2 must do at
    # least as well as an exhaustive grid over the multiplier box, up to the
    # grid's own resolution, and the kernel must call the block zero when J <= 1
    rng = np.random.default_rng(14)
    num = 101
    h = 2.0 / (num - 1)
    for k in (1, 2, 3):
        for _ in range(5):
            a = rng.standard_normal(k) * 2.0
            lam1w = float(rng.uniform(0.5, 3.0))
            lam2 = float(rng.uniform(0.0, 2.0))
            shrunk = np.abs(soft_threshold(a, lam2))
            J = float(shrunk @ shrunk) / lam1w**2
            grid_min = box_grid_min(a, lam2, num=num) / lam1w**2
            assert J <= grid_min + 1e-12
            slack = (lam2 * h * shrunk.sum() + k * (lam2 * h / 2.0) ** 2) / lam1w**2
            assert grid_min - J <= slack + 1e-12
            assert (not _block_prox(a, lam1w, lam2).any()) == (J <= 1.0)


def test_screen_decision_matches_an_independent_fit():
    # one-group problems: the zero test passes exactly when the reference
    # solver drives the block to zero
    rng = np.random.default_rng(15)
    for trial in range(12):
        prob = random_problem(rng, 15, [3])
        a = prob.X.T @ prob.y
        lam2 = float(rng.uniform(0.0, 1.0))
        snorm = float(np.linalg.norm(soft_threshold(a, lam2)))
        if snorm == 0.0:
            continue
        lam1 = snorm * (0.9 if trial % 2 else 1.1)
        is_zero = not _block_prox(a, lam1, lam2).any()
        ref = fit_oracle(prob, PenaltySpec(lam1, lam2), OracleOptions(tol=1e-15))
        ref_zero = float(np.abs(ref.coefficients.beta).max()) <= 1e-9
        assert is_zero == ref_zero


@given(
    a=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=8),
    lam1w=st.just(0.0) | st.floats(0.0, 50.0),
    lam2=st.just(0.0) | st.floats(0.0, 50.0),
    inside=st.booleans(),
)
def test_block_prox_matches_both_independent_closed_forms(a, lam1w, lam2, inside):
    a = np.array(a)
    if inside:  # every entry inside the one-norm box: the prox is zero
        a = np.clip(a, -lam2, lam2)
    got = _block_prox(a, lam1w, lam2)
    tol = 1e-14 * (1.0 + float(np.linalg.norm(a)))
    assert np.abs(got - closed_form_block(a, lam1w, lam2)).max() <= tol
    assert np.abs(got - prox_sgl(a, 1.0, PenaltySpec(lam1w, lam2), 1.0)).max() <= tol
    if inside:
        assert not got.any()


@pytest.mark.parametrize("weight_mode", ["unit", "sqrt-size"])
def test_block_and_all_group_zero_tests_decide_alike(weight_mode):
    # on one gradient vector, the per-block kernel returns zero for a group
    # exactly when the all-groups kernel reports no excess for it, also at
    # levels placed exactly on a group's shrunk norm and one ulp below it
    rng = np.random.default_rng(46)
    for _ in range(20):
        sizes = [int(k) for k in rng.integers(1, 41, size=rng.integers(1, 9))]
        prob = random_problem(rng, 12, sizes, weight_mode=weight_mode)
        grad = rng.standard_normal(prob.p) * 10.0 ** rng.uniform(-3, 3)
        lam2 = float(rng.choice([0.0, 0.3, 1.0]))
        norms = [
            float(np.sqrt(np.add.reduceat(soft_threshold(grad[sl], lam2) ** 2, [0])[0]))
            for sl in prob.slices
        ]
        levels = [float(rng.uniform(0.0, 2.0)) * max(norms)]
        for norm, w in zip(norms, prob.weights):
            levels += [norm / w, float(np.nextafter(norm / w, 0.0))]
        for lam1 in levels:
            pen = PenaltySpec(lam1, lam2)
            excess = _zero_test_excess(prob, grad, pen)
            for ell, (sl, w) in enumerate(zip(prob.slices, prob.weights)):
                is_zero = not _block_prox(grad[sl], lam1 * float(w), lam2).any()
                assert is_zero == (excess[ell] <= 0.0), (sizes, lam1, ell)


@pytest.mark.parametrize("weight_mode", ["unit", "sqrt-size"])
def test_kkt_report_and_zero_tests_decide_alike(weight_mode):
    # fit's stop certificate reads the zero tests off the KKT report: on one
    # X'r, a zero group's entry is positive exactly when its zero test
    # fails, in both kernels, and a zero coordinate's inside a nonzero group
    # exactly when |X_j'r| > lambda2; also at levels placed exactly on a
    # group's shrunk norm over w or on some |X_j'r|, and one ulp below
    rng = np.random.default_rng(48)
    for _ in range(20):
        sizes = [int(k) for k in rng.integers(1, 9, size=rng.integers(2, 8))]
        prob = random_problem(rng, 15, sizes, weight_mode=weight_mode)
        beta = rng.standard_normal(prob.p) * (rng.random(prob.p) < 0.6)
        for sl in prob.slices:
            if rng.random() < 0.4:
                beta[sl] = 0.0
        cache = solver_module._BlockCache(prob)
        xtr = cache.gradient(cache.residual(beta))
        nonzero = prob.active_groups(beta)
        inside = np.repeat(nonzero, prob.group_sizes) & (beta == 0.0)
        mags = np.abs(xtr)
        lam2s = [0.0, float(rng.uniform(0.0, 1.0)) * float(mags.max())]
        for j in rng.choice(prob.p, size=3, replace=False):
            lam2s += [float(mags[j]), float(np.nextafter(mags[j], 0.0))]
        for j in np.flatnonzero(inside)[:2]:
            lam2s += [float(mags[j]), float(np.nextafter(mags[j], 0.0))]
        for lam2 in lam2s:
            norms = [
                float(np.sqrt(np.add.reduceat(soft_threshold(xtr[sl], lam2) ** 2, [0])[0]))
                for sl in prob.slices
            ]
            lam1s = [0.0, float(rng.uniform(0.0, 2.0)) * max(norms)]
            for norm, w, held in zip(norms, prob.weights, nonzero):
                if not held:
                    lam1s += [norm / w, float(np.nextafter(norm / w, 0.0))]
            for lam1 in lam1s:
                pen = PenaltySpec(lam1, lam2)
                with solver_module._sharing_block_cache(prob, cache):
                    report = kkt_residual(prob, beta, pen)
                excess = _zero_test_excess(prob, xtr, pen)
                for ell in np.flatnonzero(~nonzero):
                    sl, w = prob.slices[ell], float(prob.weights[ell])
                    fails = bool(_block_prox(xtr[sl], lam1 * w, lam2).any())
                    assert (report.per_group[ell] > 0.0) == (excess[ell] > 0.0), (lam1, lam2, ell)
                    assert (excess[ell] > 0.0) == fails, (lam1, lam2, ell)
                assert np.array_equal(report.per_coordinate[inside] > 0.0, mags[inside] > lam2)
        # every report read the one X'r of the cache
        assert cache.gradient(cache.residual(beta)) is xtr


# ------------------------------------------------------------ one-column block

def _one_block_fit(prob, lam1w, lam2, warm=None):
    # fit on a one-group problem with unit weight minimizes over its one
    # block; at this tolerance its stop certifies a point stationary to
    # rounding
    start = None if warm is None else prob.coefficients(warm)
    return fit(prob, PenaltySpec(lam1w, lam2), SolverOptions(outer_tol=1e-14), start)


def _one_block_optimum(prob, lam1w, lam2, warm=None):
    result = _one_block_fit(prob, lam1w, lam2, warm)
    assert result.converged
    return result.coefficients.beta


def _unit_column_problem(rng, n):
    # one column of unit norm once centered: its Gram is 1 up to rounding
    col = rng.standard_normal(n)
    col /= np.linalg.norm(col - col.mean())
    prob = build_problem(rng.standard_normal(n), col[:, None], [1])
    return prob, float(prob.X[:, 0] @ prob.y), float(prob.X[:, 0] @ prob.X[:, 0])


def test_coordinate_lasso_closed_form_on_a_unit_column():
    # without a group term a one-column block is a lasso: one shrink of the
    # column against the residual, whatever the start
    rng = np.random.default_rng(17)
    for _ in range(8):
        prob, a0, gram = _unit_column_problem(rng, 12)
        lam2 = float(rng.uniform(0.05, 1.0))
        got = _one_block_optimum(prob, 0.0, lam2, rng.standard_normal(1))
        assert got[0] == pytest.approx(soft_threshold(a0, lam2) / gram, abs=1e-10)


def test_coordinate_singleton_group_closed_form():
    rng = np.random.default_rng(18)
    for _ in range(8):
        prob, a0, gram = _unit_column_problem(rng, 10)
        lam1, lam2, w = (float(v) for v in rng.uniform(0.05, 0.8, size=3))
        expected = soft_threshold(a0, lam1 * w + lam2) / gram
        if not _block_prox(np.array([a0]), lam1 * w, lam2).any():
            # the block zero test passes, so the block stays zero
            assert expected == 0.0
        got = _one_block_optimum(prob, lam1 * w, lam2)
        assert got[0] == pytest.approx(expected, abs=1e-10)


def test_inner_tol_does_not_change_results():
    rng = np.random.default_rng(44)
    prob = random_problem(rng, 40, [4, 4, 4])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.1 * lmax, 0.1 * lmax)
    loose = fit(prob, pen, SolverOptions(inner_tol=1e-8))
    default = fit(prob, pen, SolverOptions(inner_tol=None))
    assert np.array_equal(loose.coefficients.beta, default.coefficients.beta)


# ------------------------------------------------------------- block minimizer

def _correlated_block(rng, n, k, rho):
    """Centered equicorrelated columns (one shared factor); from k = 2 on the
    second column duplicates the first, from k = 3 on the last is constant,
    so zero once centered."""
    shared = rng.standard_normal(n)
    Z = math.sqrt(rho) * shared[:, None] + math.sqrt(1.0 - rho) * rng.standard_normal((n, k))
    if k >= 2:
        Z[:, 1] = Z[:, 0]
    if k >= 3:
        Z[:, -1] = 3.0
    Z -= Z.mean(axis=0)
    r = Z @ rng.standard_normal(k) + 0.5 * rng.standard_normal(n)
    return Z, r - r.mean()


def _assert_block_stationary(prob, theta, lam1w, lam2):
    # the block's first-order conditions at theta, to rounding; the scale
    # holds |X|'|y|, the rounding scale of X'y, which fit forms from
    # residuals
    X, k = prob.X, prob.p
    a0, gram = X.T @ prob.y, X.T @ X
    grad = a0 - gram @ theta
    norm = float(np.linalg.norm(theta))
    assert norm > 0.0
    violation = np.where(
        theta != 0.0,
        np.abs(grad - lam1w * theta / norm - lam2 * np.sign(theta)),
        np.maximum(np.abs(grad) - lam2, 0.0),
    )
    scale = np.abs(X).T @ np.abs(prob.y) + np.abs(gram) @ np.abs(theta) + lam1w + lam2
    assert np.all(violation <= 64 * k * EPS * scale)
    return (0.5 * float(np.sum((prob.y - X @ theta) ** 2)) + lam1w * norm
            + lam2 * float(np.abs(theta).sum()))


@pytest.mark.parametrize("k", [1, 2, 5, 13, 40])
@pytest.mark.parametrize("rho", [0.95, 0.99])
def test_block_minimize_is_stationary_and_optimal_on_correlated_blocks(k, rho):
    # light penalties on strongly correlated columns, one block fitted from
    # zero and from a random start; the paper's coordinate descent inside
    # the block takes some 100 to over 1000 passes here from k = 2 on
    rng = np.random.default_rng(int(1000 * rho) + k)
    Z, r = _correlated_block(rng, 60, k, rho)
    prob = build_problem(r, Z, [k])
    a0 = prob.X.T @ prob.y
    lam2 = 0.02 * float(np.abs(a0).max())
    lam1w = 0.05 * float(np.linalg.norm(soft_threshold(a0, lam2)))
    assert _block_prox(a0, lam1w, lam2).any()
    ref = fit_oracle(prob, PenaltySpec(lam1w, lam2), OracleOptions(tol=1e-15))
    for start in (np.zeros(k), rng.standard_normal(k)):
        theta = _one_block_optimum(prob, lam1w, lam2, start)
        crit = _assert_block_stationary(prob, theta, lam1w, lam2)
        assert abs(crit - ref.objective) <= 1e-10 * abs(ref.objective)


def test_block_minimize_leaves_an_unbounded_face_along_its_null_space():
    # the second column is twice the first, so on the face of both (same
    # signs) the Gram has a null direction along which the one-norm term
    # falls faster than the group term rises: that face has no minimizer.
    # With lam2 > lam1w the optimum puts all weight on the longer column,
    # where the one-column closed form holds
    rng = np.random.default_rng(5)
    x = rng.standard_normal(30)
    x -= x.mean()
    r = x + 0.5 * rng.standard_normal(30)
    prob = build_problem(r, np.column_stack([x, 2.0 * x]), [2])
    a0, gram = prob.X.T @ prob.y, prob.X.T @ prob.X
    lam2 = 0.3 * abs(float(a0[1]))
    lam1w = 0.2 * lam2
    assert np.all(np.sign(_block_prox(a0, lam1w, lam2)) == 1.0)
    expected = soft_threshold(float(a0[1]), lam1w + lam2) / float(gram[1, 1])
    for warm in ([0.0, 0.0], [1.0, 1.0], [0.5, 0.0], [-1.0, 2.0]):
        theta = _one_block_optimum(prob, lam1w, lam2, np.array(warm))
        assert theta[0] == 0.0, warm
        assert theta[1] == pytest.approx(expected, rel=1e-12), warm


@st.composite
def one_block_cases(draw):
    """A one-group problem whose zero test fails, with or without a group
    term (a lasso block), its reference solution, and a warm start: zero,
    random, on the reference's support and signs, or off them by one
    flipped sign, one dropped or one added coordinate."""
    design = draw(st.sampled_from(["generic", "duplicate", "constant", "orthonormal", "wide"]))
    # a wide block has more columns than rows, so its Gram is singular
    k = draw(st.integers(13, 20) if design == "wide" else st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = rng.standard_normal((12, k))
    if design == "duplicate" and k >= 2:
        Z[:, 1] = Z[:, 0]
    elif design == "constant":
        Z[:, -1] = 3.0  # zero once centered
    elif design == "orthonormal":
        Z = _orthonormal_design(rng, 12, k)
    prob = build_problem(Z @ rng.standard_normal(k) + 0.3 * rng.standard_normal(12), Z, [k])
    a0 = prob.X.T @ prob.y
    lasso = draw(st.booleans())
    lam2 = draw(st.sampled_from([0.1, 0.4] if lasso else [0.0, 0.1, 0.4])) * float(np.abs(a0).max())
    lam1w = 0.0 if lasso else draw(st.floats(0.05, 0.9)) * float(np.linalg.norm(soft_threshold(a0, lam2)))
    assume(lam2 > 0.0 if lasso else lam1w > 0.0)
    ref = fit_oracle(prob, PenaltySpec(lam1w, lam2), OracleOptions(tol=1e-15))
    opt = ref.coefficients.beta
    on, off = np.flatnonzero(opt), np.flatnonzero(opt == 0.0)
    warm = opt * rng.uniform(0.5, 1.5, k)
    kind = draw(st.sampled_from(["zero", "random", "pattern", "flip", "drop", "add"]))
    if kind == "zero":
        warm[:] = 0.0
    elif kind == "random":
        warm = rng.standard_normal(k)
    elif kind in ("flip", "drop"):
        j = on[draw(st.integers(0, on.size - 1))]
        warm[j] = -warm[j] if kind == "flip" else 0.0
    elif kind == "add":
        assume(off.size > 0)
        warm[off[draw(st.integers(0, off.size - 1))]] = rng.standard_normal()
    return prob, lam1w, lam2, ref, warm, design


@settings(max_examples=500)
@given(case=one_block_cases())
def test_block_minimize_is_optimal_from_any_warm_start(case):
    # a one-block fit reaches the optimum from any start. It may report
    # that point unconverged: with duplicate columns and no group term, a
    # zero duplicate of a nonzero coordinate can read |X_j'r| an ulp above
    # lambda2, which fails the certificate's exact entry test
    prob, lam1w, lam2, ref, warm, design = case
    theta = _one_block_fit(prob, lam1w, lam2, warm).coefficients.beta
    crit = _assert_block_stationary(prob, theta, lam1w, lam2)
    assert crit <= ref.objective + 1e-10 * abs(ref.objective)
    if design == "orthonormal":
        a0 = prob.X.T @ prob.y
        expected = closed_form_block(a0, lam1w, lam2)
        assert np.abs(theta - expected).max() <= 1e-10 * float(np.abs(a0).max())


def test_first_zero_is_none_when_no_coordinate_reaches_zero_in_reach():
    first_zero = solver_module._first_zero
    start = np.array([1.0, -2.0, 3.0])
    signs = np.sign(start)
    # every coordinate moves away from zero, or not at all
    assert first_zero(start, np.array([1.0, -1.0, 0.0]), signs) is None
    assert first_zero(start, np.zeros(3), signs) is None
    # the first zero is at t = 0.5 (coordinate 1), beyond a reach of 0.4
    move = np.array([-1.0, 4.0, 0.0])
    assert first_zero(start, move, signs, 0.4) is None
    out = first_zero(start, move, signs, 0.5)
    assert out is not None and out.tolist() == [0.5, 0.0, 3.0]


def test_first_zero_zeroes_the_first_coordinate_and_any_rounding_carries_past():
    first_zero = solver_module._first_zero
    # both coordinates reach zero at the same step, but at the step that
    # zeroes coordinate 0 the rounded update leaves coordinate 1 below zero
    start = np.array([0.503676979200579, 0.7534465385839052])
    move = np.array([-0.9138376676731629, -1.3670027735409795])
    steps = -start / move
    assert steps[0] <= steps[1] and (start + steps[0] * move)[1] < 0.0
    out = first_zero(start, move, np.sign(start))
    assert out.tolist() == [0.0, 0.0]


def test_first_zero_keeps_every_other_sign():
    first_zero = solver_module._first_zero
    rng = np.random.default_rng(1003)
    for _ in range(300):
        k = int(rng.integers(1, 12))
        start = rng.standard_normal(k) * 10.0 ** rng.integers(-3, 4, size=k)
        signs = np.sign(start)
        move = rng.standard_normal(k)
        reach = float(rng.choice([0.5, 1.0, np.inf]))
        toward = move * signs < 0.0
        steps = np.full(k, np.inf)
        steps[toward] = -start[toward] / move[toward]
        first = int(np.argmin(steps))
        out = first_zero(start, move, signs, reach)
        if not (toward.any() and steps[first] <= reach):
            assert out is None
            continue
        assert out[first] == 0.0
        # no coordinate crosses zero, and those left nonzero keep their sign
        assert np.all(out * signs >= 0.0)
        assert np.array_equal(np.sign(out[out != 0.0]), signs[out != 0.0])
        # every other coordinate is the point start + t move itself
        point = start + steps[first] * move
        moved = point * signs > 0.0
        moved[first] = False
        assert np.array_equal(out[moved], point[moved])


def test_path_decomposes_each_block_once(monkeypatch):
    # a block's Gram and its largest eigenvalue, which sets the length of
    # its prox steps, are the same at every level of a path: one eigvalsh
    # per block per path (10 on this path), against one per block per level
    # when each level's fit starts a cache of its own (63)
    eigvalsh = np.linalg.eigvalsh
    calls = []

    def counting(gram):
        calls.append(gram.shape)
        return eigvalsh(gram)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    data = generate(SimConfig(seed=1))
    prob = build_problem(data.y, data.X, data.config.blocks)
    opts = SolverOptions(outer_tol=1e-5)
    path = fit_path(prob, PathSpec(n_points=8, ratio_min=0.01, mixing=0.5), opts)
    on_path = len(calls)
    # every group enters at some level of this path
    assert on_path == prob.n_groups
    # the path's cache does not outlive it, and lone fits share nothing
    assert solver_module._shared_cache.get() is None
    calls.clear()
    warm = None
    for pt in path.points:
        warm = fit(prob, pt.penalty, opts, warm).coefficients
    assert len(calls) > 3 * on_path


def _paper_path_sweeps():
    # working-set sweeps of five paper draws' paths at A6 tolerance
    opts = SolverOptions(outer_tol=1e-5)
    sweeps = 0
    for seed in range(100, 105):
        data = generate(SimConfig(seed=seed))
        prob = build_problem(data.y, data.X, data.config.blocks)
        path = fit_path(prob, PathSpec(n_points=6, ratio_min=0.01, mixing=0.5), opts)
        assert all(pt.converged for pt in path.points)
        sweeps += sum(pt.sweeps for pt in path.points)
    return sweeps


def test_face_steps_save_sweeps_on_benchmark_paths():
    # five paper draws take 54 sweeps with chains of face steps after every
    # moving sweep that go on through kept sign changes, one step at each
    # warm start, and a level ending at a converged face step that passes a
    # sweep's stop tests. They take 60 when only a clipped step's chain goes
    # on, 72 when every chain stops at a sign change and 2,385 with block
    # sweeps alone. With exact block solves they took 52, 84 when every
    # level ended with a sweep that confirms its point, 70 without the
    # warm-start step, 493 with block sweeps alone and 167 with a step only
    # on a face whose signs have settled, so a change that loses any of
    # these fails here
    settled_sweeps = 167
    assert _paper_path_sweeps() < 0.35 * settled_sweeps


# ------------------------------------------------------- block prox, unit step

def test_orthonormal_update_identity_without_penalty():
    c = np.array([1.5, -2.0, 0.0])
    assert np.array_equal(_block_prox(c, 0.0, 0.0), c)


def test_orthonormal_update_gates_to_zero():
    out = _block_prox(np.array([0.5, -0.5]), 2.0, 0.1)
    assert np.array_equal(out, np.zeros(2))


def test_orthonormal_update_hand_case():
    out = _block_prox(np.array([2.0, 0.0]), 0.5, 1.0)
    assert np.allclose(out, [0.5, 0.0], atol=1e-15)


def test_orthonormal_update_matches_descent_on_an_orthonormal_block():
    rng = np.random.default_rng(22)
    Q = _orthonormal_design(rng, 20, 3)
    y = rng.standard_normal(20)
    prob = build_problem(y, Q, [3])
    pen = PenaltySpec(0.4, 0.2)
    expected = closed_form_block(prob.X.T @ prob.y, 0.4, 0.2)
    result = fit(prob, pen, TIGHT)
    assert np.abs(result.coefficients.beta - expected).max() < 1e-8
    assert np.abs(_block_prox(prob.X.T @ prob.y, 0.4, 0.2) - expected).max() < 1e-14


# ------------------------------------------------------------------------ fit

def test_fit_is_all_zero_at_high_penalty_in_one_sweep():
    rng = np.random.default_rng(23)
    prob = random_problem(rng, 25, [3, 4, 2])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.75 * lmax, 0.75 * lmax)  # total 1.5x the all-zero level
    result = fit(prob, pen)
    assert result.coefficients.n_nonzero == 0
    assert result.sweeps == 1
    assert result.converged
    assert result.kkt.worst_violation == 0.0


def test_fit_with_singleton_groups_is_the_lasso():
    rng = np.random.default_rng(24)
    prob = random_problem(rng, 30, [1] * 12)
    lam1, lam2 = 0.8, 0.5
    result = fit(prob, PenaltySpec(lam1, lam2), TIGHT)
    # singleton blocks make the group norm another one-norm: one lasso at the
    # summed level
    reference = lasso_cd(prob.y, prob.X, lam1 + lam2)
    assert np.abs(result.coefficients.beta - reference).max() < 1e-8


def test_fit_matches_the_reference_solver_on_tiny_problems():
    rng = np.random.default_rng(25)
    for sizes in ([3, 3], [2, 2, 2], [1, 4]):
        prob = random_problem(rng, 18, sizes)
        lmax = lambda_max(prob, 0.5)
        pen = PenaltySpec(0.2 * lmax, 0.15 * lmax)
        ours = fit(prob, pen, SolverOptions(outer_tol=1e-9))
        ref = fit_oracle(prob, pen)
        assert ours.objective == pytest.approx(ref.objective, rel=1e-8, abs=1e-8)


def _without_newton(monkeypatch):
    # every face step fails, and a failed step changes nothing
    monkeypatch.setattr(solver_module, "_newton_step", lambda *args: None)


def _linalg_inside(monkeypatch, name, **replacements):
    # numpy.linalg's functions are the given replacements while
    # solver_module.<name> runs, and only then
    inner = getattr(solver_module, name)

    def wrapped(*args):
        with monkeypatch.context() as m:
            for attr, replacement in replacements.items():
                m.setattr(np.linalg, attr, replacement)
            return inner(*args)

    monkeypatch.setattr(solver_module, name, wrapped)


def test_fit_objective_never_increases_between_sweeps(monkeypatch):
    rng = np.random.default_rng(26)
    for sizes, n in ([[5, 5, 5], 40], [[3] * 6, 12], [[1] * 8, 20]):
        prob = random_problem(rng, n, sizes)
        lmax = lambda_max(prob, 0.5)
        result = fit(prob, PenaltySpec(0.1 * lmax, 0.05 * lmax))
        assert np.all(np.diff(result.objective_history) <= 1e-12)
    # a paper draw whose fit accepts face steps: each replaces its sweep's
    # history entry only when it is not higher
    data = generate(SimConfig(seed=100))
    prob = build_problem(data.y, data.X, data.config.blocks)
    lam = 0.01 * lambda_max(prob, 0.5)
    pen = PenaltySpec(0.5 * lam, 0.5 * lam)
    result = fit(prob, pen)
    assert np.all(np.diff(result.objective_history) <= 0.0)
    with monkeypatch.context() as m:
        _without_newton(m)
        plain = fit(prob, pen)
    # a rejected trial changes nothing, so fewer sweeps mean accepted ones
    assert result.converged and plain.converged
    assert result.sweeps < plain.sweeps
    assert np.all(np.diff(plain.objective_history) <= 0.0)


def test_fit_rejects_a_block_update_that_raises_the_criterion(monkeypatch):
    rng = np.random.default_rng(26)
    prob = random_problem(rng, 40, [5, 5, 5])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.45 * lmax, 0.45 * lmax)
    calls = []
    prox = solver_module._block_prox

    def overshoot(*args):
        # a failing zero test stays failing, and the prox step that follows
        # it overshoots
        out = prox(*args)
        if out.any():
            calls.append(args)
            out = out + 0.5
        return out

    monkeypatch.setattr(solver_module, "_block_prox", overshoot)
    result = fit(prob, pen)
    assert calls, "no block took a step, so the guard was never tested"
    assert result.coefficients.n_nonzero == 0
    # the first sweep leaves the criterion where it was: the fit has stalled
    assert not result.converged and result.sweeps == 1
    assert np.all(np.diff(result.objective_history) <= 0.0)


@pytest.mark.parametrize("bad", ["raises", "nan", "not lower", "crosses a sign"])
def test_fit_keeps_its_sweep_when_a_face_step_is_rejected(monkeypatch, bad):
    # the face step's solve and the eigendecomposition it falls back to are
    # both singular, or the solve is not finite (no warning may escape), or
    # the step returns the sweep's own point, whose objective ties the
    # sweep's and which changes nothing when kept, or the sweep's point with
    # its largest coordinate negated, which reads higher, and so does the
    # clipped point tried next, where that coordinate reaches zero; beta,
    # the history and the sweeps must then be those of a fit whose face
    # steps all fail, bit for bit
    rng = np.random.default_rng(33)
    prob = random_problem(rng, 40, [5, 5, 5])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.005 * lmax, 0.005 * lmax)
    opts = SolverOptions(outer_tol=1e-14, max_sweeps=40)
    with monkeypatch.context() as m:
        _without_newton(m)
        plain = fit(prob, pen, opts)
    linalg = []

    def spoilt_solve(H, grad):
        linalg.append("solve")
        if bad == "raises":
            raise np.linalg.LinAlgError("Singular matrix")
        return np.full(len(grad), np.nan)

    def spoilt_eigh(H):
        linalg.append("eigh")
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    def standing(X_work, res, b, *rest):
        trial = b.copy()
        if bad == "crosses a sign":
            j = int(np.argmax(np.abs(b)))
            trial[j] = -b[j]
        return trial

    evaluated = []
    evaluate = solver_module._objective_from_residual

    def recorded(problem, res, beta, penalty):
        evaluated.append(beta.copy())
        return evaluate(problem, res, beta, penalty)

    if bad in ("not lower", "crosses a sign"):
        monkeypatch.setattr(solver_module, "_newton_step", standing)
        monkeypatch.setattr(solver_module, "_objective_from_residual", recorded)
    else:
        _linalg_inside(monkeypatch, "_newton_step", solve=spoilt_solve, eigh=spoilt_eigh)
    calls = []
    step = solver_module._newton_step

    def counted(X_work, res, b, *rest):
        calls.append(b.copy())
        return step(X_work, res, b, *rest)

    monkeypatch.setattr(solver_module, "_newton_step", counted)
    result = fit(prob, pen, opts)
    # a step follows every sweep that moves a coefficient, the first one
    # included, but not the last allowed sweep: 39 steps follow these 40
    # sweeps
    assert plain.sweeps == 40 and len(calls) == 39
    if bad == "raises":
        # every face here is narrower than n, so each step tries the solve
        # first and the eigendecomposition after it
        assert linalg == ["solve", "eigh"] * len(calls)
    elif bad == "nan":
        assert linalg == ["solve"] * len(calls)
    elif bad == "crosses a sign":
        # every group is in the working set, so the step sees all of beta
        for b in calls:
            assert b.size == prob.p and b.all()
            clipped = b.copy()
            clipped[np.argmax(np.abs(b))] = 0.0
            assert sum(np.array_equal(beta, clipped) for beta in evaluated) == 1
    assert result.sweeps == plain.sweeps
    assert np.array_equal(result.coefficients.beta, plain.coefficients.beta)
    assert np.array_equal(result.objective_history, plain.objective_history)


def _traced_fit(monkeypatch, prob, pen, opts, warm=None, step=None):
    # the fit's events in order: "visit" for each block prox of a sweep's
    # block visit (one for its zero test and, when that fails, one for its
    # step), "step" for each face step, and (beta, objective) for each
    # exact objective evaluated
    events = []
    prox, evaluate = solver_module._block_prox, solver_module._objective_from_residual
    newton = step or solver_module._newton_step

    def visited(*args):
        events.append("visit")
        return prox(*args)

    def stepped(*args):
        events.append("step")
        return newton(*args)

    def evaluated(problem, res, beta, penalty):
        value = evaluate(problem, res, beta, penalty)
        events.append((beta.copy(), value))
        return value

    with monkeypatch.context() as m:
        m.setattr(solver_module, "_block_prox", visited)
        m.setattr(solver_module, "_newton_step", stepped)
        m.setattr(solver_module, "_objective_from_residual", evaluated)
        result = fit(prob, pen, opts, warm)
    return result, events


def test_a_warm_start_tries_one_face_step_before_its_first_sweep(monkeypatch):
    # a path level starts from the last level's solution, whose signs
    # mostly carry over: one face step on that face comes before the first
    # sweep, and it is kept only when its exact objective is not above the
    # start's. A start from zero has no face and tries none
    data = generate(SimConfig(seed=100))
    prob = build_problem(data.y, data.X, data.config.blocks)
    opts = SolverOptions(outer_tol=1e-5)
    path = fit_path(prob, PathSpec(n_points=6, ratio_min=0.01, mixing=0.5), opts)
    warm, pen = path.points[2].coefficients, path.points[3].penalty
    newton = solver_module._newton_step

    def higher(*args):
        # the step reflected through its start: the convex criterion rises
        # along the reflected step, its clipped part included, so neither
        # point is kept
        return 2.0 * args[2] - newton(*args)

    for step, lower in ((None, True), (higher, False)):
        result, events = _traced_fit(monkeypatch, prob, pen, opts, warm, step)
        first = events.index("visit")
        (start, start_obj), tried, *trials = events[:first]
        assert np.array_equal(start, warm.beta)
        # the full step's point, then the clipped one when the full one is
        # not kept and crosses a sign
        assert tried == "step" and 1 <= len(trials) <= 2
        assert (min(obj for _, obj in trials) <= start_obj) == lower
        history = result.objective_history
        assert history[0] == (trials[-1][1] if lower else start_obj)
        assert np.all(np.diff(history) <= 0.0)
        # the result is the last sweep's output, or a kept point with its
        # signs
        sweeps = [e for f, e in zip(events, events[1:]) if f == "visit" and e != "visit"]
        swept = sweeps[-1][0]
        assert len(sweeps) == result.sweeps and result.converged
        assert np.array_equal(np.sign(result.coefficients.beta), np.sign(swept))
        assert result.objective <= sweeps[-1][1]
    _, events = _traced_fit(monkeypatch, prob, pen, opts)
    assert "step" not in events[:events.index("visit")]


def test_a_face_step_keeps_every_zero_at_zero(monkeypatch):
    # a face step moves only its start's nonzero coefficients, so the zeros
    # that the block steps set inside active groups stay exact zeros
    data = generate(SimConfig(seed=100))
    prob = build_problem(data.y, data.X, data.config.blocks)
    lam = 0.01 * lambda_max(prob, 0.5)
    pen = PenaltySpec(0.5 * lam, 0.5 * lam)
    events = []
    newton, evaluate = solver_module._newton_step, solver_module._objective_from_residual

    def step(*args):
        out = newton(*args)
        if out is not None:
            events.append("step")
        return out

    def evaluated(problem, res, beta, penalty):
        value = evaluate(problem, res, beta, penalty)
        events.append((beta.copy(), value))
        return value

    monkeypatch.setattr(solver_module, "_newton_step", step)
    monkeypatch.setattr(solver_module, "_objective_from_residual", evaluated)
    result = fit(prob, pen)
    assert result.converged
    # each step starts from the last point evaluated, a sweep's or one that
    # the step before kept in its chain, and its point is evaluated next
    trials = [(events[i - 1], events[i + 1]) for i, e in enumerate(events) if e == "step"]
    inside = kept = 0
    for (start, start_obj), (trial, obj) in trials:
        zero = start == 0.0
        assert np.all(trial[zero] == 0.0)
        if obj <= start_obj:
            kept += 1
            inside += int(np.sum(zero & np.repeat(prob.active_groups(start), prob.group_sizes)))
    assert kept and inside > 0
    assert np.all(np.diff(result.objective_history) <= 0.0)


def _ends_at_a_face_step(events):
    # the last block visit or face step of a traced fit is a face step
    return [e for e in events if isinstance(e, str)][-1:] == ["step"]


def test_every_converged_fit_passes_a_sweeps_stop_tests(monkeypatch):
    # a fit stops, converged, at one rule, whether its last move was a
    # sweep that moved nothing by more than outer_tol or, after a moving
    # sweep, a full face step of the chain that follows it that keeps every
    # sign: every zero group passes its zero test, every zero coordinate of
    # a nonzero group passes the entry test |X_j'r| <= lambda2, and the KKT
    # gate holds. All three are recomputed
    # here from X'(y - X beta) for every fit: along warm-started paths on
    # two paper draws at each mixing endpoint and between them, where some
    # fits at each mixing end at a face step, and in lone fits on four
    # small draws: on three, a group that the last sweep left at zero
    # inside the working set fails its zero test at a converged step's
    # point, and on the fourth a group outside it fails at a quiet sweep's
    # point, so those fits must sweep on
    opts = SolverOptions(outer_tol=1e-5)
    works = []
    working_set = solver_module._BlockCache.working_set

    def recorded(cache, work):
        works.append(work.copy())
        return working_set(cache, work)

    monkeypatch.setattr(solver_module._BlockCache, "working_set", recorded)
    ended = dict.fromkeys((0.0, 0.5, 1.0), 0)
    zero_in_work = 0

    def fit_and_check(prob, mixing, lam, warm=None):
        nonlocal zero_in_work
        pen = PenaltySpec((1.0 - mixing) * lam, mixing * lam)
        result, events = _traced_fit(monkeypatch, prob, pen, opts, warm)
        ended[mixing] += int(_ends_at_a_face_step(events))
        scale = max(1.0, float(np.abs(prob.X.T @ prob.y).max()))
        slack = 1e-12 * scale
        beta = result.coefficients.beta
        grad = prob.X.T @ (prob.y - prob.X @ beta)
        nonzero = prob.active_groups(beta)
        for ell, (sl, w) in enumerate(zip(prob.slices, prob.weights)):
            g = grad[sl]
            if nonzero[ell]:
                assert np.all(np.abs(g[beta[sl] == 0.0]) <= pen.lambda2 + slack)
            else:
                shrunk = np.sign(g) * np.maximum(np.abs(g) - pen.lambda2, 0.0)
                assert np.linalg.norm(shrunk) <= pen.lambda1 * w + slack
        worst = kkt_reference(prob.y, prob.X, beta, prob.group_sizes, prob.weights,
                              pen.lambda1, pen.lambda2)[3]
        assert worst <= 5.0 * opts.outer_tol * scale
        assert result.converged and result.max_coef_delta <= opts.outer_tol
        ref = fit_oracle(prob, pen)
        assert abs(result.objective - ref.objective) <= 1e-8 * (1.0 + abs(result.objective))
        if _ends_at_a_face_step(events):
            # the last working set the fit swept holds an all-zero group
            zero_in_work += int((works[-1] & ~nonzero).any())
        return result.coefficients

    fits = 0
    for seed in (700, 703):
        data = generate(SimConfig(seed=seed))
        prob = build_problem(data.y, data.X, data.config.blocks)
        for mixing in ended:
            warm = None
            for lam in lambda_max(prob, mixing) * 0.01 ** np.linspace(0.0, 1.0, 6):
                warm = fit_and_check(prob, mixing, lam, warm)
                fits += 1
    for seed, mixing, ratio in (
        (1276, 0.0, 0.2), (1771, 0.5, 0.05), (96, 1.0, 0.2), (346, 1.0, 0.5)
    ):
        prob = random_problem(np.random.default_rng(seed), 20, [3] * 6)
        fit_and_check(prob, mixing, ratio * lambda_max(prob, mixing))
        fits += 1
    # fits that end at a sweep are checked too, and some end at a face step
    # at each mixing
    assert all(ended.values()) and sum(ended.values()) < fits and zero_in_work > 0


def test_a_face_step_on_a_rank_deficient_face_raises_no_warning(monkeypatch):
    # duplicate columns inside an active group, n < p and no group term
    # (mixing 1): the face's Hessian X_S'X_S is singular. On faces of n
    # columns or more, and on narrower ones whose solve fails, the step
    # drops the Hessian's null directions and runs on along the gradient's
    # part there to the first zero. Full steps that flip signs are
    # rejected, and the point where such a step first zeroes a coordinate
    # is tried next: it has one new exact zero and is kept only when it is
    # not higher, and then the chain goes on from its face. No warning may
    # escape
    rng = np.random.default_rng(0)
    X = rng.standard_normal((15, 20))
    X[:, 1] = X[:, 0]
    beta = rng.standard_normal(20) * (rng.random(20) < 0.5)
    beta[0] = 2.0
    y = X @ beta + 0.5 * rng.standard_normal(15)
    prob = build_problem(y, X, [5] * 4)
    pen = PenaltySpec(0.0, 0.01 * lambda_max(prob, 1.0))
    events = []
    newton, evaluate = solver_module._newton_step, solver_module._objective_from_residual

    def step(X_work, res, b, *rest):
        X_S = X_work[:, b != 0.0]
        out = newton(X_work, res, b, *rest)
        events.append((X_S.shape[1], np.linalg.matrix_rank(X_S), out is not None))
        return out

    def evaluated(problem, res, beta, penalty):
        value = evaluate(problem, res, beta, penalty)
        events.append((beta.copy(), value))
        return value

    monkeypatch.setattr(solver_module, "_newton_step", step)
    monkeypatch.setattr(solver_module, "_objective_from_residual", evaluated)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = fit(prob, pen, SolverOptions(outer_tol=1e-9))
    history = result.objective_history
    kept_on_deficient = kept_on_narrow = clipped = chained = 0
    for i, event in enumerate(events):
        if len(event) != 3 or not event[2]:
            continue
        size, rank, _ = event
        (start, start_obj), (trial, tried) = events[i - 1], events[i + 1]
        kept = tried <= start_obj
        if not kept and np.any((start != 0.0) & (trial * start <= 0.0)):
            clip, clip_obj = events[i + 2]
            assert np.sum((clip == 0.0) & (start != 0.0)) == 1
            assert np.all(clip * start >= 0.0)
            kept = clip_obj <= start_obj
            clipped += 1
            # a kept clipped point starts the next step of the chain, on
            # its own face, unless the chain has reached its cap
            if kept and i + 3 < len(events) and len(events[i + 3]) == 3:
                chained += int(events[i + 3][0] == np.count_nonzero(clip))
        kept_on_deficient += int(kept and rank < size)
        kept_on_narrow += int(kept and rank < size < len(y))
    # a face of 14 columns and rank 13 (n = 15) fails its solve, and the
    # step that falls back to the eigendecomposition is kept; the fit takes
    # 2 sweeps, and 808 when no face narrower than n whose rank is short of
    # its columns gives a step
    assert kept_on_deficient > 0 and kept_on_narrow > 0 and clipped > 0 and chained > 0
    assert result.sweeps < 50
    # block updates near the optimum may re-round the criterion upward by
    # an ulp, within the monotone guard; no kept point raises it
    assert np.all(np.diff(history) <= 1e-12)
    # the duplicate pair carries the signal; the criterion does not depend
    # on how the pair splits it, and the step's ray moves it all to one
    assert result.coefficients.beta[0] + result.coefficients.beta[1] != 0.0
    assert result.converged
    ref = fit_oracle(prob, pen, OracleOptions(tol=1e-15, max_iters=200000))
    assert result.objective == pytest.approx(ref.objective, rel=1e-8)


def test_newton_steps_reach_the_face_minimizer():
    # from a point on the optimum's sign face, Newton steps on that face
    # converge to the optimum quadratically, which a wrong gradient or
    # Hessian (its group terms, or their block structure) would not
    rng = np.random.default_rng(44)
    X = rng.standard_normal((30, 8))
    y = X @ [1.0, 2.0, 0.0, 0.0, -1.0, 0.0, 0.5, 0.0] + 0.3 * rng.standard_normal(30)
    prob = build_problem(y, X, [4, 4])
    lam = 0.1 * lambda_max(prob, 0.5)
    pen = PenaltySpec(0.5 * lam, 0.5 * lam)
    best = fit(prob, pen, SolverOptions(outer_tol=1e-13)).coefficients.beta
    assert prob.active_groups(best).all() and not best.all()
    groups = np.repeat([0, 1], 4)
    lam1w = pen.lambda1 * prob.weights
    b = best * (1.0 + 0.3 * rng.random(8))
    gram = prob.X.T @ prob.X
    for _ in range(5):
        b = solver_module._newton_step(
            prob.X, prob.y - prob.X @ b, b, groups, lam1w, pen.lambda2, gram)
    assert np.array_equal(np.sign(b), np.sign(best))
    assert np.abs(b - best).max() <= 1e-10 * np.abs(best).max()
    # a group whose squared norm underflows gives no finite step, and no
    # warning escapes
    b[:4] = 1e-170 * np.sign(b[:4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver_module._newton_step(
            prob.X, prob.y - prob.X @ b, b, groups, lam1w, pen.lambda2, gram) is None


def test_fit_restarted_from_its_own_solution_stays_put():
    rng = np.random.default_rng(27)
    prob = random_problem(rng, 30, [4, 4, 4])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.2 * lmax, 0.2 * lmax)
    first = fit(prob, pen)
    again = fit(prob, pen, warm=first.coefficients)
    assert again.sweeps <= 2
    assert again.objective == pytest.approx(first.objective, rel=1e-12)


def test_fit_warm_and_cold_starts_reach_the_same_objective():
    rng = np.random.default_rng(28)
    prob = random_problem(rng, 30, [4, 4, 4])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.1 * lmax, 0.1 * lmax)
    cold = fit(prob, pen, TIGHT)
    warm = fit(prob, pen, TIGHT, warm=prob.coefficients(rng.standard_normal(prob.p)))
    assert warm.objective == pytest.approx(cold.objective, rel=1e-9)


def test_fit_without_penalty_is_least_squares():
    rng = np.random.default_rng(29)
    prob = random_problem(rng, 30, [3, 3])
    result = fit(prob, PenaltySpec(0.0, 0.0), TIGHT)
    assert not result.degenerate
    assert np.abs(result.coefficients.beta - least_squares(prob.y, prob.X)).max() < 1e-6


def test_fit_flags_rank_deficiency_without_penalty():
    rng = np.random.default_rng(30)
    X = rng.standard_normal((10, 6))
    X[:, 3] = X[:, 2]  # exact duplicate column
    y = rng.standard_normal(10)
    prob = build_problem(y, X, [3, 3])
    result = fit(prob, PenaltySpec(0.0, 0.0), SolverOptions(outer_tol=1e-9))
    assert result.degenerate
    # still a least-squares solution: zero gradient
    res = prob.y - prob.X @ result.coefficients.beta
    assert np.abs(prob.X.T @ res).max() < 1e-6


def test_fit_scaling_relation():
    # scaling the response and both penalty levels by c scales the solution by c
    rng = np.random.default_rng(31)
    raw_X = rng.standard_normal((25, 6))
    raw_y = raw_X @ (rng.standard_normal(6) * [1, 1, 0, 0, 1, 0]) + rng.standard_normal(25)
    c = 3.7
    base = build_problem(raw_y, raw_X, [3, 3])
    scaled = build_problem(c * raw_y, raw_X, [3, 3])
    lmax = lambda_max(base, 0.5)
    pen = PenaltySpec(0.15 * lmax, 0.1 * lmax)
    pen_scaled = PenaltySpec(c * pen.lambda1, c * pen.lambda2)
    r1 = fit(base, pen, TIGHT)
    r2 = fit(scaled, pen_scaled, TIGHT)
    b1, b2 = r1.coefficients.beta, r2.coefficients.beta
    assert np.abs(b2 - c * b1).max() < 1e-8 * max(1.0, float(np.abs(c * b1).max()))
    # the objective scales by c^2, far more tightly than the coefficients
    assert r2.objective == pytest.approx(c * c * r1.objective, rel=1e-12)


def test_fit_reports_nonconvergence_at_the_sweep_cap(monkeypatch):
    # a creep draw at a tiny penalty, which takes 7 sweeps to converge at
    # this tolerance
    prob = _creep_problem(4)
    lam = 1e-6 * lambda_max(prob, 0.5)
    pen = PenaltySpec(0.5 * lam, 0.5 * lam)
    result = fit(prob, pen, SolverOptions(outer_tol=1e-14, max_sweeps=1))
    assert not result.converged
    assert result.sweeps == 1
    assert result.objective_history.size == 2
    assert np.isfinite(result.objective)
    # face steps follow each of these sweeps, every one of which moves a
    # coefficient; but the last sweep allowed tries none, and the fit
    # returns that sweep's output
    for last in (3, 4):
        opts = SolverOptions(outer_tol=1e-14, max_sweeps=last)
        capped, events = _traced_fit(monkeypatch, prob, pen, opts)
        assert capped.sweeps == last and not capped.converged
        marks = "".join(e[0] for e in events if isinstance(e, str))
        assert re.fullmatch(f"v+(s+v+){{{last - 1}}}", marks), marks
        assert np.array_equal(capped.coefficients.beta, events[-1][0])


def test_fit_convergence_honors_the_tolerance():
    rng = np.random.default_rng(34)
    for sizes in ([2, 3], [4, 4]):
        prob = random_problem(rng, 20, sizes)
        lmax = lambda_max(prob, 0.5)
        result = fit(prob, PenaltySpec(0.1 * lmax, 0.1 * lmax))
        assert result.converged
        assert result.max_coef_delta <= 1e-7
        recomputed = objective(prob, result.coefficients, PenaltySpec(0.1 * lmax, 0.1 * lmax))
        assert result.objective == pytest.approx(recomputed, rel=1e-12)


def test_fit_zeroes_coefficients_of_constant_columns():
    rng = np.random.default_rng(35)
    X = rng.standard_normal((15, 4))
    X[:, 1] = 2.5  # centered away to a zero column
    y = rng.standard_normal(15)
    prob = build_problem(y, X, [2, 2])
    result = fit(prob, PenaltySpec(0.01, 0.01), TIGHT)
    assert result.coefficients.beta[1] == 0.0
    assert result.converged


def test_fit_never_reports_convergence_while_its_kkt_gate_fails():
    # the quiet-sweep test is in coefficient units: with large columns a
    # sweep can move nothing by outer_tol short of the gate, and the fit
    # must not call that converged. The stall reads the criterion, so every
    # fit here converges to the reference objective at any scale, lasso
    # blocks (mixing 1) included; a lasso block solve stopped by a
    # coefficient-unit tolerance stalled at 1e10 instead
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 12))
    y = X[:, :3] @ [1.0, 2.0, -1.0] + rng.standard_normal(40)
    opts = SolverOptions()
    for scale in (1e3, 1e4, 1e6, 1e8, 1e10):
        prob = build_problem(y, scale * X, [4, 4, 4])
        gate = 5.0 * opts.outer_tol * max(1.0, float(np.abs(prob.X.T @ prob.y).max()))
        for mixing in (0.0, 0.5, 1.0):
            lam = 0.3 * lambda_max(prob, mixing)
            pen = PenaltySpec((1.0 - mixing) * lam, mixing * lam)
            result = fit(prob, pen, opts)
            assert result.converged, (scale, mixing)
            assert result.kkt.worst_violation <= gate, (scale, mixing)
            ref = fit_oracle(prob, pen)
            assert result.objective == pytest.approx(ref.objective, rel=1e-8), (scale, mixing)


def _creep_problem(seed, scale=1.0):
    # n < p, with a constant last column that centering zeroes
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((15, 18))
    X[:, -1] = 1.0
    y = X[:, :4] @ rng.standard_normal(4) + 0.1 * rng.standard_normal(15)
    return build_problem(y, scale * X, [6, 6, 1, 5])


def test_fit_converges_where_block_descent_creeps_on_a_wide_design():
    # a tiny one-norm level: block sweeps alone creep at a linear rate
    # here, and without face steps this fit stops at 10,000 sweeps
    # unconverged, 1e-3 above the reference
    prob = _creep_problem(8)
    pen = PenaltySpec(0.0, 1e-4 * lambda_max(prob, 1.0))
    result = fit(prob, pen, SolverOptions(outer_tol=1e-9, max_sweeps=2000))
    assert result.converged
    ref = fit_oracle(prob, pen, OracleOptions(tol=1e-15, max_iters=200000))
    assert result.objective == pytest.approx(ref.objective, rel=1e-8)


def test_fit_converges_on_every_draw_of_the_creep_generator():
    # forty draws at mixings 1 and 0.5, at 1e-4 * lambda_max: every fit
    # converges, and together they take 289 sweeps. Exact block solves with
    # chains of face steps that stopped at every sign change took 1,805,
    # and one prox step per block visit with those chains 13,410. Face
    # steps that failed on faces of n columns or more and were never
    # clipped, with an Anderson extrapolation beside them, took 59,826,
    # and one fit stopped at the 10,000-sweep cap
    measured = 289
    opts = SolverOptions(outer_tol=1e-9)
    sweeps = 0
    for seed in range(40):
        prob = _creep_problem(seed)
        for mixing in (1.0, 0.5):
            lam = 1e-4 * lambda_max(prob, mixing)
            result = fit(prob, PenaltySpec((1.0 - mixing) * lam, mixing * lam), opts)
            assert result.converged, (seed, mixing)
            sweeps += result.sweeps
    assert sweeps < 1.5 * measured


def test_creep_fits_take_the_same_sweeps_whatever_the_scale_of_x():
    # the stop and stall rules read the criterion and the KKT report, so
    # scaling X leaves the work alone: ten draws at mixings 1 and 0.5 take
    # 71 sweeps unscaled, at X * 1e4 and at X * 1e6. A stall read in
    # coefficient units (a sweep moving nothing by 1e-4 * outer_tol) left 3
    # of these fits unconverged at 1e4, after 53,373 sweeps, and all 20 at 1e6
    opts = SolverOptions(outer_tol=1e-9)
    sweeps = {}
    for scale in (1.0, 1e4, 1e6):
        sweeps[scale] = 0
        for seed in range(10):
            prob = _creep_problem(seed, scale)
            for mixing in (1.0, 0.5):
                lam = 1e-4 * lambda_max(prob, mixing)
                result = fit(prob, PenaltySpec((1.0 - mixing) * lam, mixing * lam), opts)
                assert result.converged, (scale, seed, mixing)
                sweeps[scale] += result.sweeps
    for scale in (1e4, 1e6):
        assert abs(sweeps[scale] - sweeps[1.0]) <= 0.05 * sweeps[1.0], sweeps


def test_fit_caps_few_draws_of_the_creep_generator_at_a_tinier_penalty():
    # the same eighty fits at 1e-6 * lambda_max: every fit converges, and
    # together they take 302 sweeps. Exact block solves with chains of face
    # steps that stopped at every sign change took 41,148, and two fits
    # stopped at the 10,000-sweep cap unconverged (seed 18 at mixing 0.5 and
    # seed 38 at mixing 1): their faces of 14-17 columns (n = 15) never
    # settled
    measured = 302
    opts = SolverOptions(outer_tol=1e-9)
    sweeps = 0
    for seed in range(40):
        prob = _creep_problem(seed)
        for mixing in (1.0, 0.5):
            lam = 1e-6 * lambda_max(prob, mixing)
            result = fit(prob, PenaltySpec((1.0 - mixing) * lam, mixing * lam), opts)
            assert result.converged, (seed, mixing)
            sweeps += result.sweeps
    assert sweeps < 1.5 * measured


def test_fit_reports_the_kkt_of_its_final_gate_without_recomputing(monkeypatch):
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 12))
    y = X[:, :3] @ [1.0, 2.0, -1.0] + rng.standard_normal(40)
    prob = build_problem(y, X, [4, 4, 4])
    lam = 0.3 * lambda_max(prob, 0.5)
    pen = PenaltySpec(0.5 * lam, 0.5 * lam)
    calls = []
    kkt = solver_module.kkt_residual

    def counted(*args):
        calls.append(args)
        return kkt(*args)

    monkeypatch.setattr(solver_module, "kkt_residual", counted)
    result = fit(prob, pen)
    assert result.converged
    assert len(calls) == 1
    fresh = kkt(prob, result.coefficients, pen)
    assert np.array_equal(result.kkt.per_group, fresh.per_group)
    assert result.kkt.worst_violation == fresh.worst_violation

    # a fit cut off before any gate still reports the KKT of its final beta
    calls.clear()
    cut = fit(prob, pen, SolverOptions(max_sweeps=1, outer_tol=1e-14))
    assert not cut.converged and len(calls) == 1
    assert cut.kkt.worst_violation == kkt(prob, cut.coefficients, pen).worst_violation


def test_a_lone_fit_takes_its_kkt_report_from_its_last_screen(monkeypatch):
    # a warm-started fit forms X'r at its start, and each stop forms its
    # own inside the KKT report that certifies it; the last such report is
    # the fit's, with no second one after it, and a fit from zero screens
    # X'y
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 12))
    y = X[:, :3] @ [1.0, 2.0, -1.0] + rng.standard_normal(40)
    prob = build_problem(y, X, [4, 4, 4])
    lam = lambda_max(prob, 0.5)
    warm = fit(prob, PenaltySpec(0.3 * lam, 0.3 * lam)).coefficients
    gradient, kkt = solver_module._BlockCache.gradient, solver_module.kkt_residual
    calls, in_kkt, reports = [], [], []

    def counted_gradient(cache, res):
        before = cache._xtr
        out = gradient(cache, res)
        calls.append((bool(in_kkt), out is not before and out is not cache.xty))
        return out

    def counted_kkt(*args):
        in_kkt.append(True)
        try:
            reports.append(kkt(*args))
            return reports[-1]
        finally:
            in_kkt.pop()

    monkeypatch.setattr(solver_module._BlockCache, "gradient", counted_gradient)
    monkeypatch.setattr(solver_module, "kkt_residual", counted_kkt)
    for start in (warm, None):
        calls.clear()
        reports.clear()
        result = fit(prob, PenaltySpec(0.2 * lam, 0.2 * lam), warm=start)
        assert result.converged
        first, *stops = calls
        assert first == (False, start is not None)
        assert stops and all(kind and formed for kind, formed in stops)
        assert len(reports) == len(stops) and result.kkt is reports[-1]


def _degenerate_case(name):
    rng = np.random.default_rng(47)
    n, sizes, mixing, ratio, weight_mode = 40, [4, 4, 4], 0.5, 0.3, "unit"
    if name.startswith("n<p"):
        n, sizes, ratio = 15, [5] * 12, float(name.split()[-1])
    elif name == "single group":
        sizes, weight_mode = [12], "sqrt-size"
    elif name.startswith("mixing"):
        mixing = float(name.split()[-1])
    elif name.endswith("group lasso"):
        mixing = 0.0
    X = rng.standard_normal((n, sum(sizes)))
    if name.startswith("duplicate inside"):
        X[:, 1] = X[:, 0]
    elif name.startswith("duplicate across"):
        X[:, 5] = X[:, 0]
    beta = rng.standard_normal(X.shape[1]) * (rng.random(X.shape[1]) < 0.5)
    beta[0] = 2.0  # the duplicated column carries signal
    y = X @ beta + 0.5 * rng.standard_normal(n)
    prob = build_problem(y, X, sizes, weight_mode=weight_mode)
    lam = ratio * lambda_max(prob, mixing)
    return prob, PenaltySpec((1.0 - mixing) * lam, mixing * lam)


@pytest.mark.parametrize("name", [
    "n<p 0.3", "n<p 0.02",
    "duplicate inside, sparse group lasso", "duplicate inside, group lasso",
    "duplicate across, sparse group lasso", "duplicate across, group lasso",
    "single group", "mixing 0", "mixing 1",
])
def test_fit_solves_degenerate_inputs(name):
    prob, pen = _degenerate_case(name)
    opts = SolverOptions()
    result = fit(prob, pen, opts)
    assert result.converged
    gate = 5.0 * opts.outer_tol * max(1.0, float(np.abs(prob.X.T @ prob.y).max()))
    assert result.kkt.worst_violation <= gate
    ref = fit_oracle(prob, pen)
    assert result.objective == pytest.approx(ref.objective, rel=1e-8)


def test_solver_options_validation():
    with pytest.raises(ValueError):
        SolverOptions(outer_tol=0.0)
    with pytest.raises(ValueError):
        SolverOptions(outer_tol=np.nan)
    with pytest.raises(ValueError):
        SolverOptions(max_sweeps=0)
    with pytest.raises(ValueError):
        SolverOptions(inner_tol=-1e-9)


def test_count_options_take_integers_only():
    # a float count used to pass validation, then fail inside fit or
    # fit_oracle (range of a float) or, as n_points, fit a truncated grid
    makers = {
        "max_sweeps": lambda v: SolverOptions(max_sweeps=v),
        "max_iters": lambda v: OracleOptions(max_iters=v),
        "n_points": lambda v: PathSpec(n_points=v),
    }
    for field, make in makers.items():
        for bad in (2.5, 1e3, 3.7, "3", None):
            with pytest.raises(ValueError, match=field):
                make(bad)
        for good in (3, np.int64(3), np.int32(3)):
            assert getattr(make(good), field) == 3
    # numpy integers run end to end
    rng = np.random.default_rng(41)
    prob = build_problem(rng.standard_normal(20), rng.standard_normal((20, 4)), [2, 2])
    path = fit_path(prob, PathSpec(n_points=np.int64(3)), SolverOptions(max_sweeps=np.int64(50)))
    assert len(path.points) == 3
    ref = fit_oracle(prob, path.points[-1].penalty, OracleOptions(max_iters=np.int64(5)))
    assert ref.iterations <= 5


def _zero_test_passes(prob, res, pen, sl, w):
    # the block zero test written out for one group, independently of fit
    a = prob.X[:, sl].T @ res
    shrunk = np.sign(a) * np.maximum(np.abs(a) - pen.lambda2, 0.0)
    return float(np.linalg.norm(shrunk)) <= pen.lambda1 * float(w)


def test_fit_on_a_working_set_screens_out_every_zero_group(monkeypatch):
    # many groups of 5 plus a group of 17 and two singletons, few of them
    # ever active: most groups are never visited by a working-set sweep
    rng = np.random.default_rng(45)
    sizes = [5] * 20 + [17] + [5] * 20 + [1, 1]
    prob = random_problem(rng, 60, sizes, sparsity=0.05)
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.25 * lmax, 0.25 * lmax)
    masks = []
    working_set = solver_module._BlockCache.working_set

    def recorded_working_set(cache, work):
        masks.append(work.copy())
        return working_set(cache, work)

    monkeypatch.setattr(solver_module._BlockCache, "working_set", recorded_working_set)
    result = fit(prob, pen, SolverOptions(outer_tol=1e-9))
    assert result.converged
    # on this draw a group passes the first screen but joins the working set
    # at a later stop, once the fit has moved the residual (the final stop
    # reads that group, active by then, on its zero test's boundary)
    assert any((later & ~masks[0]).any() for later in masks[1:])
    beta = result.coefficients.beta
    active = prob.active_groups(beta)
    assert 0 < int(active.sum()) < prob.n_groups // 2
    res = prob.y - prob.X @ beta
    for ell, (sl, w) in enumerate(zip(prob.slices, prob.weights)):
        if not active[ell]:
            assert _zero_test_passes(prob, res, pen, sl, w), ell
    ref = fit_oracle(prob, pen, OracleOptions(tol=1e-15, max_iters=200000))
    assert result.objective == pytest.approx(ref.objective, rel=1e-8)

    # warm-started from a lower level, groups active there must end at zero
    lower = fit(prob, PenaltySpec(0.1 * lmax, 0.1 * lmax), SolverOptions(outer_tol=1e-9))
    was_active = prob.active_groups(lower.coefficients)
    assert (was_active & ~active).any()
    warm = fit(prob, pen, SolverOptions(outer_tol=1e-9), warm=lower.coefficients)
    assert warm.converged
    assert np.array_equal(prob.active_groups(warm.coefficients), active)
    for sl, is_active in zip(prob.slices, active):
        if not is_active:
            assert np.all(warm.coefficients.beta[sl] == 0.0)
    assert warm.objective == pytest.approx(ref.objective, rel=1e-8)


# ---------------------------------------------------------- group lasso alone

def test_group_lasso_orthonormal_blocks_match_the_shortcut():
    rng = np.random.default_rng(36)
    Q = _orthonormal_design(rng, 30, 6)  # all columns orthonormal: blocks decouple
    y = rng.standard_normal(30) * 2.0
    prob = build_problem(y, Q, [3, 3])
    lam = 0.6
    result = fit(prob, PenaltySpec(lam, 0.0), TIGHT)
    for sl in prob.slices:
        s = prob.X[:, sl].T @ prob.y
        shrink = max(0.0, 1.0 - lam / float(np.linalg.norm(s)))
        assert np.abs(result.coefficients.beta[sl] - shrink * s).max() < 1e-8


def test_group_lasso_active_blocks_solve_their_ridge_system():
    rng = np.random.default_rng(37)
    M = rng.standard_normal((40, 6))
    M -= M.mean(axis=0)
    U, _ = np.linalg.qr(M)
    V, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    X = U @ np.diag(np.geomspace(1.0, 0.1, 6)) @ V.T  # condition number 10
    assert 9.0 < np.linalg.cond(X) < 11.0
    y = X @ np.array([1.0, -1.0, 0.5, 0.0, 0.0, 0.0]) + 0.5 * rng.standard_normal(40)
    prob = build_problem(y, X, [3, 3])
    lam = 0.3 * lambda_max(prob, 0.0)
    result = fit(prob, PenaltySpec(lam, 0.0), SolverOptions(outer_tol=1e-10))
    assert prob.active_groups(result.coefficients).any()
    gap = ridge_fixed_point_gap(
        prob.y, prob.X, result.coefficients.beta, prob.group_sizes, prob.weights, lam
    )
    assert gap < 1e-6


def test_group_lasso_at_level_zero_is_least_squares():
    rng = np.random.default_rng(38)
    prob = random_problem(rng, 30, [2, 4])
    result = fit(prob, PenaltySpec(0.0, 0.0), TIGHT)
    assert np.abs(result.coefficients.beta - least_squares(prob.y, prob.X)).max() < 1e-6


# ---------------------------------------------------------------- kkt_residual

def test_kkt_is_exactly_zero_for_the_origin_above_the_zero_level():
    rng = np.random.default_rng(39)
    prob = random_problem(rng, 20, [3, 3])
    lmax = lambda_max(prob, 0.5)
    rep = kkt_residual(prob, np.zeros(prob.p), PenaltySpec(0.75 * lmax, 0.75 * lmax))
    assert rep.worst_violation == 0.0
    assert not rep.active.any()


def test_kkt_is_small_at_the_reference_solution():
    rng = np.random.default_rng(40)
    prob = random_problem(rng, 18, [2, 2, 2])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.15 * lmax, 0.1 * lmax)
    ref = fit_oracle(prob, pen, OracleOptions(tol=1e-15))
    rep = kkt_residual(prob, ref.coefficients, pen)
    assert rep.worst_violation <= 1e-6 * float(np.abs(prob.X.T @ prob.y).max())


def test_kkt_increases_when_a_solution_is_perturbed():
    rng = np.random.default_rng(41)
    prob = random_problem(rng, 25, [3, 3])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.1 * lmax, 0.1 * lmax)
    solution = fit(prob, pen, TIGHT).coefficients.beta
    assert np.any(solution != 0.0)
    j = int(np.argmax(np.abs(solution)))
    base = kkt_residual(prob, solution, pen).worst_violation
    nudged = solution.copy()
    nudged[j] += 0.1
    assert kkt_residual(prob, nudged, pen).worst_violation > base


def test_kkt_report_structure():
    rng = np.random.default_rng(42)
    prob = random_problem(rng, 20, [2, 3, 2])
    pen = PenaltySpec(0.4, 0.3)
    beta = rng.standard_normal(prob.p) * (rng.random(prob.p) < 0.5)
    rep = kkt_residual(prob, beta, pen)
    assert np.all(rep.per_group >= 0.0) and np.all(rep.per_coordinate >= 0.0)
    assert rep.worst_violation == rep.per_group.max()
    for ell, sl in enumerate(prob.slices):
        is_active = bool(np.any(beta[sl] != 0.0))
        assert rep.active[ell] == is_active
        if is_active:
            assert rep.per_group[ell] == rep.per_coordinate[sl].max()


def test_kkt_pure_one_norm_zero_block_residual():
    rng = np.random.default_rng(43)
    prob = random_problem(rng, 15, [4])
    a = prob.X.T @ prob.y
    high = float(np.abs(a).max())
    assert kkt_residual(prob, np.zeros(4), PenaltySpec(0.0, 1.01 * high)).worst_violation == 0.0
    rep = kkt_residual(prob, np.zeros(4), PenaltySpec(0.0, 0.5 * high))
    assert rep.worst_violation == pytest.approx(high - 0.5 * high, rel=1e-12)


def test_kkt_stays_finite_when_an_active_group_norm_underflows():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 12))
    y = X[:, :3] @ np.array([1.0, 2.0, -1.0]) + rng.standard_normal(40)
    prob = build_problem(y, X, [4, 4, 4])
    level = 0.3 * lambda_max(prob, 0.5)
    pen = PenaltySpec(0.5 * level, 0.5 * level)
    beta = np.array(fit(prob, pen).coefficients.beta)
    assert not beta[8:].any()
    beta[8] = 1e-170  # its square, the group's squared norm, underflows to zero
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = kkt_residual(prob, beta, pen)
    # the third group's direction is the unit vector of coordinate 8
    grad = prob.X.T @ (prob.y - prob.X @ beta)
    assert report.active[2]
    assert report.per_coordinate[8] == pytest.approx(abs(grad[8] - level), rel=1e-12)
    assert np.allclose(report.per_coordinate[9:], np.maximum(np.abs(grad[9:]) - 0.5 * level, 0.0),
                       rtol=1e-12, atol=0.0)
    assert np.isfinite(report.worst_violation)


def _assert_kkt_matches_reference(prob, beta, pen, scale):
    rep = kkt_residual(prob, beta, pen)
    per_group, per_coord, active, worst = kkt_reference(
        prob.y, prob.X, beta, prob.group_sizes, prob.weights, pen.lambda1, pen.lambda2
    )
    assert np.array_equal(rep.active, active)
    np.testing.assert_allclose(rep.per_group, per_group, rtol=1e-12, atol=1e-12 * scale)
    np.testing.assert_allclose(rep.per_coordinate, per_coord, rtol=1e-12, atol=1e-12 * scale)
    assert rep.worst_violation == pytest.approx(worst, rel=1e-12, abs=1e-12 * scale)


@pytest.mark.parametrize("seed", range(6))
def test_kkt_matches_the_per_group_reference(seed):
    rng = np.random.default_rng(450 + seed)
    sizes = [int(k) for k in rng.integers(1, 9, size=rng.integers(2, 7))]
    prob = random_problem(rng, 30, sizes, weight_mode="sqrt-size")
    lmax = lambda_max(prob, 0.5)
    scale = max(1.0, float(np.abs(prob.X.T @ prob.y).max()))
    levels = [(0.0, 0.0), (0.0, 0.3 * lmax), (0.3 * lmax, 0.0), (0.2 * lmax, 0.1 * lmax)]
    for lam1, lam2 in levels:
        pen = PenaltySpec(lam1, lam2)
        solved = fit(prob, pen, SolverOptions(outer_tol=1e-6)).coefficients.beta
        # a fit (active blocks with zero coordinates), a perturbed copy, and a
        # sparse random vector (zero blocks next to partly zero ones)
        perturbed = solved + 0.05 * rng.standard_normal(prob.p) * (solved != 0.0)
        sparse = rng.standard_normal(prob.p) * (rng.random(prob.p) < 0.4)
        for beta in (solved, perturbed, sparse, np.zeros(prob.p)):
            _assert_kkt_matches_reference(prob, beta, pen, scale)
    # wide-shaped points, p = 1000 in groups of five: at most five nonzero
    # groups, partly zero inside, next to 195 or more zero groups; and the
    # all-zero and all-active points
    wide = random_problem(rng, 40, [5] * 200, weight_mode="sqrt-size", sparsity=0.02)
    scale = max(1.0, float(np.abs(wide.X.T @ wide.y).max()))
    lmax = lambda_max(wide, 0.5)
    points = [np.zeros(wide.p), rng.standard_normal(wide.p)]
    for count in (1, 3, 5):
        beta = np.zeros(wide.p)
        for g in rng.choice(200, size=count, replace=False):
            block = rng.standard_normal(5) * (rng.random(5) < 0.6)
            block[rng.integers(5)] = rng.standard_normal()
            beta[5 * g:5 * g + 5] = block
        points.append(beta)
    for pen in (PenaltySpec(0.0, 0.3 * lmax), PenaltySpec(0.3 * lmax, 0.0)):
        for beta in points:
            _assert_kkt_matches_reference(wide, beta, pen, scale)
