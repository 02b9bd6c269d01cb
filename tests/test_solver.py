"""Coordinate-descent solver: zero screens, block updates, full fits, and
first-order optimality reporting."""

import math
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
from sgl.solver import _block_minimize, _block_prox, _zero_test_excess
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


# ------------------------------------------------------------ one-column block

def test_coordinate_lasso_closed_form_on_a_unit_column():
    # without a group term a block is a lasso: one shrink of the column
    # against the residual, whatever the start
    rng = np.random.default_rng(17)
    for _ in range(8):
        col = rng.standard_normal(12)
        col /= np.linalg.norm(col)
        r = rng.standard_normal(12)
        lam2 = float(rng.uniform(0.05, 1.0))
        a0, gram = np.array([col @ r]), np.array([[col @ col]])
        prox = _block_prox(a0, 0.0, lam2)
        got = _block_minimize(a0, gram, rng.standard_normal(1), prox, 0.0, lam2)
        assert got[0] == pytest.approx(soft_threshold(float(a0[0]), lam2), abs=1e-10)


def test_coordinate_singleton_group_closed_form():
    rng = np.random.default_rng(18)
    for _ in range(8):
        col = rng.standard_normal(10)
        col /= np.linalg.norm(col)
        r = rng.standard_normal(10)
        lam1, lam2, w = (float(v) for v in rng.uniform(0.05, 0.8, size=3))
        a0, gram = np.array([col @ r]), np.array([[col @ col]])
        expected = soft_threshold(float(a0[0]), lam1 * w + lam2)
        prox = _block_prox(a0, lam1 * w, lam2)
        if not prox.any():
            # the block zero test passes, so the block is not minimized
            assert expected == 0.0
            continue
        got = _block_minimize(a0, gram, np.zeros(1), prox, lam1 * w, lam2)
        assert got[0] == pytest.approx(expected, abs=1e-10)


def _a6_style_paths(mixing=0.5):
    opts = SolverOptions(outer_tol=1e-5, inner_tol=1e-8)
    betas = []
    for seed in (1, 2):
        data = generate(SimConfig(seed=seed))
        prob = build_problem(data.y, data.X, data.config.blocks)
        path = fit_path(prob, PathSpec(n_points=8, ratio_min=0.01, mixing=mixing), opts)
        betas.append(np.array([pt.coefficients.beta for pt in path.points]))
    return np.array(betas)


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


@pytest.mark.parametrize("k", [1, 2, 5, 13, 40])
@pytest.mark.parametrize("rho", [0.95, 0.99])
def test_block_minimize_is_stationary_and_optimal_on_correlated_blocks(k, rho):
    # light penalties on strongly correlated columns, from zero and from a
    # random start; the paper's coordinate descent inside the block takes
    # some 100 to over 1000 passes here from k = 2 on
    rng = np.random.default_rng(int(1000 * rho) + k)
    Z, r = _correlated_block(rng, 60, k, rho)
    a0, gram = Z.T @ r, Z.T @ Z
    lam2 = 0.02 * float(np.abs(a0).max())
    lam1w = 0.05 * float(np.linalg.norm(soft_threshold(a0, lam2)))
    prox = _block_prox(a0, lam1w, lam2)
    assert prox.any()
    ref = fit_oracle(build_problem(r, Z, [k]), PenaltySpec(lam1w, lam2), OracleOptions(tol=1e-15))
    for start in (np.zeros(k), rng.standard_normal(k)):
        theta = _block_minimize(a0, gram, start, prox, lam1w, lam2)
        grad = a0 - gram @ theta
        norm = float(np.linalg.norm(theta))
        assert norm > 0.0
        violation = np.where(
            theta != 0.0,
            np.abs(grad - lam1w * theta / norm - lam2 * np.sign(theta)),
            np.maximum(np.abs(grad) - lam2, 0.0),
        )
        scale = np.abs(a0) + np.abs(gram) @ np.abs(theta) + lam1w + lam2
        assert np.all(violation <= 64 * k * EPS * scale)
        crit = (0.5 * float(np.sum((r - Z @ theta) ** 2)) + lam1w * norm
                + lam2 * float(np.abs(theta).sum()))
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
    Z = np.column_stack([x, 2.0 * x])
    r = x + 0.5 * rng.standard_normal(30)
    r -= r.mean()
    a0, gram = Z.T @ r, Z.T @ Z
    lam2 = 0.3 * abs(float(a0[1]))
    lam1w = 0.2 * lam2
    prox = _block_prox(a0, lam1w, lam2)
    assert np.all(np.sign(prox) == 1.0)
    expected = soft_threshold(float(a0[1]), lam1w + lam2) / float(gram[1, 1])
    for warm in ([0.0, 0.0], [1.0, 1.0], [0.5, 0.0], [-1.0, 2.0]):
        theta = _block_minimize(a0, gram, np.array(warm), prox, lam1w, lam2)
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
    # a warm start with the optimum's support and signs takes one face solve;
    # any other start is corrected by active-set steps, each one face solve
    # (without a one-norm term, signs do not constrain a face)
    prob, lam1w, lam2, ref, warm, design = case
    X, y, k = prob.X, prob.y, prob.p
    a0, gram = X.T @ y, X.T @ X
    prox = _block_prox(a0, lam1w, lam2)
    solve = solver_module._solve_on_support
    calls = []

    def counting(*args):
        calls.append(args)
        return solve(*args)

    solver_module._solve_on_support = counting
    try:
        theta = _block_minimize(a0, gram, warm, prox, lam1w, lam2)
    finally:
        solver_module._solve_on_support = solve
    grad = a0 - gram @ theta
    norm = float(np.linalg.norm(theta))
    assert norm > 0.0
    violation = np.where(
        theta != 0.0,
        np.abs(grad - lam1w * theta / norm - lam2 * np.sign(theta)),
        np.maximum(np.abs(grad) - lam2, 0.0),
    )
    scale = np.abs(a0) + np.abs(gram) @ np.abs(theta) + lam1w + lam2
    assert np.all(violation <= 64 * k * EPS * scale)
    crit = (0.5 * float(np.sum((y - X @ theta) ** 2)) + lam1w * norm
            + lam2 * float(np.abs(theta).sum()))
    assert crit <= ref.objective + 1e-10 * abs(ref.objective)
    if design == "orthonormal":
        expected = closed_form_block(a0, lam1w, lam2)
        assert np.abs(theta - expected).max() <= 1e-10 * float(np.abs(a0).max())
    if warm.any() and lam2 > 0.0:
        assert (len(calls) == 1) == np.array_equal(np.sign(theta), np.sign(warm))


def test_a_face_slot_reused_across_supports_gives_fresh_results():
    # one block's slot sees warm starts on different supports in turn,
    # some repeated after another support overwrote it; every face solve and
    # block minimization must equal one from a fresh slot
    rng = np.random.default_rng(1004)
    Z, r = _correlated_block(rng, 60, 6, 0.5)
    a0, gram = Z.T @ r, Z.T @ Z
    lam2 = 0.05 * float(np.abs(a0).max())
    lam1w = 0.1 * float(np.linalg.norm(soft_threshold(a0, lam2)))
    prox = _block_prox(a0, lam1w, lam2)
    slot = solver_module._FaceSlot()
    starts = [rng.standard_normal(6) * (rng.random(6) < 0.6) for _ in range(6)]
    for theta in starts + starts[::-1] + [2.0 * t for t in starts]:
        signs = np.sign(theta)
        if signs.any():
            shared = solver_module._solve_on_support(a0, gram, theta, signs, lam1w, lam2, slot)
            fresh = solver_module._solve_on_support(a0, gram, theta, signs, lam1w, lam2)
            assert (shared is None) == (fresh is None)
            assert shared is None or np.array_equal(shared, fresh)
        shared = _block_minimize(a0, gram, theta, prox, lam1w, lam2, slot)
        assert np.array_equal(shared, _block_minimize(a0, gram, theta, prox, lam1w, lam2))


def test_path_decomposes_a_block_only_when_its_support_changes(monkeypatch):
    # a block's Gram is the same at every level of a path and its support
    # rarely changes, so face solves reuse the block's last decomposition:
    # 80 of this path's 255 face solves decompose, against 132 when each
    # level's fit starts a cache of its own. Face steps on settled faces
    # alone took 492 face solves and 97 decompositions
    eigh, solve = np.linalg.eigh, solver_module._solve_on_support
    counts = {"eigh": 0, "face": 0}

    def counting_eigh(*args):
        counts["eigh"] += 1
        return eigh(*args)

    def counting_solve(*args):
        counts["face"] += 1
        return solve(*args)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(solver_module, "_solve_on_support", counting_solve)
    data = generate(SimConfig(seed=1))
    prob = build_problem(data.y, data.X, data.config.blocks)
    opts = SolverOptions(outer_tol=1e-5)
    path = fit_path(prob, PathSpec(n_points=8, ratio_min=0.01, mixing=0.5), opts)
    on_path = dict(counts)
    assert on_path["face"] > 100
    assert on_path["eigh"] <= 97
    # the path's cache does not outlive it, and lone fits share nothing
    assert solver_module._shared_cache.get() is None
    counts.update(eigh=0, face=0)
    warm = None
    for pt in path.points:
        warm = fit(prob, pt.penalty, opts, warm).coefficients
    assert counts["face"] == on_path["face"]
    assert counts["eigh"] > on_path["eigh"]


def test_block_caps_are_never_reached_on_benchmark_paths(monkeypatch):
    # a block visit takes at most 5 active-set steps and its secular
    # equation at most 5 evaluations on the benchmark's paths; a lasso
    # block (mixing 1) at most 7 face solves
    free = {mixing: _a6_style_paths(mixing) for mixing in (0.5, 1.0)}
    rng = np.random.default_rng(1003)
    Z, r = _correlated_block(rng, 60, 13, 0.99)
    a0, gram = Z.T @ r, Z.T @ Z
    lam2 = 0.02 * float(np.abs(a0).max())
    lam1w = 0.05 * float(np.linalg.norm(soft_threshold(a0, lam2)))
    prox = _block_prox(a0, lam1w, lam2)
    start = rng.standard_normal(13)
    theta = _block_minimize(a0, gram, start, prox, lam1w, lam2)
    signs = np.sign(theta)
    assert solver_module._solve_on_support(a0, gram, 2.0 * theta, signs, lam1w, lam2) is not None
    monkeypatch.setattr(solver_module, "_BLOCK_MAX_STEPS", 8)
    monkeypatch.setattr(solver_module, "_SECULAR_MAX_STEPS", 8)
    for mixing, betas in free.items():
        assert np.array_equal(_a6_style_paths(mixing), betas), mixing
    # the patched caps are the ones the solver reads: from a start with
    # mixed signs this block takes more than 8 steps to drop the wrong
    # coordinates, and its secular equation more than one evaluation from
    # a warm start off by a factor of 2
    assert not np.array_equal(_block_minimize(a0, gram, start, prox, lam1w, lam2), theta)
    monkeypatch.setattr(solver_module, "_SECULAR_MAX_STEPS", 1)
    assert solver_module._solve_on_support(a0, gram, 2.0 * theta, signs, lam1w, lam2) is None


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
    # five paper draws take 84 sweeps with a face step after every moving
    # sweep and one at each warm start, against 493 with block sweeps
    # alone and 167 with a step only on a face whose signs have settled.
    # Without the warm-start step they take 100, and with steps only on
    # settled faces but at warm starts 142, so a change that loses either
    # fails here
    settled_sweeps = 167
    assert _paper_path_sweeps() < 0.55 * settled_sweeps


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
    # history entry only when it is strictly lower
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


def test_fit_goes_back_to_a_kept_point_the_next_sweep_cannot_lower(monkeypatch):
    # on this paper draw the last face step lands at the optimum, and the
    # sweep after it moves nothing beyond outer_tol, keeps every sign and
    # reads one ulp above it: the fit returns the step's point and its
    # objective, and that sweep's history entry repeats the step's
    data = generate(SimConfig(seed=117))
    prob = build_problem(data.y, data.X, data.config.blocks)
    lam = 0.01 * lambda_max(prob, 0.5)
    pen = PenaltySpec(0.5 * lam, 0.5 * lam)
    events = []
    newton, evaluate = solver_module._newton_step, solver_module._objective_from_residual

    def step(*args):
        events.append("step")
        return newton(*args)

    def evaluated(problem, res, beta, penalty):
        value = evaluate(problem, res, beta, penalty)
        events.append((beta.copy(), value))
        return value

    monkeypatch.setattr(solver_module, "_newton_step", step)
    monkeypatch.setattr(solver_module, "_objective_from_residual", evaluated)
    result = fit(prob, pen)
    assert result.converged
    last = len(events) - 1 - events[::-1].index("step")
    trial, trial_obj = events[last + 1]
    swept, swept_obj = events[last + 2]
    assert swept_obj > trial_obj
    assert np.array_equal(np.sign(swept), np.sign(trial))
    assert np.array_equal(result.coefficients.beta, trial)
    assert result.objective == trial_obj
    assert result.objective_history[-1] == result.objective_history[-2] == trial_obj


def test_fit_rejects_a_block_update_that_raises_the_criterion(monkeypatch):
    rng = np.random.default_rng(26)
    prob = random_problem(rng, 40, [5, 5, 5])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.45 * lmax, 0.45 * lmax)
    calls = []
    minimize = solver_module._block_minimize

    def overshoot(*args, **kwargs):
        calls.append(args)
        return minimize(*args, **kwargs) + 0.5

    monkeypatch.setattr(solver_module, "_block_minimize", overshoot)
    result = fit(prob, pen)
    assert calls, "no block was minimized, so the guard was never tested"
    assert result.coefficients.n_nonzero == 0
    assert not result.converged
    assert np.all(np.diff(result.objective_history) <= 0.0)


@pytest.mark.parametrize("bad", ["raises", "nan", "not lower", "crosses a sign"])
def test_fit_keeps_its_sweep_when_a_face_step_is_rejected(monkeypatch, bad):
    # the face step's solve and the eigendecomposition it falls back to are
    # both singular, or the solve is not finite (no warning may escape), or
    # the step returns the sweep's own point, whose objective is not
    # strictly below the sweep's, or the sweep's point with its largest
    # coordinate negated, which is not lower either, and neither is the
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
    # included, but a face whose step was rejected is not tried again
    # until the signs change: 3 steps follow these 40 sweeps
    assert 1 < len(calls) < plain.sweeps - 1
    signs = [np.sign(b).tobytes() for b in calls]
    assert all(a != b for a, b in zip(signs, signs[1:]))
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
    # the fit's events in order: "visit" for each block visit of a sweep,
    # "step" for each face step, and (beta, objective) for each exact
    # objective evaluated
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
    # sweep, and it is kept only when its exact objective is strictly below
    # the start's. A start from zero has no face and tries none
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
        assert (min(obj for _, obj in trials) < start_obj) == lower
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
    # a face step moves only the sweep's nonzero coefficients, so the zeros
    # that the block solves set inside active groups stay exact zeros
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
    # each step's point is evaluated right after the sweep it starts from
    trials = [(events[i - 1], events[i + 1]) for i, e in enumerate(events) if e == "step"]
    kept = [(s, t) for (_, s), (_, t) in trials if t in result.objective_history]
    assert trials and kept
    assert all(t < s for s, t in kept)
    inside = 0
    for (sweep, _), (trial, _) in trials:
        zero = sweep == 0.0
        assert np.all(trial[zero] == 0.0)
        inside += int(np.sum(zero & np.repeat(prob.active_groups(sweep), prob.group_sizes)))
    assert inside > 0


def test_a_face_step_on_a_rank_deficient_face_raises_no_warning(monkeypatch):
    # duplicate columns inside an active group, n < p and no group term
    # (mixing 1): the face's Hessian X_S'X_S is singular. On faces of n
    # columns or more, and on narrower ones whose solve fails, the step
    # drops the Hessian's null directions and runs on along the gradient's
    # part there to the first zero. Full steps that flip signs are
    # rejected, and the point where such a step first zeroes a coordinate
    # is tried next: it has one new exact zero and is kept only when it is
    # lower. No warning may escape
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
    kept_on_deficient = kept_on_narrow = clipped = 0
    for i, event in enumerate(events):
        if len(event) != 3 or not event[2]:
            continue
        size, rank, _ = event
        (sweep, swept), (trial, tried) = events[i - 1], events[i + 1]
        kept = tried < swept
        if not kept and np.any((sweep != 0.0) & (trial * sweep <= 0.0)):
            clip, clip_obj = events[i + 2]
            assert np.sum((clip == 0.0) & (sweep != 0.0)) == 1
            assert np.all(clip * sweep >= 0.0)
            kept = clip_obj < swept
            assert (clip_obj in history) == kept
            clipped += 1
        kept_on_deficient += int(kept and rank < size)
        kept_on_narrow += int(kept and rank < size < len(y))
    # the last face has 14 columns and rank 13 (n = 15): its solve fails,
    # and the step that falls back to the eigendecomposition is kept; the
    # fit takes 25 sweeps, and 287 when that face gives no step
    assert kept_on_deficient > 0 and kept_on_narrow > 0 and clipped > 0
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
    for _ in range(5):
        b = solver_module._newton_step(prob.X, prob.y - prob.X @ b, b, groups, lam1w, pen.lambda2)
    assert np.array_equal(np.sign(b), np.sign(best))
    assert np.abs(b - best).max() <= 1e-10 * np.abs(best).max()
    # a group whose squared norm underflows gives no finite step, and no
    # warning escapes
    b[:4] = 1e-170 * np.sign(b[:4])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert solver_module._newton_step(
            prob.X, prob.y - prob.X @ b, b, groups, lam1w, pen.lambda2) is None


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
    rng = np.random.default_rng(33)
    prob = random_problem(rng, 40, [5, 5, 5])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.005 * lmax, 0.005 * lmax)
    result = fit(prob, pen, SolverOptions(outer_tol=1e-14, max_sweeps=1))
    assert not result.converged
    assert result.sweeps == 1
    assert result.objective_history.size == 2
    assert np.isfinite(result.objective)
    # a face step follows each of these sweeps, every one of which moves a
    # coefficient; but the last sweep allowed tries none, and the fit
    # returns that sweep's output
    steps = []
    newton = solver_module._newton_step
    monkeypatch.setattr(solver_module, "_newton_step", lambda *args: steps.append(args) or newton(*args))
    for last in (3, 4):
        steps.clear()
        capped = fit(prob, pen, SolverOptions(outer_tol=1e-14, max_sweeps=last))
        assert capped.sweeps == last and not capped.converged
        assert len(steps) == last - 1


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
    # the stall exit is in coefficient units: with large columns a sweep can
    # move nothing by 1e-4 * outer_tol short of the gate, and the fit must
    # not call that converged. Every block, lasso blocks (mixing 1)
    # included, is solved exactly at any scale, so every fit here converges
    # to the reference objective; a lasso block stopped by a
    # coefficient-unit tolerance stalls at 1e10 instead
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


def _creep_problem(seed):
    # n < p, with a constant last column that centering zeroes
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((15, 18))
    X[:, -1] = 1.0
    y = X[:, :4] @ rng.standard_normal(4) + 0.1 * rng.standard_normal(15)
    return build_problem(y, X, [6, 6, 1, 5])


def test_fit_converges_where_block_descent_creeps_on_a_wide_design():
    # a tiny one-norm level: exact block solves alone creep at a linear
    # rate here, and without face steps this fit stops at 10,000 sweeps
    # unconverged, 1e-3 above the reference
    prob = _creep_problem(8)
    pen = PenaltySpec(0.0, 1e-4 * lambda_max(prob, 1.0))
    result = fit(prob, pen, SolverOptions(outer_tol=1e-9, max_sweeps=2000))
    assert result.converged
    ref = fit_oracle(prob, pen, OracleOptions(tol=1e-15, max_iters=200000))
    assert result.objective == pytest.approx(ref.objective, rel=1e-8)


def test_fit_converges_on_every_draw_of_the_creep_generator():
    # forty draws at mixings 1 and 0.5, at 1e-4 * lambda_max: every fit
    # converges, and together they take 1,931 sweeps (2,089 with face steps
    # on settled faces only). Face steps that failed on faces of n columns
    # or more and were never clipped, with an Anderson extrapolation beside
    # them, took 59,826, and one fit stopped at the 10,000-sweep cap
    measured = 1931
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


@pytest.mark.slow
def test_fit_caps_few_draws_of_the_creep_generator_at_a_tinier_penalty():
    # the same eighty fits at 1e-6 * lambda_max, about 15 s: two stop at the
    # 10,000-sweep cap unconverged (seed 18 at mixing 0.5 and seed 38 at
    # mixing 1), and every other fit converges. Together they take 41,248
    # sweeps, and 41,341 with face steps on settled faces only
    opts = SolverOptions(outer_tol=1e-9)
    sweeps, capped = 0, []
    for seed in range(40):
        prob = _creep_problem(seed)
        for mixing in (1.0, 0.5):
            lam = 1e-6 * lambda_max(prob, mixing)
            result = fit(prob, PenaltySpec((1.0 - mixing) * lam, mixing * lam), opts)
            print(f"seed {seed} mixing {mixing}: {result.sweeps} sweeps, "
                  f"converged {result.converged}, KKT {result.kkt.worst_violation:.2e}")
            sweeps += result.sweeps
            if result.sweeps == opts.max_sweeps:
                capped.append((seed, mixing))
            else:
                assert result.converged, (seed, mixing)
    print(f"{sweeps} sweeps in all; capped: {capped}")
    assert len(capped) <= 2


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
    # a warm-started fit forms X'r at its start and at each stop screen; the
    # KKT report's residual is the last screen's, bit for bit, so it forms
    # none, and a fit from zero screens X'y
    rng = np.random.default_rng(3)
    X = rng.standard_normal((40, 12))
    y = X[:, :3] @ [1.0, 2.0, -1.0] + rng.standard_normal(40)
    prob = build_problem(y, X, [4, 4, 4])
    lam = lambda_max(prob, 0.5)
    warm = fit(prob, PenaltySpec(0.3 * lam, 0.3 * lam)).coefficients
    gradient, kkt = solver_module._BlockCache.gradient, solver_module.kkt_residual
    calls, in_kkt = [], []

    def counted_gradient(cache, res):
        before = cache._xtr
        out = gradient(cache, res)
        calls.append((bool(in_kkt), out is not before and out is not cache.xty))
        return out

    def counted_kkt(*args):
        in_kkt.append(True)
        try:
            return kkt(*args)
        finally:
            in_kkt.pop()

    monkeypatch.setattr(solver_module._BlockCache, "gradient", counted_gradient)
    monkeypatch.setattr(solver_module, "kkt_residual", counted_kkt)
    for start in (warm, None):
        calls.clear()
        result = fit(prob, PenaltySpec(0.2 * lam, 0.2 * lam), warm=start)
        assert result.converged
        first, *stops, report = calls
        assert first == (False, start is not None)
        assert stops and all(not kind and formed for kind, formed in stops)
        assert report == (True, False)


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
    screens = []
    screen = solver_module._screen

    def recorded_screen(*args):
        screens.append(screen(*args))
        return screens[-1]

    monkeypatch.setattr(solver_module, "_screen", recorded_screen)
    result = fit(prob, pen, SolverOptions(outer_tol=1e-9))
    assert result.converged
    # on this draw a group passes the first screen but joins the working set
    # at a later one, once the fit has moved the residual (the final screen
    # reads that group, active by then, on its zero test's boundary)
    assert any((later & ~screens[0]).any() for later in screens[1:])
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
            rep = kkt_residual(prob, beta, pen)
            per_group, per_coord, active, worst = kkt_reference(
                prob.y, prob.X, beta, prob.group_sizes, prob.weights, lam1, lam2
            )
            assert np.array_equal(rep.active, active)
            np.testing.assert_allclose(rep.per_group, per_group, rtol=1e-12, atol=1e-12 * scale)
            np.testing.assert_allclose(
                rep.per_coordinate, per_coord, rtol=1e-12, atol=1e-12 * scale
            )
            assert rep.worst_violation == pytest.approx(worst, rel=1e-12, abs=1e-12 * scale)
