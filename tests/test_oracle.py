"""Tests for the proximal-gradient reference solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _reference import random_problem
from sgl.model import PenaltySpec, build_problem, objective
from sgl.oracle import OracleOptions, fit_oracle, prox_sgl
from sgl.path import lambda_max
from sgl.solver import SolverOptions, _block_prox, fit, kkt_residual


# ------------------------------------------------------------------- prox_sgl

def test_prox_identity_when_penalty_free():
    v = np.array([1.5, -0.25, 0.0, 3.0])
    out = prox_sgl(v, 1.0, PenaltySpec(0.0, 0.0), 1.0)
    assert np.array_equal(out, v)


def test_prox_zeroes_small_blocks():
    v = np.array([0.3, -0.4])
    # after elementwise shrinkage by 0.2 the survivor norm is 0.1*sqrt(2) < 0.5
    out = prox_sgl(v, 1.0, PenaltySpec(0.5, 0.2), 1.0)
    assert np.array_equal(out, np.zeros(2))


def test_prox_hand_case_matches_exact_block_solve():
    v = np.array([2.0, 0.0])
    out = prox_sgl(v, 1.0, PenaltySpec(1.0, 0.5), 1.0)
    assert out == pytest.approx([0.5, 0.0], abs=1e-15)
    exact = _block_prox(v, 1.0, 0.5)
    assert out == pytest.approx(exact, abs=1e-15)


def test_prox_pure_elementwise_when_group_weightless():
    v = np.array([1.0, -2.0, 0.1])
    out = prox_sgl(v, 0.5, PenaltySpec(3.0, 1.0), 0.0)
    assert out == pytest.approx([0.5, -1.5, 0.0], abs=1e-15)


@pytest.mark.parametrize("step", [0.0, -1.0, float("inf"), float("nan")])
def test_prox_rejects_bad_step(step):
    with pytest.raises(ValueError):
        prox_sgl(np.ones(2), step, PenaltySpec(1.0, 1.0), 1.0)


@given(
    v=st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=6
    ),
    lam1=st.floats(min_value=0, max_value=5),
    lam2=st.floats(min_value=0, max_value=5),
    step=st.floats(min_value=1e-3, max_value=10),
)
@settings(max_examples=200)
def test_prox_is_nonexpansive_toward_zero(v, lam1, lam2, step):
    arr = np.asarray(v)
    out = prox_sgl(arr, step, PenaltySpec(lam1, lam2), 1.0)
    assert np.linalg.norm(out) <= np.linalg.norm(arr) + 1e-12
    assert np.all(np.abs(out) <= np.abs(arr) + 1e-12)
    assert np.all(out * arr >= -1e-12)


# ---------------------------------------------------------------- default step

def test_default_step_on_an_all_zero_design_stays_at_zero():
    # X'X has no positive eigenvalue to set the step by, so the step is 1
    prob = build_problem([1.0, -2.0, 0.5, 3.0, -1.0], np.zeros((5, 3)), [2, 1])
    res = fit_oracle(prob, PenaltySpec(0.1, 0.1))
    assert res.coefficients.n_nonzero == 0
    assert res.converged and res.iterations == 1
    assert res.objective == pytest.approx(0.5 * float(prob.y @ prob.y), rel=1e-15)


def test_default_step_keeps_descent_monotone():
    rng = np.random.default_rng(22)
    prob = random_problem(rng, 40, [4, 4, 4])
    lmax = lambda_max(prob, 0.5)
    res = fit_oracle(prob, PenaltySpec(0.1 * lmax, 0.1 * lmax))
    hist = res.objective_history
    assert np.all(np.diff(hist) <= 1e-12 * np.maximum(1.0, np.abs(hist[:-1])))


# ----------------------------------------------------------------- fit_oracle

def test_oracle_stays_at_zero_above_threshold():
    rng = np.random.default_rng(23)
    prob = random_problem(rng, 30, [3, 3])
    lmax = lambda_max(prob, 0.5)
    res = fit_oracle(prob, PenaltySpec(0.5 * 1.01 * lmax, 0.5 * 1.01 * lmax))
    assert res.coefficients.n_nonzero == 0
    assert res.converged


def test_oracle_agrees_with_coordinate_descent():
    rng = np.random.default_rng(24)
    for trial in range(5):
        prob = random_problem(rng, 20, [2, 3, 1])
        lmax = lambda_max(prob, 0.5)
        pen = PenaltySpec(0.5 * 0.3 * lmax, 0.5 * 0.3 * lmax)
        oracle = fit_oracle(prob, pen)
        solved = fit(prob, pen, SolverOptions(outer_tol=1e-9))
        assert oracle.objective == pytest.approx(solved.objective, rel=1e-8, abs=1e-12)
        # each solver's point is near-stationary for the other's convention
        scale = max(1.0, float(np.abs(prob.X.T @ prob.y).max()))
        assert kkt_residual(prob, oracle.coefficients.beta, pen).worst_violation <= 1e-5 * scale
        assert kkt_residual(prob, solved.coefficients.beta, pen).worst_violation <= 1e-5 * scale


def test_oracle_unpenalized_matches_least_squares():
    rng = np.random.default_rng(25)
    prob = random_problem(rng, 50, [2, 2])
    res = fit_oracle(prob, PenaltySpec(0.0, 0.0), OracleOptions(tol=1e-16))
    direct, *_ = np.linalg.lstsq(prob.X, prob.y, rcond=None)
    assert res.coefficients.beta == pytest.approx(direct, abs=1e-6)


def test_oracle_iteration_cap_reported():
    rng = np.random.default_rng(26)
    prob = random_problem(rng, 30, [3, 3])
    res = fit_oracle(prob, PenaltySpec(0.01, 0.01), OracleOptions(max_iters=3, tol=0.0))
    assert not res.converged
    assert res.iterations == 3
    assert res.objective_history.size == 4


def test_oracle_objective_field_matches_recomputation():
    rng = np.random.default_rng(27)
    prob = random_problem(rng, 25, [2, 2, 2])
    pen = PenaltySpec(0.05, 0.05)
    res = fit_oracle(prob, pen)
    assert res.objective == pytest.approx(
        objective(prob, res.coefficients.beta, pen), rel=1e-12
    )
    assert res.objective == res.objective_history[-1]


def test_oracle_explicit_step_used():
    rng = np.random.default_rng(28)
    prob = random_problem(rng, 30, [2, 2])
    tiny_step = fit_oracle(
        prob, PenaltySpec(0.1, 0.1), OracleOptions(step=1e-6, max_iters=50, tol=0.0)
    )
    # with a vanishing step, fifty iterations barely move the objective
    default = fit_oracle(prob, PenaltySpec(0.1, 0.1))
    assert tiny_step.objective > default.objective


@pytest.mark.parametrize(
    "kwargs",
    [{"step": 0.0}, {"step": -0.5}, {"max_iters": 0}, {"tol": -1e-3}, {"tol": float("nan")}],
)
def test_oracle_options_validation(kwargs):
    with pytest.raises(ValueError):
        OracleOptions(**kwargs)
