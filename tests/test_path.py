"""Penalty grids, the all-zero level locator, and warm-started path fits."""

import numpy as np
import pytest

from sgl import (
    PathSpec,
    PenaltySpec,
    SolverOptions,
    build_problem,
    fit,
    fit_path,
    lambda_max,
)
from sgl.sim import SimConfig, generate

from _reference import random_problem


def _split(alpha, lam):
    return PenaltySpec(lambda1=(1.0 - alpha) * lam, lambda2=alpha * lam)


# -------------------------------------------------------------------- PathSpec

def test_path_spec_validation():
    with pytest.raises(ValueError):
        PathSpec(n_points=1)
    with pytest.raises(ValueError):
        PathSpec(ratio_min=0.0)
    with pytest.raises(ValueError):
        PathSpec(ratio_min=1.0)
    with pytest.raises(ValueError):
        PathSpec(mixing=1.5)
    with pytest.raises(ValueError):
        PathSpec(mixing=-0.1)


# ------------------------------------------------------------------ lambda_max

def test_zero_response_gives_level_zero():
    rng = np.random.default_rng(50)
    prob = build_problem(np.full(10, 3.0), rng.standard_normal((10, 4)), [2, 2])
    assert float(np.abs(prob.y).max()) == 0.0  # constant response centers to zero
    assert lambda_max(prob, 0.5) == 0.0


def test_pure_one_norm_level_is_the_max_correlation():
    rng = np.random.default_rng(51)
    prob = random_problem(rng, 20, [3, 3])
    assert lambda_max(prob, 1.0) == float(np.abs(prob.X.T @ prob.y).max())


def test_pure_group_level_is_the_max_block_norm():
    rng = np.random.default_rng(52)
    prob = random_problem(rng, 20, [2, 4])
    expected = max(
        float(np.linalg.norm(prob.X[:, sl].T @ prob.y)) for sl in prob.slices
    )
    assert lambda_max(prob, 0.0) == pytest.approx(expected, rel=1e-15)


def test_pure_group_level_respects_weights():
    rng = np.random.default_rng(53)
    prob = random_problem(rng, 20, [2, 4], weight_mode="sqrt-size")
    expected = max(
        float(np.linalg.norm(prob.X[:, sl].T @ prob.y)) / float(w)
        for sl, w in zip(prob.slices, prob.weights)
    )
    assert lambda_max(prob, 0.0) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 0.9, 1.0])
def test_level_separates_zero_from_active(alpha):
    rng = np.random.default_rng(54)
    prob = random_problem(rng, 30, [3, 3, 3])
    level = lambda_max(prob, alpha)
    assert level > 0.0
    above = fit(prob, _split(alpha, 1.000001 * level))
    assert above.coefficients.n_nonzero == 0
    below = fit(prob, _split(alpha, 0.999 * level))
    assert prob.active_groups(below.coefficients).any()


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_level_boundary_is_inclusive_for_unit_weights(alpha):
    # the returned level reproduces the solver's own screening arithmetic, so
    # fitting at exactly that level lands on the inclusive side of every screen
    rng = np.random.default_rng(54)
    prob = random_problem(rng, 30, [3, 3, 3])
    level = lambda_max(prob, alpha)
    at_level = fit(prob, _split(alpha, level))
    assert at_level.coefficients.n_nonzero == 0


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_level_boundary_is_exact_for_unequal_groups(alpha):
    # groups of 17 and 40 put the group norms past the short sums, and
    # sqrt-size weights make the level a rounded quotient at alpha = 0; on
    # this draw the quotient times the weight rounds below the group norm
    rng = np.random.default_rng(80)
    prob = random_problem(rng, 80, [1, 3, 17, 40], weight_mode="sqrt-size")
    level = lambda_max(prob, alpha)
    at_level = fit(prob, _split(alpha, level))
    assert at_level.coefficients.n_nonzero == 0
    assert at_level.sweeps == 1 and at_level.converged
    assert at_level.kkt.worst_violation == 0.0
    below = fit(prob, _split(alpha, 0.999 * level))
    assert prob.active_groups(below.coefficients).any()


def test_level_rejects_bad_mixing():
    rng = np.random.default_rng(55)
    prob = random_problem(rng, 10, [2])
    with pytest.raises(ValueError):
        lambda_max(prob, 1.2)


# -------------------------------------------------------------------- fit_path

def test_path_grid_shape_and_spacing():
    rng = np.random.default_rng(56)
    prob = random_problem(rng, 25, [3, 3])
    spec = PathSpec(n_points=12, ratio_min=1e-2, mixing=0.5)
    result = fit_path(prob, spec, SolverOptions(outer_tol=1e-6))
    lams = result.lambdas
    assert lams.size == 12
    assert lams[0] == pytest.approx(result.lambda_max, rel=1e-15)
    assert lams[-1] == pytest.approx(1e-2 * result.lambda_max, rel=1e-12)
    assert np.all(np.diff(lams) < 0.0)
    ratios = lams[1:] / lams[:-1]
    assert np.abs(ratios - ratios[0]).max() < 1e-12  # logarithmic spacing
    assert result.mixing == 0.5


def test_path_first_point_is_all_zero():
    rng = np.random.default_rng(57)
    prob = random_problem(rng, 25, [3, 3])
    result = fit_path(prob, PathSpec(n_points=6, ratio_min=0.05), SolverOptions())
    first = result.points[0]
    assert first.coefficients.n_nonzero == 0
    assert first.n_active_groups == 0 and first.n_nonzero == 0
    assert first.converged and first.sweeps == 1


def test_path_points_align_with_the_grid_and_count_support():
    rng = np.random.default_rng(58)
    prob = random_problem(rng, 25, [2, 2, 2])
    result = fit_path(prob, PathSpec(n_points=8, ratio_min=0.02), SolverOptions())
    assert len(result.points) == 8
    for lam, pt in zip(result.lambdas, result.points):
        assert pt.lam == float(lam)
        assert pt.penalty.lambda1 == pytest.approx(0.5 * lam, rel=1e-15)
        assert pt.penalty.lambda2 == pytest.approx(0.5 * lam, rel=1e-15)
        beta = pt.coefficients.beta
        assert pt.n_nonzero == int(np.count_nonzero(beta))
        assert pt.n_active_groups == int(prob.active_groups(beta).sum())


def test_warm_and_cold_path_objectives_agree():
    rng = np.random.default_rng(59)
    prob = random_problem(rng, 30, [4, 4])
    opts = SolverOptions(outer_tol=1e-8)
    result = fit_path(prob, PathSpec(n_points=8, ratio_min=0.01), opts)
    for pt in result.points:
        cold = fit(prob, pt.penalty, opts)
        assert pt.objective == pytest.approx(cold.objective, rel=1e-7, abs=1e-12)


def test_path_kkt_stays_small_with_default_options():
    rng = np.random.default_rng(60)
    prob = random_problem(rng, 30, [3, 3, 3])
    result = fit_path(prob, PathSpec(n_points=10, ratio_min=0.01), SolverOptions())
    scale = max(1.0, float(np.abs(prob.X.T @ prob.y).max()))
    for pt in result.points:
        assert pt.converged
        assert np.isfinite(pt.objective)
        assert pt.kkt_worst <= 1e-6 * scale


def test_path_on_a_wide_draw_converges_at_the_default_tolerance():
    # at level 12 one block of this draw used to creep by about 1e-9 per
    # sweep while its KKT residual stayed above the gate (2066 sweeps)
    config = SimConfig(n=500, blocks=(5,) * 200, nonzero_counts=(5, 4, 3, 2, 1), seed=1302)
    data = generate(config)
    prob = build_problem(data.y, data.X, config.blocks)
    result = fit_path(prob, PathSpec(n_points=15, ratio_min=0.4, mixing=0.5))
    assert [pt.converged for pt in result.points] == [True] * 15
    assert max(pt.sweeps for pt in result.points) <= 50


def test_path_records_nonconvergence_instead_of_raising():
    rng = np.random.default_rng(61)
    prob = random_problem(rng, 40, [5, 5])
    result = fit_path(
        prob,
        PathSpec(n_points=6, ratio_min=1e-3),
        SolverOptions(outer_tol=1e-13, max_sweeps=1),
    )
    assert len(result.points) == 6
    assert any(not pt.converged for pt in result.points)


def test_path_on_a_signal_free_response_raises():
    rng = np.random.default_rng(62)
    prob = build_problem(np.full(12, 2.0), rng.standard_normal((12, 4)), [2, 2])
    with pytest.raises(ValueError):
        fit_path(prob, PathSpec(n_points=4))


def test_path_lambdas_are_read_only():
    rng = np.random.default_rng(63)
    prob = random_problem(rng, 20, [2, 2])
    result = fit_path(prob, PathSpec(n_points=4, ratio_min=0.1), SolverOptions())
    with pytest.raises(ValueError):
        result.lambdas[0] = 0.0
