"""Penalty grids, the all-zero level locator, and warm-started path fits."""

import numpy as np
import pytest

import sgl.path as path_module
import sgl.solver as solver_module
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


def _sim_problem():
    data = generate(SimConfig(seed=1))
    return build_problem(data.y, data.X, data.config.blocks)


def _unequal_problem():
    return random_problem(np.random.default_rng(64), 50, [1, 3, 17, 40], weight_mode="sqrt-size")


def _small_wide_problem():
    # the benchmark's small wide draw: on this path working sets keep up to
    # four zero groups, so residuals come from a part of the columns
    config = SimConfig(n=80, blocks=(5,) * 20, nonzero_counts=(5, 4, 3, 2, 1), seed=1)
    data = generate(config)
    return build_problem(data.y, data.X, config.blocks)


@pytest.mark.parametrize(
    "make, mixing",
    [
        (_sim_problem, 0.0),
        (_sim_problem, 0.5),
        (_sim_problem, 1.0),
        (_unequal_problem, 0.5),
        (_small_wide_problem, 0.5),
    ],
)
def test_path_equals_a_loop_of_warm_started_fits(make, mixing):
    # the levels of a path share one block cache (Grams, each block's last
    # support decomposition, the KKT gate's scale, the last X'r and so each
    # warm start's); a loop of public fits builds all of it afresh at every
    # level, and must give the same bits
    prob = make()
    opts = SolverOptions(outer_tol=1e-5)
    result = fit_path(prob, PathSpec(n_points=8, ratio_min=0.01, mixing=mixing), opts)
    warm = None
    for lam, pt in zip(result.lambdas, result.points):
        alone = fit(prob, _split(mixing, lam), opts, warm)
        assert np.array_equal(alone.coefficients.beta, pt.coefficients.beta)
        assert alone.sweeps == pt.sweeps
        warm = alone.coefficients


def test_a_path_forms_one_gradient_per_screen(monkeypatch):
    # X'r is formed once per screen: a level's warm start takes the product
    # of the level before's last screen, and a converged level's KKT report
    # takes its own last screen's; neither forms one
    calls, in_kkt = [], []
    gradient, kkt, fit_level = (
        solver_module._BlockCache.gradient, solver_module.kkt_residual, path_module.fit
    )

    def counted_gradient(cache, res):
        before = cache._xtr
        out = gradient(cache, res)
        formed = out is not before and out is not cache.xty
        calls[-1].append(("kkt" if in_kkt else "screen", formed))
        return out

    def counted_fit(*args, **kwargs):
        calls.append([])
        return fit_level(*args, **kwargs)

    def counted_kkt(*args):
        in_kkt.append(True)
        try:
            return kkt(*args)
        finally:
            in_kkt.pop()

    monkeypatch.setattr(solver_module._BlockCache, "gradient", counted_gradient)
    monkeypatch.setattr(solver_module, "kkt_residual", counted_kkt)
    monkeypatch.setattr(path_module, "fit", counted_fit)
    result = fit_path(
        _small_wide_problem(), PathSpec(n_points=8, ratio_min=0.01, mixing=0.5),
        SolverOptions(outer_tol=1e-5),
    )
    assert all(pt.converged for pt in result.points)
    assert len(calls) == 8
    # the first level, at lambda_max, screens the cached X'y throughout
    assert [formed for _, formed in calls[0]] == [False] * len(calls[0])
    for level in calls[1:]:
        start, *stops, report = level
        assert start == ("screen", False)
        assert report == ("kkt", False)
        assert stops and all(kind == "screen" and formed for kind, formed in stops)


def test_a_remembered_gradient_is_never_stale():
    prob = _small_wide_problem()
    cache = solver_module._BlockCache(prob)
    # a residual with the bits of y takes the cached X'y as it is
    assert cache.gradient(prob.y.copy()) is cache.xty
    beta = np.zeros(prob.p)
    beta[:7] = np.linspace(-1.0, 1.0, 7)
    res = cache.residual(beta)
    first = cache.gradient(res)
    assert cache.gradient(res.copy()) is first
    assert not first.flags.writeable
    # a residual changed in place after its lookup is a new residual
    kept = first.copy()
    res[3] += 1.0
    again = cache.gradient(res)
    assert again is not first
    assert np.array_equal(again, prob.X.T @ res)
    assert np.array_equal(first, kept)
    # bitwise keys: a zero of the other sign is another residual
    zero = np.zeros(prob.n)
    assert cache.gradient(zero) is not cache.gradient(-zero)


def test_a_path_forms_a_working_set_gram_once_while_the_set_holds(monkeypatch):
    # the levels of a path that keep one working set take their face steps
    # on one Gram of its columns, 3 Grams for this path's 20 face steps; a
    # loop of lone fits forms one per level that steps, 7
    grams = []
    newton = solver_module._newton_step

    def recorded(*args):
        grams.append(args[-1])
        return newton(*args)

    monkeypatch.setattr(solver_module, "_newton_step", recorded)
    prob, opts = _sim_problem(), SolverOptions(outer_tol=1e-5)
    result = fit_path(prob, PathSpec(n_points=8, ratio_min=0.01, mixing=0.5), opts)
    on_path = len({id(gram) for gram in grams})
    grams.clear()
    warm = None
    for pt in result.points:
        warm = fit(prob, pt.penalty, opts, warm).coefficients
    in_loop = len({id(gram) for gram in grams})
    assert on_path <= 3 < in_loop
