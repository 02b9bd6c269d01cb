"""Penalty grids, the all-zero level locator, and warm-started path fits."""

import warnings

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
    objective,
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


def _scaled(factor):
    def make(rng):
        X = rng.standard_normal((20, 9))
        y = X @ (rng.standard_normal(9) * (rng.random(9) < 0.5)) + rng.standard_normal(20)
        return build_problem(y, factor * X, [2, 3, 4])
    return make


def _with_column(edit):
    def make(rng):
        X = rng.standard_normal((20, 8))
        edit(X)
        return build_problem(rng.standard_normal(20) + X[:, 0], X, [2, 2, 4])
    return make


def _centered_away(X):
    X[:, 3] = 2.5


def _duplicated(X):
    X[:, 1] = X[:, 0]


# degenerate inputs for the level locator, each a maker of a problem from a
# random generator
LEVEL_INPUTS = {
    "single group": lambda rng: random_problem(rng, 20, [5]),
    "centered-away column": _with_column(_centered_away),
    "duplicate columns": _with_column(_duplicated),
    "unequal groups": lambda rng: random_problem(
        rng, 80, [1, 3, 17, 40], weight_mode="sqrt-size"),
    "n < p": lambda rng: random_problem(rng, 8, [4, 4, 4, 4, 4]),
    "X times 1e100": _scaled(1e100),
    "X times 1e-100": _scaled(1e-100),
}


def test_pure_one_norm_level_is_the_max_correlation():
    rng = np.random.default_rng(51)
    for make in [lambda rng: random_problem(rng, 20, [3, 3]), *LEVEL_INPUTS.values()]:
        prob = make(rng)
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


@pytest.mark.parametrize("alpha", [0.0, 0.05, 0.5, 0.95, 0.999, 1.0])
@pytest.mark.parametrize("inputs", list(LEVEL_INPUTS))
def test_level_is_the_smallest_float_that_passes_the_screen(inputs, alpha):
    # fit's first screen, on the X'y it tests, passes at the level and
    # fails one float below it, so a fit there is all-zero; no warning
    # escapes on the way
    prob = LEVEL_INPUTS[inputs](np.random.default_rng(57))
    xty = prob.X.T @ prob.y
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        level = lambda_max(prob, alpha)
        at_level = fit(prob, _split(alpha, level))
    below = float(np.nextafter(level, 0.0))
    assert level > 0.0
    excess = solver_module._zero_test_excess
    assert not (excess(prob, xty, _split(alpha, level)) > 0).any()
    assert (excess(prob, xty, _split(alpha, below)) > 0).any()
    assert at_level.coefficients.n_nonzero == 0 and at_level.converged


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


def test_an_overflowing_x_ty_is_named_wherever_it_is_formed():
    # every entry of X and y is finite, but X'y is not: lambda_max, a lone
    # fit and a path raise one error that names the overflow, rather than
    # a level of 0, an unconverged fit with a KKT of nan, or "no signal".
    # The same holds for an X'y whose group norms over- or underflow
    rng = np.random.default_rng(63)
    X = rng.standard_normal((30, 6))
    y = X @ rng.standard_normal(6) + rng.standard_normal(30)
    prob = build_problem(1e160 * y, 1e160 * X, [3, 3])
    for call in (
        lambda: lambda_max(prob, 0.5),
        lambda: fit(prob, PenaltySpec(1.0, 1.0)),
        lambda: fit_path(prob, PathSpec(n_points=4)),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="X'y overflows"):
                call()
    # X'y is finite, but the squares of its group norms are not: all three
    # name that too, rather than lambda_max dividing by zero at mixing 1 or
    # warning its way to "penalty levels must be finite" below it, and a
    # lone fit returning unconverged with a KKT of inf. Below 2**-459 an ulp
    # of X'y squares to a subnormal: lambda_max climbed an ulp at a time for
    # seconds at 1e-80, and returned 0 at 1e-100, so a lone fit was all-zero
    # and a path read "no signal"; they name the underflow instead
    for scale, name in ((1e100, "overflows"), (1e-80, "underflows"), (1e-100, "underflows")):
        prob = build_problem(scale * y, scale * X, [3, 3])
        for mixing in (1.0, 0.5):
            for call in (
                lambda: lambda_max(prob, mixing),
                lambda: fit(prob, PenaltySpec(1.0 - mixing, mixing)),
                lambda: fit_path(prob, PathSpec(n_points=4, mixing=mixing)),
            ):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    with pytest.raises(ValueError, match=f"X'y {name} in its group norms"):
                        call()


def test_objective_reads_what_each_path_level_reported():
    # objective() forms the residual by the formula fit forms it with, so
    # `sgl check` prints the objective `sgl fit` reported, to the last bit;
    # y - X b would read an ulp off on two of these 156 levels
    opts = SolverOptions(outer_tol=1e-5)
    for seed in [*range(100, 113), *range(700, 713)]:
        data = generate(SimConfig(seed=seed))
        prob = build_problem(data.y, data.X, data.config.blocks)
        result = fit_path(prob, PathSpec(n_points=6, ratio_min=0.01, mixing=0.5), opts)
        for point in result.points:
            assert objective(prob, point.coefficients, point.penalty) == point.objective


def test_a_path_on_a_scaled_design_converges_at_every_level():
    # X * 1e6 scales each level's coefficients by 1e-6 and leaves its
    # criterion; a stall read in coefficient units left four of these six
    # levels unconverged
    data = generate(SimConfig(seed=700))
    spec, opts = PathSpec(n_points=6, ratio_min=0.01, mixing=0.5), SolverOptions(outer_tol=1e-5)
    base = fit_path(build_problem(data.y, data.X, data.config.blocks), spec, opts)
    scaled = fit_path(build_problem(data.y, 1e6 * data.X, data.config.blocks), spec, opts)
    for point, ref in zip(scaled.points, base.points):
        assert point.converged, point.lam
        assert point.objective == pytest.approx(ref.objective, rel=1e-8)


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
    # X'r is formed at most once per residual: a level's warm start takes
    # the product of the level before's last stop, each stop forms its
    # product inside its KKT report, and a stop after a sweep that moved
    # nothing since the last one (a face step's point that failed the stop
    # certificate, say) takes that one's
    calls, in_kkt, reports, results = [], [], [], []
    gradient, kkt, fit_level = (
        solver_module._BlockCache.gradient, solver_module.kkt_residual, path_module.fit
    )

    def counted_gradient(cache, res):
        before = cache._xtr
        out = gradient(cache, res)
        formed = out is not before and out is not cache.xty
        calls[-1].append(("kkt" if in_kkt else "screen", formed, res.tobytes()))
        return out

    def counted_fit(*args, **kwargs):
        calls.append([])
        reports.append([])
        results.append(fit_level(*args, **kwargs))
        return results[-1]

    def counted_kkt(*args):
        in_kkt.append(True)
        try:
            reports[-1].append(kkt(*args))
            return reports[-1][-1]
        finally:
            in_kkt.pop()

    monkeypatch.setattr(solver_module._BlockCache, "gradient", counted_gradient)
    monkeypatch.setattr(solver_module, "kkt_residual", counted_kkt)
    monkeypatch.setattr(path_module, "fit", counted_fit)
    prob = _small_wide_problem()
    result = fit_path(
        prob, PathSpec(n_points=8, ratio_min=0.01, mixing=0.5), SolverOptions(outer_tol=1e-5)
    )
    assert all(pt.converged for pt in result.points)
    assert len(calls) == 8
    # the first level, at lambda_max, screens the cached X'y throughout
    assert not any(formed for _, formed, _ in calls[0])
    for level, made, fitted in zip(calls[1:], reports[1:], results[1:]):
        (kind, formed, _), *stops = level
        # a level's start forms no product
        assert (kind, formed) == ("screen", False)
        assert stops and all(kind == "kkt" for kind, _, _ in stops)
        assert any(formed for _, formed, _ in stops)
        # one report per stop, and none follows the passing one
        assert len(made) == len(stops) and fitted.kkt is made[-1]
    # a product is formed exactly when the residual is new, and no
    # residual's product is formed twice
    seen = [prob.y.tobytes()]
    for _, formed, key in [call for level in calls for call in level]:
        assert formed == (key != seen[-1] and key != prob.y.tobytes())
        assert not formed or key not in seen
        seen.append(key)


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


def test_residuals_are_formed_afresh_and_their_changes_leave_the_gradient_alone():
    # a sweep updates its residual in place (res -= Zd); each residual is a
    # fresh array, the same coefficients give it the same bits again, and
    # the X'r keyed to those bits must not move
    prob = _small_wide_problem()
    cache = solver_module._BlockCache(prob)
    beta = np.zeros(prob.p)
    beta[:7] = np.linspace(-1.0, 1.0, 7)
    res = cache.residual(beta)
    xtr = cache.gradient(res)
    kept_res, kept_xtr = res.tobytes(), xtr.tobytes()
    res -= prob.X[:, 3] * 0.5
    again = cache.residual(beta)
    assert again is not res and again.tobytes() == kept_res
    again -= prob.X[:, 4]
    assert cache.residual(beta.copy()).tobytes() == kept_res
    assert cache.gradient(cache.residual(beta)) is xtr and xtr.tobytes() == kept_xtr
    # coefficients changed in place after the call give a new residual
    beta[2] += 1.0
    moved = cache.residual(beta)
    assert moved.tobytes() == solver_module._BlockCache(prob).residual(beta).tobytes()
    assert moved.tobytes() != kept_res


def test_shared_cache_reports_equal_fresh_ones_one_ulp_away():
    # the X'r memo keys on every bit of the residual: coefficients one ulp
    # from the last ones get their own residual, X'r and excess inside a
    # shared cache. They are the solution of a higher level, as at a warm
    # start, so that groups outside it fail their zero test and their
    # excess shows in the report
    prob = _small_wide_problem()
    lmax = lambda_max(prob, 0.5)
    pen = _split(0.5, 0.3 * lmax)
    beta = fit(prob, _split(0.5, 0.4 * lmax), SolverOptions(outer_tol=1e-9)).coefficients.beta
    for j in np.flatnonzero(beta)[:3]:
        near = beta.copy()
        near[j] = np.nextafter(near[j], np.inf)
        fresh_kkt = solver_module.kkt_residual(prob, near, pen)
        fresh_objective = objective(prob, near, pen)
        with solver_module._sharing_block_cache(prob):
            solver_module.kkt_residual(prob, beta, pen)
            objective(prob, beta, pen)
            kkt = solver_module.kkt_residual(prob, near, pen)
            assert objective(prob, near, pen) == fresh_objective
        assert kkt.per_group.tobytes() == fresh_kkt.per_group.tobytes()
        assert kkt.per_coordinate.tobytes() == fresh_kkt.per_coordinate.tobytes()


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
