"""Problem construction, objective evaluation, prediction, and CSV loading."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sgl import (
    Coefficients,
    GroupedProblem,
    PenaltySpec,
    SolverOptions,
    build_problem,
    fit,
    load_problem_csv,
    objective,
    predict,
)
from sgl.model import _group_norms, _objective_from_residual

from _reference import brute_objective, least_squares, random_problem


# ---------------------------------------------------------------- PenaltySpec

def test_penalty_levels_stored_as_floats():
    pen = PenaltySpec(lambda1=1, lambda2=0)
    assert pen.lambda1 == 1.0 and pen.lambda2 == 0.0
    assert isinstance(pen.lambda1, float)


@pytest.mark.parametrize("lam1,lam2", [(-1.0, 0.0), (0.0, -0.5), (np.nan, 0.0), (0.0, np.inf)])
def test_penalty_rejects_negative_or_nonfinite(lam1, lam2):
    with pytest.raises(ValueError):
        PenaltySpec(lambda1=lam1, lambda2=lam2)


# -------------------------------------------------------------- build_problem

def test_single_column_is_centered():
    prob = build_problem([1.0, 3.0], [[1.0], [3.0]], [1])
    assert np.allclose(prob.y, [-1.0, 1.0])
    assert np.allclose(prob.X[:, 0], [-1.0, 1.0])
    assert prob.y_mean == 2.0
    assert np.allclose(prob.x_means, [2.0])


def test_group_sizes_define_contiguous_slices():
    rng = np.random.default_rng(0)
    prob = build_problem(rng.standard_normal(6), rng.standard_normal((6, 5)), [3, 2])
    assert prob.slices == (slice(0, 3), slice(3, 5))
    assert prob.n_groups == 2 and prob.p == 5 and prob.n == 6


def test_sqrt_size_weights_for_equal_blocks():
    rng = np.random.default_rng(1)
    prob = build_problem(
        rng.standard_normal(20), rng.standard_normal((20, 100)), [10] * 10,
        weight_mode="sqrt-size",
    )
    assert np.allclose(prob.weights, np.sqrt(10.0))


def test_unit_weights_are_all_one():
    rng = np.random.default_rng(2)
    prob = build_problem(rng.standard_normal(8), rng.standard_normal((8, 4)), [1, 3])
    assert np.array_equal(prob.weights, [1.0, 1.0])


def test_columns_and_response_have_mean_zero():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((30, 7)) + 5.0
    y = rng.standard_normal(30) - 2.0
    prob = build_problem(y, X, [4, 3])
    assert abs(prob.y.mean()) < 1e-12
    assert np.abs(prob.X.mean(axis=0)).max() < 1e-12


def test_build_problem_input_validation():
    y = [1.0, 2.0, 3.0]
    X = np.array([[1.0, 2.0], [0.0, 1.0], [2.0, 0.0]])
    with pytest.raises(ValueError):
        build_problem(y, X, [3])  # sizes do not sum to p
    with pytest.raises(ValueError):
        build_problem(y, X, [2, 0])  # empty group
    with pytest.raises(ValueError):
        build_problem([1.0], [[1.0, 2.0]], [2])  # single observation
    with pytest.raises(ValueError):
        build_problem([1.0, np.nan, 3.0], X, [2])
    with pytest.raises(ValueError):
        build_problem(y[:2], X, [2])  # row mismatch
    with pytest.raises(ValueError):
        build_problem(y, X, [2], weight_mode="standardize")


def test_group_sizes_take_integers_only():
    # a cast used to truncate [2.7, 1.2, 1] to groups [2, 1, 1] and fit
    # them, and to refuse [2.5, 1.5] as summing to 3
    rng = np.random.default_rng(5)
    y, X = rng.standard_normal(10), rng.standard_normal((10, 4))
    for bad in ([2.7, 1.2, 1], [2.5, 1.5], [2.0, 2.0], ["2", "2"], [True, True, True, True]):
        with pytest.raises(ValueError, match="group_sizes"):
            build_problem(y, X, bad)
        with pytest.raises(ValueError, match="group_sizes"):
            GroupedProblem(y=y - y.mean(), X=X - X.mean(axis=0), group_sizes=bad, weights=[1.0, 1.0])
    for good in ([2, 2], (np.int64(3), 1), np.array([1, 3], dtype=np.int32)):
        prob = build_problem(y, X, good)
        assert prob.group_sizes.tolist() == [int(v) for v in good]
        assert GroupedProblem(prob.y, prob.X, good, [1.0, 1.0]).group_sizes.tolist() == [int(v) for v in good]


def test_grouped_problem_rejects_uncentered_or_bad_weights():
    y = np.array([-1.0, 0.0, 1.0])
    X = np.array([[-1.0], [0.0], [1.0]])
    with pytest.raises(ValueError):
        GroupedProblem(y=y + 1.0, X=X, group_sizes=[1], weights=[1.0])
    with pytest.raises(ValueError):
        GroupedProblem(y=y, X=X + 1.0, group_sizes=[1], weights=[1.0])
    with pytest.raises(ValueError):
        GroupedProblem(y=y, X=X, group_sizes=[1], weights=[0.0])
    with pytest.raises(ValueError):
        GroupedProblem(y=y, X=X, group_sizes=[1], weights=[1.0, 1.0])


@pytest.mark.parametrize("n", range(5, 40))
def test_large_offsets_and_constant_columns_are_centered(n):
    # centering subtracts a mean near 1e6 (or 1e4) and leaves a residue of
    # that mean's rounding, which the check must not take for an offset
    rng = np.random.default_rng(n)
    X = rng.standard_normal((n, 3))
    X[:, 1] = 10000.1
    y = 1e6 + rng.standard_normal(n)
    prob = build_problem(y, X, [3])
    assert prob.y_mean == float(np.mean(y))
    assert np.abs(prob.X[:, 1]).max() <= 1e-11


def test_grouped_problem_rejects_uncentered_data_whatever_its_means():
    # the subtracted means widen the bound only to their own rounding
    rng = np.random.default_rng(5)
    y = 1e6 + rng.standard_normal(30)
    X = rng.standard_normal((30, 2)) + 10000.1
    with pytest.raises(ValueError, match="response is not centered"):
        GroupedProblem(y=y, X=X - X.mean(axis=0), group_sizes=[2], weights=[1.0])
    with pytest.raises(ValueError, match="response is not centered"):
        GroupedProblem(y=y - 1.0, X=X - X.mean(axis=0), group_sizes=[2], weights=[1.0],
                       y_mean=1e6)
    with pytest.raises(ValueError, match="feature columns are not centered"):
        GroupedProblem(y=y - y.mean(), X=X, group_sizes=[2], weights=[1.0],
                       y_mean=y.mean(), x_means=X.mean(axis=0))
    with pytest.raises(ValueError, match="non-finite y_mean"):
        GroupedProblem(y=y - y.mean(), X=X - X.mean(axis=0), group_sizes=[2],
                       weights=[1.0], y_mean=np.inf)


def test_problem_arrays_are_read_only():
    prob = build_problem([1.0, 3.0], [[1.0], [3.0]], [1])
    with pytest.raises(ValueError):
        prob.y[0] = 0.0
    with pytest.raises(ValueError):
        prob.X[0, 0] = 0.0


# ----------------------------------------------------------------- objective

def test_objective_at_zero_is_half_squared_response():
    rng = np.random.default_rng(4)
    prob = random_problem(rng, 15, [2, 3])
    val = objective(prob, np.zeros(prob.p), PenaltySpec(1.0, 1.0))
    assert val == pytest.approx(0.5 * float(prob.y @ prob.y), rel=1e-14)


def test_objective_without_penalty_is_half_rss():
    rng = np.random.default_rng(5)
    prob = random_problem(rng, 15, [2, 3])
    beta = rng.standard_normal(prob.p)
    res = prob.y - prob.X @ beta
    val = objective(prob, beta, PenaltySpec(0.0, 0.0))
    assert val == pytest.approx(0.5 * float(res @ res), rel=1e-14)


def test_objective_hand_worked_single_column():
    # perfect fit leaves only the two penalty terms, each equal to one
    prob = build_problem([-1.0, 1.0], [[-1.0], [1.0]], [1])
    assert objective(prob, [1.0], PenaltySpec(1.0, 1.0)) == pytest.approx(2.0, abs=1e-15)


def test_objective_matches_plain_loop_evaluation():
    rng = np.random.default_rng(6)
    for sizes in ([1, 2, 3], [4], [2, 2, 2, 2]):
        prob = random_problem(rng, 12, sizes, weight_mode="sqrt-size")
        beta = rng.standard_normal(prob.p)
        lam1, lam2 = rng.random(2)
        expected = brute_objective(
            prob.y, prob.X, beta, lam1, lam2, prob.weights, prob.group_sizes
        )
        got = objective(prob, beta, PenaltySpec(lam1, lam2))
        assert got == pytest.approx(expected, rel=1e-12)


def test_objective_invariant_under_group_permutation():
    rng = np.random.default_rng(7)
    y = rng.standard_normal(20)
    X = rng.standard_normal((20, 6))
    beta = rng.standard_normal(6)
    pen = PenaltySpec(0.7, 0.3)
    prob = build_problem(y, X, [2, 4], weight_mode="sqrt-size")
    # swap the two groups wholesale: columns, sizes, and coefficient blocks
    perm = [2, 3, 4, 5, 0, 1]
    swapped = build_problem(y, X[:, perm], [4, 2], weight_mode="sqrt-size")
    assert objective(prob, beta, pen) == pytest.approx(
        objective(swapped, beta[perm], pen), rel=1e-14
    )


def test_objective_dominates_half_rss():
    rng = np.random.default_rng(8)
    prob = random_problem(rng, 18, [3, 3])
    pen = PenaltySpec(0.5, 0.25)
    for _ in range(10):
        beta = rng.standard_normal(prob.p)
        res = prob.y - prob.X @ beta
        assert objective(prob, beta, pen) >= 0.5 * float(res @ res)


def test_objective_is_convex_along_segments():
    rng = np.random.default_rng(9)
    prob = random_problem(rng, 18, [2, 2, 2])
    pen = PenaltySpec(0.9, 0.4)
    for _ in range(25):
        b1 = rng.standard_normal(prob.p)
        b2 = rng.standard_normal(prob.p)
        t = float(rng.random())
        mix = objective(prob, t * b1 + (1 - t) * b2, pen)
        bound = t * objective(prob, b1, pen) + (1 - t) * objective(prob, b2, pen)
        assert mix <= bound + 1e-10


# entries that are exact zeros of either sign about half the time
_ENTRIES = st.sampled_from([0.0, -0.0]) | st.floats(-1e6, 1e6)


@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=6),
    weight_mode=st.sampled_from(["unit", "sqrt-size"]),
    lam1=st.just(0.0) | st.floats(0.0, 10.0),
    lam2=st.just(0.0) | st.floats(0.0, 10.0),
    data=st.data(),
)
def test_objective_leaves_out_exact_zeros_without_changing_a_bit(
    sizes, weight_mode, lam1, lam2, data
):
    # fsum rounds the exact sum once, so dropping the penalty terms' exact
    # zeros (whole zero groups, -0.0, an all-zero beta) must give the very
    # float of the full-vector sums
    p = sum(sizes)
    rng = np.random.default_rng(0)
    prob = build_problem(rng.standard_normal(4), rng.standard_normal((4, p)), sizes, weight_mode)
    beta = np.array(data.draw(st.lists(_ENTRIES, min_size=p, max_size=p)))
    zeroed = data.draw(st.lists(st.booleans(), min_size=len(sizes), max_size=len(sizes)))
    beta[np.repeat(zeroed, sizes)] *= 0.0
    residual = np.array(data.draw(st.lists(_ENTRIES, min_size=4, max_size=4)))
    got = _objective_from_residual(prob, residual, beta, PenaltySpec(lam1, lam2))
    full = (
        0.5 * math.fsum((residual * residual).tolist())
        + lam1 * math.fsum((prob.weights * _group_norms(prob, beta)).tolist())
        + lam2 * math.fsum(np.abs(beta).tolist())
    )
    assert (got, math.copysign(1.0, got)) == (full, math.copysign(1.0, full))


def test_objective_rejects_wrong_length():
    prob = build_problem([1.0, 3.0], [[1.0], [3.0]], [1])
    with pytest.raises(ValueError):
        objective(prob, [1.0, 2.0], PenaltySpec(0.0, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        objective(prob, [np.nan], PenaltySpec(0.0, 0.0))


# ------------------------------------------------------------------- predict

def test_zero_coefficients_predict_the_response_mean():
    rng = np.random.default_rng(10)
    raw_y = rng.standard_normal(12) + 3.0
    raw_X = rng.standard_normal((12, 4))
    prob = build_problem(raw_y, raw_X, [2, 2])
    preds = predict(prob, np.zeros(4), rng.standard_normal((5, 4)))
    assert np.allclose(preds, raw_y.mean())


def test_unpenalized_fit_predicts_like_least_squares():
    rng = np.random.default_rng(11)
    raw_X = rng.standard_normal((25, 4))
    raw_y = raw_X @ [1.0, -2.0, 0.5, 0.0] + rng.standard_normal(25)
    prob = build_problem(raw_y, raw_X, [2, 2])
    result = fit(prob, PenaltySpec(0.0, 0.0), SolverOptions(outer_tol=1e-10))
    preds = predict(prob, result.coefficients, raw_X)
    design = np.column_stack([np.ones(25), raw_X])
    fitted = design @ least_squares(raw_y, design)
    assert np.abs(preds - fitted).max() < 1e-8


def test_row_at_the_column_means_predicts_the_mean():
    rng = np.random.default_rng(12)
    raw_X = rng.standard_normal((10, 3)) + [1.0, -4.0, 2.0]
    raw_y = rng.standard_normal(10) + 7.0
    prob = build_problem(raw_y, raw_X, [3])
    beta = rng.standard_normal(3)
    preds = predict(prob, beta, raw_X.mean(axis=0))
    assert preds.shape == (1,)
    assert preds[0] == pytest.approx(raw_y.mean(), rel=1e-12)


def test_predict_rejects_wrong_width():
    prob = build_problem([1.0, 3.0], [[1.0], [3.0]], [1])
    with pytest.raises(ValueError):
        predict(prob, [1.0], np.ones((2, 3)))


# -------------------------------------------------------- Coefficients et al.

def test_coefficients_validation_and_counting():
    coefs = Coefficients([1.0, 0.0, -2.0])
    assert len(coefs) == 3 and coefs.n_nonzero == 2
    assert not coefs.beta.flags.writeable
    with pytest.raises(ValueError):
        Coefficients([1.0, np.nan])
    with pytest.raises(ValueError):
        Coefficients([[1.0, 2.0]])


def test_problem_coefficients_wrapper_checks_length():
    prob = build_problem([1.0, 3.0], [[1.0], [3.0]], [1])
    assert prob.coefficients([2.0]).beta[0] == 2.0
    with pytest.raises(ValueError):
        prob.coefficients([1.0, 2.0])


def test_active_groups_mask():
    rng = np.random.default_rng(13)
    prob = random_problem(rng, 10, [2, 2, 2])
    mask = prob.active_groups([0.0, 0.0, 1.0, 0.0, 0.0, 0.0])
    assert mask.tolist() == [False, True, False]


# ----------------------------------------------------------- CSV ingestion

def _write(path, text):
    path.write_text(text)
    return str(path)


def test_load_problem_reorders_interleaved_groups(tmp_path):
    data = _write(
        tmp_path / "data.csv",
        "x1,y,x2,x3\n"
        "1.0,10.0,4.0,7.0\n"
        "2.0,20.0,5.0,8.0\n"
        "3.0,30.0,6.0,10.0\n",
    )
    groups = _write(
        tmp_path / "groups.csv",
        "column,group\nx1,a\nx2,b\nx3,a\n",
    )
    loaded = load_problem_csv(data, groups)
    # group a appears first, so its columns (x1, x3) come first
    assert loaded.feature_names == ("x1", "x3", "x2")
    assert loaded.group_ids == ("a", "b")
    assert loaded.column_group_ids == ("a", "a", "b")
    assert loaded.data_positions.tolist() == [0, 2, 1]
    assert loaded.problem.group_sizes.tolist() == [2, 1]
    raw = np.array([[1.0, 7.0, 4.0], [2.0, 8.0, 5.0], [3.0, 10.0, 6.0]])
    assert np.allclose(loaded.problem.X, raw - raw.mean(axis=0))
    assert np.allclose(loaded.problem.y, [-10.0, 0.0, 10.0])

    # many groups, columns randomly interleaved, sidecar rows shuffled
    rng = np.random.default_rng(5)
    p, n_groups = 600, 150
    gids = [f"g{int(g)}" for g in rng.integers(0, n_groups, p)]
    names = [f"c{i}" for i in range(p)]
    values = rng.standard_normal((4, p + 1))
    data = _write(
        tmp_path / "many.csv",
        ",".join(names + ["y"]) + "\n"
        + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values),
    )
    groups = _write(
        tmp_path / "many_groups.csv",
        "column,group\n" + "".join(f"{names[i]},{gids[i]}\n" for i in rng.permutation(p)),
    )
    loaded = load_problem_csv(data, groups)
    first = {}
    for i, g in enumerate(gids):
        first.setdefault(g, i)
    order = sorted(range(p), key=lambda i: first[gids[i]])  # stable
    group_order = sorted(first, key=first.get)
    assert loaded.data_positions.tolist() == order
    assert loaded.feature_names == tuple(names[i] for i in order)
    assert loaded.group_ids == tuple(group_order)
    assert loaded.column_group_ids == tuple(gids[i] for i in order)
    assert loaded.problem.group_sizes.tolist() == [gids.count(g) for g in group_order]
    raw = values[:, order]
    assert np.allclose(loaded.problem.X, raw - raw.mean(axis=0))


def test_load_problem_weight_mode_passthrough(tmp_path):
    data = _write(tmp_path / "d.csv", "y,a,b\n1.0,1.0,2.0\n2.0,0.0,1.0\n3.0,1.0,0.0\n")
    groups = _write(tmp_path / "g.csv", "column,group\na,g1\nb,g1\n")
    loaded = load_problem_csv(data, groups, weight_mode="sqrt-size")
    assert np.allclose(loaded.problem.weights, [np.sqrt(2.0)])


@pytest.mark.parametrize(
    "data_text,groups_text,fragment",
    [
        ("a,b\n1.0,2.0\n", "column,group\na,g\nb,g\n", "no 'y' column"),
        ("y,a,a\n1.0,2.0,3.0\n", "column,group\na,g\n", "duplicate column"),
        ("y\n1.0\n", "column,group\n", "no feature columns"),
        ("y,a\n1.0\n2.0,3.0\n", "column,group\na,g\n", "line 2"),
        ("y,a\n1.0,oops\n", "column,group\na,g\n", "line 2"),
        ("y,a\n", "column,group\na,g\n", "no data rows"),
        ("y,a\n1.0,2.0\n2.0,1.0\n", "col,grp\na,g\n", "expected header"),
        ("y,a\n1.0,2.0\n2.0,1.0\n", "column,group\n", "no group for column"),
        ("y,a\n1.0,2.0\n2.0,1.0\n", "column,group\na,g\nb,g\n", "unknown column"),
        ("y,a\n1.0,2.0\n2.0,1.0\n", "column,group\na,g\na,h\n", "mapped twice"),
        # unknown columns are listed in groups-file order
        ("y,a\n1.0,2.0\n2.0,1.0\n", "column,group\nz,g\na,g\nb,g\n", r"column\(s\) z, b$"),
        # diagnostics name the physical line, blank lines included
        ("y,a\n1.0,2.0\n\n\n2.0,oops\n", "column,group\na,g\n", r"line 5: unparseable number$"),
        ("\n\ny,a\n1.0,oops\n", "column,group\na,g\n", r"line 4: unparseable number$"),
        ("y,a,b\n1.0,2.0,3.0\n2.0,1.0,0.0\n", "column,group\n\na,g\nb\n",
         r"groups\.csv: line 4: expected 2 fields$"),
        # rejected input: a trailing comma, a whitespace-only line, non-finite values
        ("y,a\n1.0,2.0\n2.0,1.0,\n", "column,group\na,g\n", r"line 3: expected 2 fields, got 3$"),
        ("y,a\n1.0,2.0\n \n2.0,1.0\n", "column,group\na,g\n", r"line 3: expected 2 fields, got 1$"),
        # every row one field too many: the parse succeeds, the width check fails
        ("y,a\n1.0,2.0,3.0\n4.0,5.0,6.0\n", "column,group\na,g\n",
         r"line 2: expected 2 fields, got 3$"),
        ("y,a\n1.0,2.0\n2.0,nan\n", "column,group\na,g\n", "non-finite values"),
        ("y,a\n-inf,2.0\n2.0,1.0\n", "column,group\na,g\n", "non-finite values"),
        ("y,a\n1e400,2.0\n2.0,1.0\n", "column,group\na,g\n", "non-finite values"),
        # float() reads underscore digit groups and full-width digits; the bulk
        # parser reads neither, and no writer emits them
        ("y,a\n1.0,2.0\n2.0,1_0\n", "column,group\na,g\n", r"line 3: unparseable number$"),
        ("y,a\n1.0,2.0\n2.0,\uff11\n", "column,group\na,g\n", r"line 3: unparseable number$"),
    ],
)
def test_load_problem_diagnostics(tmp_path, data_text, groups_text, fragment):
    data = _write(tmp_path / "data.csv", data_text)
    groups = _write(tmp_path / "groups.csv", groups_text)
    with pytest.raises(ValueError, match=fragment):
        load_problem_csv(data, groups)


_PLAIN = "y,a,b\n1.5,2.0,-3.0\n2.5,0.25,1e-3\n-4.0,7.0,0.5\n"


@pytest.mark.parametrize(
    "text",
    [
        # quoted cells, header included
        '"y","a","b"\n"1.5","2.0","-3.0"\n"2.5",0.25,"1e-3"\n-4.0,"7.0",0.5\n',
        # CRLF line endings
        _PLAIN.replace("\n", "\r\n"),
        # spaces and tabs around numbers
        "y,a,b\n 1.5,2.0 , -3.0\n2.5\t,0.25,  1e-3\n-4.0, 7.0,0.5 \n",
        # blank lines, before the header too
        "\n\r\ny,a,b\n\n1.5,2.0,-3.0\n\r\n\n2.5,0.25,1e-3\n-4.0,7.0,0.5\n\n",
        # no newline after the last row
        _PLAIN.rstrip("\n"),
    ],
    ids=["quoted", "crlf", "spaces", "blank-lines", "no-final-newline"],
)
def test_load_problem_accepts_csv_variants(tmp_path, text):
    groups = _write(tmp_path / "groups.csv", "column,group\na,g\nb,g\n")
    loaded = load_problem_csv(_write(tmp_path / "variant.csv", text), groups).problem
    expected = build_problem([1.5, 2.5, -4.0], [[2.0, -3.0], [0.25, 1e-3], [7.0, 0.5]], [2])
    assert loaded.X.tobytes() == expected.X.tobytes()
    assert loaded.y.tobytes() == expected.y.tobytes()


def test_load_problem_missing_file_is_a_value_error(tmp_path):
    groups = _write(tmp_path / "groups.csv", "column,group\na,g\n")
    with pytest.raises(ValueError):
        load_problem_csv(str(tmp_path / "absent.csv"), groups)
