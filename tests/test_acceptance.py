"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Each test prints a single ``[PASS]``/``[FAIL]`` line (visible even without
``-v``) before asserting, so a run of this file doubles as a checklist."""

import csv
import json

import numpy as np

from _reference import (
    closed_form_block,
    lasso_cd,
    random_problem,
    ridge_fixed_point_gap,
)
from sgl.cli import run
from sgl.model import PenaltySpec, build_problem, load_problem_csv
from sgl.oracle import fit_oracle
from sgl.path import PathSpec, fit_path, lambda_max
from sgl.sim import SimConfig, coef_misclassification, generate
from sgl.solver import SolverOptions, fit


def _report(capsys, tag: str, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


def _split(alpha: float, level: float) -> PenaltySpec:
    return PenaltySpec(lambda1=(1.0 - alpha) * level, lambda2=alpha * level)


def test_a1_first_order_optimality(capsys):
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        prob = random_problem(rng, 50, [5, 5, 5, 5])
        lmax = lambda_max(prob, 0.5)
        u1, u2 = rng.uniform(0.05, 1.0, size=2)
        pen = PenaltySpec(0.5 * lmax * u1, 0.5 * lmax * u2)
        res = fit(prob, pen, SolverOptions(outer_tol=1e-9))
        scale = float(np.abs(prob.X.T @ prob.y).max())
        worst = max(worst, res.kkt.worst_violation / scale)
    _report(
        capsys, "A1 first-order optimality", worst <= 1e-6,
        f"worst relative violation {worst:.3e} over 50 problems (bound 1e-06)",
    )


def test_a2_reference_solver_equivalence(capsys):
    rng = np.random.default_rng(202)
    partitions = [[2, 2], [3, 3], [1, 1, 2], [2, 3], [1, 2, 3], [4, 2], [6], [2, 2, 2]]
    worst = 0.0
    for trial in range(25):
        n = int(rng.integers(8, 21))
        sizes = partitions[trial % len(partitions)]
        prob = random_problem(rng, n, sizes)
        lmax = lambda_max(prob, 0.5)
        pen = PenaltySpec(0.5 * lmax * 0.3, 0.5 * lmax * 0.3)
        solved = fit(prob, pen, SolverOptions(outer_tol=1e-9))
        reference = fit_oracle(prob, pen)
        gap = abs(solved.objective - reference.objective) / (1.0 + abs(solved.objective))
        worst = max(worst, gap)
    _report(
        capsys, "A2 reference-solver equivalence", worst <= 1e-8,
        f"worst relative objective gap {worst:.3e} over 25 problems (bound 1e-08)",
    )


def test_a3_closed_form_equivalences(capsys):
    rng = np.random.default_rng(303)

    # (a) orthonormal design: the fit must land on the two-stage shrinkage
    # formula
    M = rng.standard_normal((60, 9))
    M -= M.mean(axis=0)
    Q, _ = np.linalg.qr(M)
    y = Q @ (rng.standard_normal(9) * 2.0) + 0.5 * rng.standard_normal(60)
    prob = build_problem(y, Q, [3, 3, 3])
    lmax = lambda_max(prob, 0.5)
    pen = PenaltySpec(0.5 * lmax * 0.4, 0.5 * lmax * 0.4)
    gap_a = 0.0
    res = fit(prob, pen, SolverOptions(outer_tol=1e-10))
    for sl, w in zip(prob.slices, prob.weights):
        direct = closed_form_block(
            prob.X[:, sl].T @ prob.y, pen.lambda1 * float(w), pen.lambda2
        )
        gap_a = max(gap_a, float(np.abs(res.coefficients.beta[sl] - direct).max()))

    # (b) all-singleton groups: the fit must match an independent lasso
    gap_b = 0.0
    for _ in range(5):
        prob = random_problem(rng, 40, [1] * 12)
        lmax = lambda_max(prob, 0.5)
        pen = PenaltySpec(0.5 * lmax * 0.3, 0.5 * lmax * 0.3)
        res = fit(prob, pen, SolverOptions(outer_tol=1e-10))
        direct = lasso_cd(prob.y, prob.X, pen.lambda1 + pen.lambda2, tol=1e-14)
        gap_b = max(gap_b, float(np.abs(res.coefficients.beta - direct).max()))

    # (c) pure group penalty: every active block solves its own ridge system
    gap_c = 0.0
    for _ in range(5):
        prob = random_problem(rng, 50, [3, 3, 3])
        lam = 0.3 * lambda_max(prob, 0.0)
        res = fit(prob, PenaltySpec(lam, 0.0), SolverOptions(outer_tol=1e-10))
        gap_c = max(
            gap_c,
            ridge_fixed_point_gap(
                prob.y, prob.X, res.coefficients.beta,
                prob.group_sizes, prob.weights, lam,
            ),
        )

    ok = gap_a <= 1e-8 and gap_b <= 1e-8 and gap_c <= 1e-6
    _report(
        capsys, "A3 closed-form equivalences", ok,
        f"orthonormal {gap_a:.3e} (1e-08), singleton lasso {gap_b:.3e} (1e-08), "
        f"ridge fixed point {gap_c:.3e} (1e-06)",
    )


def test_a4_monotone_descent(capsys):
    rng = np.random.default_rng(404)
    worst_rise = -np.inf
    n_fits = 0
    for _ in range(30):
        prob = random_problem(rng, 40, [4, 4, 4])
        lmax = lambda_max(prob, 0.5)
        u1, u2 = rng.uniform(0.05, 1.0, size=2)
        res = fit(prob, PenaltySpec(0.5 * lmax * u1, 0.5 * lmax * u2))
        worst_rise = max(worst_rise, float(np.diff(res.objective_history).max()))
        n_fits += 1
    # warm-started fits along a decreasing grid start from nonzero points
    prob = random_problem(rng, 60, [5, 5, 5, 5])
    lmax = lambda_max(prob, 0.5)
    warm = None
    for ratio in np.geomspace(1.0, 0.01, 25):
        res = fit(prob, _split(0.5, ratio * lmax), warm=warm)
        worst_rise = max(worst_rise, float(np.diff(res.objective_history).max()))
        warm = res.coefficients
        n_fits += 1
    _report(
        capsys, "A4 monotone descent", worst_rise <= 1e-12,
        f"largest sweep-to-sweep objective rise {worst_rise:.3e} "
        f"across {n_fits} fits (slack 1e-12)",
    )


def test_a5_orthonormalization_changes_the_problem(capsys):
    rng = np.random.default_rng(505)

    def mapped_solution(problem, lam):
        # orthonormalize, solve the rotated group lasso in closed form, map back
        Q, R = np.linalg.qr(problem.X)
        s = Q.T @ problem.y
        snorm = float(np.linalg.norm(s))
        theta = max(0.0, 1.0 - lam / snorm) * s
        return np.linalg.solve(R, theta)

    def one_design(singular_values):
        A = rng.standard_normal((40, 2))
        A -= A.mean(axis=0)
        U, _, Vt = np.linalg.svd(A, full_matrices=False)
        X = U @ np.diag(singular_values) @ Vt
        y = X @ np.array([1.0, -0.5]) + 0.2 * rng.standard_normal(40)
        prob = build_problem(y, X, [2])
        lam = 0.4 * lambda_max(prob, 0.0)
        direct = fit(prob, PenaltySpec(lam, 0.0), SolverOptions(outer_tol=1e-10))
        return float(np.abs(mapped_solution(prob, lam) - direct.coefficients.beta).max())

    diff_unequal = one_design([2.0, 1.0])
    diff_identity = one_design([1.0, 1.0])
    ok = diff_unequal > 1e-3 and diff_identity <= 1e-8
    _report(
        capsys, "A5 orthonormalization pitfall", ok,
        f"singular values (2,1) differ by {diff_unequal:.3e} (> 1e-03 required); "
        f"identity case differs by {diff_identity:.3e} (<= 1e-08 required)",
    )


def test_a6_benchmark_recovery(capsys):
    opts = SolverOptions(outer_tol=1e-5, inner_tol=1e-8)
    sparse_spec = PathSpec(n_points=45, ratio_min=0.01, mixing=0.5)
    group_spec = PathSpec(n_points=45, ratio_min=0.01, mixing=0.0)
    window_hits = 0
    compromise_hits = 0
    for seed in range(1, 21):
        data = generate(SimConfig(seed=seed))
        prob = build_problem(data.y, data.X, data.config.blocks)
        sparse_path = fit_path(prob, sparse_spec, opts)
        group_path = fit_path(prob, group_spec, opts)

        # some grid level must zero every signal-free block (6-10) while
        # keeping each of the three densest blocks (1-3) alive
        for point in sparse_path.points:
            active = prob.active_groups(point.coefficients)
            if not active[5:].any() and active[:3].all():
                window_hits += 1
                break

        sparse_best = min(
            coef_misclassification(data.beta_true, pt.coefficients.beta)
            for pt in sparse_path.points
        )
        group_best = min(
            coef_misclassification(data.beta_true, pt.coefficients.beta)
            for pt in group_path.points
        )
        compromise_hits += sparse_best <= group_best

    ok = window_hits >= 14 and compromise_hits >= 14
    _report(
        capsys, "A6 benchmark recovery", ok,
        f"selective-support window {window_hits}/20, "
        f"coefficient error no worse than the group-only path {compromise_hits}/20 "
        f"(both need >= 14/20)",
    )


def test_a7_threshold_boundary(capsys):
    rng = np.random.default_rng(707)
    checked = 0
    failures = []
    for trial in range(10):
        prob = random_problem(rng, 40, [4, 3, 5])
        for alpha in (0.0, 0.5, 1.0):
            level = lambda_max(prob, alpha)
            above = fit(prob, _split(alpha, 1.000001 * level))
            below = fit(prob, _split(alpha, 0.999 * level))
            if above.coefficients.n_nonzero != 0:
                failures.append(f"trial {trial} alpha {alpha}: nonzero above the threshold")
            if not prob.active_groups(below.coefficients).any():
                failures.append(f"trial {trial} alpha {alpha}: nothing active below")
            checked += 1
    _report(
        capsys, "A7 threshold boundary", not failures,
        f"{checked} boundary pairs clean" if not failures else "; ".join(failures),
    )


def test_a8_cli_pipeline(capsys, tmp_path):
    sim = tmp_path / "sim"
    fit_out = tmp_path / "fit"
    code_sim = run(["simulate", "--seed", "5", "--out", str(sim)])
    code_fit = run([
        "fit", "--data", str(sim / "data.csv"), "--groups", str(sim / "groups.csv"),
        "--lambda1", "2.0", "--lambda2", "1.0", "--out", str(fit_out),
    ])
    code_check = run([
        "check", "--data", str(sim / "data.csv"), "--groups", str(sim / "groups.csv"),
        "--coefs", str(fit_out / "coefficients.csv"),
        "--lambda1", "2.0", "--lambda2", "1.0",
    ])

    with open(fit_out / "coefficients.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    written = np.array([float(r[2]) for r in rows])
    loaded = load_problem_csv(sim / "data.csv", sim / "groups.csv")
    direct = fit(loaded.problem, PenaltySpec(2.0, 1.0),
                 SolverOptions(outer_tol=1e-7, max_sweeps=10000))
    bit_exact = np.array_equal(written, direct.coefficients.beta)
    with open(fit_out / "summary.json") as fh:
        summary = json.load(fh)

    # oracle cross-check on a small problem where the reference solver is cheap
    tiny = tmp_path / "tiny"
    code_tiny_sim = run(["simulate", "--seed", "6", "--n", "30", "--counts", "2,1",
                         "--out", str(tiny)])
    tiny_fit = tmp_path / "tinyfit"
    code_tiny_fit = run([
        "fit", "--data", str(tiny / "data.csv"), "--groups", str(tiny / "groups.csv"),
        "--lambda1", "3.0", "--lambda2", "3.0", "--out", str(tiny_fit),
        "--outer-tol", "1e-10",
    ])
    capsys.readouterr()
    code_oracle = run([
        "check", "--data", str(tiny / "data.csv"), "--groups", str(tiny / "groups.csv"),
        "--coefs", str(tiny_fit / "coefficients.csv"),
        "--lambda1", "3.0", "--lambda2", "3.0", "--oracle",
    ])
    text = capsys.readouterr().out
    gap_line = next(l for l in text.splitlines() if l.startswith("oracle_gap:"))
    gap = float(gap_line.split()[1])

    ok = (
        code_sim == 0 and code_fit == 0 and code_check == 0
        and code_tiny_sim == 0 and code_tiny_fit == 0 and code_oracle == 0
        and bit_exact and summary["converged"] is True and gap <= 1e-7
    )
    _report(
        capsys, "A8 CLI pipeline", ok,
        f"exit codes {code_sim}/{code_fit}/{code_check}, re-read bit-exact: {bit_exact}, "
        f"oracle gap {gap:.3e} (bound 1e-07)",
    )
