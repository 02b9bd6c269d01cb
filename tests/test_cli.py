"""End-to-end tests of the command-line interface, driven in-process."""

import csv
import importlib
import json
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import sgl.cli
from sgl.cli import run
from sgl.model import load_problem_csv
from sgl.solver import SolverOptions, fit
from sgl.path import PathSpec, fit_path
from sgl.model import PenaltySpec
from sgl.sim import SimConfig, generate, write_dataset


def _read_lines(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _simulate(tmp_path, name, extra=()):
    out = tmp_path / name
    code = run(["simulate", "--seed", "3", "--out", str(out), *extra])
    assert code == 0
    return out


# ------------------------------------------------------------------- simulate

def test_simulate_writes_three_files(tmp_path, capsys):
    out = tmp_path / "sim"
    assert run(["simulate", "--seed", "1", "--out", str(out)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert all(line.startswith("wrote ") for line in lines)
    for fname in ("data.csv", "groups.csv", "truth.csv"):
        assert (out / fname).is_file()


def test_simulate_is_deterministic(tmp_path):
    a = _simulate(tmp_path, "a")
    b = _simulate(tmp_path, "b")
    for fname in ("data.csv", "groups.csv", "truth.csv"):
        assert (a / fname).read_bytes() == (b / fname).read_bytes()


def test_simulate_seed_changes_output(tmp_path):
    a = _simulate(tmp_path, "a")
    out = tmp_path / "c"
    assert run(["simulate", "--seed", "4", "--out", str(out)]) == 0
    assert (a / "data.csv").read_bytes() != (out / "data.csv").read_bytes()


def test_simulate_seed_env_fallback(tmp_path, monkeypatch):
    flagged = tmp_path / "flag"
    assert run(["simulate", "--seed", "7", "--out", str(flagged)]) == 0
    monkeypatch.setenv("SGL_SEED", "7")
    from_env = tmp_path / "env"
    assert run(["simulate", "--out", str(from_env)]) == 0
    assert (flagged / "data.csv").read_bytes() == (from_env / "data.csv").read_bytes()


def test_simulate_rejects_bad_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SGL_SEED", "not-a-number")
    assert run(["simulate", "--out", str(tmp_path / "x")]) == 1
    assert "error:" in capsys.readouterr().err


def test_simulate_counts_flag(tmp_path):
    out = tmp_path / "sim"
    assert run(["simulate", "--seed", "2", "--out", str(out), "--counts", "1,1"]) == 0
    rows = _read_lines(out / "truth.csv")
    values = [float(r[2]) for r in rows[1:]]
    assert sum(v != 0.0 for v in values) == 2


def test_simulate_rejects_bad_counts(tmp_path, capsys):
    assert run(["simulate", "--out", str(tmp_path / "x"), "--counts", "2;3"]) == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------------ fit

@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("dataset")
    assert run(["simulate", "--seed", "3", "--out", str(out)]) == 0
    return out


def test_fit_outputs_and_reread_identity(sim_dir, tmp_path, capsys):
    out = tmp_path / "fit"
    code = run([
        "fit", "--data", str(sim_dir / "data.csv"), "--groups", str(sim_dir / "groups.csv"),
        "--lambda1", "2.0", "--lambda2", "1.0", "--out", str(out),
    ])
    assert code == 0
    assert "fit: objective=" in capsys.readouterr().out

    rows = _read_lines(out / "coefficients.csv")
    assert rows[0] == ["index", "group", "value"]
    assert len(rows) == 101

    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert set(summary) == {
        "objective", "sweeps", "converged", "kkt_worst",
        "lambda1", "lambda2", "n", "p", "L",
    }
    assert summary["n"] == 200 and summary["p"] == 100 and summary["L"] == 10
    assert summary["converged"] is True
    assert summary["lambda1"] == 2.0 and summary["lambda2"] == 1.0

    # full-precision text round-trips to the solver's exact floats
    loaded = load_problem_csv(sim_dir / "data.csv", sim_dir / "groups.csv")
    direct = fit(loaded.problem, PenaltySpec(2.0, 1.0),
                 SolverOptions(outer_tol=1e-7, max_sweeps=10000))
    written = np.array([float(r[2]) for r in rows[1:]])
    assert np.array_equal(written, direct.coefficients.beta)
    assert summary["objective"] == direct.objective
    assert summary["kkt_worst"] == direct.kkt.worst_violation


def test_fit_huge_penalty_gives_all_zeros(sim_dir, tmp_path):
    out = tmp_path / "fit"
    code = run([
        "fit", "--data", str(sim_dir / "data.csv"), "--groups", str(sim_dir / "groups.csv"),
        "--lambda1", "1e9", "--lambda2", "1e9", "--out", str(out),
    ])
    assert code == 0
    values = [float(r[2]) for r in _read_lines(out / "coefficients.csv")[1:]]
    assert values == [0.0] * 100


def test_fit_nonconvergence_exits_2_but_writes(sim_dir, tmp_path):
    out = tmp_path / "fit"
    code = run([
        "fit", "--data", str(sim_dir / "data.csv"), "--groups", str(sim_dir / "groups.csv"),
        "--lambda1", "0.5", "--lambda2", "0.5", "--out", str(out),
        "--max-sweeps", "1", "--outer-tol", "1e-14",
    ])
    assert code == 2
    with open(out / "summary.json") as fh:
        summary = json.load(fh)
    assert summary["converged"] is False and summary["sweeps"] == 1
    assert (out / "coefficients.csv").is_file()


# ----------------------------------------------------------------------- path

@pytest.fixture()
def tiny_dataset(tmp_path):
    """Hand-written 12x4 problem whose groups interleave in the data file."""
    rng = np.random.default_rng(40)
    X = rng.standard_normal((12, 4))
    beta = np.array([1.0, 0.0, -1.0, 0.0])  # active: x1 (gA), x3 (gA)
    y = X @ beta + 0.1 * rng.standard_normal(12)
    data = tmp_path / "data.csv"
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["y", "x1", "x2", "x3", "x4"])
        for i in range(12):
            writer.writerow([repr(float(y[i]))] + [repr(float(v)) for v in X[i]])
    groups = tmp_path / "groups.csv"
    groups.write_text("column,group\nx1,gA\nx2,gB\nx3,gA\nx4,gB\n")
    truth = tmp_path / "truth.csv"
    truth.write_text(
        "index,group,beta_true\n0,gA,1.0\n1,gB,0.0\n2,gA,-1.0\n3,gB,0.0\n"
    )
    return data, groups, truth


def test_path_long_format(tiny_dataset, tmp_path, capsys):
    data, groups, _ = tiny_dataset
    out = tmp_path / "path"
    code = run([
        "path", "--data", str(data), "--groups", str(groups),
        "--npoints", "8", "--out", str(out),
    ])
    assert code == 0
    assert capsys.readouterr().out.count("wrote ") == 2
    rows = _read_lines(out / "path.csv")
    assert rows[0] == ["point", "lambda", "index", "group", "value"]
    assert len(rows) == 8 * 4 + 1
    # loader reorders interleaved groups: gA columns first
    assert [r[3] for r in rows[1:5]] == ["gA", "gA", "gB", "gB"]
    metrics = _read_lines(out / "metrics.csv")
    assert metrics[0] == [
        "point", "lambda", "lambda1", "lambda2", "objective", "sweeps",
        "converged", "kkt_worst", "active_groups", "nonzeros",
    ]
    assert len(metrics) == 9
    # first grid point sits at the all-zero level
    assert int(metrics[1][9]) == 0
    lams = [float(r[1]) for r in metrics[1:]]
    assert lams == sorted(lams, reverse=True)


def test_path_wide_format(tiny_dataset, tmp_path):
    data, groups, _ = tiny_dataset
    out = tmp_path / "path"
    code = run([
        "path", "--data", str(data), "--groups", str(groups),
        "--npoints", "8", "--wide", "--out", str(out),
    ])
    assert code == 0
    rows = _read_lines(out / "path.csv")
    assert rows[0] == ["point", "lambda", "x1", "x3", "x2", "x4"]
    assert len(rows) == 9


def test_path_truth_metrics_with_remap(tiny_dataset, tmp_path):
    data, groups, truth = tiny_dataset
    out = tmp_path / "path"
    code = run([
        "path", "--data", str(data), "--groups", str(groups),
        "--truth", str(truth), "--npoints", "8", "--out", str(out),
    ])
    assert code == 0
    metrics = _read_lines(out / "metrics.csv")
    assert metrics[0][-2:] == ["group_misclass", "coef_misclass"]
    # the all-zero first point misses exactly the true support: one group, two coefficients
    assert int(metrics[1][-2]) == 1
    assert int(metrics[1][-1]) == 2


def test_path_nonconvergence_warns_and_exits_2(tiny_dataset, tmp_path, capsys):
    data, groups, _ = tiny_dataset
    out = tmp_path / "path"
    code = run([
        "path", "--data", str(data), "--groups", str(groups),
        "--npoints", "8", "--out", str(out),
        "--max-sweeps", "1", "--outer-tol", "1e-15",
    ])
    assert code == 2
    assert "did not converge" in capsys.readouterr().err
    assert (out / "metrics.csv").is_file()


def test_path_converges_on_a_large_simulated_draw(tmp_path):
    # level 8 of this path used to run into the 10000-sweep cap, a block
    # creeping by about 1e-9 per sweep, and the command exited 2
    sim = tmp_path / "sim"
    assert run(["simulate", "--seed", "20305", "--n", "2000", "--out", str(sim)]) == 0
    code = run([
        "path", "--data", str(sim / "data.csv"), "--groups", str(sim / "groups.csv"),
        "--npoints", "20", "--ratio-min", "0.2", "--out", str(tmp_path / "path"),
    ])
    assert code == 0


@pytest.mark.parametrize(
    "tamper", ["conflicting duplicate", "wrong group", "missing row", "nan then duplicate"]
)
def test_path_rejects_a_bad_truth_file(tiny_dataset, tmp_path, capsys, tamper):
    data, groups, truth = tiny_dataset
    text = truth.read_text()
    if tamper == "conflicting duplicate":
        text += "0,gA,0.0\n"
    elif tamper == "wrong group":
        text = text.replace("1,gB,", "1,gA,")
    elif tamper == "missing row":
        text = text.replace("3,gB,0.0\n", "")
    else:
        text = text.replace("3,gB,0.0\n", "3,gB,nan\n3,gB,0.0\n")
    truth.write_text(text)
    code = run([
        "path", "--data", str(data), "--groups", str(groups),
        "--truth", str(truth), "--npoints", "8", "--out", str(tmp_path / "path"),
    ])
    assert code == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: ") and str(truth) in err[0]


# ------------------------------------------------------------------ defaults

def test_commands_without_parameter_flags_use_the_library_defaults(tiny_dataset, tmp_path):
    sim = tmp_path / "sim"
    assert run(["simulate", "--seed", "5", "--out", str(sim)]) == 0
    lib = write_dataset(generate(SimConfig(seed=5)), tmp_path / "lib")
    for name in ("data", "groups", "truth"):
        assert (sim / f"{name}.csv").read_bytes() == pathlib.Path(lib[name]).read_bytes()

    data, groups, _ = tiny_dataset
    io = ["--data", str(data), "--groups", str(groups)]
    problem = load_problem_csv(data, groups).problem
    out = tmp_path / "fit"
    assert run(["fit", *io, "--lambda1", "0.05", "--lambda2", "0.05", "--out", str(out)]) == 0
    direct = fit(problem, PenaltySpec(0.05, 0.05), SolverOptions())
    written = [float(r[2]) for r in _read_lines(out / "coefficients.csv")[1:]]
    assert np.array_equal(written, direct.coefficients.beta)
    with open(out / "summary.json") as fh:
        assert json.load(fh)["sweeps"] == direct.sweeps

    out = tmp_path / "path"
    assert run(["path", *io, "--out", str(out)]) == 0
    result = fit_path(problem, PathSpec(), SolverOptions())
    metrics = _read_lines(out / "metrics.csv")[1:]
    assert [float(r[1]) for r in metrics] == [pt.lam for pt in result.points]
    assert [int(r[5]) for r in metrics] == [pt.sweeps for pt in result.points]
    values = [float(r[4]) for r in _read_lines(out / "path.csv")[1:]]
    assert np.array_equal(values, np.concatenate([pt.coefficients.beta for pt in result.points]))


# ---------------------------------------------------------------------- check

def test_check_reports_optimality(sim_dir, tmp_path, capsys):
    out = tmp_path / "fit"
    assert run([
        "fit", "--data", str(sim_dir / "data.csv"), "--groups", str(sim_dir / "groups.csv"),
        "--lambda1", "2.0", "--lambda2", "1.0", "--out", str(out),
    ]) == 0
    capsys.readouterr()
    code = run([
        "check", "--data", str(sim_dir / "data.csv"), "--groups", str(sim_dir / "groups.csv"),
        "--coefs", str(out / "coefficients.csv"), "--lambda1", "2.0", "--lambda2", "1.0",
    ])
    assert code == 0
    text = capsys.readouterr().out
    for key in ("objective: ", "kkt_worst: ", "active_groups: ", "nonzeros: "):
        assert key in text
    assert text.count("group g") == 10
    kkt_line = next(l for l in text.splitlines() if l.startswith("kkt_worst:"))
    assert float(kkt_line.split()[1]) < 1e-4


def test_check_oracle_gap(tiny_dataset, tmp_path, capsys):
    data, groups, _ = tiny_dataset
    out = tmp_path / "fit"
    assert run([
        "fit", "--data", str(data), "--groups", str(groups),
        "--lambda1", "0.05", "--lambda2", "0.05", "--out", str(out),
        "--outer-tol", "1e-10",
    ]) == 0
    capsys.readouterr()
    code = run([
        "check", "--data", str(data), "--groups", str(groups),
        "--coefs", str(out / "coefficients.csv"),
        "--lambda1", "0.05", "--lambda2", "0.05", "--oracle",
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "oracle_objective: " in text
    gap_line = next(l for l in text.splitlines() if l.startswith("oracle_gap:"))
    assert float(gap_line.split()[1]) <= 1e-7


def test_check_rejects_tampered_coefficients(tiny_dataset, tmp_path, capsys):
    data, groups, _ = tiny_dataset
    bad = tmp_path / "coefs.csv"
    bad.write_text("index,group,value\n0,gB,1.0\n1,gA,0.0\n2,gB,0.0\n3,gB,0.0\n")
    code = run([
        "check", "--data", str(data), "--groups", str(groups),
        "--coefs", str(bad), "--lambda1", "1.0", "--lambda2", "1.0",
    ])
    assert code == 1
    assert "does not match" in capsys.readouterr().err


def test_check_rejects_incomplete_coefficients(tiny_dataset, tmp_path, capsys):
    data, groups, _ = tiny_dataset
    bad = tmp_path / "coefs.csv"
    bad.write_text("index,group,value\n0,gA,1.0\n")
    code = run([
        "check", "--data", str(data), "--groups", str(groups),
        "--coefs", str(bad), "--lambda1", "1.0", "--lambda2", "1.0",
    ])
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_coefficient_file_diagnostics_name_the_physical_line(tiny_dataset, tmp_path, capsys):
    data, groups, _ = tiny_dataset
    bad = tmp_path / "coefs.csv"
    bad.write_text("index,group,value\n\n0,gA,1.0\n\n\n1,gB,oops\n2,gA,0.0\n3,gB,0.0\n")
    code = run([
        "check", "--data", str(data), "--groups", str(groups),
        "--coefs", str(bad), "--lambda1", "1.0", "--lambda2", "1.0",
    ])
    assert code == 1
    assert capsys.readouterr().err.rstrip().endswith("coefs.csv: line 6: unparseable entry")


# ------------------------------------------------------------ argument errors

def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "simulate" in capsys.readouterr().out


def test_unknown_subcommand_exits_one(capsys):
    assert run(["frobnicate"]) == 1


def test_unknown_flag_exits_one(capsys):
    assert run(["simulate", "--out", "x", "--bogus"]) == 1


def test_missing_required_flag_exits_one(capsys):
    assert run(["simulate"]) == 1


def test_missing_data_file_names_it(tmp_path, capsys):
    groups = tmp_path / "groups.csv"
    groups.write_text("column,group\nx1,gA\n")
    code = run([
        "fit", "--data", str(tmp_path / "nope.csv"), "--groups", str(groups),
        "--lambda1", "1.0", "--lambda2", "1.0",
    ])
    assert code == 1
    assert "nope.csv" in capsys.readouterr().err


def test_negative_penalty_rejected(tiny_dataset, capsys):
    data, groups, _ = tiny_dataset
    code = run([
        "fit", "--data", str(data), "--groups", str(groups),
        "--lambda1", "-1.0", "--lambda2", "0.0",
    ])
    assert code == 1
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------ installed entry

def test_console_script_help():
    proc = subprocess.run(["sgl", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "simulate" in proc.stdout


def test_console_script_target_is_run():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    pyproject = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["sgl"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is sgl.cli.run


def test_module_invocation_help():
    proc = subprocess.run(
        [sys.executable, "-m", "sgl", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "simulate" in proc.stdout
