"""The benchmark's own test: every workload once at reduced size, plus the
tracer's bookkeeping on a small in-process path.

    python3 -m pytest -q perfbench
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from spans import LAYER_UNITS, Tracer, layer_metrics  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.5", "--trace", str(trace), "--size", "small"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_matches_the_program():
    assert [w["name"] for w in SPEC["workloads"]] == ["paper_path", "wide_path", "cli_pipeline"]
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == LAYER_UNITS
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_metric(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    absent = {line.split()[1] for line in lines if line.startswith("absent ")}
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, m["name"]
        elif m["name"] in absent:
            assert got["value"] == 0
    assert any(line.startswith("fail_frac") for line in lines)
    if trace and workload == "cli_pipeline":
        for name in ("cli.startup_s", "cli.simulate_s", "cli.path_s", "cli.fit_s",
                     "cli.check_s", "oracle.iterations", "model.bytes_read", "sim.bytes_written"):
            assert result["metrics"][name]["value"] > 0, name


def test_fails_without_the_library(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("paper_path", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _small_problem():
    from sgl.model import build_problem
    from sgl.sim import SimConfig, generate

    data = generate(SimConfig(n=60, blocks=(4,) * 4, nonzero_counts=(4, 2), seed=3))
    return build_problem(data.y, data.X, data.config.blocks)


def test_fit_time_splits_into_children_and_self():
    import sgl.path
    import sgl.solver

    problem = _small_problem()
    before = (sgl.solver.kkt_residual, sgl.path.fit)
    tracer = Tracer()
    with tracer.span("bench.pass"), tracer.install():
        sgl.path.fit_path(problem, sgl.path.PathSpec(6, 0.05, 0.5))
    assert (sgl.solver.kkt_residual, sgl.path.fit) == before
    m = layer_metrics(tracer.spans)
    fit_ms = sum(sp.ns for sp in tracer.spans if sp.name == "solver.fit") * 1e-6
    assert m["solver.fit_calls"] == m["path.levels"] == 6
    assert m["scalar_opt.calls"] > 0 and m["solver.kkt_calls"] >= 6
    split = m["scalar_opt.ms"] + m["solver.kkt_ms"] + m["solver.fit_self_ms"]
    assert split == pytest.approx(fit_ms)
    assert set(m) | {"bench.trace_overhead_frac"} == set(LAYER_UNITS)


def test_missing_binding_is_recorded_absent():
    import sgl.solver

    original = sgl.solver.minimize_scalar
    del sgl.solver.minimize_scalar
    try:
        tracer = Tracer()
        with tracer.span("bench.pass"), tracer.install():
            pass
        assert "sgl.solver.minimize_scalar" in tracer.absent
        assert not hasattr(sgl.solver, "minimize_scalar")
    finally:
        sgl.solver.minimize_scalar = original
