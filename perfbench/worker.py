"""One benchmark process: builds a workload's inputs from the seed, times its
passes and certifies every operation.

``run.py`` starts this file in a fresh interpreter with single-threaded BLAS
and ``src`` on the import path. Modes:

    worker.py setup WORKLOAD SEED SIZE
        build the inputs once; print {"setup_s": ...}
    worker.py run WORKLOAD SEED SECONDS TRACE SIZE TMPDIR OUTDIR
        set up, measure passes for SECONDS, verify; the last stdout line is
        a JSON object with the measured values
    worker.py cli SPANS_FILE SGL_ARGS...
        run one ``sgl`` command through ``sgl.cli.run`` with the tracer
        installed and write its spans to SPANS_FILE; exits with its status
"""

import csv
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# numpy's own import is the runtime's start-up, shared by every version of
# the library; set-up time starts after it, with the import of sgl
import numpy as np

from spans import Tracer, absent_metrics, layer_metrics

_T0 = time.perf_counter()

# an objective may exceed the reference solver's by this share (A2's bound)
ORACLE_REL_GAP = 1e-8
CLI_TIMEOUT_S = 120.0


def _gate(X, y, outer_tol: float) -> float:
    """The solver's own convergence gate on the worst KKT violation."""
    return 5.0 * outer_tol * max(1.0, float(np.abs(X.T @ y).max()))


# -- workload definitions -------------------------------------------------

# A workload's inputs are several independent draws made from the seed; a
# pass fits one draw. The cost of a pass varies by 15-20 % from draw to draw,
# and now and then a level needs a thousand sweeps instead of five, so
# run_s is the interquartile mean over the draws of each draw's median pass
# time: robust to those tails, and steadier than the median of few draws.
PATH_WORKLOADS = {
    # the paper's benchmark draw (SimConfig() defaults) at the A6 test's
    # solver settings, down to 0.01 * lambda_max; coordinate solves dominate
    "paper_path": {
        "full": dict(draws=13, sim={}, levels=6, ratio_min=0.01,
                     opts=dict(outer_tol=1e-5, inner_tol=1e-8)),
        "small": dict(draws=2, sim=dict(n=60, blocks=(4,) * 4, nonzero_counts=(4, 2)),
                      levels=4, ratio_min=0.1, opts=dict(outer_tol=1e-5, inner_tol=1e-8)),
    },
    # p = 1000 in the sparse regime: at most ~10 of 200 groups ever active,
    # so zero screens, per-group sweep overhead and KKT checks dominate. At
    # the default outer_tol=1e-7 about one draw in twelve has a level that
    # needs thousands of sweeps (a minute per pass), so this uses A6's 1e-5
    "wide_path": {
        "full": dict(draws=24, sim=dict(n=500, blocks=(5,) * 200,
                                        nonzero_counts=(5, 4, 3, 2, 1)),
                     levels=8, ratio_min=0.4, opts=dict(outer_tol=1e-5)),
        "small": dict(draws=2, sim=dict(n=80, blocks=(5,) * 20,
                                        nonzero_counts=(5, 4, 3, 2, 1)),
                      levels=4, ratio_min=0.5, opts=dict(outer_tol=1e-5)),
    },
}

# path runs at A6's outer_tol=1e-5: at the default 1e-7 about one draw in
# thirty has a level that does not converge in 10000 sweeps; fit keeps the
# default tolerance, as in A8
CLI_PATH_TOL, CLI_FIT_TOL = 1e-5, 1e-7
CLI_SIZES = {
    "full": dict(draws=6, n=2000, npoints=20, ratio_min=0.2, lam=40.0),
    "small": dict(draws=2, n=100, npoints=4, ratio_min=0.5, lam=20.0),
}


@dataclass
class PassCheck:
    attempted: int = 0
    failures: list = field(default_factory=list)
    digest: str = ""


def _draw_seed(seed: int, j: int) -> int:
    return seed * 100 + j


class PathWorkload:
    """Warm-started ``fit_path`` over a log grid; one draw per pass."""

    def __init__(self, name: str, seed: int, size: str):
        self.cfg = PATH_WORKLOADS[name][size]
        self.seed = seed
        self.draws = self.cfg["draws"]

    def setup(self):
        import sgl.model
        import sgl.sim
        from sgl.path import PathSpec
        from sgl.solver import SolverOptions

        self.spec = PathSpec(n_points=self.cfg["levels"], ratio_min=self.cfg["ratio_min"],
                             mixing=0.5)
        self.opts = SolverOptions(**self.cfg["opts"])
        self.problems = []
        for j in range(self.draws):
            config = sgl.sim.SimConfig(seed=_draw_seed(self.seed, j), **self.cfg["sim"])
            data = sgl.sim.generate(config)
            self.problems.append(sgl.model.build_problem(data.y, data.X, config.blocks))

    def prepare_checks(self):
        self.gates = [_gate(p.X, p.y, self.opts.outer_tol) for p in self.problems]

    def run_pass(self, j: int, tracer=None):
        import sgl.path

        return sgl.path.fit_path(self.problems[j], self.spec, self.opts)

    def check_pass(self, j: int, result) -> PassCheck:
        levels, gate = self.spec.n_points, self.gates[j]
        check = PassCheck(attempted=levels)
        for i in range(len(result.points), levels):
            check.failures.append(f"draw {j} level {i}: missing")
        h = hashlib.sha256()
        for i, pt in enumerate(result.points):
            h.update(pt.coefficients.beta.tobytes())
            if not pt.converged:
                check.failures.append(f"draw {j} level {i}: not converged")
            elif pt.kkt_worst > gate:
                check.failures.append(
                    f"draw {j} level {i}: KKT {pt.kkt_worst:.3e} above gate {gate:.3e}")
            elif i == 0 and pt.n_nonzero != 0:
                check.failures.append(f"draw {j}: first level (lambda_max) not all-zero")
        check.digest = h.hexdigest()
        return check

    def oracle_samples(self):
        """(draw, level) pairs checked against the reference solver: three
        levels on every draw, or one level on each of three draws when the
        draws are large enough to make the reference solver slow."""
        n, last = self.draws, self.spec.n_points - 1
        picks = (1, last // 2, last)
        if self.problems[0].p <= 200:
            return [(j, i) for j in range(n) for i in picks]
        return [(j, picks[k % 3]) for k, j in enumerate(sorted({0, n // 2, n - 1}))]

    def verify(self, results) -> list:
        from sgl.model import objective
        from sgl.oracle import fit_oracle

        failures = []
        for j, i in self.oracle_samples():
            if j not in results or i >= len(results[j].points):
                continue
            pt = results[j].points[i]
            ref = fit_oracle(self.problems[j], pt.penalty)
            mine = objective(self.problems[j], pt.coefficients, pt.penalty)
            rel = (mine - ref.objective) / max(1.0, abs(ref.objective))
            if not ref.converged:
                failures.append(f"draw {j} level {i}: reference solver did not converge")
            elif rel > ORACLE_REL_GAP:
                failures.append(f"draw {j} level {i}: objective {rel:.3e} above the reference")
        return failures


class CliWorkload:
    """``sgl simulate | path | fit | check --oracle``, each a fresh process;
    one draw (one simulated dataset) per pass."""

    def __init__(self, seed: int, size: str, tmp: str):
        self.cfg = CLI_SIZES[size]
        self.seed = seed
        self.tmp = tmp
        self.draws = self.cfg["draws"]

    def _files(self, j: int) -> dict:
        d = os.path.join(self.tmp, f"d{j}")
        sim = os.path.join(d, "sim")
        return dict(dir=d, sim=sim, data=os.path.join(sim, "data.csv"),
                    groups=os.path.join(sim, "groups.csv"), truth=os.path.join(sim, "truth.csv"),
                    path_out=os.path.join(d, "path"), fit_out=os.path.join(d, "fit"),
                    coefs=os.path.join(d, "fit", "coefficients.csv"),
                    metrics=os.path.join(d, "path", "metrics.csv"),
                    path=os.path.join(d, "path", "path.csv"))

    def setup(self):
        import sgl.cli  # noqa: F401  (the harness's share of the imports)

        lam = repr(self.cfg["lam"])
        self.commands = []
        for j in range(self.draws):
            f = self._files(j)
            os.makedirs(f["dir"], exist_ok=True)
            io = ["--data", f["data"], "--groups", f["groups"]]
            self.commands.append([
                ["simulate", "--seed", str(_draw_seed(self.seed, j)), "--n", str(self.cfg["n"]),
                 "--out", f["sim"]],
                ["path", *io, "--npoints", str(self.cfg["npoints"]),
                 "--ratio-min", repr(self.cfg["ratio_min"]), "--truth", f["truth"],
                 "--outer-tol", repr(CLI_PATH_TOL), "--out", f["path_out"]],
                ["fit", *io, "--lambda1", lam, "--lambda2", lam, "--out", f["fit_out"]],
                ["check", *io, "--coefs", f["coefs"], "--lambda1", lam, "--lambda2", lam,
                 "--oracle"],
            ])

    def prepare_checks(self):
        pass

    def run_pass(self, j: int, tracer=None):
        """Run draw ``j``'s commands; with a tracer, each runs under the
        tracing shim and its spans are grafted under the open span."""
        outputs = {}
        for argv in self.commands[j]:
            cmd = argv[0]
            if tracer is None:
                full = [sys.executable, "-m", "sgl", *argv]
            else:
                spans_file = os.path.join(self.tmp, f"spans-{cmd}.json")
                full = [sys.executable, os.path.abspath(__file__), "cli", spans_file, *argv]
            t = time.perf_counter()
            proc = subprocess.run(full, cwd=self.tmp, capture_output=True, text=True,
                                  timeout=CLI_TIMEOUT_S)
            wall = time.perf_counter() - t
            outputs[cmd] = (proc.returncode, proc.stdout, proc.stderr)
            if tracer is not None and os.path.exists(spans_file):
                with open(spans_file) as fh:
                    tracer.adopt(json.load(fh), tracer.stack[-1], {"wall_s": wall})
                os.remove(spans_file)
        return outputs

    def check_pass(self, j: int, outputs) -> PassCheck:
        check = PassCheck(attempted=len(self.commands[j]))
        for argv in self.commands[j]:
            code, _, err = outputs[argv[0]]
            if code != 0:
                check.failures.append(f"draw {j} {argv[0]}: exit {code}: {err.strip()[-200:]}")
        if check.failures:
            return check
        f = self._files(j)
        rows = _csv_rows(f["metrics"])
        if len(rows) != self.cfg["npoints"] or any(r["converged"] != "true" for r in rows):
            check.failures.append(f"draw {j} path: a level is missing or did not converge")
        elif int(rows[0]["nonzeros"]) != 0:
            check.failures.append(f"draw {j} path: first level (lambda_max) not all-zero")
        h = hashlib.sha256()
        for key in ("data", "path", "coefs"):
            with open(f[key], "rb") as fh:
                h.update(fh.read())
        check.digest = h.hexdigest()
        return check

    def verify(self, results) -> list:
        """Outside the timed region: gate, for every draw, the KKT reports and
        the oracle gap printed by ``check --oracle``; on the first and last
        draw, re-read coefficients.csv bit-exact against an in-process fit
        (as in A8)."""
        from sgl.model import PenaltySpec, load_problem_csv
        from sgl.solver import SolverOptions, fit

        failures = []
        lam = self.cfg["lam"]
        for j, outputs in sorted(results.items()):
            if any(code != 0 for code, _, _ in outputs.values()):
                continue
            f = self._files(j)
            problem = load_problem_csv(f["data"], f["groups"]).problem
            if j in (0, self.draws - 1):
                direct = fit(problem, PenaltySpec(lam, lam),
                             SolverOptions(outer_tol=CLI_FIT_TOL, max_sweeps=10000))
                written = np.array([float(r["value"]) for r in _csv_rows(f["coefs"])])
                if not np.array_equal(written, direct.coefficients.beta):
                    failures.append(f"draw {j} fit: coefficients.csv does not re-read bit-exact")
            path_gate = _gate(problem.X, problem.y, CLI_PATH_TOL)
            worst = max(float(r["kkt_worst"]) for r in _csv_rows(f["metrics"]))
            if worst > path_gate:
                failures.append(f"draw {j} path: KKT {worst:.3e} above gate {path_gate:.3e}")
            gate = _gate(problem.X, problem.y, CLI_FIT_TOL)
            report = dict(line.split(": ", 1) for line in outputs["check"][1].splitlines()
                          if ": " in line and not line.startswith("group "))
            if float(report["kkt_worst"]) > gate:
                failures.append(f"draw {j} check: KKT {report['kkt_worst']} above gate")
            ref = float(report["oracle_objective"])
            rel = (float(report["objective"]) - ref) / max(1.0, abs(ref))
            if rel > ORACLE_REL_GAP:
                failures.append(f"draw {j} check: objective {rel:.3e} above the reference")
        return failures


def _csv_rows(path: str) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def make_workload(name: str, seed: int, size: str, tmp: str):
    if name in PATH_WORKLOADS:
        return PathWorkload(name, seed, size)
    if name == "cli_pipeline":
        return CliWorkload(seed, size, tmp)
    raise ValueError(f"unknown workload {name!r}")


# -- environment record -----------------------------------------------------

def _git_commit(root: str):
    head = os.path.join(root, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(root, ".git", ref)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(root, ".git", "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment(root: str) -> dict:
    import sgl

    blas = None
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):  # layout differs across numpy versions
        pass
    src = os.path.join(root, "src", "sgl")
    lines = 0
    for fname in sorted(os.listdir(src)):
        if fname.endswith(".py"):
            with open(os.path.join(src, fname)) as fh:
                lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": _git_commit(root),
        "src_sgl_lines": lines,
        "sgl_all_len": len(getattr(sgl, "__all__", ())),
    }


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# -- modes --------------------------------------------------------------------

def mode_setup(name: str, seed: int, size: str, tmp: str) -> None:
    make_workload(name, seed, size, tmp).setup()
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


def interquartile_mean(values) -> float:
    """Mean of the middle half: a quarter of the values (rounded down) is
    dropped from each end."""
    ordered = sorted(values)
    k = len(ordered) // 4
    middle = ordered[k:len(ordered) - k]
    return sum(middle) / len(middle)


def _schedule(draws: int, trace: bool):
    """Passes in cycles over the draws; a traced run follows each untraced
    pass with a traced pass on the same draw, which gives the overhead."""
    while True:
        for j in range(draws):
            yield j, False
            if trace:
                yield j, True


def _timed_pass(wl, j, tracer=None):
    t = time.perf_counter()
    result = wl.run_pass(j, tracer)
    return result, time.perf_counter() - t


def mode_run(name, seed, seconds, trace, size, tmp, out) -> None:
    tracer = Tracer() if trace else None
    wl = make_workload(name, seed, size, tmp)
    if tracer is not None:
        with tracer.span("bench.setup") as setup_root, tracer.install():
            wl.setup()
    else:
        wl.setup()
    setup_s = time.perf_counter() - _T0
    wl.prepare_checks()

    # every draw once, then one more pass so that some draw is repeated
    minimum = 2 * wl.draws if trace else wl.draws + 1
    times = {False: {}, True: {}}
    traced_roots, digests, last = [], {}, {}
    attempted = failed = 0
    failures = []
    start = time.perf_counter()
    for n, (j, traced) in enumerate(_schedule(wl.draws, tracer is not None)):
        if n >= minimum:
            seen = times[traced].get(j) or [
                v for per_draw in times.values() for vs in per_draw.values() for v in vs]
            if time.perf_counter() - start + max(seen) > seconds:
                break
        if traced:
            with tracer.span("bench.pass") as root, tracer.install():
                root.attrs["draw"] = j
                result, elapsed = _timed_pass(wl, j, tracer)
            traced_roots.append(root.sid)
        else:
            result, elapsed = _timed_pass(wl, j)
        times[traced].setdefault(j, []).append(elapsed)
        last[j] = result
        check = wl.check_pass(j, result)
        attempted += check.attempted
        failed += len(check.failures)
        if j in digests and check.digest and check.digest != digests[j]:
            # every op of a pass whose outputs changed counts as failed
            failed += check.attempted - len(check.failures)
            check.failures.append(f"draw {j}: outputs differ from its previous pass")
        failures.extend(check.failures)
        digests[j] = check.digest or digests.get(j)
    peak = _peak_rss_mb()
    late = wl.verify(last)
    failures.extend(late)
    failed = min(attempted, failed + len(late))

    def run_s(per_draw):
        return interquartile_mean([statistics.median(v) for v in per_draw.values()])

    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace, "size": size,
        "env": environment(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))),
        "pass_s": {"untraced": times[False], "traced": times[True]},
        "attempted": attempted, "failed": failed, "failures": failures[:50],
        "setup_s": setup_s, "run_s": run_s(times[False]), "peak_rss_mb": peak,
    }
    if tracer is not None:
        roots = set(traced_roots)
        layers = layer_metrics([sp for sp in tracer.spans if sp.root in roots],
                               passes=len(traced_roots))
        # set-up builds every draw once: charge each pass its share
        setup = layer_metrics([sp for sp in tracer.spans if sp.root == setup_root.sid],
                              passes=wl.draws)
        for key in ("sim.generate_ms", "model.build_problem_ms"):
            layers[key] += setup[key]
        layers["bench.trace_overhead_frac"] = run_s(times[True]) / record["run_s"] - 1.0
        fit_ns = sum(sp.ns for sp in tracer.spans if sp.root in roots and sp.name == "solver.fit")
        record["fit_ms_per_pass"] = fit_ns * 1e-6 / len(traced_roots)
        record["layers"] = layers
        record["absent"] = tracer.absent
        record["absent_metrics"] = absent_metrics(tracer.absent)
        tracer.write_jsonl(os.path.join(out, f"{name}-seed{seed}.spans.jsonl"))
    with open(os.path.join(out, f"{name}-seed{seed}-trace{int(trace)}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))


def mode_cli(spans_file: str, argv) -> int:
    import sgl.cli

    tracer = Tracer()
    with tracer.span("cli.run") as root, tracer.install():
        root.attrs["cmd"] = argv[0] if argv else ""
        code = sgl.cli.run(argv)
    with open(spans_file, "w") as fh:
        json.dump([sp.to_json() for sp in tracer.spans], fh)
    return code


def main(argv) -> int:
    mode = argv[0]
    if mode == "setup":
        mode_setup(argv[1], int(argv[2]), argv[3], argv[4])
        return 0
    if mode == "run":
        name, seed, seconds, trace, size, tmp, out = argv[1:8]
        mode_run(name, int(seed), float(seconds), trace == "1", size, tmp, out)
        return 0
    if mode == "cli":
        return mode_cli(argv[1], argv[2:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
