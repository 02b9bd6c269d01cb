"""Benchmark for the sgl library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the library is imported from its
``src`` directory, nothing is installed. Workloads (see ``worker.py``):

* ``paper_path``   warm-started paths on the paper's benchmark draws; the
                   coordinate solves (``scalar_opt``) do most of the work.
* ``wide_path``    p = 1000, 200 groups, sparse end of the path; screens,
                   per-group sweep overhead and KKT checks do most of it.
* ``cli_pipeline`` ``python -m sgl`` simulate, path, fit and check --oracle
                   as fresh processes: start-up, CSV I/O and the oracle.

Every workload runs in a fresh process with single-threaded BLAS. Each pass
is timed and every op in it certified (converged, KKT within the solver's
gate, the lambda_max level all-zero, exit status 0, outputs bit-identical to
the previous pass); sampled levels are checked against the reference solver
outside the timed region. With ``--trace 0`` the metrics are the end-to-end
ones: ``setup_s`` (median of 3 to 9 fresh set-ups), ``run_s`` (a pass fits
one draw: the interquartile mean over draws of the median pass) and
``peak_rss_mb``. With ``--trace 1`` untraced and traced passes alternate and
the metrics are the per-layer ones, taken from spans recorded by wrappers at
the library's module bindings. ``fail_frac`` is ``failed / attempted``.

The last stdout line is one JSON object with keys ``correct``, ``attempted``,
``failed`` and ``metrics``. The full record (environment, every pass time,
failures, spans) is written under ``.perfbench_out/`` in the checkout;
scratch files go to ``.perfbench_tmp/`` and are removed on exit. The exit
status is non-zero, with no result line, when the checkout holds no
``src/sgl`` or a worker fails.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("paper_path", "wide_path", "cli_pipeline")
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0
DEADLINE_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "run_s": "s", "peak_rss_mb": "MB"}


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _worker(args, deadline: float) -> dict:
    """Run one worker process and return the JSON object on its last line.

    The worker leads its own process group, so that on time-out the CLI
    processes it started are stopped along with it."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("out of time before starting a worker")
    proc = subprocess.Popen([sys.executable, WORKER, *map(str, args)], env=_env(), cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise TimeoutError(f"worker {args[0]} ran past the deadline") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited {proc.returncode}:\n{err[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--size", default="full", choices=("full", "small"),
                        help="small inputs, for the benchmark's own test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sgl", "__init__.py")):
        print(f"error: no src/sgl package under {ROOT}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    out_dir = os.path.join(ROOT, ".perfbench_out")
    tmp_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        common = (args.workload, args.seed)
        # fresh set-ups until at least SETUP_MIN of them and SETUP_BUDGET_S
        # of wall time, so that cheap set-ups get more samples
        setups, began = [], time.monotonic()
        while len(setups) < SETUP_MIN or (time.monotonic() - began < SETUP_BUDGET_S
                                          and len(setups) < SETUP_MAX):
            setups.append(_worker(("setup", *common, args.size, tmp), deadline)["setup_s"])
        record = _worker(("run", *common, args.seconds, args.trace, args.size, tmp, out_dir),
                         deadline)
    except (RuntimeError, TimeoutError, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass

    attempted, failed = record["attempted"], record["failed"]
    if args.trace:
        from spans import LAYER_UNITS

        metrics = {k: {"value": record["layers"][k], "unit": u} for k, u in LAYER_UNITS.items()}
    else:
        values = {"setup_s": statistics.median(setups), "run_s": record["run_s"],
                  "peak_rss_mb": record["peak_rss_mb"]}
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    env = record["env"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace} size {args.size}")
    print("env " + json.dumps(env, sort_keys=True))
    counts = {k: sum(map(len, v.values())) for k, v in record["pass_s"].items()}
    print(f"passes untraced {counts['untraced']} traced {counts['traced']}")
    for name, m in metrics.items():
        print(f"{name:30s} {m['value']:.6g} {m['unit']}")
    print(f"{'fail_frac':30s} {failed / attempted if attempted else 1.0:.6g} ratio "
          f"({failed} of {attempted} ops)")
    if args.trace:
        layers = record["layers"]
        split = layers["scalar_opt.ms"] + layers["solver.kkt_ms"] + layers["solver.fit_self_ms"]
        print(f"fit split: scalar_opt.ms + solver.kkt_ms + solver.fit_self_ms = {split:.6g} ms "
              f"of {record['fit_ms_per_pass']:.6g} ms in solver.fit per pass")
    for line in record["failures"][:10]:
        print(f"FAILED {line}")
    for name in record.get("absent_metrics", ()):
        print(f"absent {name}")
    print(json.dumps({"correct": failed == 0 and attempted > 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
