"""In-memory span tracer that wraps the cross-module bindings of ``sgl``.

Spans are recorded from the benchmark's side only: each wrapper replaces a
module attribute (the name another module looks up at call time), records
its call, and is removed again in ``finally``. The program under test is
never edited, so a later refactor that deletes a wrapped name shows up as an
entry in ``Tracer.absent`` rather than as a crash.

Two kinds of wrapper exist:

* a *span* per call, with a parent link, start and end times, and the time
  its child spans cover (for self time);
* a *counter* for calls made hundreds of thousands of times per pass
  (the scalar search, the soft threshold): it adds its count, and for the
  scalar search its time, evaluations and convergence, to the innermost open
  span, so memory stays bounded and self time stays exact.
"""

from __future__ import annotations

import importlib
import json
import os
from contextlib import contextmanager
from time import perf_counter_ns

__all__ = ["LAYER_UNITS", "Span", "Tracer", "absent_metrics", "layer_metrics"]


class Span:
    __slots__ = ("sid", "name", "parent", "root", "start", "end", "child_ns", "counters", "attrs")

    def __init__(self, sid, name, parent, root, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.root = root
        self.start = start
        self.end = start
        self.child_ns = 0
        self.counters = {}
        self.attrs = {}

    @property
    def ns(self) -> int:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "id": self.sid, "name": self.name, "parent": self.parent, "root": self.root,
            "start_ns": self.start, "end_ns": self.end, "child_ns": self.child_ns,
            "counters": self.counters, "attrs": self.attrs,
        }

    @classmethod
    def from_json(cls, rec: dict) -> "Span":
        sp = cls(rec["id"], rec["name"], rec["parent"], rec["root"], rec["start_ns"])
        sp.end = rec["end_ns"]
        sp.child_ns = rec["child_ns"]
        sp.counters = dict(rec["counters"])
        sp.attrs = dict(rec["attrs"])
        return sp


def _file_bytes(paths) -> int:
    total = 0
    for path in paths:
        try:
            total += os.path.getsize(path)
        except (OSError, TypeError):
            pass
    return total


def _after_fit(span, result, args, kwargs):
    kkt = getattr(result, "kkt", None)
    active = getattr(kkt, "active", None)
    span.attrs["sweeps"] = int(getattr(result, "sweeps", 0))
    span.attrs["converged"] = bool(getattr(result, "converged", False))
    span.attrs["active_groups"] = int(active.sum()) if active is not None else 0


def _after_load(span, result, args, kwargs):
    paths = list(args[:2]) + [kwargs.get(k) for k in ("data_path", "groups_path") if k in kwargs]
    span.counters["model.bytes_read"] = _file_bytes(paths)


def _after_write(span, result, args, kwargs):
    written = result.values() if isinstance(result, dict) else ()
    span.counters["sim.bytes_written"] = _file_bytes(written)


def _after_oracle(span, result, args, kwargs):
    span.counters["oracle.iterations"] = int(getattr(result, "iterations", 0))


_HOOKS = {
    "solver.fit": _after_fit,
    "model.load_problem_csv": _after_load,
    "sim.write_dataset": _after_write,
    "oracle.fit_oracle": _after_oracle,
}

# (module, attribute, span name, kind); kind is "span", "timed" (aggregated
# counter with time) or "count" (aggregated counter). The benchmark calls
# fit_path, generate and build_problem through these module attributes; the
# CLI's calls go through its own bindings, which install() finds by itself.
BINDINGS = (
    ("sgl.solver", "minimize_scalar", "scalar_opt.minimize_scalar", "timed"),
    ("sgl.solver", "soft_threshold", "solver.soft_threshold", "count"),
    ("sgl.solver", "kkt_residual", "solver.kkt_residual", "span"),
    ("sgl.path", "fit", "solver.fit", "span"),
    ("sgl.path", "lambda_max", "path.lambda_max", "span"),
    ("sgl.path", "fit_path", "path.fit_path", "span"),
    ("sgl.model", "build_problem", "model.build_problem", "span"),
    ("sgl.sim", "generate", "sim.generate", "span"),
)


class Tracer:
    """Records spans while installed; ``install()`` is a context manager that
    puts every wrapper in place and restores the original bindings on exit."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.absent: list[str] = []

    # -- spans ---------------------------------------------------------
    def _open(self, name: str) -> Span:
        parent = self.stack[-1] if self.stack else None
        sid = len(self.spans)
        sp = Span(sid, name, parent.sid if parent else None,
                  parent.root if parent else sid, perf_counter_ns())
        self.spans.append(sp)
        self.stack.append(sp)
        return sp

    def _close(self, sp: Span) -> None:
        sp.end = perf_counter_ns()
        self.stack.pop()
        if self.stack:
            self.stack[-1].child_ns += sp.ns

    @contextmanager
    def span(self, name: str):
        sp = self._open(name)
        try:
            yield sp
        finally:
            self._close(sp)

    def adopt(self, spans, parent: Span, attrs: dict | None = None) -> None:
        """Graft spans recorded by another process under ``parent``, keeping
        their parent links; ``attrs`` is merged into the grafted roots."""
        base = len(self.spans)
        for rec in spans:
            sp = Span.from_json(rec)
            sp.sid += base
            if sp.parent is None:
                sp.parent = parent.sid
                parent.child_ns += sp.ns
                sp.attrs.update(attrs or {})
            else:
                sp.parent += base
            sp.root = parent.root
            self.spans.append(sp)

    # -- wrappers ------------------------------------------------------
    def _span_wrapper(self, fn, name, hook):
        def wrapper(*args, **kwargs):
            sp = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sp)
            if hook is not None:
                hook(sp, result, args, kwargs)
            return result
        return wrapper

    def _timed_wrapper(self, fn, name):
        stack = self.stack

        def wrapper(*args, **kwargs):
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            dt = perf_counter_ns() - t0
            owner = stack[-1]
            owner.child_ns += dt
            c = owner.counters
            c[name + ".calls"] = c.get(name + ".calls", 0) + 1
            c[name + ".ns"] = c.get(name + ".ns", 0) + dt
            c[name + ".evals"] = c.get(name + ".evals", 0) + int(getattr(result, "evals", 0))
            if not getattr(result, "converged", True):
                c[name + ".unconverged"] = c.get(name + ".unconverged", 0) + 1
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        stack = self.stack

        def wrapper(*args, **kwargs):
            c = stack[-1].counters
            c[name + ".calls"] = c.get(name + ".calls", 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    def _wrap(self, fn, name, kind):
        if kind == "timed":
            return self._timed_wrapper(fn, name)
        if kind == "count":
            return self._count_wrapper(fn, name)
        return self._span_wrapper(fn, name, _HOOKS.get(name))

    def _targets(self) -> list:
        """Every (module object, attribute, span name, kind) to wrap: the
        fixed list, plus each function ``sgl.cli`` imports from another
        ``sgl`` module. All modules are imported before any wrapper goes in,
        so no module binds a wrapper at its own import time."""
        found = []
        for modname, attr, name, kind in BINDINGS:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                module = None
            if module is None or getattr(module, attr, None) is None:
                self.absent.append(f"{modname}.{attr}")
            else:
                found.append((module, attr, name, kind))
        try:
            cli = importlib.import_module("sgl.cli")
        except ImportError:
            self.absent.append("sgl.cli")
            return found
        for attr, value in sorted(vars(cli).items()):
            home = getattr(value, "__module__", None) or ""
            if callable(value) and not isinstance(value, type) \
                    and home.startswith("sgl.") and home != "sgl.cli":
                found.append((cli, attr, f"{home[len('sgl.'):]}.{attr}", "span"))
        return found

    @contextmanager
    def install(self):
        """Wrap every binding; the caller keeps a span open while installed,
        because the counting wrappers charge the innermost open span."""
        self.absent = []
        saved = []
        try:
            for module, attr, name, kind in self._targets():
                fn = getattr(module, attr)
                saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, name, kind))
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as fh:
            for sp in self.spans:
                fh.write(json.dumps(sp.to_json()) + "\n")


# -- per-layer metrics --------------------------------------------------

LAYER_UNITS = {
    "scalar_opt.calls": "count",
    "scalar_opt.evals": "count",
    "scalar_opt.evals_per_call": "count",
    "scalar_opt.ms": "ms",
    "scalar_opt.unconverged": "count",
    "solver.fit_calls": "count",
    "solver.fit_ms_p50": "ms",
    "solver.fit_ms_p90": "ms",
    "solver.fit_self_ms": "ms",
    "solver.sweeps": "count",
    "solver.sweeps_per_fit": "count",
    "solver.nonconverged": "count",
    "solver.soft_threshold_calls": "count",
    "solver.useful_visit_ratio": "ratio",
    "solver.kkt_calls": "count",
    "solver.kkt_ms": "ms",
    "solver.kkt_gate_retries": "count",
    "path.levels": "count",
    "path.lambda_max_ms": "ms",
    "path.fit_path_self_ms": "ms",
    "model.build_problem_ms": "ms",
    "sim.generate_ms": "ms",
    "model.load_problem_csv_ms": "ms",
    "model.bytes_read": "bytes",
    "sim.write_dataset_ms": "ms",
    "sim.bytes_written": "bytes",
    "oracle.fit_oracle_ms": "ms",
    "oracle.iterations": "count",
    "cli.startup_s": "s",
    "cli.simulate_s": "s",
    "cli.path_s": "s",
    "cli.fit_s": "s",
    "cli.check_s": "s",
    "bench.trace_overhead_frac": "ratio",
}

# the layer a metric needs; when every one of its bindings is absent the
# metric reads 0 and the run record marks it absent
METRIC_SOURCES = {
    "scalar_opt.": ("sgl.solver.minimize_scalar",),
    "solver.soft_threshold_calls": ("sgl.solver.soft_threshold",),
    "solver.useful_visit_ratio": ("sgl.solver.soft_threshold",),
    "solver.kkt_": ("sgl.solver.kkt_residual",),
    "path.lambda_max_ms": ("sgl.path.lambda_max",),
}


def absent_metrics(absent) -> list[str]:
    gone = set(absent)
    out = []
    for metric in LAYER_UNITS:
        for prefix, needs in METRIC_SOURCES.items():
            if metric.startswith(prefix) and all(n in gone for n in needs):
                out.append(metric)
    return out


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


def layer_metrics(spans, passes: int = 1) -> dict[str, float]:
    """Derive every per-layer metric except the overhead ratio from ``spans``.

    Counts and times are totals divided by ``passes``, so they read per
    pass and stay additive; ratios and percentiles pool all the spans.
    """
    by_id = {sp.sid: sp for sp in spans}
    ms = 1e-6

    def total(name):
        return sum(sp.ns for sp in spans if sp.name == name)

    def counter(key):
        return sum(sp.counters.get(key, 0) for sp in spans)

    fits = [sp for sp in spans if sp.name == "solver.fit"]
    kkt_in_fit: dict[int, int] = {}
    kkt_ns = 0
    for sp in spans:
        if sp.name == "solver.kkt_residual" and sp.parent in by_id \
                and by_id[sp.parent].name == "solver.fit":
            kkt_in_fit[sp.parent] = kkt_in_fit.get(sp.parent, 0) + 1
            kkt_ns += sp.ns
    sweeps = sum(sp.attrs.get("sweeps", 0) for sp in fits)
    # fit asks for one report after its loop whatever happened, and a
    # converged fit ended on one gate check; every other check was a retry
    retries = sum(
        max(0, kkt_in_fit.get(sp.sid, 0) - 1 - int(sp.attrs.get("converged", False)))
        for sp in fits
    )
    visits = sum(sp.attrs.get("sweeps", 0) * sp.attrs.get("active_groups", 0) for sp in fits)
    st_calls = counter("solver.soft_threshold.calls")
    so_calls = counter("scalar_opt.minimize_scalar.calls")
    so_evals = counter("scalar_opt.minimize_scalar.evals")
    paths = [sp for sp in spans if sp.name == "path.fit_path"]
    path_ids = {sp.sid for sp in paths}
    cli_roots = [sp for sp in spans if sp.name == "cli.run"]

    def cli_s(cmd):
        return sum(sp.ns for sp in cli_roots if sp.attrs.get("cmd") == cmd) * 1e-9

    startup = [sp.attrs["wall_s"] - sp.ns * 1e-9 for sp in cli_roots if "wall_s" in sp.attrs]
    fit_ms = [sp.ns * ms for sp in fits]

    totals = {
        "scalar_opt.calls": so_calls,
        "scalar_opt.evals": so_evals,
        "scalar_opt.ms": counter("scalar_opt.minimize_scalar.ns") * ms,
        "scalar_opt.unconverged": counter("scalar_opt.minimize_scalar.unconverged"),
        "solver.fit_calls": len(fits),
        "solver.fit_self_ms": sum(sp.ns - sp.child_ns for sp in fits) * ms,
        "solver.sweeps": sweeps,
        "solver.nonconverged": sum(1 for sp in fits if not sp.attrs.get("converged", False)),
        "solver.soft_threshold_calls": st_calls,
        "solver.kkt_calls": sum(kkt_in_fit.values()),
        "solver.kkt_ms": kkt_ns * ms,
        "solver.kkt_gate_retries": retries,
        "path.levels": sum(1 for sp in fits if sp.parent in path_ids),
        "path.lambda_max_ms": total("path.lambda_max") * ms,
        "path.fit_path_self_ms": sum(sp.ns - sp.child_ns for sp in paths) * ms,
        "model.build_problem_ms": total("model.build_problem") * ms,
        "sim.generate_ms": total("sim.generate") * ms,
        "model.load_problem_csv_ms": total("model.load_problem_csv") * ms,
        "model.bytes_read": counter("model.bytes_read"),
        "sim.write_dataset_ms": total("sim.write_dataset") * ms,
        "sim.bytes_written": counter("sim.bytes_written"),
        "oracle.fit_oracle_ms": total("oracle.fit_oracle") * ms,
        "oracle.iterations": counter("oracle.iterations"),
        "cli.simulate_s": cli_s("simulate"),
        "cli.path_s": cli_s("path"),
        "cli.fit_s": cli_s("fit"),
        "cli.check_s": cli_s("check"),
    }
    out = {k: v / passes for k, v in totals.items()}
    out.update({
        "scalar_opt.evals_per_call": so_evals / so_calls if so_calls else 0.0,
        "solver.fit_ms_p50": _percentile(fit_ms, 50),
        "solver.fit_ms_p90": _percentile(fit_ms, 90),
        "solver.sweeps_per_fit": sweeps / len(fits) if fits else 0.0,
        "solver.useful_visit_ratio": visits / st_calls if st_calls else 0.0,
        "cli.startup_s": sum(startup) / len(startup) if startup else 0.0,
    })
    return {k: out[k] for k in LAYER_UNITS if k in out}
