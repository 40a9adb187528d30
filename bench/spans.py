"""Outside-in tracing for the traced benchmark run.

The recorder patches each layer's public functions where other modules
import them (``cct.integrate``, ``cct.classify_post_fault``,
``boundary.classify_grid_point``, ``cli.compute_cct``, ...), so a span
is recorded at every call that crosses a layer boundary.  The program
itself is not modified.  A span is [id, name, start, end, parent, op id,
info]; ids are (pid, n) pairs so spans from forked sweep workers merge
with the main process's.  Counts come from the returned objects
(``len(traj.times) - 1``, ``result.iterations``) and from wrappers around
the vector-field and constraint callables of every system the benchmark
or the CLI builds.

Spans stay in memory; pool workers write theirs to one file per chunk
when the chunk ends, and the main process reads those files back.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

clock = time.perf_counter

# (module attribute, wrapped function's layer.name).  Each entry is an
# import site: the name under which one module calls another layer.
PATCHES = [
    ("cct", "compute_cct", "cct.compute_cct"),
    ("cct", "classify_post_fault", "cct.classify_post_fault"),
    ("cct", "integrate", "integrator.integrate"),
    ("cct", "state_at", "integrator.state_at"),
    ("cct", "find_equilibrium", "model.find_equilibrium"),
    ("sensitivity", "cct_sensitivity", "sensitivity.cct_sensitivity"),
    ("sensitivity", "integrate_with_sensitivities", "integrator.integrate_with_sensitivities"),
    ("sensitivity", "sep_sensitivity", "model.sep_sensitivity"),
    ("boundary", "sample_stability_region", "boundary.sample_stability_region"),
    ("boundary", "classify_grid_point", "boundary.classify_grid_point"),
    ("boundary", "integrate", "integrator.integrate"),
    ("boundary", "find_equilibrium", "model.find_equilibrium"),
    ("validate", "scan_cct", "validate.scan_cct"),
    ("validate", "classify_post_fault", "cct.classify_post_fault"),
    ("validate", "integrate", "integrator.integrate"),
    ("validate", "state_at", "integrator.state_at"),
    ("validate", "find_equilibrium", "model.find_equilibrium"),
    ("cli", "main", "cli.main"),
    ("cli", "compute_cct", "cct.compute_cct"),
    ("cli", "cct_sensitivity", "sensitivity.cct_sensitivity"),
]

# Every per-layer metric of a traced run and its unit.  Counts and
# seconds are per pass over the workload's input set.
PER_LAYER = {
    "model.rhs_evals": "count",
    "model.constraint_evals": "count",
    "model.equilibrium_calls": "count",
    "model.equilibrium_s": "s",
    "model.self_s": "s",
    "integrator.calls": "count",
    "integrator.steps": "count",
    "integrator.self_s": "s",
    "integrator.us_per_step": "us",
    "integrator.rhs_per_step": "ratio",
    "integrator.var_calls": "count",
    "integrator.var_steps": "count",
    "integrator.var_us_per_step": "us",
    "integrator.state_at_calls": "count",
    "cct.calls": "count",
    "cct.self_s": "s",
    "cct.call_ms": "ms",
    "cct.bisection_iterations": "count",
    "cct.verdicts": "count",
    "cct.verdicts_per_cct": "ratio",
    "cct.steps_per_verdict": "ratio",
    "cct.verdict_s": "s",
    "cct.verdict_us": "us",
    "cct.fault_runs": "count",
    "sensitivity.calls": "count",
    "sensitivity.self_s": "s",
    "sensitivity.total_s": "s",
    "sensitivity.call_ms": "ms",
    "boundary.cells": "count",
    "boundary.cells_integrated": "count",
    "boundary.steps_per_cell": "ratio",
    "boundary.cell_us": "us",
    "boundary.geometry_s": "s",
    "boundary.self_s": "s",
    "validate.scan_calls": "count",
    "validate.points": "count",
    "validate.steps_per_point": "ratio",
    "validate.self_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "cli.pool_s": "s",
    "bench.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.passes": "count",
    "trace.worker_chunks": "count",
    "trace.worker_chunks_missing": "count",
    "check.fail_frac": "fraction",
    "check.tcl_err_max": "tol",
    "check.dtcl_err_max": "rel",
}


def _info_from_result(name, args, result):
    if name in ("integrator.integrate", "integrator.integrate_with_sensitivities"):
        traj = result[0] if isinstance(result, tuple) else result
        phase = args[1] if len(args) > 1 else None
        return {"steps": len(traj.times) - 1, "phase": getattr(phase, "value", None)}
    if name == "cct.compute_cct":
        return {"iterations": int(result.iterations)}
    return None


class Recorder:
    """Span store, counters, and the patches that feed them."""

    def __init__(self, prog, trace_dir: Path):
        self.prog = prog
        self.trace_dir = trace_dir
        self.main_pid = os.getpid()
        self.spans = []  # [id, name, t0, t1, parent, op, info]
        self.stack = []
        self.op = None
        self.rhs = 0
        self.cons = 0
        self.chunks_submitted = 0
        self._saved = []
        self._worker_calls = 0

    # ── spans ────────────────────────────────────────────────────────────────

    def _open(self, name):
        sid = (os.getpid(), len(self.spans))
        parent = self.stack[-1] if self.stack else None
        span = [sid, name, clock(), None, parent, self.op, {"rhs": self.rhs, "cons": self.cons}]
        self.spans.append(span)
        self.stack.append(sid)
        return span

    def _close(self, span, info=None, error=None):
        span[3] = clock()
        span[6] = {"rhs": self.rhs - span[6]["rhs"], "cons": self.cons - span[6]["cons"],
                   **(info or {})}
        if error is not None:
            span[6]["error"] = type(error).__name__
        self.stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        except BaseException as exc:
            self._close(span, error=exc)
            raise
        self._close(span)

    def wrap(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = rec._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec._close(span, error=exc)
                raise
            rec._close(span, _info_from_result(name, args, result))
            return result

        return traced

    # ── counting wrappers for model callables ────────────────────────────────

    def _count(self, fn, attr):
        rec = self

        def counted(x, p):
            setattr(rec, attr, getattr(rec, attr) + 1)
            return fn(x, p)

        return counted

    def counted_system(self, system):
        """The same system with every vector field and constraint counted."""
        model = self.prog.model
        phases = {
            phase: replace(
                dyn,
                f=self._count(dyn.f, "rhs"),
                constraints=tuple(replace(c, value=self._count(c.value, "cons"))
                                  for c in dyn.constraints),
            )
            for phase, dyn in system.phases.items()
        }
        return model.ConstrainedSystem(n=system.n, param_names=system.param_names,
                                       phases=phases)

    # ── install / remove ─────────────────────────────────────────────────────

    def _set(self, module, attr, value):
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, value)

    def install(self):
        prog = self.prog
        for mod_name, attr, name in PATCHES:
            module = getattr(prog, mod_name)
            self._set(module, attr, self.wrap(name, getattr(module, attr)))
        cli = prog.cli
        for attr in ("smib_system", "system_from_expressions"):
            build = getattr(cli, attr)
            self._set(cli, attr, self._counting_builder(f"model.{attr}", build))
        self._set(cli, "_sweep_chunk", self._chunk_wrapper(cli._sweep_chunk))
        self._set(cli, "ProcessPoolExecutor", _traced_pool(self, cli.ProcessPoolExecutor))

    def remove(self):
        while self._saved:
            module, attr, value = self._saved.pop()
            setattr(module, attr, value)

    def _counting_builder(self, name, build):
        rec = self
        traced = self.wrap(name, build)

        @functools.wraps(build)
        def builder(*args, **kwargs):
            return rec.counted_system(traced(*args, **kwargs))

        return builder

    def _chunk_wrapper(self, chunk):
        """Sweep chunks run in forked workers: keep their spans in a file."""
        rec = self
        traced = self.wrap("cli.sweep_chunk", chunk)

        @functools.wraps(chunk)
        def run_chunk(*args, **kwargs):
            if os.getpid() == rec.main_pid:
                return traced(*args, **kwargs)
            first = len(rec.spans)
            rhs, cons = rec.rhs, rec.cons
            try:
                return traced(*args, **kwargs)
            finally:
                rec._worker_calls += 1
                path = rec.trace_dir / f"worker-{os.getpid()}-{rec._worker_calls}.json"
                path.write_text(json.dumps({
                    "spans": rec.spans[first:],
                    "rhs": rec.rhs - rhs,
                    "cons": rec.cons - cons,
                }))

        return run_chunk

    def collect_workers(self):
        """Merge span files written by pool workers; returns how many were read."""
        found = 0
        for path in sorted(self.trace_dir.glob("worker-*.json")):
            doc = json.loads(path.read_text())
            for s in doc["spans"]:
                s[0] = tuple(s[0])
                s[4] = tuple(s[4]) if s[4] is not None else None
                self.spans.append(s)
            self.rhs += doc["rhs"]
            self.cons += doc["cons"]
            path.unlink()
            found += 1
        return found

    def write(self, path: Path):
        with path.open("w") as fh:
            for sid, name, t0, t1, parent, op, info in self.spans:
                fh.write(json.dumps({"id": list(sid), "name": name, "start": t0, "end": t1,
                                     "parent": list(parent) if parent else None,
                                     "op": op, "info": info}) + "\n")


def _traced_pool(rec, base):
    class TracedPool(base):
        """The CLI's process pool with a span over its lifetime."""

        def __enter__(self):
            self._bench_span = rec._open("cli.pool")
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                rec._close(self._bench_span)

        def submit(self, *args, **kwargs):
            rec.chunks_submitted += 1
            return super().submit(*args, **kwargs)

    return TracedPool


# ── per-layer metrics ─────────────────────────────────────────────────────────


def layer_metrics(rec: Recorder, passes: int, wall: float):
    """Per-pass layer metrics from the recorded spans.

    Self time is a span's duration minus the durations of its children
    in the same process.  Children never overlap within one process, so
    over the main process's spans the self times add up to the traced wall
    time.  Spans from sweep pool workers run in parallel with each other;
    their self times are added to their layers but not to that sum.
    """
    spans = rec.spans
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None and s[4][0] == s[0][0]:
            children[s[4]].append(s)

    def dur(s):
        return s[3] - s[2]

    def self_time(s):
        return dur(s) - sum(dur(c) for c in children[s[0]])

    def ancestors(s):
        parent = s[4]
        while parent is not None and parent in by_id:
            s = by_id[parent]
            yield s
            parent = s[4]

    def named(name):
        return [s for s in spans if s[1] == name]

    def under(items, ancestor_name):
        return [s for s in items if any(a[1] == ancestor_name for a in ancestors(s))]

    def child_steps(items, child_name="integrator.integrate"):
        return sum(c[6].get("steps", 0) for s in items for c in children[s[0]]
                   if c[1] == child_name)

    def ratio(a, b):
        return a / b if b else 0.0

    layer_self = defaultdict(float)
    for s in spans:
        layer_self[s[1].split(".")[0]] += self_time(s)

    integ = named("integrator.integrate")
    var = named("integrator.integrate_with_sensitivities")
    steps = sum(s[6].get("steps", 0) for s in integ)
    var_steps = sum(s[6].get("steps", 0) for s in var)
    ccts = named("cct.compute_cct")
    verdicts = under(named("cct.classify_post_fault"), "cct.compute_cct")
    points = under(named("cct.classify_post_fault"), "validate.scan_cct")
    sens = named("sensitivity.cct_sensitivity")
    cells = named("boundary.classify_grid_point")
    cells_integrated = [s for s in cells
                        if any(c[1] == "integrator.integrate" for c in children[s[0]])]
    grids = named("boundary.sample_stability_region")
    equilibria = named("model.find_equilibrium")
    fault_runs = [s for s in integ if s[6].get("phase") == "fault"
                  and s[4] is not None and by_id.get(s[4], [None, ""])[1] == "cct.compute_cct"]

    n = max(passes, 1)
    per = {
        "model.rhs_evals": rec.rhs / n,
        "model.constraint_evals": rec.cons / n,
        "model.equilibrium_calls": len(equilibria) / n,
        "model.equilibrium_s": sum(map(dur, equilibria)) / n,
        "model.self_s": layer_self["model"] / n,
        "integrator.calls": len(integ) / n,
        "integrator.steps": steps / n,
        "integrator.self_s": layer_self["integrator"] / n,
        "integrator.us_per_step": 1e6 * ratio(sum(map(self_time, integ)), steps),
        "integrator.rhs_per_step": ratio(sum(s[6]["rhs"] for s in integ), steps),
        "integrator.var_calls": len(var) / n,
        "integrator.var_steps": var_steps / n,
        "integrator.var_us_per_step": 1e6 * ratio(sum(map(self_time, var)), var_steps),
        "integrator.state_at_calls": len(named("integrator.state_at")) / n,
        "cct.calls": len(ccts) / n,
        "cct.self_s": layer_self["cct"] / n,
        "cct.call_ms": 1e3 * ratio(sum(map(dur, ccts)), len(ccts)),
        "cct.bisection_iterations": sum(s[6].get("iterations", 0) for s in ccts) / n,
        "cct.verdicts": len(verdicts) / n,
        "cct.verdicts_per_cct": ratio(len(verdicts), len(ccts)),
        "cct.steps_per_verdict": ratio(child_steps(verdicts), len(verdicts)),
        "cct.verdict_s": sum(map(dur, verdicts)) / n,
        "cct.verdict_us": 1e6 * ratio(sum(map(dur, verdicts)), len(verdicts)),
        "cct.fault_runs": len(fault_runs) / n,
        "sensitivity.calls": len(sens) / n,
        "sensitivity.self_s": layer_self["sensitivity"] / n,
        "sensitivity.total_s": sum(map(dur, sens)) / n,
        "sensitivity.call_ms": 1e3 * ratio(sum(map(dur, sens)), len(sens)),
        "boundary.cells": len(cells) / n,
        "boundary.cells_integrated": len(cells_integrated) / n,
        "boundary.steps_per_cell": ratio(child_steps(cells_integrated), len(cells_integrated)),
        "boundary.cell_us": 1e6 * ratio(sum(map(dur, cells)), len(cells)),
        "boundary.geometry_s": (sum(map(dur, grids)) - sum(map(dur, under(cells, "boundary.sample_stability_region")))) / n,
        "boundary.self_s": layer_self["boundary"] / n,
        "validate.scan_calls": len(named("validate.scan_cct")) / n,
        "validate.points": len(points) / n,
        "validate.steps_per_point": ratio(child_steps(points), len(points)),
        "validate.self_s": layer_self["validate"] / n,
        "cli.calls": len(named("cli.main")) / n,
        "cli.self_s": (layer_self["cli"] - sum(map(self_time, named("cli.pool")))) / n,
        "cli.pool_s": sum(map(dur, named("cli.pool"))) / n,
        "bench.self_s": layer_self["bench"] / n,
        "trace.wall_s": wall / n,
    }
    return per
