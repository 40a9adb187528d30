"""cctsens benchmark: one workload, one seed, end-to-end or traced.

    python3 bench/run.py --workload study --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads (see NOTES.md for why each is here):

  study  compute_cct then cct_sensitivity, one scenario at a time
  sweep  `cctsens sweep --jobs 2` through cctsens.cli.main, in process
  grid   sample_stability_region with jobs=1
  scan   validate.scan_cct at a fixed step

Load is a closed loop from this one process: the next call is issued
when the previous one returns.  The workload's input set (drawn from the
committed pools by ``--seed``) runs start to finish, as many times as
comes closest to ``--seconds``.  Every output is checked against the
committed reference; an op that raises or disagrees counts as failed.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics, whose times are scaled to a reference
machine speed gauged around every call (Gauge); with ``--trace 1`` it
carries the per-layer metrics of a traced run (spans.py), in wall-clock
time.  Earlier lines print every metric by name and unit, the
provenance and the failures.  The full result is also written to
``.bench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import warnings
from importlib import metadata
from pathlib import Path

clock = time.perf_counter
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"
SETUP_PROBES = 4
# Time of reference_work() on the reference machine; see Gauge.
REFERENCE_S = 3e-3
# reference_work() runs around a set-up, which is few and long intervals.
SETUP_GAUGE_REPEATS = 10
WORKLOADS = ("study", "sweep", "grid", "scan")

# name -> unit; the order is the order of printing.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "ok_frac": "fraction",
    "peak_rss_mb": "MB",
}
# Reported beside the end-to-end metrics but not gated: they do not
# apply to every workload (see NOTES.md).
ACCURACY = {
    "fail_frac": "fraction",
    "tcl_err_max": "tol",
    "dtcl_err_max": "rel",
}


class Program:
    """The cctsens modules, imported from this checkout's src/."""

    def __init__(self):
        src = ROOT / "src"
        sys.path.insert(0, str(src))
        import cctsens
        from cctsens import boundary, cct, cli, integrator, model, sensitivity, validate

        if Path(cctsens.__file__).resolve().parent != (src / "cctsens").resolve():
            raise ImportError(f"cctsens imported from {cctsens.__file__}, not {src}")
        self.cctsens = cctsens
        self.boundary, self.cct, self.cli = boundary, cct, cli
        self.integrator, self.model = integrator, model
        self.sensitivity, self.validate = sensitivity, validate

    def smib_machine(self):
        """The named machine model; its parameters travel in p."""
        c = self.cctsens
        return c.smib_system(c.SmibParams(p_mech=0.5, inertia=0.1, delta_max=1.0,
                                          omega_max=1.0))


def reference_work():
    """Fixed pure-Python work, unrelated to cctsens, that gauges machine speed."""
    total = 0.0
    for i in range(20000):
        total += math.sin(i * 1e-3)
    return total


def time_reference(repeats=1):
    start = clock()
    for _ in range(repeats):
        reference_work()
    return (clock() - start) / repeats


class Gauge:
    """Scales a time measured now to the reference machine's speed.

    On a shared virtual machine the speed of every process can drift by
    20-40 % within a minute.  reference_work() is timed just before and
    just after each measured interval, and the interval is scaled by
    REFERENCE_S over the mean of the two.
    """

    def __init__(self, repeats=1):
        self.repeats = repeats
        self.last = time_reference(repeats)

    def scale(self):
        """Factor for the interval that ended just now; starts the next one."""
        now = time_reference(self.repeats)
        factor = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        return factor


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="cctsens benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--limit", type=int, default=None,
                        help="keep only the first N inputs of a pass (self-test)")
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def set_up(args, work_dir):
    """Import, system construction and input generation; returns (wl, ops, secs)."""
    start = clock()
    prog = Program()
    import workloads

    workload = workloads.WORKLOADS[args.workload](prog, work_dir)
    ops = workload.setup(workload.inputs(args.seed, args.limit))
    return workload, ops, clock() - start


def provenance(args):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "sympy": metadata.version("sympy"),
        "git_commit": git_commit(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit():
    """HEAD of the checkout read from .git, or 'unavailable' outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unavailable"


class Tally:
    """Ops, failures, latencies and accuracy over the passes of one run.

    ``call_s`` holds wall-clock call times, ``ref_s`` the same calls at
    reference speed (Gauge).
    """

    def __init__(self):
        self.attempted = self.failed = 0
        self.call_s, self.ref_s = [], []
        self.tcl_errs, self.dtcl_errs = [], []
        self.failures = []
        self.first_outputs = {}
        self.nondeterministic = []

    def add(self, workload, index, op, outcome, elapsed, scale=None):
        """Count one call; outputs must repeat exactly across passes."""
        self.attempted += outcome.ops
        self.failed += outcome.failed
        if scale is not None:
            self.call_s.append(elapsed)
            self.ref_s.append(elapsed * scale)
        self.tcl_errs += outcome.tcl_errs
        self.dtcl_errs += outcome.dtcl_errs
        if index not in self.first_outputs:
            self.first_outputs[index] = outcome.output
            if outcome.reasons:
                self.failures.append(f"{workload.describe(op)}: " + " | ".join(outcome.reasons))
        elif self.first_outputs[index] != outcome.output:
            self.nondeterministic.append(workload.describe(op))


def run_pass(workload, ops, tally, gauge):
    import workloads

    start = clock()
    for index, op in enumerate(ops):
        outcome, elapsed = workloads.run_call(workload, op, clock)
        tally.add(workload, index, op, outcome, elapsed, gauge.scale())
    return clock() - start


def percentile(values, q):
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def peak_rss_mb():
    """Peak RSS of this process plus that of its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_probes(args):
    """Set the workload up again in fresh interpreters; their set-up times."""
    times = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        if args.limit is not None:
            cmd += ["--limit", str(args.limit)]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def accuracy(tally):
    return {
        "fail_frac": tally.failed / max(tally.attempted, 1),
        "tcl_err_max": max(tally.tcl_errs) if tally.tcl_errs else None,
        "dtcl_err_max": max(tally.dtcl_errs) if tally.dtcl_errs else None,
    }


def end_to_end(args, workload, ops, tally, setup_s, pass_s):
    rss = peak_rss_mb()
    setups = [setup_s] + setup_probes(args)
    calls = len(tally.ref_s)
    p90 = percentile(tally.ref_s, 90)
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": tally.attempted / sum(tally.ref_s),
        "call_p50_ms": 1e3 * percentile(tally.ref_s, 50),
        "call_p90_ms": 1e3 * p90,
        "ok_frac": 1.0 - tally.failed / tally.attempted,
        "peak_rss_mb": rss,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups at reference speed: "
                   + ", ".join(f"{s:.3f}" for s in setups),
        "ops_per_s": f"{tally.attempted} {workload.op_unit} in {sum(tally.ref_s):.2f} s "
                     f"of calls; wall clock {sum(tally.call_s):.2f} s, "
                     f"{tally.attempted / sum(tally.call_s):.4g}/s; {len(ops)} calls per "
                     "pass, passes took " + ", ".join(f"{t:.2f}" for t in pass_s) + " s",
        "call_p50_ms": f"{calls} calls; wall clock "
                       f"{1e3 * percentile(tally.call_s, 50):.4g} ms",
        "call_p90_ms": f"{calls} calls, {sum(t > p90 for t in tally.ref_s)} beyond; "
                       f"wall clock {1e3 * percentile(tally.call_s, 90):.4g} ms",
        "ok_frac": f"{tally.attempted - tally.failed} of {tally.attempted} ops passed",
        "peak_rss_mb": "benchmark process plus largest pool worker",
    }
    return metrics, notes


def traced_run(args, workload, ops, work_dir):
    """Each op runs untraced and then traced, back to back, until time is up.

    Pairing each traced call with an untraced one just before it gives
    the tracing overhead without counting drift in machine speed.
    """
    import spans
    import workloads

    trace_dir = work_dir / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    rec = spans.Recorder(workload.prog, trace_dir)
    systems = {k: rec.counted_system(s) for k, s in getattr(workload, "systems", {}).items()}
    tally = Tally()
    plain = traced = wall = 0.0
    passes = 0
    deadline = clock() + args.seconds
    while passes == 0 or clock() < deadline:
        for index, op in enumerate(ops):
            outcome, elapsed = workloads.run_call(workload, op, clock)
            tally.add(workload, index, op, outcome, elapsed)
            plain += elapsed
            rec.op = index
            rec.install()
            try:
                with rec.span("bench.op") as span:
                    outcome, elapsed = workloads.run_call(workload, op, clock, systems)
            finally:
                rec.remove()
            tally.add(workload, index, op, outcome, elapsed)
            traced += elapsed
            wall += span[3] - span[2]
        passes += 1
    read = rec.collect_workers()
    metrics = spans.layer_metrics(rec, passes, wall)
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["trace.passes"] = passes
    metrics["trace.worker_chunks"] = read / passes
    metrics["trace.worker_chunks_missing"] = (rec.chunks_submitted - read) / passes
    acc = accuracy(tally)
    metrics["check.fail_frac"] = acc["fail_frac"]
    metrics["check.tcl_err_max"] = acc["tcl_err_max"] or 0.0
    metrics["check.dtcl_err_max"] = acc["dtcl_err_max"] or 0.0
    spans_path = OUT_ROOT / "results" / f"{args.workload}-seed{args.seed}.spans.jsonl"
    spans_path.parent.mkdir(parents=True, exist_ok=True)
    rec.write(spans_path)
    return tally, metrics, spans_path


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "cctsens" / "__init__.py").is_file():
        print(f"no cctsens sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT_ROOT / "work" / (f"{tag}-probe" if args.setup_only else tag)
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        gauge = Gauge(SETUP_GAUGE_REPEATS)
        workload, ops, setup_s = set_up(args, work_dir)
        setup_s *= gauge.scale()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, workload, ops, setup_s, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def measure(args, workload, ops, setup_s, work_dir):
    prov = provenance(args)
    if args.trace:
        import spans

        tally, metrics, spans_path = traced_run(args, workload, ops, work_dir)
        units = spans.PER_LAYER
        metrics = {name: metrics[name] for name in units}
        notes = {"spans": str(spans_path.relative_to(ROOT))}
    else:
        tally = Tally()
        deadline = clock() + args.seconds
        pass_s = []
        gauge = Gauge()
        # Whole passes, as many as come closest to --seconds.
        while not pass_s or clock() + statistics.mean(pass_s) / 2 < deadline:
            pass_s.append(run_pass(workload, ops, tally, gauge))
        metrics, notes = end_to_end(args, workload, ops, tally, setup_s, pass_s)
        units = END_TO_END
    acc = accuracy(tally)
    correct = not tally.nondeterministic

    print(f"cctsens benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("provenance: " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        note = notes.get(name)
        print(f"metric {name} = {value:.6g} {units[name]}" + (f"  ({note})" if note else ""))
    for name, unit in ACCURACY.items():
        value = acc[name]
        print(f"check {name} = " + ("n/a" if value is None else f"{value:.6g} {unit}"))
    for line in tally.failures:
        print(f"failed: {line}")
    for line in tally.nondeterministic:
        print(f"not reproducible across passes: {line}")

    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(value), "unit": units[name]}
                    for name, value in metrics.items()},
    }
    results_dir = OUT_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "provenance": prov, "notes": notes, "checks": acc,
                    "failures": tally.failures,
                    "nondeterministic": tally.nondeterministic}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
