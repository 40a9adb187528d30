"""Small-size self-test of the benchmark itself.

    python3 bench/selftest.py

Run from the root of a source checkout.  It checks that:

1. every metric named in BENCHMARK.json is emitted with its unit, by
   each workload, untraced and traced (two inputs per pass), and the
   traced run's self times add up to its wall time;
2. generated inputs are a pure function of the seed;
3. a call that raises is counted as failed ops instead of aborting the
   run, on `cctsens sweep` over configs/smib_graze.json with
   ``tangents: true`` (a seed defect: an uncaught ValueError);
4. in a directory holding only BENCHMARK.json and bench/, the benchmark
   exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def _run(args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def check_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = _run(["--workload", workload, "--seed", str(SEED), "--seconds", "0",
                         "--trace", str(trace), "--limit", "2"])
            if done.returncode != 0:
                problems.append(f"{workload} trace={trace}: exit {done.returncode}: "
                                f"{done.stderr.strip()[-300:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{workload} trace={trace}: keys {sorted(result)}")
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append(f"{workload} trace={trace}: metrics differ from "
                                f"BENCHMARK.json: {sorted(set(got) ^ set(wanted[trace]))}")
            if not result["attempted"] >= 1:
                problems.append(f"{workload} trace={trace}: nothing attempted")
            if trace:
                problems += _self_times_sum_to_wall(workload)
    return problems


def _self_times_sum_to_wall(workload):
    """Benchmark-process self times add up to its bench.op roots' wall time."""
    path = run.OUT_ROOT / "results" / f"{workload}-seed{SEED}.spans.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    main_pid = next(s["id"][0] for s in spans if s["name"] == "bench.op")
    main = [s for s in spans if s["id"][0] == main_pid]
    self_s = {tuple(s["id"]): s["end"] - s["start"] for s in main}
    for s in main:
        if s["parent"] is not None:
            self_s[tuple(s["parent"])] -= s["end"] - s["start"]
    wall = sum(s["end"] - s["start"] for s in main if s["name"] == "bench.op")
    if abs(sum(self_s.values()) - wall) > 1e-6 * wall:
        return [f"{workload}: self times sum to {sum(self_s.values())!r}, wall {wall!r}"]
    return []


def check_inputs_pure():
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        first = cls.inputs(SEED)
        again = cls.inputs(SEED)
        other = cls.inputs(SEED + 1)
        if first != again:
            problems.append(f"{name}: seed {SEED} gave two different input sets")
        if [op["id"] for op in first] == [op["id"] for op in other]:
            problems.append(f"{name}: seeds {SEED} and {SEED + 1} gave the same inputs")
    return problems


def check_raising_call_counts_as_failed():
    work_dir = run.OUT_ROOT / "work" / "selftest-raise"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        # The shipped config's reference points hold its slopes too.
        entry = next(e for e in workloads.load_reference("sweep") if e["id"] == "smib_graze")
        config = json.loads((ROOT / "configs" / "smib_graze.json").read_text())
        config.pop("out_dir", None)
        config["sweep"]["tangents"] = True
        sweep = workloads.Sweep(run.Program(), work_dir)
        count = config["sweep"]["count"]
        op = sweep.setup([{"id": "smib_graze-tangents", "config": config,
                           "points": entry["points"]}])[0]
        outcome, _ = workloads.run_call(sweep, op, time.perf_counter)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    problems = []
    if (outcome.ops, outcome.failed) != (count, count):
        problems.append(f"expected {count} of {count} points failed, got "
                        f"{outcome.failed} of {outcome.ops}")
    if not any("ValueError" in r for r in outcome.reasons):
        problems.append(f"expected the ValueError to be recorded, got {outcome.reasons}")
    return problems


def check_refuses_without_sources():
    bare = run.OUT_ROOT / "work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = _run(["--workload", "grid", "--seed", str(SEED), "--seconds", "1",
                     "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    problems = []
    if done.returncode == 0:
        problems.append("exit code 0 without sources")
    if done.stdout.strip():
        problems.append(f"printed output without sources: {done.stdout.strip()[:200]}")
    return problems


def main():
    warnings.simplefilter("ignore")
    failed = 0
    for check in (check_inputs_pure, check_raising_call_counts_as_failed,
                  check_refuses_without_sources, check_metrics_emitted):
        problems = check()
        print(("PASS " if not problems else "FAIL ") + check.__name__)
        for problem in problems:
            print("    " + problem)
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
