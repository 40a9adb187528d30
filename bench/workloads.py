"""The four benchmark workloads: inputs from a seed, one op, and its check.

Every workload draws its inputs from the committed pools in
``bench/reference`` (see make_reference.py).  A pass holds every
machine of its pool whatever the seed, so that every seed meets the
same mix of costs and defects; the seed picks variants, decorations and
the order.  An op is one unit of work the workload counts: a scenario
(study), a sweep point (sweep), a grid cell (grid) or a scan (scan).
A call is one timed call into the program; it carries one or more ops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

# Relative slope error allowed against the reference, as in the
# acceptance tests; below SLOPE_FLOOR the error is taken absolutely.
SLOPE_TOL = 0.05
SLOPE_FLOOR = 0.1
SWEEP_JOBS = 2
DEFAULT_BISECTION_TOL = 0.01
STUDY_TOLS = (1e-2, 1e-4)

# The smib machine written as expressions: same dynamics, limits and
# parameter order [Pm, M, delta_max, omega_max] as cctsens.smib_system.
_LIMITS = {"angle_limit": "delta_max - delta", "speed_limit": "omega_max - omega"}
EXPRESSION_SMIB = {
    "state": ["delta", "omega"],
    "params": ["Pm", "M", "delta_max", "omega_max"],
    "phases": {
        "pre": {"f": ["omega", "(Pm - sin(delta) - 0.5*omega)/M"], "h": _LIMITS},
        "fault": {"f": ["omega", "(Pm - 0.5*omega)/M"], "h": _LIMITS},
        "post": {"f": ["omega", "(Pm - sin(delta) - 0.5*omega)/M"], "h": _LIMITS},
    },
}


@dataclass
class Outcome:
    """What one call did: ops attempted and failed, errors, and its output."""

    ops: int
    failed: int = 0
    tcl_errs: list = field(default_factory=list)
    dtcl_errs: list = field(default_factory=list)
    reasons: list = field(default_factory=list)
    output: object = None


def load_reference(name):
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())["entries"]


def draw(seed, stream, pool, key, limit=None, assign=None):
    """The inputs of one pass for one seed.

    ``key(entry)`` names an entry's stratum.  Entries that share a
    ``group`` are variants of one machine (grid windows): the seed takes
    one variant per group, spread evenly over the variants within each
    stratum.  ``assign(rng, picks)`` may decorate a stratum's picks,
    which keep pool order, and the seed shuffles the pass.
    """
    rng = np.random.default_rng([seed, stream])
    ops = []
    for stratum_key in dict.fromkeys(map(key, pool)):
        members = [e for e in pool if key(e) == stratum_key]
        groups = list(dict.fromkeys(e.get("group", e["id"]) for e in members))
        if len(groups) < len(members):
            variants = [[e for e in members if e["group"] == g] for g in groups]
            order = rng.permutation(len(groups))
            members = [v[int(order[i]) % len(v)] for i, v in enumerate(variants)]
        picks = [dict(e) for e in members]
        if assign is not None:
            assign(rng, picks)
        ops += picks
    return [ops[int(i)] for i in rng.permutation(len(ops))][:limit]


def _slope_err(value, ref):
    return abs(value - ref) / max(abs(ref), SLOPE_FLOOR)


def _failed_call(ops, exc):
    return Outcome(ops=ops, failed=ops, reasons=[f"raised {type(exc).__name__}: {exc}"],
                   output=("raised", type(exc).__name__, str(exc)))


class Workload:
    """Base: subclasses define inputs(), setup(), call() and check()."""

    name = ""
    op_unit = "ops"

    def __init__(self, prog, work_dir: Path):
        self.prog = prog
        self.work_dir = work_dir

    def setup(self, inputs):
        """Build everything the calls need; runs inside the set-up timer."""
        return inputs

    def before_call(self, op):
        """Untimed preparation right before a call."""

    def ops_of(self, op):
        """Ops one call carries."""
        return 1

    def describe(self, op):
        return op["id"]


class Study(Workload):
    """compute_cct then cct_sensitivity on one scenario at a time."""

    name = "study"
    op_unit = "scenarios"

    @staticmethod
    def _assign(rng, picks):
        # bisection_tol alternates along the pool order; a third of each
        # stratum, chosen by the seed, uses the expression-built system.
        expr = set(rng.choice(len(picks), size=len(picks) // 3, replace=False).tolist())
        for i, op in enumerate(picks):
            op["tol"] = STUDY_TOLS[i % 2]
            op["system"] = "expressions" if i in expr else "smib"

    @classmethod
    def inputs(cls, seed, limit=None):
        return draw(seed, 1, load_reference("study"),
                    lambda e: (e["family"], e["mode"]), limit, cls._assign)

    def setup(self, inputs):
        prog = self.prog
        self.systems = {"smib": prog.smib_machine()}
        if any(op["system"] == "expressions" for op in inputs):
            self.systems["expressions"] = prog.cctsens.system_from_expressions(
                EXPRESSION_SMIB["state"], EXPRESSION_SMIB["params"],
                EXPRESSION_SMIB["phases"],
            )
        for op in inputs:
            op["args"] = (
                op["system"], np.asarray(op["p"], dtype=float),
                prog.cctsens.CctOptions(
                    bisection_tol=op["tol"],
                    integration=prog.cctsens.IntegrationOptions(t_max=op["t_max"]),
                ),
            )
        return inputs

    def call(self, op, systems=None):
        kind, p, opts = op["args"]
        system = (systems or self.systems)[kind]
        result = self.prog.cct.compute_cct(system, p, opts)
        slopes = None
        if int(result.mode) != 3:
            slopes = self.prog.sensitivity.cct_sensitivity(system, p, result).dt_cl
        return result, slopes

    def check(self, op, value):
        result, slopes = value
        out = Outcome(ops=1, output=(int(result.mode), float(result.t_cl),
                                     None if slopes is None else tuple(map(float, slopes))))
        mode, t_cl = int(result.mode), float(result.t_cl)
        out.tcl_errs.append(abs(t_cl - op["t_ref"]) / op["tol"])
        if mode != op["mode"]:
            out.reasons.append(f"mode {mode} != reference {op['mode']}")
        if out.tcl_errs[-1] > 1.0:
            out.reasons.append(f"t_cl {t_cl:.9g} vs reference {op['t_ref']:.9g} "
                               f"({out.tcl_errs[-1]:.3g} x bisection_tol)")
        if op["slopes"] is not None and slopes is not None and mode == op["mode"]:
            for k, name in enumerate(EXPRESSION_SMIB["params"]):
                ref = op["slopes"].get(name)
                if ref is None:
                    continue
                err = _slope_err(float(slopes[k]), ref)
                out.dtcl_errs.append(err)
                if err > SLOPE_TOL:
                    out.reasons.append(f"dt_cl/d{name} {float(slopes[k]):.6g} vs "
                                       f"reference {ref:.6g} (error {err:.3g})")
        out.failed = int(bool(out.reasons))
        return out

    def describe(self, op):
        return f"{op['id']} {op['system']} tol={op['tol']:g}"


class Sweep(Workload):
    """`cctsens sweep --jobs 2` through cctsens.cli.main, in process."""

    name = "sweep"
    op_unit = "sweep points"
    @classmethod
    def inputs(cls, seed, limit=None):
        return draw(seed, 2, load_reference("sweep"),
                    lambda e: e["category"], limit)

    def setup(self, inputs):
        for n, op in enumerate(inputs):
            path = self.work_dir / f"sweep-{n:02d}-{op['id']}.json"
            path.write_text(json.dumps(op["config"], indent=1) + "\n")
            out_dir = self.work_dir / f"sweep-{n:02d}-{op['id']}"
            op["argv"] = ["sweep", "--config", str(path), "--out", str(out_dir),
                          "--jobs", str(SWEEP_JOBS)]
            op["csv"] = out_dir / "sweep.csv"
        return inputs

    def before_call(self, op):
        op["csv"].unlink(missing_ok=True)

    def call(self, op, systems=None):
        return self.prog.cli.main(op["argv"])

    def ops_of(self, op):
        return len(op["points"])

    def check(self, op, code):
        points = op["points"]
        out = Outcome(ops=len(points))
        if code != 0 or not op["csv"].exists():
            out.failed = len(points)
            out.reasons.append(f"exit code {code}, no sweep.csv")
            out.output = ("exit", code)
            return out
        text = op["csv"].read_text()
        out.output = text
        rows = [line.split(",") for line in text.splitlines()[2:]]
        tol = float(op["config"].get("tolerances", {}).get("bisection_tol",
                                                              DEFAULT_BISECTION_TOL))
        tangents = bool(op["config"]["sweep"].get("tangents", False))
        if len(rows) != len(points):
            out.failed = len(points)
            out.reasons.append(f"{len(rows)} rows for {len(points)} points")
            return out
        for row, ref in zip(rows, points):
            value, t_cl, mode = float(row[1]), float(row[2]), int(row[3])
            bad = []
            if abs(value - ref["value"]) > 1e-12 * max(1.0, abs(ref["value"])):
                bad.append(f"value {value!r} != {ref['value']!r}")
            out.tcl_errs.append(abs(t_cl - ref["t_ref"]) / tol)
            if mode != ref["mode"]:
                bad.append(f"mode {mode} != reference {ref['mode']}")
            if out.tcl_errs[-1] > 1.0:
                bad.append(f"t_cl {t_cl:.9g} vs reference {ref['t_ref']:.9g}")
            if tangents and ref["slope"] is not None and mode == ref["mode"]:
                if row[4] == "":
                    bad.append("tangent slope missing")
                else:
                    err = _slope_err(float(row[4]), ref["slope"])
                    out.dtcl_errs.append(err)
                    if err > SLOPE_TOL:
                        bad.append(f"slope {float(row[4]):.6g} vs reference "
                                   f"{ref['slope']:.6g} (error {err:.3g})")
            if bad:
                out.failed += 1
                out.reasons.append(f"{op['config']['sweep']['parameter']}={value:g}: "
                                   + "; ".join(bad))
        return out


class Grid(Workload):
    """sample_stability_region, jobs=1, on seeded windows and machines."""

    name = "grid"
    op_unit = "grid cells"

    @classmethod
    def inputs(cls, seed, limit=None):
        return draw(seed, 3, load_reference("grid"),
                    lambda e: e["category"], limit)

    def setup(self, inputs):
        self.systems = {"smib": self.prog.smib_machine()}
        for op in inputs:
            op["args"] = (np.asarray(op["p"], dtype=float),
                          self.prog.cctsens.GridSpec(*op["window"], n1=op["n"], n2=op["n"]))
        return inputs

    def call(self, op, systems=None):
        p, spec = op["args"]
        return self.prog.boundary.sample_stability_region(
            (systems or self.systems)["smib"], p, spec)

    def ops_of(self, op):
        return op["n"] * op["n"]

    def check(self, op, grid):
        classes = "".join(c.value[0].upper() for c in grid.classes.ravel())
        ref = op["classes"]
        out = Outcome(ops=len(ref), output=(
            classes, tuple(tuple(map(float, bp.x)) for bp in grid.semi_saddles)))
        wrong = [i for i, (a, b) in enumerate(zip(classes, ref)) if a != b]
        wrong += list(range(len(classes), len(ref)))
        out.failed = len(wrong)
        if wrong:
            out.reasons.append(f"{len(wrong)} cells differ from the reference, first at "
                               f"flat index {wrong[0]}")
        return out


class Scan(Workload):
    """validate.scan_cct at the fixed step stored with each input."""

    name = "scan"
    op_unit = "scans"

    @classmethod
    def inputs(cls, seed, limit=None):
        return draw(seed, 4, load_reference("scan"),
                    lambda e: (e["family"], e["mode"]), limit)

    def setup(self, inputs):
        self.systems = {"smib": self.prog.smib_machine()}
        for op in inputs:
            op["args"] = (np.asarray(op["p"], dtype=float), op["step"],
                          self.prog.cctsens.CctOptions(
                              integration=self.prog.cctsens.IntegrationOptions(
                                  t_max=op["t_max"])))
        return inputs

    def call(self, op, systems=None):
        p, step, opts = op["args"]
        return self.prog.validate.scan_cct((systems or self.systems)["smib"], p, step, opts)

    def check(self, op, value):
        value = float(value)
        step = op["step"]
        out = Outcome(ops=1, output=value)
        out.tcl_errs.append(abs(value - op["t_ref"]) / step)
        index = int(round(value / step + 0.5))
        if index != op["index"]:
            out.reasons.append(f"first unstable point {index} != reference {op['index']}")
        if out.tcl_errs[-1] > 1.0:
            out.reasons.append(f"scan {value:.9g} vs critical time {op['t_ref']:.9g}")
        out.failed = int(bool(out.reasons))
        return out


WORKLOADS = {w.name: w for w in (Study, Sweep, Grid, Scan)}


def run_call(workload, op, clock, systems=None):
    """One timed call; a call that raises fails all of its ops."""
    workload.before_call(op)
    start = clock()
    try:
        value = workload.call(op, systems)
    except Exception as exc:  # the benchmark must survive any program failure
        elapsed = clock() - start
        return _failed_call(workload.ops_of(op), exc), elapsed
    elapsed = clock() - start
    return workload.check(op, value), elapsed


