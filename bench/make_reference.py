"""Generate the benchmark's input pools and their reference answers.

    python3 bench/make_reference.py --part study   # or sweep, grid, scan, all

Each part writes ``bench/reference/<part>.json``.  A benchmark run never
generates scenarios of its own: ``--seed`` picks variants, decorations
and the order of a pass over these pools, so every input a run issues
has a committed answer.

Reference answers for critical clearing times are truths, not replays
of the code under test:

* Mode 1 (fault-boundary hit).  The machine is disconnected during the
  fault, so the sustained-fault trajectory has a closed form.  t_ref is
  its first limit hit and the slope is a central difference of that hit
  time.  ``compute_cct`` at a tight ``bisection_tol`` is not used for
  these values, because its clearing-feasibility band reports such cases
  as mode 2 with T = 0.
* Which mode limits a scenario is decided by a tight bisection with that
  band switched off (``clearing_feasibility_tol = 0``) and tight
  integration tolerances.
* Modes 2 and 3.  t_ref is that tight bisection's critical time; the
  mode-2 slope is a central difference of it.  Mode 3 has no slope.

Grid cell classes and scan results are regression references recorded
from the program as it stood when the benchmark was defined; the scan
result is additionally checked against the true critical time.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
import warnings
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from cctsens import (  # noqa: E402
    CctOptions,
    GridSpec,
    IntegrationOptions,
    SmibParams,
    compute_cct,
    sample_stability_region,
    scan_cct,
    smib_system,
)

MASTER_SEED = 20261017
DAMPING = SmibParams(p_mech=0.5, inertia=0.1, delta_max=1.0, omega_max=1.0).damping
PARAMS = ("Pm", "M", "delta_max", "omega_max")

# Tight settings for the bisection that decides modes and mode-2/3 times.
_TIGHT_INTEGRATION = dict(rel_tol=1e-10, abs_tol=1e-12)
_TIGHT_BISECTION_TOL = 1e-8
_TIGHT_BISECTION_TOL_MODE3 = 1e-6
_FD_REL_STEP = 1e-4

# Study families: (name, pool size, parameter ranges, t_max).  A range is
# (low, high) or a constant.
FAMILIES = {
    # Tight speed limit: the sustained fault reaches omega_max (mode 1).
    "speed": dict(pool=24, Pm=(0.5, 0.8), M=(0.08, 0.15), delta_max=2.0,
                  omega_max=(0.6, 0.8), t_max=20.0),
    # The shipped smib_graze machine and its neighbours: modes 1 and 2.
    "graze": dict(pool=48, Pm=(0.45, 0.55), M=(0.1, 0.5), delta_max=(1.5, 1.7),
                  omega_max=0.9, t_max=20.0),
    # Wide limits: the post-fault run is captured away from the SEP (mode 3).
    "noret": dict(pool=16, Pm=(0.45, 0.55), M=(0.25, 0.35), delta_max=50.0,
                  omega_max=50.0, t_max=40.0),
}


def _draw(rng, spec):
    if isinstance(spec, tuple):
        return round(float(rng.uniform(*spec)), 6)
    return float(spec)


def _draw_machine(rng, fam):
    return [_draw(rng, fam[name]) for name in PARAMS]


# ── truths ────────────────────────────────────────────────────────────────────


def fault_hit(p):
    """First limit hit of the sustained-fault trajectory, in closed form.

    During the fault the machine is disconnected: omega' = (Pm - D omega)/M
    from the pre-fault SEP (delta0 = asin(Pm), omega = 0).  Returns
    (time, constraint) or (inf, None) when no limit is ever reached.
    """
    pm, m, d_max, w_max = (float(v) for v in p)
    rate = DAMPING / m
    w_inf = pm / DAMPING
    delta0 = math.asin(pm)

    def delta(t):
        return delta0 + w_inf * (t + math.expm1(-rate * t) / rate)

    hits = []
    if 0.0 < w_max < w_inf:
        hits.append((-math.log1p(-w_max / w_inf) / rate, "speed_limit"))
    if d_max > delta0:
        hi = 1.0
        while delta(hi) < d_max:
            hi *= 2.0
        lo = 0.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if delta(mid) < d_max:
                lo = mid
            else:
                hi = mid
            if hi - lo <= 4e-16 * hi:
                break
        hits.append((hi, "angle_limit"))
    return min(hits) if hits else (math.inf, None)


def _tight(system, p, t_max, tol):
    opts = CctOptions(
        bisection_tol=tol,
        clearing_feasibility_tol=0.0,
        integration=IntegrationOptions(t_max=t_max, **_TIGHT_INTEGRATION),
    )
    return compute_cct(system, np.asarray(p, dtype=float), opts)


def _fd_step(value):
    return _FD_REL_STEP * max(abs(value), 0.1)


def truth(system, p, t_max, slope_params):
    """Mode, critical time and slopes (dict keyed by parameter name)."""
    mode_run = _tight(system, p, t_max, _TIGHT_BISECTION_TOL)
    mode = int(mode_run.mode)
    slopes = {}
    if mode == 1:
        t_ref, label = fault_hit(p)
        if abs(t_ref - mode_run.t_cl) > 1e-6 or label != mode_run.crossing_label:
            raise RuntimeError(
                f"closed-form hit {t_ref} ({label}) disagrees with the tight "
                f"bisection {mode_run.t_cl} ({mode_run.crossing_label}) at {p}"
            )
        for k in slope_params:
            eps = _fd_step(p[k])
            up, dn = list(p), list(p)
            up[k] += eps
            dn[k] -= eps
            (t_up, l_up), (t_dn, l_dn) = fault_hit(up), fault_hit(dn)
            slopes[PARAMS[k]] = (
                (t_up - t_dn) / (2.0 * eps) if l_up == l_dn == label else None
            )
    else:
        if mode == 3:
            mode_run = _tight(system, p, t_max, _TIGHT_BISECTION_TOL_MODE3)
        t_ref = float(mode_run.t_cl)
        if mode == 2:
            for k in slope_params:
                eps = _fd_step(p[k])
                up, dn = list(p), list(p)
                up[k] += eps
                dn[k] -= eps
                r_up = _tight(system, up, t_max, _TIGHT_BISECTION_TOL)
                r_dn = _tight(system, dn, t_max, _TIGHT_BISECTION_TOL)
                same = int(r_up.mode) == int(r_dn.mode) == 2
                slopes[PARAMS[k]] = (
                    (r_up.t_cl - r_dn.t_cl) / (2.0 * eps) if same else None
                )
    return {"mode": mode, "t_ref": t_ref, "slopes": slopes if mode != 3 else None}


def _smib():
    return smib_system(SmibParams(p_mech=0.5, inertia=0.1, delta_max=1.0, omega_max=1.0))


# ── parts ─────────────────────────────────────────────────────────────────────


def make_study(rng):
    system = _smib()
    entries = []
    for family, fam in FAMILIES.items():
        for i in range(fam["pool"]):
            p = _draw_machine(rng, fam)
            ref = truth(system, p, fam["t_max"], range(len(PARAMS)))
            entries.append({"id": f"{family}-{i:02d}", "family": family, "p": p,
                            "t_max": fam["t_max"], **ref})
            print(entries[-1]["id"], ref["mode"], ref["t_ref"], flush=True)
    return {"entries": entries}


def _shipped_sweep(name):
    raw = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    raw.pop("out_dir", None)
    return raw


def _sweep_config(base, parameter, start, stop, count, tol, t_max=None):
    tolerances = {"bisection_tol": tol}
    if t_max is not None:
        tolerances["t_max"] = t_max
    return {
        "system": {"kind": "smib", **dict(zip(("p_mech", "inertia", "delta_max",
                                                 "omega_max"), base))},
        "sweep": {"parameter": parameter, "start": start, "stop": stop,
                  "count": count, "tangents": True},
        "tolerances": tolerances,
    }


def make_sweep(rng):
    system = _smib()
    defs = [("shipped", "smib_speed_limit", _shipped_sweep("smib_speed_limit")),
            ("shipped", "smib_graze", _shipped_sweep("smib_graze"))]
    for i in range(8):
        base = _draw_machine(rng, FAMILIES["speed"])
        parameter = ("Pm", "M", "omega_max")[i % 3]
        lo, hi = {"Pm": (0.5, 0.8), "M": (0.08, 0.15), "omega_max": (0.6, 0.8)}[parameter]
        start = round(float(rng.uniform(lo, lo + 0.4 * (hi - lo))), 6)
        stop = round(float(rng.uniform(hi - 0.4 * (hi - lo), hi)), 6)
        defs.append(("speed", f"speed-{i:02d}",
                     _sweep_config(base, parameter, start, stop, 6, 1e-2)))
    for i in range(6):
        base = _draw_machine(rng, FAMILIES["graze"])
        start = round(float(rng.uniform(0.1, 0.2)), 6)
        stop = round(float(rng.uniform(0.35, 0.5)), 6)
        defs.append(("graze", f"graze-{i:02d}",
                     _sweep_config(base, "M", start, stop, 6, 1e-4)))
    for i in range(6):
        base = _draw_machine(rng, FAMILIES["noret"])
        start = round(float(rng.uniform(0.45, 0.48)), 6)
        stop = round(float(rng.uniform(0.52, 0.55)), 6)
        defs.append(("noret", f"noret-{i:02d}",
                     _sweep_config(base, "Pm", start, stop, 4, 1e-3, t_max=40.0)))

    entries = []
    for category, ident, config in defs:
        system_cfg = config["system"]
        base = [float(system_cfg[k]) for k in ("p_mech", "inertia", "delta_max", "omega_max")]
        sweep = config["sweep"]
        k = PARAMS.index(sweep["parameter"])
        t_max = float(config.get("tolerances", {}).get("t_max", 20.0))
        values = np.linspace(float(sweep["start"]), float(sweep["stop"]), sweep["count"])
        points = []
        for v in values:
            p = list(base)
            p[k] = float(v)
            ref = truth(system, p, t_max, [k])
            slope = ref["slopes"][PARAMS[k]] if ref["slopes"] else None
            points.append({"value": float(v), "mode": ref["mode"],
                           "t_ref": ref["t_ref"], "slope": slope})
        entries.append({"id": ident, "category": category, "config": config,
                        "points": points})
        print(ident, [pt["mode"] for pt in points], flush=True)
    return {"entries": entries}


A9_WINDOW = (-1.5, 3.5, -2.5, 2.5)
GRID_N = 16
GRID_MACHINES = 16
# Windows drawn per machine; a run takes one per machine, so the seed
# varies the windows while every pass integrates the same machines.
GRID_WINDOWS = 3


def make_grid(rng):
    system = _smib()
    defs = [("a9", f"a9-M{m}", f"a9-M{m}", [0.65, m, 2.0, 0.7], A9_WINDOW)
            for m in (0.1, 0.3)]
    for i in range(GRID_MACHINES):
        p = [round(float(rng.uniform(*r)), 6)
             for r in ((0.55, 0.75), (0.1, 0.3), (1.8, 2.2), (0.6, 0.8))]
        for j in range(GRID_WINDOWS):
            window = tuple(round(float(rng.uniform(*r)), 6)
                           for r in ((-1.5, -0.5), (2.5, 3.5), (-2.5, -1.5), (1.5, 2.5)))
            defs.append(("seeded", f"grid-{i:02d}-w{j}", f"grid-{i:02d}", p, window))
    entries = []
    for category, ident, group, p, window in defs:
        spec = GridSpec(*window, n1=GRID_N, n2=GRID_N)
        start = time.perf_counter()
        grid = sample_stability_region(system, np.asarray(p), spec)
        classes = "".join(c.value[0].upper() for c in grid.classes.ravel())
        entries.append({"id": ident, "group": group, "category": category, "p": p,
                        "window": list(window), "n": GRID_N, "classes": classes})
        print(ident, classes.count("S"), f"{time.perf_counter() - start:.2f} s", flush=True)
    return {"entries": entries}


# Machines per (family, reference mode) stratum, each scanned at a step
# of its critical time over SCAN_VERDICTS (two significant digits).
SCAN_STRATA = (("speed", 1), ("graze", 1), ("graze", 2), ("noret", 3))
SCAN_PER_STRATUM = 6
SCAN_VERDICTS = 80


def make_scan(rng, study):
    system = _smib()
    entries = []
    for family, mode in SCAN_STRATA:
        stratum = [e for e in study["entries"]
                   if e["family"] == family and e["mode"] == mode]
        picks = rng.choice(len(stratum), size=SCAN_PER_STRATUM, replace=False)
        for j in sorted(int(i) for i in picks):
            e = stratum[j]
            opts = CctOptions(integration=IntegrationOptions(t_max=e["t_max"]))
            step = float("%.2g" % (e["t_ref"] / SCAN_VERDICTS))
            start = time.perf_counter()
            value = scan_cct(system, np.asarray(e["p"]), step, opts)
            entries.append({
                "id": f"scan-{e['id']}-n{SCAN_VERDICTS}", "family": family, "p": e["p"],
                "t_max": e["t_max"], "step": step, "mode": mode, "value": value,
                "index": int(round(value / step + 0.5)), "t_ref": e["t_ref"],
            })
            print(entries[-1]["id"], step, value, e["t_ref"],
                  f"{time.perf_counter() - start:.2f} s", flush=True)
    return {"entries": entries}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--part", choices=("study", "sweep", "grid", "scan", "all"),
                        default="all")
    args = parser.parse_args(argv)
    warnings.simplefilter("ignore", RuntimeWarning)
    out_dir = HERE / "reference"
    out_dir.mkdir(exist_ok=True)
    parts = ("study", "sweep", "grid", "scan") if args.part == "all" else (args.part,)
    for part in parts:
        # Each part draws from its own stream so parts regenerate independently.
        rng = np.random.default_rng([MASTER_SEED, ("study", "sweep", "grid", "scan").index(part)])
        start = time.perf_counter()
        if part == "scan":
            study = json.loads((out_dir / "study.json").read_text())
            doc = make_scan(rng, study)
        else:
            doc = {"study": make_study, "sweep": make_sweep, "grid": make_grid}[part](rng)
        doc = {"part": part, "master_seed": MASTER_SEED, **doc}
        (out_dir / f"{part}.json").write_text(json.dumps(doc, indent=1) + "\n")
        print(f"{part}: {len(doc['entries'])} entries in "
              f"{time.perf_counter() - start:.1f} s", flush=True)


if __name__ == "__main__":
    main()
