"""Command-line front end: critical times, sensitivities, sweeps, grids.

One JSON configuration file drives every subcommand:

    {
      "system": {"kind": "smib", "p_mech": 0.65, "inertia": 0.1,
                 "delta_max": 2.0, "omega_max": 0.7},
      "sens_params": ["Pm", "M", "omega_max"],
      "sweep": {"parameter": "Pm", "start": 0.45, "stop": 0.85,
                "count": 9, "tangents": true},
      "grid": {"x1_min": -1.5, "x1_max": 3.5,
               "x2_min": -2.5, "x2_max": 2.5, "n1": 40, "n2": 40},
      "tolerances": {"bisection_tol": 0.01},
      "out_dir": "out"
    }

Systems of kind "expressions" take "state", "params", "phases" and an
explicit "p0" instead of the named machine constants.

Outputs are deterministic: floats are printed with 17 significant
digits, row order never depends on the worker pool, and every file
carries the SHA-256 of the effective configuration (the file content
merged with --tol overrides; the output directory and job count do not
affect results and are excluded).  Non-finite values appear in JSON as
the strings "inf", "-inf" and "nan".

Exit codes: 0 success, 1 computation error (an error.json is written),
2 configuration error, 3 validation failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .boundary import (
    _GRID_OPTS,
    _GRID_SEP_RADIUS,
    GridSpec,
    combined_H,
    eval_H,
    sample_stability_region,
)
from .cct import CctOptions, InstabilityMode, compute_cct
from .errors import CctError, ConfigError
from .integrator import EventConfig, IntegrationOptions, integrate
from .model import (
    _SMIB_PARAM_NAMES,
    _SMIB_STATE_NAMES,
    ConstrainedSystem,
    Phase,
    SmibParams,
    smib_system,
    system_from_expressions,
)
from .sensitivity import cct_sensitivity
from .validate import (
    ORACLE_CSV_HEADER,
    _SLOPE_TOL,
    _fd_step,
    compare,
    fd_cct_slope,
    oracle_csv_row,
    oracle_suite,
    scan_cct,
)

# Tolerance keys are the option fields; the SEP guess and reverify flag
# have their own top-level keys.
_INTEGRATION_KEYS = {f.name for f in dataclass_fields(IntegrationOptions)}
_CCT_KEYS = {f.name for f in dataclass_fields(CctOptions)} - {
    "integration", "sep_guess", "reverify",
}
_INT_VALUED = {"horizon_doublings"}
_TOP_KEYS = {
    "system", "sens_params", "sweep", "grid", "tolerances",
    "out_dir", "quantities", "sep_guess", "reverify",
}
_SMIB_KEYS = {"kind"} | {f.name for f in dataclass_fields(SmibParams)}
_EXPR_KEYS = {"kind", "state", "params", "phases", "p0"}


def _fmt(v) -> str:
    if v is None:
        return ""
    return "%.17g" % float(v)


def _json_text(value, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = ",\n".join(
            f"{pad}  {json.dumps(str(k))}: {_json_text(v, indent + 1)}"
            for k, v in value.items()
        )
        return "{\n" + inner + "\n" + pad + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        items = [_json_text(v, indent) for v in value]
        return "[" + ", ".join(items) + "]"
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        v = float(value)
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return "%.17g" % v
    if value is None:
        return "null"
    return json.dumps(str(value))


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(_json_text(doc) + "\n")


def _write_csv(path: Path, sha: str, header: str, rows: Sequence[str]) -> None:
    body = "".join(row + "\n" for row in rows)
    path.write_text(f"# config_sha256={sha}\n{header}\n{body}")


@dataclass(frozen=True)
class RunConfig:
    """One fully resolved configuration document."""

    effective: dict
    sha256: str
    system_factory: tuple  # (builder, arguments) of the system, as validated
    param_names: tuple[str, ...]
    p0: np.ndarray
    sens_params: tuple[int, ...]
    sweep_param: Optional[int]
    sweep_values: tuple[float, ...]
    sweep_tangents: bool
    grid: Optional[GridSpec]
    opts: CctOptions
    quantities: Optional[tuple[str, ...]]
    out_dir: Path
    jobs: int


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_keys(mapping: dict, allowed: set, where: str) -> None:
    unknown = set(mapping) - allowed
    _require(not unknown, f"unknown {where} keys: {sorted(unknown)}")


def _coerce_tol(key: str, value) -> object:
    try:
        return int(value) if key in _INT_VALUED else float(value)
    except (OverflowError, ValueError):
        raise ConfigError(f"tolerance {key!r} must be numeric, got {value!r}")


def _parse_config(
    raw: dict,
    tol_overrides: Sequence[str] = (),
    out_override: Optional[str] = None,
    jobs: int = 1,
) -> RunConfig:
    _require(isinstance(raw, dict), "the configuration must be a JSON object")
    _check_keys(raw, _TOP_KEYS, "configuration")
    system_cfg = raw.get("system")
    _require(isinstance(system_cfg, dict), 'a "system" object is required')
    kind = system_cfg.get("kind")
    _require(kind in ("smib", "expressions"),
             f'system kind must be "smib" or "expressions", got {kind!r}')

    if kind == "smib":
        _check_keys(system_cfg, _SMIB_KEYS, "system")
        try:
            params = SmibParams(**{k: v for k, v in system_cfg.items() if k != "kind"})
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"bad machine constants: {exc}")
        factory = smib_system, (params,)
        p0, names, n_state = params.p0, _SMIB_PARAM_NAMES, len(_SMIB_STATE_NAMES)
    else:
        _check_keys(system_cfg, _EXPR_KEYS, "system")
        for key, kind in (("state", list), ("params", list), ("phases", dict), ("p0", list)):
            _require(key in system_cfg, f'expression systems need "{key}"')
            _require(isinstance(system_cfg[key], kind),
                     f'"{key}" must be {"an object" if kind is dict else "a list"}')
        _require(all(map(_is_number, system_cfg["p0"])), "p0 must be a list of numbers")
        names = tuple(str(n) for n in system_cfg["params"])
        p0 = np.asarray(system_cfg["p0"], dtype=float)
        _require(p0.size == len(names), "p0 must list one value per parameter")
        n_state = len(system_cfg["state"])
        factory = system_from_expressions, tuple(system_cfg[k] for k in ("state", "params", "phases"))

    tol = raw.get("tolerances", {})
    _require(isinstance(tol, dict), '"tolerances" must be an object')
    overrides = {}
    for item in tol_overrides:
        key, sep, value = item.partition("=")
        _require(bool(sep), f"--tol expects key=value, got {item!r}")
        overrides[key.strip()] = value
    _check_keys(tol.keys() | overrides.keys(), _INTEGRATION_KEYS | _CCT_KEYS, "tolerance")
    # The file gives JSON numbers, --tol strings.
    for key, value in tol.items():
        _require(_is_count(value) if key in _INT_VALUED else _is_number(value),
                 f"tolerance {key!r} must be {'an integer' if key in _INT_VALUED else 'a number'}"
                 f", got {value!r}")
    tol = {k: _coerce_tol(k, v) for k, v in {**tol, **overrides}.items()}

    sep_guess = raw.get("sep_guess")
    _require(
        sep_guess is None or (
            isinstance(sep_guess, list) and len(sep_guess) == n_state
            and all(map(_is_number, sep_guess))
        ),
        f"sep_guess must be a list of {n_state} numbers, got {sep_guess!r}",
    )
    try:
        integration = IntegrationOptions(
            **{k: v for k, v in tol.items() if k in _INTEGRATION_KEYS}
        )
        opts = CctOptions(
            integration=integration,
            **{k: v for k, v in tol.items() if k in _CCT_KEYS},
        )
        if sep_guess is not None:
            opts = replace(opts, sep_guess=np.asarray(sep_guess, dtype=float))
        reverify = raw.get("reverify", False)
        _require(isinstance(reverify, bool), f'"reverify" must be true or false, got {reverify!r}')
        opts = replace(opts, reverify=reverify)
    except (CctError, ValueError) as exc:
        raise ConfigError(str(exc))

    def resolve(ref) -> int:
        if _is_count(ref):
            _require(0 <= ref < len(names), f"parameter index {ref} out of range")
            return ref
        _require(ref in names,
                 f"unknown parameter {ref!r}; declared parameters are {list(names)}")
        return names.index(ref)

    sens = raw.get("sens_params")
    _require(sens is None or isinstance(sens, list), '"sens_params" must be a list')
    sens_idx = tuple(range(len(names))) if sens is None else tuple(
        resolve(r) for r in sens
    )

    sweep_param, sweep_values, sweep_tangents = None, (), False
    if raw.get("sweep") is not None:
        sweep = raw["sweep"]
        _require(isinstance(sweep, dict), '"sweep" must be an object')
        _check_keys(sweep, {"parameter", "start", "stop", "count", "tangents"}, "sweep")
        for key in ("parameter", "start", "stop", "count"):
            _require(key in sweep, f'sweep needs "{key}"')
        for key in ("start", "stop"):
            _require(_is_number(sweep[key]) and math.isfinite(sweep[key]),
                     f"sweep {key} must be a finite number, got {sweep[key]!r}")
        sweep_param = resolve(sweep["parameter"])
        count = sweep["count"]
        _require(_is_count(count) and count >= 0,
                 f"sweep count must be a non-negative integer, got {count!r}")
        if count:
            sweep_values = tuple(
                float(v) for v in
                np.linspace(float(sweep["start"]), float(sweep["stop"]), count)
            )
        sweep_tangents = sweep.get("tangents", False)
        _require(isinstance(sweep_tangents, bool),
                 f'sweep "tangents" must be true or false, got {sweep_tangents!r}')

    grid = None
    if raw.get("grid") is not None:
        grid_cfg = raw["grid"]
        _require(isinstance(grid_cfg, dict), '"grid" must be an object')
        keys = {"x1_min", "x1_max", "x2_min", "x2_max", "n1", "n2"}
        _check_keys(grid_cfg, keys, "grid")
        try:
            grid = GridSpec(**{k: grid_cfg[k] for k in keys if k in grid_cfg})
        except (CctError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad grid: {exc}")

    quantities = raw.get("quantities")
    _require(quantities is None or isinstance(quantities, list), '"quantities" must be a list')
    if quantities is not None:
        quantities = tuple(str(q) for q in quantities)

    _require(isinstance(raw.get("out_dir", "out"), str), '"out_dir" must be a string')
    effective = {k: v for k, v in raw.items() if k != "out_dir"}
    if tol:
        effective["tolerances"] = tol
    sha = hashlib.sha256(
        json.dumps(effective, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()

    return RunConfig(
        effective=effective,
        sha256=sha,
        system_factory=factory,
        param_names=names,
        p0=p0,
        sens_params=sens_idx,
        sweep_param=sweep_param,
        sweep_values=sweep_values,
        sweep_tangents=sweep_tangents,
        grid=grid,
        opts=opts,
        quantities=quantities,
        out_dir=Path(out_override or raw.get("out_dir", "out")),
        jobs=max(1, int(jobs)),
    )


def load_config(
    path: Path,
    tol_overrides: Sequence[str] = (),
    out_override: Optional[str] = None,
    jobs: int = 1,
) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}")
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} is not valid JSON: {exc}")
    return _parse_config(raw, tol_overrides, out_override, jobs)


def build_system(cfg: RunConfig) -> ConstrainedSystem:
    factory, args = cfg.system_factory
    try:
        return factory(*args)
    except (CctError, ValueError) as exc:
        raise ConfigError(f"cannot build the {cfg.effective['system']['kind']} system: {exc}")


def _trajectory_rows(system, phase, traj, p, use_combined: bool) -> list[str]:
    rows = []
    for t, x in zip(traj.times, traj.states):
        h = combined_H(system, x, p) if use_combined \
            else eval_H(system, phase, x, p)
        cells = [_fmt(t)] + [_fmt(v) for v in x] + [_fmt(h)]
        rows.append(",".join(cells))
    return rows


def _state_header(n: int) -> str:
    return ",".join(["t"] + [f"x{i + 1}" for i in range(n)] + ["H"])


def cmd_cct(cfg: RunConfig, verify: bool) -> int:
    system = build_system(cfg)
    result = compute_cct(system, cfg.p0, cfg.opts)

    fault = integrate(
        system, Phase.FAULT_ON, result.x_sep_pre, cfg.p0,
        replace(cfg.opts.integration, t_max=result.t_cl),
    )
    post = integrate(
        system, Phase.POST_FAULT, result.x_cr, cfg.p0, cfg.opts.integration,
        EventConfig(
            sep_target=result.x_sep_post,
            sep_radius=cfg.opts.sep_radius,
        ),
    )
    n = system.n
    _write_csv(
        cfg.out_dir / "fault_trajectory.csv", cfg.sha256, _state_header(n),
        _trajectory_rows(system, Phase.FAULT_ON, fault, cfg.p0, use_combined=True),
    )
    _write_csv(
        cfg.out_dir / "post_trajectory.csv", cfg.sha256, _state_header(n),
        _trajectory_rows(system, Phase.POST_FAULT, post, cfg.p0, use_combined=False),
    )

    doc = {
        "config_sha256": cfg.sha256,
        "mode": int(result.mode),
        "t_cl": result.t_cl,
        "bracket": [result.t_lo, result.t_hi],
        "iterations": result.iterations,
        "x_cr": result.x_cr,
        "T": result.T,
        "x_T": result.x_T,
        "t1": result.t1,
        "t2": result.t2,
        "crossing_label": result.crossing_label,
        "x_sep_pre": result.x_sep_pre,
        "x_sep_post": result.x_sep_post,
        "fault_hit_time": result.fault_hit_time,
        "h_ref": result.h_ref,
        "files": {
            "fault_trajectory": "fault_trajectory.csv",
            "post_trajectory": "post_trajectory.csv",
        },
    }
    code = 0
    if verify:
        scanned = scan_cct(system, cfg.p0, cfg.opts.bisection_tol / 10.0, cfg.opts)
        gap = abs(result.t_cl - scanned)
        passed = gap <= cfg.opts.bisection_tol
        doc["verify"] = {
            "scan_cct": scanned,
            "gap": gap,
            "tol": cfg.opts.bisection_tol,
            "passed": passed,
        }
        code = 0 if passed else 3
    _write_json(cfg.out_dir / "cct_result.json", doc)
    return code


def cmd_sens(cfg: RunConfig, verify: bool) -> int:
    system = build_system(cfg)
    result = compute_cct(system, cfg.p0, cfg.opts)
    sens = cct_sensitivity(system, cfg.p0, result)

    header = "parameter,mode,t_cl,dtcl_dp,dT_dp"
    if verify:
        header += ",fd_slope,rel_err,passed"
    rows = []
    failures = 0
    for k in cfg.sens_params:
        cells = [
            cfg.param_names[k],
            str(int(result.mode)),
            _fmt(result.t_cl),
            _fmt(sens.dt_cl[k]),
            _fmt(sens.dT[k]) if sens.dT is not None else "",
        ]
        if verify:
            eps = _fd_step(cfg.p0[k])
            fd = fd_cct_slope(system, cfg.p0, k, eps, cfg.opts)
            report = compare(
                f"slope_{cfg.param_names[k]}", float(sens.dt_cl[k]), fd, (eps,), _SLOPE_TOL
            )
            failures += not report.passed
            cells += [_fmt(fd), _fmt(report.rel_err), "pass" if report.passed else "fail"]
        rows.append(",".join(cells))
    _write_csv(cfg.out_dir / "sensitivity.csv", cfg.sha256, header, rows)
    return 3 if failures else 0


def _sweep_chunk(effective: dict, values: Sequence[float]) -> list:
    """(t_cl, mode, slope) for each value, in order.

    The chunk stops at its first failing value and returns that value's
    exception in its place, so the caller can raise the failure of the
    lowest failing value whichever chunk holds it.
    """
    cfg = _parse_config(effective)
    system = build_system(cfg)
    out = []
    for value in values:
        p = cfg.p0.copy()
        p[cfg.sweep_param] = value
        try:
            result = compute_cct(system, p, cfg.opts)
            slope = None
            if cfg.sweep_tangents and result.mode is not InstabilityMode.NO_RETURN:
                slope = float(cct_sensitivity(system, p, result).dt_cl[cfg.sweep_param])
        except Exception as exc:
            out.append(exc)
            break
        out.append((result.t_cl, int(result.mode), slope))
    return out


def cmd_sweep(cfg: RunConfig) -> int:
    _require(cfg.sweep_param is not None, 'the sweep subcommand needs a "sweep" block')
    name = cfg.param_names[cfg.sweep_param]
    header = "parameter,value,t_cl,mode"
    if cfg.sweep_tangents:
        header += ",tangent_slope"

    values = list(cfg.sweep_values)
    jobs = min(cfg.jobs, len(values))
    if jobs > 1:
        # Point i goes to worker i % jobs: contiguous chunks would hand one
        # worker the cheap stretch of a sweep and another its dear one.
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(_sweep_chunk, cfg.effective, values[k::jobs])
                for k in range(jobs)
            ]
            chunks = [fut.result() for fut in futures]
    else:
        chunks = [_sweep_chunk(cfg.effective, values)]

    # A chunk ends at its first failure, so every point before the lowest
    # failing one is present.
    rows = []
    for i, value in enumerate(values):
        point = chunks[i % len(chunks)][i // len(chunks)]
        if isinstance(point, Exception):
            raise point
        t_cl, mode, slope = point
        cells = [name, _fmt(value), _fmt(t_cl), str(mode)]
        if cfg.sweep_tangents:
            cells.append(_fmt(slope))
        rows.append(",".join(cells))
    _write_csv(cfg.out_dir / "sweep.csv", cfg.sha256, header, rows)
    return 0


def cmd_sr_grid(cfg: RunConfig) -> int:
    _require(cfg.grid is not None, 'the sr-grid subcommand needs a "grid" block')
    system = build_system(cfg)
    # The grid has its own defaults; the configuration overrides only the
    # keys it names.
    tol = cfg.effective.get("tolerances", {})
    kwargs = {
        "opts": replace(_GRID_OPTS, **{k: v for k, v in tol.items() if k in _INTEGRATION_KEYS}),
        "sep_radius": tol.get("sep_radius", _GRID_SEP_RADIUS),
    }
    if cfg.opts.sep_guess is not None:
        kwargs["sep_guess"] = cfg.opts.sep_guess
    if cfg.jobs > 1:
        kwargs["jobs"] = cfg.jobs
        kwargs["system_factory"] = cfg.system_factory
    grid = sample_stability_region(system, cfg.p0, cfg.grid, **kwargs)

    spec = cfg.grid
    class_rows = [
        f"{_fmt(spec.x1[i])},{_fmt(spec.x2[j])},{grid.classes[i, j].value}"
        for i in range(spec.n1) for j in range(spec.n2)
    ]
    _write_csv(cfg.out_dir / "grid_classes.csv", cfg.sha256, "x1,x2,class", class_rows)

    boundary_rows = [
        f"{_fmt(bp.x[0])},{_fmt(bp.x[1])},{bp.constraint},{bp.kind.value},{_fmt(bp.h_dot)}"
        for bp in list(grid.boundary_points) + list(grid.semi_saddles)
    ]
    for j, arm in enumerate(grid.manifolds):
        boundary_rows += [
            f"{_fmt(x[0])},{_fmt(x[1])},,separatrix_{j}," for x in arm
        ]
    _write_csv(
        cfg.out_dir / "grid_boundary.csv", cfg.sha256,
        "x1,x2,constraint,kind,h_dot", boundary_rows,
    )
    return 0


def cmd_validate(cfg: RunConfig) -> int:
    system = build_system(cfg)
    reports = oracle_suite(
        system, cfg.p0, cfg.opts,
        sens_params=cfg.sens_params, quantities=cfg.quantities,
    )
    _write_csv(
        cfg.out_dir / "validate.csv", cfg.sha256, ORACLE_CSV_HEADER,
        [oracle_csv_row(r) for r in reports],
    )
    return 0 if all(r.passed for r in reports) else 3


_COMMANDS = {
    "cct": cmd_cct,
    "sens": cmd_sens,
    "sweep": cmd_sweep,
    "sr-grid": cmd_sr_grid,
    "validate": cmd_validate,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cctsens",
        description="Critical clearing times and their parameter sensitivities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("cct", "critical clearing time with trajectories"),
        ("sens", "critical-time sensitivities per parameter"),
        ("sweep", "critical time along a parameter sweep"),
        ("sr-grid", "stability-region grid of the post-fault system"),
        ("validate", "run the independent oracle suite"),
    ]:
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="JSON configuration file")
        cmd.add_argument("--out", help="output directory (overrides the config)")
        cmd.add_argument(
            "--tol", action="append", metavar="KEY=VALUE",
            help="override one tolerance, repeatable",
        )
        if name in ("cct", "sens"):
            cmd.add_argument(
                "--verify", action="store_true", help="attach independent oracle checks",
            )
        if name in ("sweep", "sr-grid"):
            cmd.add_argument("--jobs", type=int, default=1, help="worker processes")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.tol or (), args.out, getattr(args, "jobs", 1))
        try:
            cfg.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"cannot create the output directory {cfg.out_dir}: {exc}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        command = _COMMANDS[args.command]
        return command(cfg, args.verify) if "verify" in args else command(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CctError as exc:
        _write_json(cfg.out_dir / "error.json", {
            "config_sha256": cfg.sha256,
            "error": {"type": type(exc).__name__, "message": str(exc)},
        })
        print(f"computation error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
