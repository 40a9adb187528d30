"""Finite-difference and brute-force oracles for the analytic results.

Everything here recomputes its answer from scratch: critical-time
slopes come from central differences of repeated bisection runs,
trajectory sensitivities from perturbed integrations, and the critical
time itself from a uniform scan over clearing times.  None of it calls
the variational machinery or the tangency formulas, so agreement is
evidence rather than tautology.

The scan deliberately walks clearing times in ascending order, one
post-fault verdict at a time, and a partial scan stops at the first
unstable point.  Its premise, that instability is monotone in the
clearing time, is unchanged and is exactly what it is used to check:
with ``verify_monotone`` every grid point is classified and any stable
point found above the first unstable one is reported as a warning
instead of being absorbed into the answer.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .cct import (
    CctOptions,
    InstabilityMode,
    _run_fault,
    classify_post_fault,
    compute_cct,
    operating_point,
)
from .errors import ModeChangedAcrossStep, NoFiniteCct, UnsupportedMode
from .integrator import (
    EventKind,
    IntegrationOptions,
    integrate,
    integrate_with_sensitivities,
    state_at,
)
from .model import ConstrainedSystem, Phase
from .model import find_equilibrium  # not called here; bench/spans.py patches this import site

_REL_FLOOR = 1e-12
_FD_REL_STEP = 1e-4
_FD_ABS_FLOOR = 1e-6
# Tolerances of the perturbed runs behind the flow derivatives.
_FD_FLOW_OPTS = IntegrationOptions(rel_tol=1e-10, abs_tol=1e-12)
# Pass bounds: relative error of a slope, absolute error of a flow derivative.
_SLOPE_TOL = 0.05
_PHI_TOL = 1e-3


@dataclass(frozen=True)
class OracleReport:
    """One analytic quantity checked against an independent oracle."""

    name: str
    analytic: float
    oracle: float
    rel_err: float
    steps: tuple[float, ...]
    tol: float
    passed: bool


def compare(
    name: str,
    analytic: float,
    oracle: float,
    steps: Sequence[float],
    tol: float,
) -> OracleReport:
    """Build a report row; the error denominator is floored at 1e-12."""
    rel = abs(analytic - oracle) / max(abs(oracle), _REL_FLOOR)
    return OracleReport(
        name=name,
        analytic=float(analytic),
        oracle=float(oracle),
        rel_err=rel,
        steps=tuple(float(s) for s in steps),
        tol=float(tol),
        passed=rel <= tol,
    )


def compare_abs(
    name: str,
    analytic: float,
    oracle: float,
    steps: Sequence[float],
    abs_tol: float,
) -> OracleReport:
    """Report row for an absolute-gap criterion.

    The stored tolerance is the absolute one rescaled by the same
    floored denominator as the relative error, so the recorded
    pass/fail is exactly |analytic - oracle| <= abs_tol.
    """
    den = max(abs(oracle), _REL_FLOOR)
    return compare(name, analytic, oracle, steps, abs_tol / den)


ORACLE_CSV_HEADER = "name,analytic,oracle,rel_err,steps,tol,passed"


def oracle_csv_row(report: OracleReport) -> str:
    steps = ";".join("%.17g" % s for s in report.steps)
    return "%s,%.17g,%.17g,%.17g,%s,%.17g,%s" % (
        report.name,
        report.analytic,
        report.oracle,
        report.rel_err,
        steps,
        report.tol,
        "pass" if report.passed else "fail",
    )


def _fd_step(value: float) -> float:
    return max(_FD_REL_STEP * abs(value), _FD_ABS_FLOOR)


def fd_cct_slope(
    system: ConstrainedSystem,
    p: np.ndarray,
    k: int,
    eps: Optional[float] = None,
    opts: Optional[CctOptions] = None,
) -> float:
    """Central-difference slope of the critical time in parameter k.

    Both side runs use a bisection tolerance of at most eps/10 so the
    bracket noise stays well under the difference being measured.  The
    slope only exists while the instability mechanism is unchanged;
    if the two sides disagree on the mode the difference quotient
    straddles a kink and ModeChangedAcrossStep is raised.  An ``eps``
    that is not positive and finite raises ValueError.
    """
    p = np.asarray(p, dtype=float)
    if not 0 <= k < p.size:
        raise IndexError(f"parameter index {k} out of range for {p.size} parameters")
    if eps is None:
        eps = _fd_step(p[k])
    elif not (eps > 0.0 and math.isfinite(eps)):
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if opts is None:
        opts = CctOptions()
    if opts.bisection_tol > eps / 10.0:
        opts = replace(opts, bisection_tol=eps / 10.0)

    hi = p.copy()
    lo = p.copy()
    hi[k] += eps
    lo[k] -= eps
    res_hi = compute_cct(system, hi, opts)
    res_lo = compute_cct(system, lo, opts)
    if res_hi.mode is not res_lo.mode:
        raise ModeChangedAcrossStep(
            f"instability mode is {int(res_lo.mode)} at p[{k}] - {eps:g} but "
            f"{int(res_hi.mode)} at p[{k}] + {eps:g}; the slope is undefined "
            "across the switch"
        )
    return (res_hi.t_cl - res_lo.t_cl) / (2.0 * eps)


def fd_trajectory_sensitivity(
    system: ConstrainedSystem,
    phase: Phase,
    x0: np.ndarray,
    p: np.ndarray,
    t: float,
    k: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Central-difference flow derivatives at time t.

    Returns the full state-to-state matrix and the column for
    parameter k, each from a pair of perturbed integrations at tight
    tolerances, with each coordinate's step from ``_fd_step``.
    """
    x0 = np.asarray(x0, dtype=float)
    p = np.asarray(p, dtype=float)
    if not 0 <= k < p.size:
        raise IndexError(f"parameter index {k} out of range for {p.size} parameters")
    n = x0.size
    if t == 0.0:
        return np.eye(n), np.zeros(n)
    opts = replace(_FD_FLOW_OPTS, t_max=t)

    def endpoint(x_start: np.ndarray, params: np.ndarray) -> np.ndarray:
        return integrate(system, phase, x_start, params, opts).final_state

    phi_x = np.empty((n, n))
    steps_x = np.array([_fd_step(v) for v in x0])
    for i in range(n):
        d = np.zeros(n)
        d[i] = steps_x[i]
        phi_x[:, i] = (endpoint(x0 + d, p) - endpoint(x0 - d, p)) / (2.0 * steps_x[i])

    eps_p = _fd_step(p[k])
    dp = np.zeros(p.size)
    dp[k] = eps_p
    phi_p_col = (endpoint(x0, p + dp) - endpoint(x0, p - dp)) / (2.0 * eps_p)
    return phi_x, phi_p_col


def _classify_times(point, traj, times, full):
    """Stable flag of clearing at each of ``times``: one verdict at ``point`` each, in order.

    Stops at the first unstable point unless ``full``, and raises the
    first verdict's error it meets.
    """
    stable = []
    for t in times:
        ok = classify_post_fault(point, state_at(traj, t)).stable
        stable.append(ok)
        if not (ok or full):
            break
    return stable


def scan_cct(
    system: ConstrainedSystem,
    p: np.ndarray,
    step: float,
    opts: Optional[CctOptions] = None,
    verify_monotone: bool = False,
) -> float:
    """Brute-force critical time on a uniform clearing-time grid.

    Classifies clearing at t = step, 2*step, ... and returns the first
    unstable time minus half a step.  Clearing at or beyond the moment
    the faulted trajectory leaves the feasible region is unstable
    without further simulation, which also bounds the grid.  Raises
    NoFiniteCct when every grid point up to the horizon is stable.
    Every grid point is classified with ``verify_monotone``.  One
    ``operating_point`` serves every grid point.
    """
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"scan step must be positive and finite, got {step}")
    point = operating_point(system, p, opts)
    traj = _run_fault(point, point.opts.integration.t_max)
    hit = traj.first_event(EventKind.CONSTRAINT_CROSSING)

    if hit is not None:
        n_interior = math.ceil(hit.time / step) - 1
    else:
        n_interior = math.floor(traj.final_time / step)
    times = [step * (j + 1) for j in range(n_interior)]
    stable = _classify_times(point, traj, times, verify_monotone)

    first_unstable = next((j for j, ok in enumerate(stable) if not ok), None)
    if first_unstable is not None:
        if verify_monotone:
            late_stable = [
                times[j] for j in range(first_unstable + 1, len(stable)) if stable[j]
            ]
            if late_stable:
                warnings.warn(
                    "clearing-time scan is not monotone: stable points at "
                    f"{late_stable} above first unstable {times[first_unstable]:g}",
                    RuntimeWarning,
                )
        return times[first_unstable] - step / 2.0

    if hit is not None:
        # Every interior point recovered, so the first unstable grid
        # point is the first one at or past the feasibility exit.
        return step * (n_interior + 1) - step / 2.0
    raise NoFiniteCct(
        f"every clearing time up to {traj.final_time:g} is stable; "
        "raise the integration horizon to scan further"
    )


def oracle_suite(
    system: ConstrainedSystem,
    p: np.ndarray,
    opts: Optional[CctOptions] = None,
    sens_params: Optional[Sequence[int]] = None,
    quantities: Optional[Sequence[str]] = None,
) -> list[OracleReport]:
    """Cross-check the analytic pipeline on one configuration.

    Emits one row for the critical time against the clearing-time scan,
    one per selected parameter for the tangency slope against the
    central difference, and one per flow-derivative entry over the
    faulted segment.  ``quantities`` filters rows by name prefix.
    Slope rows are only produced for instability modes that define
    them, and only for the selected parameters: an inactive parameter
    has a true slope of zero, where a relative criterion is meaningless.
    """
    from .sensitivity import cct_sensitivity

    if opts is None:
        opts = CctOptions()
    p = np.asarray(p, dtype=float)
    names = list(system.param_names)
    if sens_params is None:
        sens_params = range(len(names))

    def wanted(name: str) -> bool:
        if quantities is None:
            return True
        return any(name == q or name.startswith(q) for q in quantities)

    # One tight run serves every analytic value; the graze-based slope
    # formula degrades with a loose bracket.
    run_opts = (
        opts if opts.bisection_tol <= 1e-4
        else replace(opts, bisection_tol=1e-4)
    )
    result = compute_cct(system, p, run_opts)
    reports: list[OracleReport] = []

    if wanted("cct_scan"):
        scan_step = opts.bisection_tol / 10.0
        oracle = scan_cct(system, p, scan_step, opts)
        reports.append(compare_abs(
            "cct_scan", result.t_cl, oracle, (scan_step,), opts.bisection_tol,
        ))

    slope_rows = [k for k in sens_params if wanted(f"slope_{names[k]}")]
    if slope_rows and result.mode is not InstabilityMode.NO_RETURN:
        sens = cct_sensitivity(system, p, result)
        for k in slope_rows:
            eps = _fd_step(p[k])
            try:
                fd = fd_cct_slope(system, p, k, eps, opts)
            except ModeChangedAcrossStep as exc:
                warnings.warn(str(exc), RuntimeWarning)
                continue
            reports.append(compare(
                f"slope_{names[k]}", sens.dt_cl[k], fd, (eps,), _SLOPE_TOL,
            ))
    elif slope_rows and quantities is not None:
        raise UnsupportedMode(
            "slope oracles were requested but the configuration loses "
            "stability without touching the boundary"
        )

    phi_params = [k for k in sens_params if wanted(f"phi_p_{names[k]}")]
    want_phi_x = wanted("phi_x")
    if want_phi_x or phi_params:
        _, bundle = integrate_with_sensitivities(
            system, Phase.FAULT_ON, result.x_sep_pre, p,
            replace(opts.integration, t_max=result.t_cl),
        )
        fd_x, _ = fd_trajectory_sensitivity(
            system, Phase.FAULT_ON, result.x_sep_pre, p, result.t_cl, 0
        )
        if want_phi_x:
            for i in range(system.n):
                for j in range(system.n):
                    reports.append(compare_abs(
                        f"phi_x[{i},{j}]",
                        bundle.final_phi_x[i, j], fd_x[i, j],
                        (_fd_step(result.x_sep_pre[j]),), _PHI_TOL,
                    ))
        for k in phi_params:
            _, fd_col = fd_trajectory_sensitivity(
                system, Phase.FAULT_ON, result.x_sep_pre, p, result.t_cl, k
            )
            for i in range(system.n):
                reports.append(compare_abs(
                    f"phi_p_{names[k]}[{i}]",
                    bundle.final_phi_p[i, k], fd_col[i],
                    (_fd_step(p[k]),), _PHI_TOL,
                ))
    return reports
