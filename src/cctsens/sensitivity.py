"""Parameter sensitivities of the critical clearing time.

The clearing state is the fault flow evaluated at the critical time,
x_cr(p) = phi^fault(t_cl(p), x_s(p), p), so its total derivative
combines the field at clearing (M2), the state-transition matrix of
the fault flow (M1), the trajectory's direct parameter sensitivity
(M3), and the movement of the pre-fault equilibrium (M4):

    dx_cr/dp = M2 dt_cl/dp + M1 M4 + M3.

Mode 1 (fault-boundary): the clearing state stays pinned to the active
constraint, h_k(x_cr, p) = 0.  Differentiating gives one scalar
condition, solved for dt_cl/dp.

Mode 2 (post-fault grazing): the post-fault flow from the clearing
state touches the limiting constraint h_k tangentially at time T, so
both h_k = 0 and its drift (grad_x h_k) f = 0 hold at
x_T(p) = phi^post(T(p), x_cr(p), p).  Differentiating both gives a 2x2
system in (dt_cl/dp, dT/dp).  Only h_k enters: every other limit is
inactive at the graze and has no say in the critical time.

Mode 3 has no boundary interaction to differentiate and is rejected.

All transition matrices come from the variational equations integrated
alongside the trajectory, at the default ``IntegrationOptions`` whatever
tolerances the critical-time search used; boundary derivatives are
evaluated at the stored critical states.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .boundary import PseudoEpKind, classify_pseudo_ep, combined_constraints
from .cct import CriticalResult, InstabilityMode
from .errors import CctError, DegenerateGeometry, TangentialIntersection, UnsupportedMode
from .integrator import IntegrationOptions, integrate_with_sensitivities
from .model import ConstrainedSystem, Constraint, Phase, eval_f, eval_jacobians, sep_sensitivity

__all__ = [
    "FaultSensitivityMatrices",
    "PostFaultMatrices",
    "SensitivityResult",
    "fault_matrices",
    "post_matrices",
    "cct_sensitivity_mode1",
    "cct_sensitivity_mode2",
    "cct_sensitivity",
]

# Relative floor on the transversality denominator in the mode-1 formula.
_TANGENT_TOL = 1e-8
# Relative floor on the smallest singular value of the mode-2 system.
_DEGENERATE_TOL = 1e-10
# Tolerances of every variational run, whatever the critical-time search used.
_VARIATIONAL_OPTS = IntegrationOptions()
# Tangency band of the mode-2 graze warning, relative to |grad_x h_k| |f|.
_GRAZE_WARN_TOL = 0.05


@dataclass(frozen=True)
class FaultSensitivityMatrices:
    """Chain-rule ingredients along the fault segment."""

    m1: np.ndarray  # (n, n)   d x(t_cl) / d x(0)
    m2: np.ndarray  # (n,)     fault field at the clearing state
    m3: np.ndarray  # (n, n_p) d x(t_cl) / d p along the fault flow
    m4: np.ndarray  # (n, n_p) d x_sep_pre / d p
    constraint: Optional[str]  # active boundary at clearing, mode 1 only


@dataclass(frozen=True)
class PostFaultMatrices:
    """Chain-rule ingredients along the post-fault segment to the graze."""

    o1: np.ndarray  # (n, n)   d x(T) / d x_cr
    o2: np.ndarray  # (n,)     post-fault field at the graze state
    o3: np.ndarray  # (n, n_p) d x(T) / d p along the post-fault flow

@dataclass(frozen=True)
class SensitivityResult:
    """dt_cl/dp, plus dT/dp when a graze time exists (mode 2)."""

    mode: InstabilityMode
    dt_cl: np.ndarray
    dT: Optional[np.ndarray] = None


def fault_matrices(
    system: ConstrainedSystem,
    p: np.ndarray,
    result: CriticalResult,
) -> FaultSensitivityMatrices:
    """Variational run over the fault segment of a critical result."""
    p = np.asarray(p, dtype=float)
    if not result.t_cl > 0.0:
        raise ValueError(f"critical time must be positive, got {result.t_cl}")
    _, bundle = integrate_with_sensitivities(
        system, Phase.FAULT_ON, result.x_sep_pre, p,
        replace(_VARIATIONAL_OPTS, t_max=result.t_cl),
    )
    return FaultSensitivityMatrices(
        m1=bundle.final_phi_x,
        m2=eval_f(system, Phase.FAULT_ON, result.x_cr, p),
        m3=bundle.final_phi_p,
        m4=sep_sensitivity(system, Phase.PRE_FAULT, p, result.x_sep_pre),
        constraint=(
            result.crossing_label
            if result.mode is InstabilityMode.FAULT_BOUNDARY else None
        ),
    )


def post_matrices(
    system: ConstrainedSystem,
    p: np.ndarray,
    result: CriticalResult,
) -> PostFaultMatrices:
    """Variational run from the clearing state to the graze time."""
    p = np.asarray(p, dtype=float)
    if result.T is None or result.x_T is None:
        raise ValueError("result carries no post-fault limiting event")
    if not result.T > 0.0:
        raise ValueError(f"graze time must be positive, got {result.T}")
    _, bundle = integrate_with_sensitivities(
        system, Phase.POST_FAULT, result.x_cr, p,
        replace(_VARIATIONAL_OPTS, t_max=result.T),
    )
    return PostFaultMatrices(
        o1=bundle.final_phi_x,
        o2=eval_f(system, Phase.POST_FAULT, result.x_T, p),
        o3=bundle.final_phi_p,
    )


def _limiting_constraint(constraints, result: CriticalResult) -> Constraint:
    for c in constraints:
        if c.name == result.crossing_label:
            return c
    raise ValueError(f"unknown limiting constraint {result.crossing_label!r}")


def _clearing_shift(fm: FaultSensitivityMatrices) -> np.ndarray:
    """dx_cr/dp at frozen t_cl: initial-condition motion plus direct."""
    return fm.m1 @ fm.m4 + fm.m3


def cct_sensitivity_mode1(
    system: ConstrainedSystem,
    p: np.ndarray,
    result: CriticalResult,
) -> np.ndarray:
    """dt_cl/dp when the fault trajectory itself hits the boundary.

    The clearing state rides the active constraint, so
    d/dp [h_k(x_cr(p), p)] = 0 pins the critical time.  The formula
    needs the fault field transversal to the constraint; a tangential
    hit has no locally defined clearing-time function.
    """
    p = np.asarray(p, dtype=float)
    if result.mode is not InstabilityMode.FAULT_BOUNDARY:
        raise ValueError(f"fault-boundary formula applied to mode {int(result.mode)}")
    c = _limiting_constraint(combined_constraints(system), result)

    fm = fault_matrices(system, p, result)
    m5 = np.asarray(c.grad_x(result.x_cr, p), dtype=float)
    m6 = -np.asarray(c.grad_p(result.x_cr, p), dtype=float)
    denom = float(m5 @ fm.m2)
    scale = float(np.linalg.norm(m5) * np.linalg.norm(fm.m2))
    if scale == 0.0 or abs(denom) < _TANGENT_TOL * scale:
        raise TangentialIntersection(
            f"fault field is tangential to {c.name!r} at the hit "
            f"(normal speed {denom:.3g} vs scale {scale:.3g})"
        )
    return (m6 - m5 @ _clearing_shift(fm)) / denom


def _graze_rows(
    c: Constraint, x, p, f: np.ndarray, jac_x: np.ndarray, jac_p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """x- and p-gradients of h and of its drift hdot = (grad_x h) f, as rows.

    ``f``, ``jac_x`` and ``jac_p`` are the field and its Jacobians at x:

        d hdot/dx = hess_xx f + jac_x^T grad_x h
        d hdot/dp = hess_xp^T f + jac_p^T grad_x h
    """
    if c.hess_xx is None or c.hess_xp is None:
        raise CctError(
            f"constraint {c.name!r} lacks second derivatives; "
            "they are required for the graze conditions"
        )
    gx = np.asarray(c.grad_x(x, p), dtype=float)
    gp = np.asarray(c.grad_p(x, p), dtype=float)
    hxx = np.asarray(c.hess_xx(x, p), dtype=float)
    hxp = np.asarray(c.hess_xp(x, p), dtype=float)
    return (
        np.vstack([gx, hxx @ f + jac_x.T @ gx]),
        np.vstack([gp, hxp.T @ f + jac_p.T @ gx]),
    )


def cct_sensitivity_mode2(
    system: ConstrainedSystem,
    p: np.ndarray,
    result: CriticalResult,
) -> tuple[np.ndarray, np.ndarray]:
    """(dt_cl/dp, dT/dp) when the critical post-fault run grazes.

    Solves the stacked graze conditions h_k(x_T, p) = 0 and
    (grad_x h_k) f(x_T, p) = 0 of the post-fault constraint h_k that
    ``result.crossing_label`` names for the two scalar unknowns.  A
    graze state that also lies on another post-fault constraint (within
    1e-6 h_ref) is a corner, where the critical time has a kink, and
    raises DegenerateGeometry.  The mismatch of the stored x_T from a
    clean tangency scales like sqrt(bisection_tol); a warning points at
    the bracket when the graze looks too one-sided to trust.
    """
    p = np.asarray(p, dtype=float)
    if result.mode is not InstabilityMode.POST_FAULT_CROSSING:
        raise ValueError(f"grazing formula applied to mode {int(result.mode)}")
    constraints = system.phases[Phase.POST_FAULT].constraints
    c = _limiting_constraint(constraints, result)

    on_boundary = 1e-6 * result.h_ref
    graze = classify_pseudo_ep(
        system, Phase.POST_FAULT, c, result.x_T, p,
        boundary_tol=on_boundary, tangency_tol=_GRAZE_WARN_TOL,
    )
    if graze.kind is not PseudoEpKind.SEMI_SADDLE:
        warnings.warn(
            f"stored graze state classifies as {graze.kind.value} "
            f"(drift {graze.h_dot:.3g} vs band {graze.threshold:.3g}); "
            "tighten bisection_tol before trusting these sensitivities",
            RuntimeWarning,
            stacklevel=2,
        )

    fm = fault_matrices(system, p, result)
    pm = post_matrices(system, p, result)
    for o in constraints:
        if o is not c and abs(o.value(result.x_T, p)) <= on_boundary:
            raise DegenerateGeometry(
                f"graze state lies on {c.name!r} and on {o.name!r}; the "
                "critical time has a kink where the limiting constraint switches"
            )
    jx, jp = eval_jacobians(system, Phase.POST_FAULT, result.x_T, p)
    o4, o4_p = _graze_rows(c, result.x_T, p, pm.o2, jx, jp)
    o5 = -o4_p

    a = o4 @ np.column_stack([pm.o1 @ fm.m2, pm.o2])
    svals = np.linalg.svd(a, compute_uv=False)
    if not svals[0] > 0.0 or svals[-1] <= _DEGENERATE_TOL * svals[0]:
        raise DegenerateGeometry(
            "graze conditions do not determine (t_cl, T): singular values "
            f"{svals[0]:.3g}, {svals[-1]:.3g}"
        )
    rhs = o5 - o4 @ (pm.o3 + pm.o1 @ _clearing_shift(fm))
    sol = np.linalg.solve(a, rhs)
    return sol[0], sol[1]


def cct_sensitivity(
    system: ConstrainedSystem,
    p: np.ndarray,
    result: CriticalResult,
) -> SensitivityResult:
    """Mode-dispatching front end for the critical-time sensitivities."""
    if result.mode is InstabilityMode.NO_RETURN:
        raise UnsupportedMode(
            "the no-return mode has no boundary interaction to "
            "differentiate; only modes 1 and 2 carry sensitivities"
        )
    if result.mode is InstabilityMode.FAULT_BOUNDARY:
        return SensitivityResult(
            mode=result.mode,
            dt_cl=cct_sensitivity_mode1(system, p, result),
        )
    dt_cl, d_t = cct_sensitivity_mode2(system, p, result)
    return SensitivityResult(mode=result.mode, dt_cl=dt_cl, dT=d_t)
