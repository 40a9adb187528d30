"""Critical clearing time estimation by bisection over the fault duration.

The system starts at its pre-fault stable equilibrium.  A fault holds
for a clearing time t_cl, after which the post-fault dynamics take
over.  A clearing time is acceptable when the post-fault trajectory
returns to the post-fault SEP without leaving the feasible region; the
critical clearing time is the supremum of acceptable values.

Instability at the critical time takes one of three forms:

  1 FAULT_BOUNDARY: the fault trajectory itself reaches the union of
    the fault and post-fault constraint boundaries, so clearing any
    later is infeasible outright.  The critical time is the refined
    boundary-hit time.
  2 POST_FAULT_CROSSING: clearing states stay feasible but the
    post-fault transient crosses the boundary at a finite time t1;
    at criticality it grazes the boundary tangentially.
  3 NO_RETURN: the post-fault transient stays feasible yet never
    returns to the SEP, passing instead near a competing equilibrium
    where the field norm collapses.

Bisection maintains a bracket [t_lo, t_hi] with a stable verdict at
t_lo and an unstable one at t_hi; clearing states are interpolated
from a single sustained-fault trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import IntEnum
from typing import Optional

import numpy as np

from .boundary import combined_constraints, eval_H
from .errors import (
    BracketCollapse,
    InconclusiveRun,
    NoEquilibriumFound,
    NoFiniteCct,
    SingularJacobian,
)
from .integrator import (
    EventConfig,
    EventKind,
    IntegrationOptions,
    Trajectory,
    integrate,
    integrate_lanes,
    state_at,
)
from .model import (
    _LOOSE_FACTOR,
    ConstrainedSystem,
    EquilibriumClass,
    Phase,
    _attraction_radius,
    find_equilibrium,
)

__all__ = [
    "InstabilityMode",
    "CctOptions",
    "PostFaultClassification",
    "CriticalResult",
    "OperatingPoint",
    "classify_post_fault",
    "clearing_outcome",
    "compute_cct",
    "operating_point",
]

class InstabilityMode(IntEnum):
    FAULT_BOUNDARY = 1
    POST_FAULT_CROSSING = 2
    NO_RETURN = 3


@dataclass(frozen=True)
class CctOptions:
    """Tolerances and budgets for the critical-time search."""

    integration: IntegrationOptions = IntegrationOptions()
    bisection_tol: float = 0.01
    sep_radius: float = 1e-3
    clearing_feasibility_tol: float = 1e-5
    field_norm_threshold: float = 1e-3
    horizon_doublings: int = 6
    sep_guess: Optional[np.ndarray] = None
    reverify: bool = False

    def __post_init__(self) -> None:
        if not (self.bisection_tol > 0.0 and math.isfinite(self.bisection_tol)):
            raise ValueError("bisection_tol must be positive and finite")
        if not (self.sep_radius > 0.0 and math.isfinite(self.sep_radius)):
            raise ValueError("sep_radius must be positive and finite")
        feasibility_tol = self.clearing_feasibility_tol
        if not (feasibility_tol >= 0.0 and math.isfinite(feasibility_tol)):
            raise ValueError("clearing_feasibility_tol must be non-negative and finite")
        if not (self.field_norm_threshold > 0.0 and math.isfinite(self.field_norm_threshold)):
            raise ValueError("field_norm_threshold must be positive and finite")
        if self.horizon_doublings < 0:
            raise ValueError("horizon_doublings must be non-negative")


@dataclass(frozen=True)
class PostFaultClassification:
    """Verdict for one clearing state.

    ``t1`` is the post-fault boundary-crossing time, ``t2`` the first
    field-norm capture away from the SEP; both are inf when absent.
    ``T = min(t1, t2)`` locates the decisive event of an unstable run.
    """

    stable: bool
    t1: float = math.inf
    t2: float = math.inf
    T: float = math.inf
    x_T: Optional[np.ndarray] = None
    crossing_label: Optional[str] = None
    f_norm_min: Optional[float] = None


@dataclass(frozen=True)
class CriticalResult:
    """Bisection outcome: the critical time, its bracket, and the mode."""

    t_cl: float
    mode: InstabilityMode
    t_lo: float
    t_hi: float
    x_cr: np.ndarray
    x_T: Optional[np.ndarray]
    T: Optional[float]
    t1: float
    t2: float
    crossing_label: Optional[str]
    iterations: int
    bracket_history: tuple[tuple[float, float], ...]
    x_sep_pre: np.ndarray
    x_sep_post: np.ndarray
    fault_hit_time: Optional[float]
    fault_hit_state: Optional[np.ndarray]
    h_ref: float


def _stable_equilibrium(system, phase, p, guess) -> np.ndarray:
    res = find_equilibrium(system, phase, p, guess)
    if res.classification is not EquilibriumClass.STABLE:
        raise NoEquilibriumFound(
            f"{phase.value}-phase equilibrium near {np.asarray(guess)} is "
            f"{res.classification.value}, not stable"
        )
    return res.x


@dataclass(frozen=True)
class OperatingPoint:
    """What every post-fault verdict at p reads; ``operating_point`` builds it.

    Both stable equilibria, the reference margin ``h_ref`` (the
    post-fault feasibility product at x_sep_pre) and the post-fault
    ``events``: the SEP ball, certified when the phase allows, and the
    ``_sink_stop`` for runs captured in a competing sink.
    """

    x_sep_pre: np.ndarray
    x_sep_post: np.ndarray
    h_ref: float
    events: EventConfig


def operating_point(system: ConstrainedSystem, p: np.ndarray, opts: CctOptions) -> OperatingPoint:
    """Both SEPs, the reference margin and the post-fault events at p.

    The pre-fault SEP is sought from ``opts.sep_guess`` (the origin by
    default) and the post-fault SEP from it.  Raises NoFiniteCct unless
    every combined constraint is strictly positive at the pre-fault SEP.
    The certified balls are computed once per point, which callers pass
    to every verdict.
    """
    p = np.array(p, dtype=float)  # a copy: the sink stop keeps it
    guess = (
        np.zeros(system.n) if opts.sep_guess is None
        else np.asarray(opts.sep_guess, dtype=float)
    )
    x_sep_pre = _stable_equilibrium(system, Phase.PRE_FAULT, p, guess)
    x_sep_post = _stable_equilibrium(system, Phase.POST_FAULT, p, x_sep_pre)
    if not all(c.value(x_sep_pre, p) > 0.0 for c in combined_constraints(system)):
        raise NoFiniteCct(
            "the pre-fault equilibrium is not strictly feasible; "
            "no positive clearing time exists"
        )
    post = system.phases[Phase.POST_FAULT]
    radius = _attraction_radius(system, p, x_sep_post, opts.sep_radius)
    ball = opts.sep_radius if radius is None else radius
    events = EventConfig(
        constraints=post.constraints,
        sep_target=x_sep_post,
        sep_radius=ball,
        norm_min_threshold=opts.field_norm_threshold,
        stop_at_min=(
            None if post.lipschitz_bound(p) is None
            else _sink_stop(system, p, x_sep_post, ball, opts)
        ),
    )
    return OperatingPoint(
        x_sep_pre, x_sep_post, eval_H(system, Phase.POST_FAULT, x_sep_pre, p), events
    )


def _sink_stop(system, p, x_sep_post, ball: float, opts: CctOptions):
    """``EventConfig.stop_at_min`` ending a captured run inside a competing sink.

    A minimum farther than the loose radius from x_sep_post is a
    capture.  Newton from it finds x*; when x* is stable, has a ball
    from ``_attraction_radius`` and lies more than the loose radius plus
    ``ball`` (the run's SEP ball) from x_sep_post, and the step-end
    state lies in that ball, the run ends.  Its region stays inside
    every limit and within the loose radius of x*, so the full run would
    cross no limit and never reach the SEP ball: its verdict is
    "unstable at the first capture" either way.  Each sink's radius is
    computed once per predicate, and ``operating_point`` makes one
    predicate per point.
    """
    loose = _LOOSE_FACTOR * opts.sep_radius
    radii: dict = {}

    def stop(x_min, x_end) -> bool:
        if float(np.linalg.norm(x_min - x_sep_post)) <= loose:
            return False
        try:
            res = find_equilibrium(system, Phase.POST_FAULT, p, x_min)
        except (NoEquilibriumFound, SingularJacobian):
            return False
        if res.classification is not EquilibriumClass.STABLE:
            return False
        key = res.x.tobytes()
        if key not in radii:
            far = float(np.linalg.norm(res.x - x_sep_post)) > loose + ball
            radii[key] = _attraction_radius(system, p, res.x, opts.sep_radius) if far else None
        radius = radii[key]
        return radius is not None and float(np.linalg.norm(x_end - res.x)) <= radius

    return stop


def _post_fault_verdict(traj, x_cl, x_sep_post, opts: CctOptions):
    """Verdict of one post-fault run; raises InconclusiveRun if it has none.

    Convergence without a crossing is stable; otherwise the earlier of
    a crossing and a capture away from the SEP decides.  A run with
    none of the three is stable only if it ends loosely near the SEP.
    """
    crossing = traj.first_event(EventKind.CONSTRAINT_CROSSING)
    converged = traj.first_event(EventKind.CONVERGED_TO_SEP) is not None
    loose = _LOOSE_FACTOR * opts.sep_radius
    capture = next(
        (
            ev for ev in traj.events
            if ev.kind is EventKind.FIELD_NORM_LOCAL_MIN
            and float(np.linalg.norm(ev.state - x_sep_post)) > loose
        ),
        None,
    )

    t1 = crossing.time if crossing is not None else math.inf
    t2 = capture.time if capture is not None else math.inf
    f_norm_min = capture.info["f_norm"] if capture is not None else None

    if converged and crossing is None:
        return PostFaultClassification(stable=True, t2=t2, f_norm_min=f_norm_min)
    if crossing is not None and t1 <= t2:
        return PostFaultClassification(
            stable=False, t1=t1, t2=t2, T=t1, x_T=crossing.state.copy(),
            crossing_label=crossing.info.get("constraint"), f_norm_min=f_norm_min,
        )
    if capture is not None:
        return PostFaultClassification(
            stable=False, t1=t1, t2=t2, T=t2, x_T=capture.state.copy(),
            crossing_label=None, f_norm_min=f_norm_min,
        )
    # Horizon reached without any verdict: accept slow convergence if
    # the end state is at least loosely near the SEP.
    end_dist = float(np.linalg.norm(traj.final_state - x_sep_post))
    if end_dist <= loose:
        return PostFaultClassification(stable=True)
    raise InconclusiveRun(
        f"post-fault run from {x_cl} ended {end_dist:.3g} from the SEP at "
        f"t={traj.final_time:.3g} with no crossing, capture, or convergence; "
        "raise t_max or loosen thresholds"
    )


def classify_post_fault(
    system: ConstrainedSystem,
    p: np.ndarray,
    x_cl: np.ndarray,
    point: OperatingPoint,
    opts: CctOptions,
) -> PostFaultClassification:
    """Stable/unstable verdict for the post-fault run from one clearing state.

    A clearing state within ``clearing_feasibility_tol`` of the boundary
    (normalised feasibility product at or below it) is unstable with
    t1 = 0, labelled with its smallest constraint, and needs no
    integration.  Otherwise the state runs as the one lane of an
    ``integrate_lanes`` run, watched for a crossing of any post-fault
    constraint (immediate, t1 = 0, when the clearing state already
    violates one), for field-norm minima below ``field_norm_threshold``
    away from the SEP, and for entry into the SEP ball of ``point``:
    the ball of ``_attraction_radius`` when the phase certifies one,
    else the ball of ``sep_radius``.  The certified ball lies in a
    region of attraction that no run leaves or crosses a limit in, so a
    run that enters it is stable, whatever it recorded on the way.  A
    captured run that enters the certified ball of the competing stable
    equilibrium that captured it ends there (the point's
    ``_sink_stop``): it could no longer cross a limit or reach the SEP
    ball, so its verdict is already fixed.  Convergence beats captures
    seen on the way; a run that ends far from the SEP with no crossing
    and no capture is inconclusive.  ``point`` must come from
    ``operating_point`` at this system, p and the tolerances of opts.

    Raises NumericalBlowup, StiffnessFailure or InconclusiveRun.
    """
    p = np.asarray(p, dtype=float)
    x_cl = np.asarray(x_cl, dtype=float)
    constraints = system.phases[Phase.POST_FAULT].constraints
    if constraints and (
        eval_H(system, Phase.POST_FAULT, x_cl, p) / point.h_ref
        <= opts.clearing_feasibility_tol
    ):
        label = min(constraints, key=lambda c: c.value(x_cl, p)).name
        return PostFaultClassification(
            stable=False, t1=0.0, T=0.0, x_T=x_cl.copy(), crossing_label=label,
        )
    (traj,) = integrate_lanes(
        system, Phase.POST_FAULT, x_cl[None], p, opts.integration, point.events
    )
    if isinstance(traj, Exception):
        raise traj
    return _post_fault_verdict(traj, x_cl, point.x_sep_post, opts)


def _run_fault(system, p, x0, opts: CctOptions, horizon: float) -> Trajectory:
    events = EventConfig(constraints=combined_constraints(system))
    return integrate(
        system, Phase.FAULT_ON, x0, p,
        replace(opts.integration, t_max=horizon), events,
    )


def _hit_classification(crossing) -> PostFaultClassification:
    """Clearing at the combined-boundary hit is infeasible by definition."""
    return PostFaultClassification(
        stable=False, t1=0.0, T=0.0, x_T=crossing.state.copy(),
        crossing_label=crossing.info.get("constraint"),
    )


def compute_cct(
    system: ConstrainedSystem,
    p: np.ndarray,
    opts: Optional[CctOptions] = None,
) -> CriticalResult:
    """Bracket the critical clearing time and identify the instability mode.

    The sustained-fault trajectory provides clearing states by dense
    interpolation.  Its combined-boundary hit, when one exists, seeds
    the unstable end of the bracket; otherwise the horizon is doubled
    until some clearing state goes unstable.  Stable-at-zero and an
    unstable upper bound in hand, plain bisection narrows the bracket
    to ``bisection_tol``, or raises InconclusiveRun once no float lies
    between its ends.  One ``operating_point`` serves every verdict.
    """
    if opts is None:
        opts = CctOptions()
    p = np.asarray(p, dtype=float)
    point = operating_point(system, p, opts)

    cls_zero = classify_post_fault(system, p, point.x_sep_pre, point, opts)
    if not cls_zero.stable:
        raise NoFiniteCct("instant clearing is already unstable")

    # A fault run that misses the boundary has its end state classified;
    # when that is stable the next run doubles the horizon.  The run
    # after the last doubling is only checked for a hit.
    horizon = opts.integration.t_max
    hit_time = hit_state = None
    hi_cls: Optional[PostFaultClassification] = None
    for run in range(opts.horizon_doublings + 2):
        fault_traj = _run_fault(system, p, point.x_sep_pre, opts, horizon)
        crossing = fault_traj.first_event(EventKind.CONSTRAINT_CROSSING)
        if crossing is not None:
            t_hi = hit_time = crossing.time
            hit_state = crossing.state.copy()
            hi_cls = _hit_classification(crossing)
            break
        if run > opts.horizon_doublings:
            break
        cls_end = classify_post_fault(system, p, fault_traj.final_state, point, opts)
        if not cls_end.stable:
            t_hi, hi_cls = fault_traj.final_time, cls_end
            break
        horizon *= 2.0
    if hi_cls is None:
        raise NoFiniteCct(
            f"no unstable clearing time found up to t={horizon:.6g}; "
            "the clearing time appears unbounded"
        )
    hi_is_hit = hit_time is not None

    t_lo = 0.0
    history = [(t_lo, t_hi)]
    iterations = 0
    while t_hi - t_lo > opts.bisection_tol:
        t_mid = 0.5 * (t_lo + t_hi)
        if t_mid in (t_lo, t_hi):
            raise InconclusiveRun(
                f"no float lies between the bracket ends {t_lo!r} and {t_hi!r} "
                f"after {iterations} bisection steps; bisection_tol "
                f"{opts.bisection_tol:.3g} is finer than their spacing"
            )
        x_mid = state_at(fault_traj, t_mid)
        cls_mid = classify_post_fault(system, p, x_mid, point, opts)
        if cls_mid.stable:
            t_lo = t_mid
        else:
            t_hi = t_mid
            hi_cls = cls_mid
            hi_is_hit = False
        history.append((t_lo, t_hi))
        iterations += 1

    if opts.reverify:
        tight = replace(
            opts,
            integration=replace(
                opts.integration,
                rel_tol=opts.integration.rel_tol * 0.01,
                abs_tol=opts.integration.abs_tol * 0.01,
            ),
            reverify=False,
        )
        if t_lo > 0.0:
            lo_check = classify_post_fault(
                system, p, state_at(fault_traj, t_lo), point, tight
            )
            if not lo_check.stable:
                raise BracketCollapse(
                    f"t_lo={t_lo:.9g} reclassified unstable under tighter "
                    "integration tolerances"
                )
        if not hi_is_hit:
            hi_check = classify_post_fault(
                system, p, state_at(fault_traj, t_hi), point, tight
            )
            if hi_check.stable:
                raise BracketCollapse(
                    f"t_hi={t_hi:.9g} reclassified stable under tighter "
                    "integration tolerances"
                )

    if hi_is_hit:
        mode = InstabilityMode.FAULT_BOUNDARY
        t_cl = t_hi
        x_cr = hit_state
        x_T, T = None, None
    else:
        t_cl = 0.5 * (t_lo + t_hi)
        x_cr = state_at(fault_traj, t_cl)
        if hi_cls.t1 <= hi_cls.t2:
            mode = InstabilityMode.POST_FAULT_CROSSING
        else:
            mode = InstabilityMode.NO_RETURN
        x_T, T = hi_cls.x_T, hi_cls.T

    return CriticalResult(
        t_cl=t_cl,
        mode=mode,
        t_lo=t_lo,
        t_hi=t_hi,
        x_cr=x_cr,
        x_T=x_T,
        T=T,
        t1=hi_cls.t1,
        t2=hi_cls.t2,
        crossing_label=hi_cls.crossing_label,
        iterations=iterations,
        bracket_history=tuple(history),
        x_sep_pre=point.x_sep_pre,
        x_sep_post=point.x_sep_post,
        fault_hit_time=hit_time,
        fault_hit_state=hit_state,
        h_ref=point.h_ref,
    )


def clearing_outcome(
    system: ConstrainedSystem,
    p: np.ndarray,
    t_clear: float,
    opts: Optional[CctOptions] = None,
) -> PostFaultClassification:
    """Verdict for one specific clearing time, fault segment included.

    A fault segment that reaches the combined boundary before
    ``t_clear`` makes the clearing unstable outright (t1 = 0 at the
    hit state); otherwise the post-fault run from the interpolated
    clearing state decides.  Raises NoFiniteCct when the pre-fault
    equilibrium is not strictly feasible.
    """
    if opts is None:
        opts = CctOptions()
    if t_clear < 0.0:
        raise ValueError("t_clear must be non-negative")
    p = np.asarray(p, dtype=float)
    point = operating_point(system, p, opts)
    if t_clear == 0.0:
        return classify_post_fault(system, p, point.x_sep_pre, point, opts)
    fault_traj = _run_fault(system, p, point.x_sep_pre, opts, t_clear)
    crossing = fault_traj.first_event(EventKind.CONSTRAINT_CROSSING)
    if crossing is not None and crossing.time < t_clear:
        return _hit_classification(crossing)
    return classify_post_fault(system, p, fault_traj.final_state, point, opts)
