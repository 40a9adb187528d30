"""Adaptive explicit integration with event localization.

The stepper is the Dormand-Prince 5(4) pair with the first-same-as-last
optimization and a proportional step-size controller.  Between accepted
steps the state is reconstructed by cubic Hermite interpolation from
the stored states and derivatives, which is what event refinement and
``state_at`` rely on; dense output from the tableau is deliberately not
assumed.

Three kinds of events can be watched while integrating:

* exits from the feasible region: each constraint margin is evaluated
  at every step end, and the earliest root among the margins that went
  non-positive is localized by bisection of that margin on the
  interpolated state down to ``event_refine_tol``.  Watching each
  margin, not their product, also sees a step that crosses an even
  number of margins at once;
* entry into a ball around a target equilibrium while the field norm is
  decreasing (the "converged" verdict used by stability classification);
* local minima of the field norm along the trajectory, refined by a
  golden-section search on the interpolant (how near-misses of other
  equilibria are measured).

``integrate_with_sensitivities`` integrates the variational equations

    Phi_x' = (df/dx) Phi_x,   Phi_x(0) = I
    Phi_p' = (df/dx) Phi_p + df/dp,   Phi_p(0) = 0

as one augmented system, so the state and both sensitivity blocks share
a single step-size control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional

import numpy as np

from .errors import NumericalBlowup, OutOfRange, StiffnessFailure
from .model import ConstrainedSystem, Constraint, Phase, _check_dims

__all__ = [
    "IntegrationOptions",
    "EventKind",
    "Event",
    "EventConfig",
    "Trajectory",
    "SensitivityBundle",
    "integrate",
    "integrate_with_sensitivities",
    "state_at",
]

# Dormand-Prince 5(4) tableau.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = (
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
)
# Fifth-order weights equal the last A row (FSAL); the seventh stage is
# the derivative at the accepted point.
_B = _A[5]
# Difference between the fifth- and fourth-order weights.
_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])

_MAX_EVENT_BISECTIONS = 60
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Slack (relative to the span) tolerated when interpolating at the ends.
_SPAN_SLACK = 4e-12


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances and limits for one integration run."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_max: float = 20.0
    max_step: float = 0.25
    first_step: Optional[float] = None
    event_refine_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "t_max", "max_step", "event_refine_tol"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0) and not (name == "max_step" and v == math.inf):
                raise ValueError(f"{name} must be positive and finite, got {v}")
        if self.first_step is not None and not 0.0 < self.first_step <= self.max_step:
            raise ValueError(f"first_step must lie in (0, max_step], got {self.first_step}")


class EventKind(Enum):
    CONSTRAINT_CROSSING = "constraint_crossing"
    FIELD_NORM_LOCAL_MIN = "field_norm_local_min"
    CONVERGED_TO_SEP = "converged_to_sep"
    HORIZON_REACHED = "horizon_reached"


@dataclass(frozen=True)
class Event:
    """Something noticed along a trajectory, with the state where it happened."""

    time: float
    kind: EventKind
    state: np.ndarray
    info: dict


@dataclass(frozen=True)
class EventConfig:
    """What to watch for during a run.

    A run ends with a CONSTRAINT_CROSSING event as soon as one of
    ``constraints`` is non-positive: at the start, or at the earliest
    root inside a step.  The event info names that constraint.  Entry
    into the ball of ``sep_radius`` around ``sep_target`` while the
    field norm decreases also ends the run.  ``norm_min_threshold``
    drops field-norm minima above the threshold; None keeps them all.
    """

    constraints: tuple[Constraint, ...] = ()
    sep_target: Optional[np.ndarray] = None
    sep_radius: float = 1e-3
    track_norm_minima: bool = False
    norm_min_threshold: Optional[float] = None


@dataclass(frozen=True)
class Trajectory:
    """Accepted integration samples plus any events.

    ``derivs`` holds the vector field at each sample; together with the
    states it defines the piecewise cubic Hermite interpolant used by
    ``state_at``.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    events: tuple[Event, ...]

    @property
    def final_time(self) -> float:
        return float(self.times[-1])

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]

    def first_event(self, kind: EventKind) -> Optional[Event]:
        for ev in self.events:
            if ev.kind is kind:
                return ev
        return None


@dataclass(frozen=True)
class SensitivityBundle:
    """Variational solutions at the trajectory sample times."""

    times: np.ndarray
    phi_x: np.ndarray  # (m, n, n)
    phi_p: np.ndarray  # (m, n, n_params)

    @property
    def final_phi_x(self) -> np.ndarray:
        return self.phi_x[-1]

    @property
    def final_phi_p(self) -> np.ndarray:
        return self.phi_p[-1]


def _hermite(t: float, t0: float, y0, f0, t1: float, y1, f1):
    """Cubic Hermite interpolant matching value and slope at both ends."""
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    return (
        (2 * s3 - 3 * s2 + 1) * y0
        + (s3 - 2 * s2 + s) * h * f0
        + (-2 * s3 + 3 * s2) * y1
        + (s3 - s2) * h * f1
    )


def _rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.square(v))))


def _initial_step(rhs, t0, y0, f0, opts: IntegrationOptions, t_span: float) -> float:
    if opts.first_step is not None:
        return min(opts.first_step, t_span)
    scale = opts.abs_tol + opts.rel_tol * np.abs(y0)
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    h0 = min(h0, t_span)
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    d2 = _rms((f1 - f0) / scale) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, opts.max_step, t_span)


def _dp_step(rhs, t: float, y: np.ndarray, f0: np.ndarray, h: float):
    """One Dormand-Prince step; returns (y_new, f_new, error_vector)."""
    k = np.empty((7, y.size))
    k[0] = f0
    for i in range(5):
        k[i + 1] = rhs(t + _C[i + 1] * h, y + h * (_A[i] @ k[: i + 1]))
    y_new = y + h * (_B @ k[:6])
    k[6] = rhs(t + h, y_new)
    return y_new, k[6], h * (_E @ k)


class _Run:
    """Mutable bookkeeping for one engine run."""

    __slots__ = ("times", "states", "derivs", "events")

    def __init__(self, t0: float, y0: np.ndarray, f0: np.ndarray):
        self.times = [t0]
        self.states = [y0.copy()]
        self.derivs = [f0.copy()]
        self.events: list[Event] = []

    def store(self, t: float, y: np.ndarray, f: np.ndarray) -> None:
        self.times.append(t)
        self.states.append(y.copy())
        self.derivs.append(f.copy())


def _refine_crossing(margin, tol, t0, y0, f0, t1, y1, f1):
    """Bisect the root of one margin, positive at t0, inside one accepted step."""
    lo, hi = t0, t1
    for _ in range(_MAX_EVENT_BISECTIONS):
        if hi - lo <= tol:
            break
        t_mid = 0.5 * (lo + hi)
        if margin(_hermite(t_mid, t0, y0, f0, t1, y1, f1)) > 0.0:
            lo = t_mid
        else:
            hi = t_mid
    t_mid = 0.5 * (lo + hi)
    return t_mid, _hermite(t_mid, t0, y0, f0, t1, y1, f1)


def _refine_norm_min(norm_at, t_lo: float, t_hi: float, tol: float):
    """Golden-section minimization of the interpolated field norm."""
    a, b = t_lo, t_hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = norm_at(c), norm_at(d)
    for _ in range(200):
        if b - a <= tol:
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = norm_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = norm_at(d)
    t_star = c if fc < fd else d
    return t_star, min(fc, fd)


def _engine(
    rhs, y0: np.ndarray, opts: IntegrationOptions, n_state: int,
    events: Optional[EventConfig], p: Optional[np.ndarray] = None,
):
    """Adaptive loop shared by plain and variational integration.

    ``p`` is the parameter vector handed to the watched constraints.
    """
    t = 0.0
    t_end = opts.t_max
    y = np.asarray(y0, dtype=float).copy()
    f = rhs(t, y)
    if not np.all(np.isfinite(f)):
        raise NumericalBlowup(f"vector field is not finite at the initial state {y[:n_state]}")
    run = _Run(t, y, f)

    constraints = events.constraints if events is not None else ()
    watch_sep = events is not None and events.sep_target is not None
    watch_minima = events is not None and events.track_norm_minima
    terminal = False

    def record_crossing(t_ev: float, y_ev: np.ndarray, k: int) -> None:
        info = {"constraint": constraints[k].name}
        run.events.append(Event(t_ev, EventKind.CONSTRAINT_CROSSING, y_ev[:n_state].copy(), info))

    if constraints:
        # Starting on or outside the boundary counts as an immediate hit
        # of the most violated constraint.
        values = [c.value(y[:n_state], p) for c in constraints]
        k = values.index(min(values))
        if values[k] <= 0.0:
            record_crossing(t, y, k)
            terminal = True
    norm_prev = float(np.linalg.norm(f[:n_state]))
    if watch_sep and not terminal:
        if float(np.linalg.norm(y[:n_state] - events.sep_target)) <= events.sep_radius:
            run.events.append(
                Event(t, EventKind.CONVERGED_TO_SEP, y[:n_state].copy(), {"distance": 0.0})
            )
            terminal = True

    # Rolling window of the last accepted points for minima detection.
    window: list[tuple[float, np.ndarray, np.ndarray, float]] = [(t, y.copy(), f.copy(), norm_prev)]

    def norm_between(t_q: float) -> float:
        # Interpolate within the window and measure the field there.
        for (ta, ya, fa, _), (tb, yb, fb, _) in zip(window, window[1:]):
            if ta <= t_q <= tb:
                y_q = _hermite(t_q, ta, ya, fa, tb, yb, fb)
                return float(np.linalg.norm(rhs(t_q, y_q)[:n_state]))
        raise AssertionError("query left the interpolation window")

    # A run that ends at its start takes no step.
    h = 0.0 if terminal else _initial_step(rhs, t, y, f, opts, t_end)
    just_rejected = False
    nonfinite_reject = False

    while t < t_end and not terminal:
        h = min(h, opts.max_step, t_end - t)
        h_min = 4e-14 * max(1.0, abs(t))
        if h < h_min:
            if nonfinite_reject:
                raise NumericalBlowup(f"state became non-finite near t = {t:.6g}")
            raise StiffnessFailure(f"step size underflowed to {h:.3e} at t = {t:.6g}")
        y_new, f_new, err = _dp_step(rhs, t, y, f, h)
        if not np.all(np.isfinite(y_new)) or not np.all(np.isfinite(err)):
            nonfinite_reject = True
            just_rejected = True
            h *= 0.25
            continue
        scale = opts.abs_tol + opts.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err_norm = _rms(err / scale)
        if err_norm > 1.0:
            nonfinite_reject = False
            just_rejected = True
            h *= max(0.2, 0.9 * err_norm ** -0.2)
            continue

        t_new = t + h
        factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm ** -0.2))
        if just_rejected:
            factor = min(factor, 1.0)
        just_rejected = False
        nonfinite_reject = False
        h_next = h * factor

        step_end_t, step_end_y, step_end_f = t_new, y_new, f_new
        cap = None  # terminal crossing time, if any

        x_new = y_new[:n_state]
        crossed = [k for k, c in enumerate(constraints) if c.value(x_new, p) <= 0.0]
        if crossed:
            # Each margin that went non-positive is bisected on its own;
            # the earliest root decides.
            roots = {
                k: _refine_crossing(
                    lambda y_q: constraints[k].value(y_q[:n_state], p), opts.event_refine_tol,
                    t, y, f, t_new, y_new, f_new,
                )
                for k in crossed
            }
            k = min(roots, key=lambda j: roots[j][0])
            t_ev, y_ev = roots[k]
            record_crossing(t_ev, y_ev, k)
            terminal = True
            cap = t_ev
            step_end_t, step_end_y = t_ev, y_ev
            step_end_f = rhs(t_ev, y_ev)

        norm_new = float(np.linalg.norm(step_end_f[:n_state]))
        window.append((step_end_t, step_end_y.copy(), step_end_f.copy(), norm_new))
        if len(window) > 3:
            window.pop(0)

        if watch_minima and len(window) == 3:
            (t_a, _, _, n_a), (t_b, _, _, n_b), (t_c, _, _, n_c) = window
            if n_b < n_a and n_b < n_c:
                hi = t_c if cap is None else min(t_c, cap)
                t_star, v_star = _refine_norm_min(
                    norm_between, t_a, hi, opts.event_refine_tol
                )
                if events.norm_min_threshold is None or v_star <= events.norm_min_threshold:
                    y_star = None
                    for (ta, ya, fa, _), (tb, yb, fb, _) in zip(window, window[1:]):
                        if ta <= t_star <= tb:
                            y_star = _hermite(t_star, ta, ya, fa, tb, yb, fb)
                            break
                    run.events.append(
                        Event(
                            t_star,
                            EventKind.FIELD_NORM_LOCAL_MIN,
                            y_star[:n_state].copy(),
                            {"f_norm": v_star},
                        )
                    )

        if watch_sep and not terminal:
            dist = float(np.linalg.norm(step_end_y[:n_state] - events.sep_target))
            if dist <= events.sep_radius and norm_new < norm_prev:
                run.events.append(
                    Event(
                        step_end_t,
                        EventKind.CONVERGED_TO_SEP,
                        step_end_y[:n_state].copy(),
                        {"distance": dist},
                    )
                )
                terminal = True

        run.store(step_end_t, step_end_y, step_end_f)
        t, y, f = step_end_t, step_end_y, step_end_f
        norm_prev = norm_new
        h = h_next

    if events is not None and not terminal:
        run.events.append(
            Event(t, EventKind.HORIZON_REACHED, y[:n_state].copy(), {})
        )
    run.events.sort(key=lambda ev: ev.time)
    return (
        np.array(run.times),
        np.array(run.states),
        np.array(run.derivs),
        tuple(run.events),
    )


def integrate(
    system: ConstrainedSystem,
    phase: Phase,
    x0: np.ndarray,
    p: np.ndarray,
    opts: IntegrationOptions = IntegrationOptions(),
    events: Optional[EventConfig] = None,
) -> Trajectory:
    """Integrate one phase from x0 over [0, t_max], watching for events."""
    x0, p = _check_dims(system, x0, p)
    dyn = system.phases[phase]

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        return dyn.f(y, p)

    times, states, derivs, evs = _engine(rhs, x0, opts, system.n, events, p)
    return Trajectory(times=times, states=states, derivs=derivs, events=evs)


def integrate_with_sensitivities(
    system: ConstrainedSystem,
    phase: Phase,
    x0: np.ndarray,
    p: np.ndarray,
    opts: IntegrationOptions = IntegrationOptions(),
) -> tuple[Trajectory, SensitivityBundle]:
    """Integrate the phase together with its variational equations.

    The augmented vector is [x, Phi_x (row-major), Phi_p (row-major)];
    one shared error control covers all blocks.
    """
    x0, p = _check_dims(system, x0, p)
    dyn = system.phases[phase]
    n = system.n
    n_p = system.n_params
    nx = n * n

    def rhs(t: float, y: np.ndarray) -> np.ndarray:
        x = y[:n]
        phi_x = y[n : n + nx].reshape(n, n)
        phi_p = y[n + nx :].reshape(n, n_p)
        jx = dyn.jac_x(x, p)
        out = np.empty_like(y)
        out[:n] = dyn.f(x, p)
        out[n : n + nx] = (jx @ phi_x).ravel()
        out[n + nx :] = (jx @ phi_p + dyn.jac_p(x, p)).ravel()
        return out

    y0 = np.concatenate([x0, np.eye(n).ravel(), np.zeros(n * n_p)])
    times, states, derivs, _ = _engine(rhs, y0, opts, n, None)
    traj = Trajectory(
        times=times, states=states[:, :n], derivs=derivs[:, :n], events=()
    )
    m = len(times)
    bundle = SensitivityBundle(
        times=times,
        phi_x=states[:, n : n + nx].reshape(m, n, n),
        phi_p=states[:, n + nx :].reshape(m, n, n_p),
    )
    return traj, bundle


def state_at(trajectory: Trajectory, t: float) -> np.ndarray:
    """State at time t by piecewise cubic Hermite interpolation."""
    times = trajectory.times
    t0, t1 = float(times[0]), float(times[-1])
    slack = _SPAN_SLACK * max(1.0, abs(t0), abs(t1))
    if t < t0 - slack or t > t1 + slack:
        raise OutOfRange(f"t = {t} outside the trajectory span [{t0}, {t1}]")
    t = min(max(t, t0), t1)
    i = int(np.searchsorted(times, t, side="right")) - 1
    i = min(max(i, 0), len(times) - 2)
    if t == times[i]:
        return trajectory.states[i].copy()
    if t == times[i + 1]:
        return trajectory.states[i + 1].copy()
    return _hermite(
        t,
        float(times[i]),
        trajectory.states[i],
        trajectory.derivs[i],
        float(times[i + 1]),
        trajectory.states[i + 1],
        trajectory.derivs[i + 1],
    )
