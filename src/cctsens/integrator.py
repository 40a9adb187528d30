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
  interpolated state down to ``_EVENT_REFINE_TOL``.  Watching each
  margin, not their product, also sees a step that crosses an even
  number of margins at once.  A run that reads only whether a limit
  was crossed (``EventConfig.locate_crossings`` False) skips the
  bisection and ends at that step end;
* entry into a ball around a target equilibrium while the field norm is
  decreasing (the "converged" verdict used by stability classification);
* local minima of the field norm along the trajectory, refined by a
  golden-section search on the interpolant (how near-misses of other
  equilibria are measured).  When the phase has a ``jac_lipschitz``
  bound, a minimum whose certified floor (``_norm_floor``) lies above
  the recording threshold is not refined: it could not be recorded.

One engine runs K starts ("lanes") in lockstep: every iteration takes
one Dormand-Prince step of every live lane with its own step size, and
each lane keeps its own time, step control, events and end.
``integrate_lanes`` returns only where each lane ended (a ``LaneEnd``);
``integrate`` is the one-lane run and also keeps its accepted points.
A lane whose state goes non-finite or whose step underflows stops with
that error; the other lanes run on.

A lone lane (a one-lane run, or the last live lane of a batch) steps
on Python lists of floats (``_float_step``), calling the field through
its one-state float entry ``on_floats`` when it has one.  A batch holds
its lanes as the columns of (m, K) arrays and its stages stage-major,
shape (7, m, K) (``_dp_step``).  Both sum in one explicit order:

* each stage sum is ((a0 k0 + a1 k1) + ...) h + y, on floats per
  component and as ``np.add.reduce`` over the at most seven stage rows
  in a batch, which numpy adds in order;
* error norms, field norms and SEP distances add the squares of the
  components left to right, on floats and row by row in a batch (a
  reduce over eight or more components would sum them pairwise in some
  layouts and lane counts).

Every other operation is one elementwise IEEE operation, which rounds
the same on a float as in numpy, and step control is on floats for
every lane.  So each lane's end, step count and events equal its
one-lane run's, bit for bit, because of IEEE arithmetic and not of a
BLAS build.  The field's float entry and its column batch must round
alike (``model`` evaluates both with the same operations).

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
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NumericalBlowup, OutOfRange, StiffnessFailure
from .model import ConstrainedSystem, Constraint, Phase, PhaseDynamics, _check_dims

__all__ = [
    "IntegrationOptions",
    "EventKind",
    "Event",
    "EventConfig",
    "Trajectory",
    "LaneEnd",
    "SensitivityBundle",
    "integrate",
    "integrate_lanes",
    "integrate_with_sensitivities",
    "state_at",
]

# Dormand-Prince 5(4) tableau (the field is autonomous, so no nodes).
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
# Fifth-order weights equal the last A row (FSAL); the seventh stage is
# the derivative at the accepted point.  _E is the difference between
# the fifth- and fourth-order weights.
_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
# The same rows as (i, 1, 1) columns, which weight the first i stages of
# a stage-major (7, m, K) batch.
_A_COLS = tuple(np.array(row)[:, None, None] for row in _A)
_E_COL = np.array(_E)[:, None, None]

_MAX_EVENT_BISECTIONS = 60
# Time resolution of crossing roots and field-norm minima.
_EVENT_REFINE_TOL = 1e-10
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
# Slack (relative to the span) tolerated when interpolating at the ends.
_SPAN_SLACK = 4e-12
# Largest |s (1 - s)^2| (and |s^2 (1 - s)|) on [0, 1]: the weight of a
# slope in the cubic Hermite interpolant.
_HERMITE_SLOPE_WEIGHT = 4.0 / 27.0
# Relative margin on a field-norm floor before a minimum is skipped; it
# covers the rounding of the interpolant and the field (about 1e-16
# relative each) many times over.
_FLOOR_MARGIN = 1e-9
# A step shorter than this, relative to max(1, |t|), has underflowed.
_MIN_STEP = 4e-14


@dataclass(frozen=True)
class IntegrationOptions:
    """Tolerances and limits for one integration run."""

    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    t_max: float = 20.0
    max_step: float = 0.25

    def __post_init__(self) -> None:
        for name in ("rel_tol", "abs_tol", "t_max", "max_step"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0) and not (name == "max_step" and v == math.inf):
                raise ValueError(f"{name} must be positive and finite, got {v}")


class EventKind(Enum):
    CONSTRAINT_CROSSING = "constraint_crossing"
    FIELD_NORM_LOCAL_MIN = "field_norm_local_min"
    CONVERGED_TO_SEP = "converged_to_sep"


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
    root inside a step.  The event info names that constraint.  With
    ``locate_crossings`` False the root is not sought: the run ends at
    the end of the step where a margin went non-positive, and the event
    (at that step end) names the most violated margin, as at the start.
    That is for callers that read only whether a limit was crossed, not
    where.  The lane takes the same steps either way; only its last
    point, and what is read there, differ.  Entry
    into the ball of ``sep_radius`` around ``sep_target`` while the
    field norm decreases also ends the run.  Every local minimum of the
    field norm at or below ``norm_min_threshold`` is recorded; None
    watches no minima.  ``stop_at_min``, when given, is called with the
    state of each recorded minimum and the lane's state at the end of
    that step (both of shape (n,)); True ends the lane at that step end
    unless the step already ended it.  The caller vouches that nothing
    the rest of the run could record would change what it reads from
    the run.  Reaching the horizon is not an event.  In a lockstep run
    every lane watches the same events and records its own; one lane's
    event ends that lane only.
    """

    constraints: tuple[Constraint, ...] = ()
    sep_target: Optional[np.ndarray] = None
    sep_radius: float = 1e-3
    norm_min_threshold: Optional[float] = None
    stop_at_min: Optional[Callable[[np.ndarray, np.ndarray], bool]] = None
    locate_crossings: bool = True


class _EventLog:
    """``first_event`` over the ``events`` of a run, sorted by time."""

    def first_event(self, kind: EventKind) -> Optional[Event]:
        for ev in self.events:
            if ev.kind is kind:
                return ev
        return None


@dataclass(frozen=True)
class Trajectory(_EventLog):
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


@dataclass(frozen=True)
class LaneEnd(_EventLog):
    """Where one lane of a lockstep run ended, after ``steps`` accepted steps."""

    final_time: float
    final_state: np.ndarray
    steps: int
    events: tuple[Event, ...]


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


def _hermite(t: float, t0: float, y0, f0, t1: float, y1, f1) -> np.ndarray:
    """Cubic Hermite interpolant matching value and slope at both ends.

    Each component is summed on floats as ((a y0 + b f0) + c y1) + d f1,
    with a = 2s^3 - 3s^2 + 1, b = (s^3 - 2s^2 + s) h, c = -2s^3 + 3s^2
    and d = (s^3 - s^2) h for s = (t - t0) / h: the products and sums,
    in their order, of the same expression over whole arrays, at a
    fraction of its cost for a short state.  The ends y0, f0, y1, f1 are
    sequences of floats, as the engine keeps its accepted points.
    """
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    a = 2 * s3 - 3 * s2 + 1
    b = (s3 - 2 * s2 + s) * h
    c = -2 * s3 + 3 * s2
    d = (s3 - s2) * h
    return np.array(
        [a * u0 + b * v0 + c * u1 + d * v1 for u0, v0, u1, v1 in zip(y0, f0, y1, f1)]
    )


def _norm(v) -> float:
    """Euclidean norm of a sequence of floats, its squares added left to right."""
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total)


def _distance(y, target) -> float:
    """``_norm`` of y - target over the components of target."""
    return _norm([a - b for a, b in zip(y, target)])


def _lone_error_norm(y, y_new, err, abs_tol: float, rel_tol: float) -> Optional[float]:
    """Error norm of one lane's step, or None when y_new or err is not finite.

    The root mean square of err / (abs_tol + rel_tol max(|y|, |y_new|)),
    its squares added left to right on floats: ``_rms_lanes`` of the
    lane's column in a batch, bit for bit.
    """
    if not (all(map(math.isfinite, y_new)) and all(map(math.isfinite, err))):
        return None
    total = 0.0
    for e, a, b in zip(err, y, y_new):
        q = e / (abs_tol + rel_tol * max(abs(a), abs(b)))
        total += q * q
    return math.sqrt(total / len(err))


def _row_sum(v: np.ndarray) -> np.ndarray:
    """Sum of the rows of v, added one at a time in order.

    ``np.add.reduce`` over eight or more rows sums them pairwise in some
    memory layouts and lane counts (an (8, 1) column, a C-ordered row).
    """
    total = v[0]
    for row in v[1:]:
        total = total + row
    return total


def _rms_lanes(v: np.ndarray) -> list[float]:
    """Root mean square of each lane (column) of an (m, K) batch."""
    return np.sqrt(_row_sum(v * v) / len(v)).tolist()


def _norm_lanes(v: np.ndarray) -> list[float]:
    """Euclidean norm of each lane (column) of an (m, K) batch, as ``_norm``."""
    return np.sqrt(_row_sum(v * v)).tolist()


def _all_finite(v: np.ndarray) -> bool:
    # count_nonzero is a plain C call; ndarray.all goes through Python.
    return np.count_nonzero(np.isfinite(v)) == v.size


def _error_norms(y, y_new, err, abs_tol: float, rel_tol: float) -> list:
    """``_lone_error_norm`` of every lane of an (m, K) batch."""
    if _all_finite(y_new) and _all_finite(err):
        return _rms_lanes(err / (abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))))
    ok = np.isfinite(y_new).all(axis=0) & np.isfinite(err).all(axis=0)
    norms = [None] * len(ok)
    sub = np.flatnonzero(ok)
    if sub.size:
        scale = abs_tol + rel_tol * np.maximum(np.abs(y[:, sub]), np.abs(y_new[:, sub]))
        for a, e in zip(sub.tolist(), _rms_lanes(err[:, sub] / scale)):
            norms[a] = e
    return norms


def _initial_steps(field, y0, f0, opts: IntegrationOptions, t_span: float) -> list[float]:
    """First step size of each lane of an (m, K) batch (Hairer, Norsett & Wanner's estimate)."""
    scale = opts.abs_tol + opts.rel_tol * np.abs(y0)
    d0 = _rms_lanes(y0 / scale)
    d1 = _rms_lanes(f0 / scale)
    h0 = [
        min(1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b, t_span)
        for a, b in zip(d0, d1)
    ]
    f1 = field(y0 + np.array(h0) * f0)
    steps = []
    for a, b, r, h in zip(d0, d1, _rms_lanes((f1 - f0) / scale), h0):
        # h is 0 when the scaled field overflows; the lane then stops on
        # step underflow.
        d = max(b, r / h if h else math.inf)
        h1 = max(1e-6, h * 1e-3) if d <= 1e-15 else (0.01 / d) ** 0.2
        steps.append(min(100 * h, h1, opts.max_step, t_span))
    return steps


def _float_step(field, ps: list, y: list, f0: list, h: float):
    """One Dormand-Prince step of one state on floats; returns (y_new, f_new, err).

    ``field(xs, ps)`` maps a list of floats to its derivative as a list.  Each
    stage sum is written out per component as ((a0 k0 + a1 k1) + ...)
    h + y, and the error as (e0 k0 + ... + e6 k6) h: the products and
    sums, in their order, that ``_dp_step`` takes over a batch.
    """
    (a10,), (a20, a21), (a30, a31, a32), (a40, a41, a42, a43), (a50, a51, a52, a53, a54), (
        b0, b1, b2, b3, b4, b5,
    ) = _A
    e0, e1, e2, e3, e4, e5, e6 = _E
    k0 = f0
    k1 = field([a10 * u0 * h + v for u0, v in zip(k0, y)], ps)
    k2 = field([(a20 * u0 + a21 * u1) * h + v for u0, u1, v in zip(k0, k1, y)], ps)
    k3 = field([
        (a30 * u0 + a31 * u1 + a32 * u2) * h + v for u0, u1, u2, v in zip(k0, k1, k2, y)
    ], ps)
    k4 = field([
        (a40 * u0 + a41 * u1 + a42 * u2 + a43 * u3) * h + v
        for u0, u1, u2, u3, v in zip(k0, k1, k2, k3, y)
    ], ps)
    k5 = field([
        (a50 * u0 + a51 * u1 + a52 * u2 + a53 * u3 + a54 * u4) * h + v
        for u0, u1, u2, u3, u4, v in zip(k0, k1, k2, k3, k4, y)
    ], ps)
    y_new = [
        (b0 * u0 + b1 * u1 + b2 * u2 + b3 * u3 + b4 * u4 + b5 * u5) * h + v
        for u0, u1, u2, u3, u4, u5, v in zip(k0, k1, k2, k3, k4, k5, y)
    ]
    k6 = field(y_new, ps)
    err = [
        (e0 * u0 + e1 * u1 + e2 * u2 + e3 * u3 + e4 * u4 + e5 * u5 + e6 * u6) * h
        for u0, u1, u2, u3, u4, u5, u6 in zip(k0, k1, k2, k3, k4, k5, k6)
    ]
    return y_new, k6, err


def _dp_step(rhs, p, y: np.ndarray, f0: np.ndarray, h: np.ndarray):
    """One Dormand-Prince step of K lanes; returns (y_new, f_new, error_vector).

    ``y`` and ``f0`` are column batches of shape (m, K), ``h`` the (K,)
    step sizes, and ``rhs(y, p)`` takes a column batch.  The stages are
    stage-major, shape (7, m, K), so each stage sum is np.add.reduce over
    at most seven rows, which numpy adds in order: the sums of
    ``_float_step``, lane by lane.
    """
    k = np.empty((7,) + y.shape)
    k[0] = f0
    for i in range(5):
        k[i + 1] = rhs(np.add.reduce(_A_COLS[i] * k[: i + 1], axis=0) * h + y, p)
    y_new = np.add.reduce(_A_COLS[5] * k[:6], axis=0) * h + y
    k[6] = rhs(y_new, p)
    return y_new, k[6], np.add.reduce(_E_COL * k, axis=0) * h


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


def _excursion(window, n_state: int) -> float:
    """Bound d on |x(t) - y_b| along the two Hermite pieces of a window.

    On a piece from the middle point b to a neighbour o, the value
    weights lie in [0, 1] and sum to 1 and each slope weight is at most
    4/27 in size, so d = max |y_o - y_b| + (4/27) h (|f_b| + |f_o|).
    The norms are the window's stored field norms.
    """
    (t_a, y_a, _, n_a), (t_b, y_b, _, n_b), (t_c, y_c, _, n_c) = window
    return max(
        _distance(y_o[:n_state], y_b[:n_state])
        + _HERMITE_SLOPE_WEIGHT * h * (n_b + n_o)
        for y_o, n_o, h in ((y_a, n_a, t_b - t_a), (y_c, n_c, t_c - t_b))
    )


def _norm_floor(window, jac_x, lip: float, p: np.ndarray, n_state: int) -> float:
    """Lower bound on the field norm along the two Hermite pieces of a window.

    With d the ``_excursion``, L a Lipschitz bound of jac_x and |J| the
    Frobenius norm of J = jac_x(y_b) (at least its spectral norm),
    |f(x)| >= |f_b| - |J| d - (L / 2) d^2 there.
    """
    _, (_, y_b, _, n_b), _ = window
    d = _excursion(window, n_state)
    jac = np.asarray(jac_x(np.array(y_b[:n_state], dtype=float), p), dtype=float)
    return n_b - math.sqrt(float(np.sum(jac * jac))) * d - 0.5 * lip * d * d


def _window_state(window, t_q: float) -> np.ndarray:
    """Interpolated state at t_q inside a window of accepted points."""
    for (ta, ya, fa, _), (tb, yb, fb, _) in zip(window, window[1:]):
        if ta <= t_q <= tb:
            return _hermite(t_q, ta, ya, fa, tb, yb, fb)
    raise AssertionError("query left the interpolation window")


def _float_field(rhs, p: np.ndarray):
    """The field at one state on floats: ``(field, ps)`` with field(xs, ps) a list.

    The field's one-state float entry ``rhs.on_floats(xs, ps)`` is used,
    with ps the parameters as floats, when it has one; a field without
    it (the augmented field of the variational equations, or a wrapper
    around a model's field) takes its array call at p.
    """
    on_floats = getattr(rhs, "on_floats", None)
    if on_floats is None:
        return (lambda xs, ps: rhs(np.array(xs), p).tolist()), None
    return on_floats, p.tolist()


class _Lane:
    """One lane: its clock, step control, last accepted point and events.

    The point is kept as lists of floats ``y`` and ``f`` with the field
    norm ``norm`` there; ``prev`` is the accepted point before it, as
    (t, y, f, norm), or None at the start.
    """

    __slots__ = ("index", "t", "h", "rejected", "nonfinite", "steps", "y", "f", "norm",
                 "prev", "events")

    def __init__(self, index: int, y: list, f: list, norm) -> None:
        self.index = index
        self.t = 0.0
        self.h = 0.0
        self.rejected = self.nonfinite = False
        self.steps = 0
        self.y, self.f, self.norm = y, f, norm
        self.prev = None
        self.events: list[Event] = []

    def failure(self) -> Optional[Exception]:
        """The error that stops the lane when its next step underflows, else None."""
        if self.h >= _MIN_STEP * max(1.0, abs(self.t)):
            return None
        if self.nonfinite:
            return NumericalBlowup(f"state became non-finite near t = {self.t:.6g}")
        return StiffnessFailure(f"step size underflowed to {self.h:.3e} at t = {self.t:.6g}")

    def control(self, e: Optional[float], max_step: float, t_end: float) -> Optional[float]:
        """Step control after a step of error norm e (None: not finite).

        Returns the step's end time when it is accepted, else None.  The
        next step size is capped at ``max_step`` and at the horizon, from
        that end time or, after a rejection, from the lane's time.
        """
        t = self.t
        if e is None:
            self.nonfinite = self.rejected = True
            self.h = min(self.h * 0.25, max_step, t_end - t)
            return None
        if e > 1.0:
            self.nonfinite = False
            self.rejected = True
            self.h = min(self.h * max(0.2, 0.9 * e ** -0.2), max_step, t_end - t)
            return None
        factor = 5.0 if e == 0.0 else min(5.0, max(0.2, 0.9 * e ** -0.2))
        if self.rejected:
            factor = min(factor, 1.0)
        self.rejected = self.nonfinite = False
        t1 = t + self.h
        self.h = min(self.h * factor, max_step, t_end - t1)
        return t1


class _Run:
    """What the lanes of one run share, and the events every lane watches.

    ``start`` and ``end_step`` handle a lane at its start and at each
    accepted step on lists of floats, lone or in lockstep alike; the
    results go to ``out``, one LaneEnd or error per lane.
    """

    def __init__(self, rhs, p, opts: IntegrationOptions, n_state: int,
                 events: Optional[EventConfig], norm_bound, n_lanes: int) -> None:
        events = events if events is not None else EventConfig()
        self.rhs, self.p, self.n = rhs, p, n_state
        self.field, self.ps = _float_field(rhs, p)
        self.t_end, self.max_step = opts.t_max, opts.max_step
        self.abs_tol, self.rel_tol = opts.abs_tol, opts.rel_tol
        self.constraints = events.constraints
        self.sep = None if events.sep_target is None else np.asarray(events.sep_target, dtype=float)
        self.sep_floats = None if self.sep is None else self.sep.tolist()
        self.sep_radius = events.sep_radius
        self.min_threshold = events.norm_min_threshold
        self.stop_at_min = events.stop_at_min
        self.locate = events.locate_crossings
        self.watch_norm = self.sep is not None or self.min_threshold is not None
        self.norm_bound = norm_bound
        self.out: list = [None] * n_lanes

    def lone_margins(self, y: list) -> list:
        """Margins at one state, one per constraint."""
        if not self.constraints:
            return []
        x = np.array(y[: self.n])
        return [c.value(x, self.p) for c in self.constraints]

    def lane_margins(self, y: np.ndarray) -> list:
        """Margins of each lane of an (m, K) batch, one tuple per lane."""
        if not self.constraints:
            return [()] * y.shape[1]
        x = y[: self.n]
        return list(zip(*(c.value(x, self.p).tolist() for c in self.constraints)))

    def record(self, lane: _Lane, t_ev: float, kind: EventKind, y_ev, info: dict) -> None:
        lane.events.append(Event(t_ev, kind, np.array(y_ev[: self.n], dtype=float), info))

    def finish(self, lane: _Lane) -> None:
        ordered = sorted(lane.events, key=lambda ev: ev.time)
        self.out[lane.index] = LaneEnd(lane.t, np.array(lane.y, dtype=float), lane.steps,
                                       tuple(ordered))

    def start(self, index: int, y: list, f: list, vals) -> Optional[_Lane]:
        """The lane starting at (y, f) with margins vals, or None if its start ends it.

        A non-finite field fails the lane.  A start on or outside the
        boundary (a hit of the most violated constraint) or inside the
        SEP ball ends the run there, with no step taken.
        """
        n = self.n
        if not all(map(math.isfinite, f)):
            self.out[index] = NumericalBlowup(
                f"vector field is not finite at the initial state {np.array(y[:n])}"
            )
            return None
        lane = _Lane(index, y, f, _norm(f[:n]) if self.watch_norm else None)
        if vals:
            k = vals.index(min(vals))
            if vals[k] <= 0.0:
                self.record(lane, 0.0, EventKind.CONSTRAINT_CROSSING, y,
                            {"constraint": self.constraints[k].name})
                self.finish(lane)
                return None
        if self.sep is not None and _distance(y, self.sep_floats) <= self.sep_radius:
            self.record(lane, 0.0, EventKind.CONVERGED_TO_SEP, y, {"distance": 0.0})
            self.finish(lane)
            return None
        return lane

    def end_step(self, lane: _Lane, t1: float, y1: list, f1: list, norm, dist, vals) -> bool:
        """Watch the lane's accepted step to (t1, y1, f1) and move the lane there.

        ``norm`` is the field norm at y1 (None unless watched), ``dist``
        its distance from the SEP target (None without one) and ``vals``
        its margins.  Returns True when the step ends the lane: a
        crossing, a recorded minimum that ``stop_at_min`` stops at,
        entry into the SEP ball, or the horizon.
        """
        n, p, field, ps = self.n, self.p, self.field, self.ps
        terminal = False
        crossed = [k for k, v in enumerate(vals) if v <= 0.0]
        if crossed:
            if self.locate:
                # Each margin that went non-positive is bisected on its
                # own; the earliest root decides, and the step ends there.
                roots = {
                    k: _refine_crossing(
                        lambda y_q, c=self.constraints[k]: c.value(y_q[:n], p),
                        _EVENT_REFINE_TOL, lane.t, lane.y, lane.f, t1, y1, f1,
                    )
                    for k in crossed
                }
                k = min(roots, key=lambda j: roots[j][0])
                t1, y_root = roots[k]
                y1 = y_root.tolist()
                f1 = field(y1, ps)
                if self.watch_norm:
                    norm = _norm(f1[:n])
            else:
                # The step end decides, as a start does: the most
                # violated margin names the crossing.
                k = min(crossed, key=lambda j: vals[j])
            self.record(lane, t1, EventKind.CONSTRAINT_CROSSING, y1,
                        {"constraint": self.constraints[k].name})
            terminal = True

        prev = lane.prev
        if (
            self.min_threshold is not None and prev is not None
            and lane.norm < prev[3] and lane.norm < norm
        ):
            # A discrete minimum of the field norm at the lane's point.
            window = (prev, (lane.t, lane.y, lane.f, lane.norm), (t1, y1, f1, norm))
            if (
                self.norm_bound is None
                or _norm_floor(window, *self.norm_bound, p, n)
                <= self.min_threshold + _FLOOR_MARGIN * (1.0 + lane.norm)
            ):
                t_star, v_star = _refine_norm_min(
                    lambda t_q: _norm(field(_window_state(window, t_q).tolist(), ps)[:n]),
                    prev[0], t1, _EVENT_REFINE_TOL,
                )
                if v_star <= self.min_threshold:
                    self.record(lane, t_star, EventKind.FIELD_NORM_LOCAL_MIN,
                                _window_state(window, t_star), {"f_norm": v_star})
                    if (
                        self.stop_at_min is not None and not terminal
                        and self.stop_at_min(lane.events[-1].state,
                                             np.array(y1[:n], dtype=float))
                    ):
                        terminal = True

        if self.sep is not None and not terminal:
            if dist <= self.sep_radius and norm < lane.norm:
                self.record(lane, t1, EventKind.CONVERGED_TO_SEP, y1, {"distance": dist})
                terminal = True

        lane.prev = (lane.t, lane.y, lane.f, lane.norm)
        lane.t, lane.y, lane.f, lane.norm = t1, y1, f1, norm
        lane.steps += 1
        return terminal or t1 >= self.t_end


def _step_lone(run: _Run, lane: _Lane, rows: Optional[list]) -> None:
    """Step one lane alone on lists of floats until it ends or fails.

    ``rows``, when given, collects each accepted point (t, y, f).
    """
    field, ps, n = run.field, run.ps, run.n
    max_step, t_end = run.max_step, run.t_end
    abs_tol, rel_tol = run.abs_tol, run.rel_tol
    sep, watch_norm = run.sep_floats, run.watch_norm
    while True:
        failure = lane.failure()
        if failure is not None:
            run.out[lane.index] = failure
            return
        y_new, f_new, err = _float_step(field, ps, lane.y, lane.f, lane.h)
        t1 = lane.control(_lone_error_norm(lane.y, y_new, err, abs_tol, rel_tol), max_step, t_end)
        if t1 is None:
            continue
        ended = run.end_step(
            lane, t1, y_new, f_new,
            _norm(f_new[:n]) if watch_norm else None,
            _distance(y_new, sep) if sep is not None else None,
            run.lone_margins(y_new),
        )
        if rows is not None:
            rows.append((lane.t, lane.y, lane.f))
        if ended:
            run.finish(lane)
            return


def _step_lockstep(run: _Run, lanes: list, y: np.ndarray, f: np.ndarray) -> Optional[_Lane]:
    """Step the lanes, the columns of (m, K) batches y and f, in lockstep.

    Runs while two or more lanes live; returns the last live lane, if
    any, for ``_step_lone`` to finish.
    """
    n, rhs, p = run.n, run.rhs, run.p
    max_step, t_end = run.max_step, run.t_end
    abs_tol, rel_tol = run.abs_tol, run.rel_tol
    sep = None if run.sep is None else run.sep[:, None]
    # A lane whose step crosses no limit, enters no SEP ball, ends before
    # the horizon and leaves no discrete field-norm minimum just moves on,
    # as ``end_step`` would move it; ``end_step`` watches every other lane.
    minima, radius = run.min_threshold is not None, run.sep_radius
    while len(lanes) > 1:
        h = np.array([lane.h for lane in lanes])
        short = h < _MIN_STEP * np.maximum(1.0, np.abs([lane.t for lane in lanes]))
        if short.any():
            for a in np.flatnonzero(short).tolist():
                run.out[lanes[a].index] = lanes[a].failure()
            live = np.flatnonzero(~short).tolist()
            lanes, y, f = [lanes[a] for a in live], y[:, live], f[:, live]
            continue

        y_new, f_new, err = _dp_step(rhs, p, y, f, h)
        acc, t_acc = [], []
        for a, (lane, e) in enumerate(zip(lanes, _error_norms(y, y_new, err, abs_tol, rel_tol))):
            t1 = lane.control(e, max_step, t_end)
            if t1 is not None:
                acc.append(a)
                t_acc.append(t1)
        if not acc:
            continue

        full = len(acc) == len(lanes)
        ys = y_new if full else y_new[:, acc]
        fs = f_new if full else f_new[:, acc]
        count = len(acc)
        norms = _norm_lanes(fs[:n]) if run.watch_norm else [None] * count
        dists = _norm_lanes(ys[:n] - sep) if sep is not None else [None] * count
        ended = set()
        for a, t1, y1, f1, norm, dist, vals in zip(
            acc, t_acc, ys.T.tolist(), fs.T.tolist(), norms, dists, run.lane_margins(ys)
        ):
            lane = lanes[a]
            prev = lane.prev
            if (
                t1 < t_end and (not vals or min(vals) > 0.0)
                and (dist is None or dist > radius)
                and not (minima and prev is not None and lane.norm < prev[3] and lane.norm < norm)
            ):
                lane.prev = (lane.t, lane.y, lane.f, lane.norm)
                lane.t, lane.y, lane.f, lane.norm = t1, y1, f1, norm
                lane.steps += 1
            elif run.end_step(lane, t1, y1, f1, norm, dist, vals):
                run.finish(lane)
                ended.add(a)
        if full:
            y, f = ys, fs
        else:
            y[:, acc], f[:, acc] = ys, fs
        if ended:
            keep = [a for a in range(len(lanes)) if a not in ended]
            lanes, y, f = [lanes[a] for a in keep], y[:, keep], f[:, keep]
    return lanes[0] if lanes else None


def _engine(
    rhs, y0: np.ndarray, opts: IntegrationOptions, n_state: int,
    events: Optional[EventConfig], p: np.ndarray, norm_bound=None, rows=None,
) -> list:
    """Adaptive loop over the rows (lanes) of ``y0``, in lockstep.

    ``rhs(y, p)`` maps a state of shape (m,) to its derivative, and a
    column batch of shape (m, K) to shape (m, K); ``p`` also goes to the
    watched constraints.  Each lane keeps its own time, step size,
    step-control flags and events, and ends on its own, so its result is
    what a run of that lane alone gives.  ``norm_bound`` is None or the
    pair (jac_x, L) of the field's Jacobian and a Lipschitz bound of it:
    a discrete field-norm minimum is then refined only if its
    ``_norm_floor`` does not clear ``norm_min_threshold`` by the
    rounding margin, which drops no minimum the refinement would record,
    so every result stays the same bit for bit.  Returns one LaneEnd per
    lane, or the NumericalBlowup or StiffnessFailure that stopped it.
    ``rows``, given only to a one-lane run, is a list that collects the
    lane's accepted points (t, y, f), its start included.
    """
    y0 = np.asarray(y0, dtype=float)
    run = _Run(rhs, p, opts, n_state, events, norm_bound, len(y0))
    if len(y0) == 1:
        y = y0[0].tolist()
        f = run.field(y, run.ps)
        if rows is not None:
            rows.append((0.0, y, f))
        lane = run.start(0, y, f, run.lone_margins(y))
        if lane is not None:
            # The batch estimate on the lane as one column, its field on floats.
            (lane.h,) = _initial_steps(
                lambda z: np.array(run.field(z[:, 0].tolist(), run.ps))[:, None],
                np.array(y)[:, None], np.array(f)[:, None], opts, opts.t_max,
            )
            _step_lone(run, lane, rows)
        return run.out

    y = np.ascontiguousarray(y0.T)
    f = rhs(y, p)
    lanes, cols = [], []
    for j, (y_j, f_j, vals) in enumerate(zip(y.T.tolist(), f.T.tolist(), run.lane_margins(y))):
        lane = run.start(j, y_j, f_j, vals)
        if lane is not None:
            lanes.append(lane)
            cols.append(j)
    if lanes:
        y, f = y[:, cols], f[:, cols]
        for lane, h in zip(lanes, _initial_steps(lambda z: rhs(z, p), y, f, opts, opts.t_max)):
            lane.h = h
        last = _step_lockstep(run, lanes, y, f)
        if last is not None:
            _step_lone(run, last, None)
    return run.out


def _stack(rows: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, states and derivatives of the points a one-lane run collected."""
    times, states, derivs = zip(*rows)
    return np.array(times), np.array(states), np.array(derivs)


def _norm_bound(dyn: PhaseDynamics, p: np.ndarray, events: Optional[EventConfig]):
    """The engine's (jac_x, L) for a run that watches minima, or None."""
    if events is None or events.norm_min_threshold is None:
        return None
    lip = dyn.lipschitz_bound(p)
    return None if lip is None else (dyn.jac_x, lip)


def integrate_lanes(
    system: ConstrainedSystem,
    phase: Phase,
    x0s: np.ndarray,
    p: np.ndarray,
    opts: IntegrationOptions = IntegrationOptions(),
    events: Optional[EventConfig] = None,
) -> list:
    """Integrate one phase from every row of ``x0s`` in one lockstep run.

    Returns a LaneEnd per start: its end time, end state, step count and
    events equal those of the run ``integrate`` gives that start, bit
    for bit.  A lane that stops with NumericalBlowup or StiffnessFailure
    gets that error in its place; the other lanes run on.
    """
    x0s = np.asarray(x0s, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != system.n:
        raise DimensionMismatch(f"start points have shape {x0s.shape}, expected (K, {system.n})")
    if not len(x0s):
        return []
    _, p = _check_dims(system, x0s[0], p)
    dyn = system.phases[phase]
    return _engine(dyn.f, x0s, opts, system.n, events, p, _norm_bound(dyn, p, events))


def integrate(
    system: ConstrainedSystem,
    phase: Phase,
    x0: np.ndarray,
    p: np.ndarray,
    opts: IntegrationOptions = IntegrationOptions(),
    events: Optional[EventConfig] = None,
) -> Trajectory:
    """Integrate one phase from x0 over [0, t_max], watching for events.

    This is the one-lane run of the lockstep engine.
    """
    x0, p = _check_dims(system, x0, p)
    dyn = system.phases[phase]
    rows: list = []
    (end,) = _engine(dyn.f, x0[None], opts, system.n, events, p, _norm_bound(dyn, p, events), rows)
    if isinstance(end, Exception):
        raise end
    return Trajectory(*_stack(rows), events=end.events)


def integrate_with_sensitivities(
    system: ConstrainedSystem,
    phase: Phase,
    x0: np.ndarray,
    p: np.ndarray,
    opts: IntegrationOptions = IntegrationOptions(),
) -> tuple[Trajectory, SensitivityBundle]:
    """Integrate the phase together with its variational equations.

    The augmented vector is [x, Phi_x (row-major), Phi_p (row-major)];
    one shared error control covers all blocks.  This run has one lane.
    """
    x0, p = _check_dims(system, x0, p)
    dyn = system.phases[phase]
    n = system.n
    n_p = system.n_params
    nx = n * n

    def rhs(y: np.ndarray, p: np.ndarray) -> np.ndarray:
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
    rows: list = []
    (end,) = _engine(rhs, y0[None], opts, n, None, p, rows=rows)
    if isinstance(end, Exception):
        raise end
    times, states, derivs = _stack(rows)
    traj = Trajectory(times=times, states=states[:, :n], derivs=derivs[:, :n], events=())
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
    y0, y1 = trajectory.states[i : i + 2].tolist()
    f0, f1 = trajectory.derivs[i : i + 2].tolist()
    return _hermite(t, float(times[i]), y0, f0, float(times[i + 1]), y1, f1)
