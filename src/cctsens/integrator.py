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
each lane keeps its own time, step control, events and end.  A lane's
arithmetic does not depend on the others (its stage sums are the same
vector-matrix products whatever K is), so each lane's end, step count
and events equal its one-lane run's, bit for bit.  ``integrate_lanes``
returns only where each lane ended (a ``LaneEnd``); ``integrate`` is the
one-lane run and also keeps its accepted points.  A lane whose state
goes non-finite or whose step underflows stops with that error; the
other lanes run on.

An iteration with one live lane (a one-lane run, or a batch down to its
last lane) steps that lane as one state (``_lone_dp_step``) on a stage
buffer of shape (7, m) made once per run, with the views of its first
i stages built once: each stage sum is the BLAS product ``.dot`` of a
tableau row with such a view, which rounds as the batch's stacked
np.matmul does, and is scaled by h and added to y in place.  The lane
does its bookkeeping on Python floats: finiteness, error norm and step
control, with margins, field norm and SEP distance on its 1-D arrays.
Each elementwise IEEE operation rounds the same on a float as in
numpy, and np.add.reduce sums a row of fewer than 8 entries left to
right (from 8 on it keeps eight partial sums; in 20,000 random rows per
length, 0 rows differ at 1-7 entries and thousands at 8-13), so the
error norm of a state of up to 7 components is summed on floats and a
longer one by numpy.  Norms stay BLAS dot products, which may fuse
multiply-adds.  The lone lane thus takes the same values as in a batch.

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

# Stage i, and the stages before i, of a lane-major stage array
# (prebuilt: an index tuple written out is parsed anew on every use).
_STAGE = tuple((slice(None), i) for i in range(7))
_FIRST = tuple((slice(None), slice(None, i)) for i in range(8))

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
# Length from which np.add.reduce sums a row in eight interleaved partial
# sums instead of left to right.
_PAIRWISE_MIN = 8


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
    lists of floats, which a caller that interpolates one piece many
    times builds once.
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


def _rms_rows(v: np.ndarray) -> list[float]:
    """Root mean square of each row.

    ``np.add.reduce`` over a row divided by its length is what
    ``np.mean`` computes for that row alone, so a lane's value does not
    depend on the other lanes.
    """
    return np.sqrt(np.add.reduce(np.square(v), axis=1) / float(v.shape[1])).tolist()


def _lone_error_norm(y, y_new, err, abs_tol: float, rel_tol: float) -> Optional[float]:
    """Error norm of one lane's step, or None when y_new or err is not finite.

    The value is what ``_rms_rows`` gives the lane's row of scaled errors
    err / (abs_tol + rel_tol max(|y|, |y_new|)).  Each scaled error and
    its square are the same IEEE operation on a float as in numpy, and a
    row shorter than ``_PAIRWISE_MIN`` is summed left to right by
    ``np.add.reduce``, so such a row is summed on floats; a longer one
    takes ``_rms_rows``.
    """
    new, e = y_new.tolist(), err.tolist()
    if not (all(map(math.isfinite, new)) and all(map(math.isfinite, e))):
        return None
    if len(e) >= _PAIRWISE_MIN:
        return _rms_rows((err / (abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))))[None])[0]
    total = 0.0
    for e_i, a, b in zip(e, y.tolist(), new):
        q = e_i / (abs_tol + rel_tol * max(abs(a), abs(b)))
        total += q * q
    return math.sqrt(total / len(e))


def _all_finite(v: np.ndarray) -> bool:
    # count_nonzero is a plain C call; ndarray.all goes through Python.
    return np.count_nonzero(np.isfinite(v)) == v.size


def _norm(v: np.ndarray) -> float:
    """Euclidean norm of a 1-D array, equal to ``np.linalg.norm``.

    Both take the BLAS dot product ``v.dot(v)``, the cheapest call to it.
    """
    return math.sqrt(v.dot(v))


def _norm_rows(v: np.ndarray) -> list[float]:
    """Euclidean norm of each row, equal to ``_norm`` of that row.

    Both are the same BLAS dot product, which may fuse multiply-adds, so
    a norm is never summed on floats.
    """
    return np.sqrt(np.matmul(v[:, None, :], v[:, :, None])).ravel().tolist()


def _initial_steps(field, y0, f0, opts: IntegrationOptions, t_span: float) -> list[float]:
    """First step size of each lane (Hairer, Norsett & Wanner's estimate)."""
    scale = opts.abs_tol + opts.rel_tol * np.abs(y0)
    d0 = _rms_rows(y0 / scale)
    d1 = _rms_rows(f0 / scale)
    h0 = [
        min(1e-6 if (a < 1e-5 or b < 1e-5) else 0.01 * a / b, t_span)
        for a, b in zip(d0, d1)
    ]
    f1 = field(y0 + np.array(h0)[:, None] * f0)
    steps = []
    for a, b, r, h in zip(d0, d1, _rms_rows((f1 - f0) / scale), h0):
        # h is 0 when the scaled field overflows; the lane then stops on
        # step underflow.
        d = max(b, r / h if h else math.inf)
        h1 = max(1e-6, h * 1e-3) if d <= 1e-15 else (0.01 / d) ** 0.2
        steps.append(min(100 * h, h1, opts.max_step, t_span))
    return steps


def _dp_step(rhs, p, y: np.ndarray, f0: np.ndarray, h):
    """One Dormand-Prince step of K lanes; returns (y_new, f_new, error_vector).

    ``y`` and ``f0`` are lane-major states of shape (K, m) and ``h`` the
    (K, 1) column of step sizes; ``rhs(y, p)`` takes states of that
    shape.  The stages are stored lane-major, shape (K, 7, m), so each
    lane's weighted sums are the vector-matrix products of a lone state.
    """
    k = np.empty(y.shape[:-1] + (7, y.shape[-1]))
    k[_STAGE[0]] = f0
    for i in range(5):
        k[_STAGE[i + 1]] = rhs(y + h * np.matmul(_A[i], k[_FIRST[i + 1]]), p)
    y_new = y + h * np.matmul(_B, k[_FIRST[6]])
    k[_STAGE[6]] = rhs(y_new, p)
    # f_new is copied out so that storing it does not keep every stage alive.
    return y_new, k[_STAGE[6]].copy(), h * np.matmul(_E, k)


def _lone_dp_step(rhs, p, y: np.ndarray, f0: np.ndarray, h: float, k: np.ndarray, firsts):
    """``_dp_step`` of one state of shape (m,) on its stage buffer ``k``.

    ``k`` has shape (7, m) and ``firsts[i]`` is its view ``k[:i + 1]``,
    both made once per run.  Each stage sum is the BLAS product
    ``_A[i].dot(firsts[i])``, which rounds as the batch's stacked
    np.matmul does (a test checks that), scaled by h and added to y in
    place: h s and y + s are single IEEE operations either way round.
    """
    k[0] = f0
    for i in range(5):
        s = _A[i].dot(firsts[i])
        s *= h
        s += y
        k[i + 1] = rhs(s, p)
    y_new = _B.dot(firsts[5])
    y_new *= h
    y_new += y
    k[6] = rhs(y_new, p)
    err = _E.dot(k)
    err *= h
    return y_new, k[6].copy(), err


def _refine_crossing(margin, tol, t0, y0, f0, t1, y1, f1):
    """Bisect the root of one margin, positive at t0, inside one accepted step."""
    # The ends as lists of floats, once for every midpoint.
    y0, f0, y1, f1 = y0.tolist(), f0.tolist(), y1.tolist(), f1.tolist()
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
        _norm(y_o[:n_state] - y_b[:n_state])
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
    jac = np.asarray(jac_x(y_b[:n_state], p), dtype=float)
    return n_b - math.sqrt(float(np.sum(jac * jac))) * d - 0.5 * lip * d * d


def _window_state(window, t_q: float) -> np.ndarray:
    """Interpolated state at t_q inside a window of accepted points."""
    for (ta, ya, fa, _), (tb, yb, fb, _) in zip(window, window[1:]):
        if ta <= t_q <= tb:
            return _hermite(t_q, ta, ya.tolist(), fa.tolist(), tb, yb.tolist(), fb.tolist())
    raise AssertionError("query left the interpolation window")


def _engine(
    rhs, y0: np.ndarray, opts: IntegrationOptions, n_state: int,
    events: Optional[EventConfig], p: np.ndarray, norm_bound=None, rows=None,
) -> list:
    """Lockstep adaptive loop over the rows (lanes) of ``y0``.

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
    lane's accepted points (t, y, f), its start included.  An iteration
    with one live lane steps it with ``_lone_dp_step`` on one stage
    buffer, made once per run.
    """
    y = np.array(y0, dtype=float)
    n_lanes = len(y)
    t_end, max_step = opts.t_max, opts.max_step
    abs_tol, rel_tol = opts.abs_tol, opts.rel_tol
    constraints = events.constraints if events is not None else ()
    sep = events.sep_target if events is not None else None
    min_threshold = events.norm_min_threshold if events is not None else None
    stop_at_min = events.stop_at_min if events is not None else None
    locate = events.locate_crossings if events is not None else True
    watch_norm = sep is not None or min_threshold is not None

    def lanes_rhs(z, q):
        return rhs(z.T, q).T

    def field(z):
        # A lone lane is evaluated as one state, which is cheaper than a
        # batch of one.
        return rhs(z[0], p)[None] if len(z) == 1 else lanes_rhs(z, p)

    def margins(z):
        # One list of lane margins per constraint; a lone lane may come as
        # a list of its one state.
        if len(z) == 1:
            x = z[0][:n_state]
            return [[c.value(x, p)] for c in constraints]
        x = z[:, :n_state].T
        return [c.value(x, p).tolist() for c in constraints]

    out: list = [None] * n_lanes
    lane_events: list[list[Event]] = [[] for _ in range(n_lanes)]

    def record(lane: int, t_ev: float, kind: EventKind, y_ev: np.ndarray, info: dict) -> None:
        lane_events[lane].append(Event(t_ev, kind, y_ev[:n_state].copy(), info))

    def finish(lane: int, t_ev: float, y_ev: np.ndarray, n_steps: int) -> None:
        ordered = sorted(lane_events[lane], key=lambda ev: ev.time)
        out[lane] = LaneEnd(t_ev, y_ev.copy(), n_steps, tuple(ordered))

    f = field(y)
    if rows is not None:
        rows.append((0.0, y[0], f[0]))

    ids = list(range(n_lanes))
    if not _all_finite(f):
        ok = np.isfinite(f).all(axis=1)
        for j in np.flatnonzero(~ok).tolist():
            out[j] = NumericalBlowup(
                f"vector field is not finite at the initial state {y[j, :n_state]}"
            )
        ids = np.flatnonzero(ok).tolist()
        y, f = y[ids], f[ids]

    # A run ends at its start on or outside the boundary (as a hit of the
    # most violated constraint) or inside the SEP ball, and takes no step.
    done = set()
    if constraints and ids:
        vals = margins(y)
        for a, j in enumerate(ids):
            lane_vals = [v[a] for v in vals]
            k = lane_vals.index(min(lane_vals))
            if lane_vals[k] <= 0.0:
                record(j, 0.0, EventKind.CONSTRAINT_CROSSING, y[a],
                       {"constraint": constraints[k].name})
                done.add(a)
    norm_prev = _norm_rows(f[:, :n_state]) if watch_norm and ids else [None] * len(ids)
    if sep is not None and ids:
        for a, dist in enumerate(_norm_rows(y[:, :n_state] - sep)):
            if a not in done and dist <= events.sep_radius:
                record(ids[a], 0.0, EventKind.CONVERGED_TO_SEP, y[a], {"distance": 0.0})
                done.add(a)
    for a in done:
        finish(ids[a], 0.0, y[a], 0)
    if done:
        keep = [a for a in range(len(ids)) if a not in done]
        ids, norm_prev = [ids[a] for a in keep], [norm_prev[a] for a in keep]
        y, f = y[keep], f[keep]
        done = set()

    L = len(ids)
    t = [0.0] * L
    h = _initial_steps(field, y, f, opts, t_end) if L else []
    just_rejected = [False] * L
    nonfinite_reject = [False] * L
    steps = [0] * L
    # Rolling window of each lane's last accepted points for minima detection.
    windows = [[(0.0, y[a], f[a], norm_prev[a])] if min_threshold is not None else None
               for a in range(L)]
    # The stage buffer of a lone lane and the views of its first i + 1 stages.
    stages = np.empty((7, y.shape[1]))
    firsts = [stages[: i + 1] for i in range(6)]

    while ids:
        for a in range(len(ids)):
            if a in done:
                continue
            h[a] = min(h[a], max_step, t_end - t[a])
            if h[a] < 4e-14 * max(1.0, abs(t[a])):
                if nonfinite_reject[a]:
                    err = NumericalBlowup(f"state became non-finite near t = {t[a]:.6g}")
                else:
                    err = StiffnessFailure(f"step size underflowed to {h[a]:.3e} at t = {t[a]:.6g}")
                out[ids[a]] = err
                done.add(a)
        if done:
            # Drop the lanes that ended or failed.
            keep = [a for a in range(len(ids)) if a not in done]
            ids, t, h, just_rejected, nonfinite_reject, steps, norm_prev, windows = (
                [col[a] for a in keep]
                for col in (ids, t, h, just_rejected, nonfinite_reject, steps, norm_prev, windows)
            )
            done = set()
            if not ids:
                break
            y, f = y[keep], f[keep]
        L = len(ids)

        if L == 1:
            # A lone lane steps as one state and keeps its bookkeeping on
            # floats and 1-D arrays: the same operations, without numpy's
            # overhead on a batch of one.  Its y and f are then lists of
            # that one state.
            y_new, f_new, err = _lone_dp_step(rhs, p, y[0], f[0], h[0], stages, firsts)
            e = _lone_error_norm(y[0], y_new, err, abs_tol, rel_tol)
            finite, err_norm = (None, [e]) if e is not None else ([False], [math.inf])
        else:
            y_new, f_new, err = _dp_step(lanes_rhs, p, y, f, np.array(h)[:, None])
            if _all_finite(y_new) and _all_finite(err):
                finite = None
                err_norm = _rms_rows(err / (abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y_new))))
            else:
                mask = np.isfinite(y_new).all(axis=1) & np.isfinite(err).all(axis=1)
                finite = mask.tolist()
                err_norm = [math.inf] * L
                sub = np.flatnonzero(mask)
                if sub.size:
                    scale = abs_tol + rel_tol * np.maximum(np.abs(y[sub]), np.abs(y_new[sub]))
                    for a, e in zip(sub.tolist(), _rms_rows(err[sub] / scale)):
                        err_norm[a] = e

        acc = []
        t_step = []
        for a in range(L):
            if finite is not None and not finite[a]:
                nonfinite_reject[a] = True
                just_rejected[a] = True
                h[a] *= 0.25
                continue
            e = err_norm[a]
            if e > 1.0:
                nonfinite_reject[a] = False
                just_rejected[a] = True
                h[a] *= max(0.2, 0.9 * e ** -0.2)
                continue
            factor = 5.0 if e == 0.0 else min(5.0, max(0.2, 0.9 * e ** -0.2))
            if just_rejected[a]:
                factor = min(factor, 1.0)
            just_rejected[a] = False
            nonfinite_reject[a] = False
            acc.append(a)
            t_step.append(t[a] + h[a])
            h[a] *= factor
        if not acc:
            continue

        full = len(acc) == L
        if L == 1:
            ys, fs = [y_new], [f_new]
            norms = [_norm(f_new[:n_state])] if watch_norm else [None]
            dists = [_norm(y_new[:n_state] - sep)] if sep is not None else None
        else:
            ys = y_new if full else y_new[acc]
            fs = f_new if full else f_new[acc]
            norms = _norm_rows(fs[:, :n_state]) if watch_norm else [None] * len(acc)
            dists = _norm_rows(ys[:, :n_state] - sep) if sep is not None else None
        vals = margins(ys) if constraints else ()
        for i, a in enumerate(acc):
            lane = ids[a]
            t1 = t_step[i]
            terminal = False
            crossed = [k for k, v in enumerate(vals) if v[i] <= 0.0]
            if crossed:
                if locate:
                    # Each margin that went non-positive is bisected on its
                    # own; the earliest root decides, and the step ends there.
                    roots = {
                        k: _refine_crossing(
                            lambda y_q, c=constraints[k]: c.value(y_q[:n_state], p),
                            _EVENT_REFINE_TOL, t[a], y[a], f[a], t1, ys[i], fs[i],
                        )
                        for k in crossed
                    }
                    k = min(roots, key=lambda j: roots[j][0])
                    t1, ys[i] = roots[k]
                    fs[i] = rhs(ys[i], p)
                    if watch_norm:
                        norms[i] = _norm(fs[i][:n_state])
                else:
                    # The step end decides, as a start does: the most
                    # violated margin names the crossing.
                    k = min(crossed, key=lambda j: vals[j][i])
                record(lane, t1, EventKind.CONSTRAINT_CROSSING, ys[i],
                       {"constraint": constraints[k].name})
                terminal = True

            if min_threshold is not None:
                window = windows[a]
                window.append((t1, ys[i], fs[i], norms[i]))
                if len(window) > 3:
                    window.pop(0)
                if len(window) == 3:
                    (t_a, _, _, n_a), (_, _, _, n_b), (t_c, _, _, n_c) = window
                    if n_b < n_a and n_b < n_c and (
                        norm_bound is None
                        or _norm_floor(window, *norm_bound, p, n_state)
                        <= min_threshold + _FLOOR_MARGIN * (1.0 + n_b)
                    ):
                        t_star, v_star = _refine_norm_min(
                            lambda t_q: _norm(rhs(_window_state(window, t_q), p)[:n_state]),
                            t_a, t_c, _EVENT_REFINE_TOL,
                        )
                        if v_star <= min_threshold:
                            record(lane, t_star, EventKind.FIELD_NORM_LOCAL_MIN,
                                   _window_state(window, t_star), {"f_norm": v_star})
                            if (
                                stop_at_min is not None and not terminal
                                and stop_at_min(lane_events[lane][-1].state, ys[i][:n_state])
                            ):
                                terminal = True

            if sep is not None and not terminal:
                if dists[i] <= events.sep_radius and norms[i] < norm_prev[a]:
                    record(lane, t1, EventKind.CONVERGED_TO_SEP, ys[i], {"distance": dists[i]})
                    terminal = True

            t[a] = t1
            steps[a] += 1
            norm_prev[a] = norms[i]
            if terminal or t1 >= t_end:
                finish(lane, t1, ys[i], steps[a])
                done.add(a)

        if rows is not None:
            rows.append((t[0], ys[0], fs[0]))
        if full:
            y, f = ys, fs
        else:
            y, f = y.copy(), f.copy()
            y[acc], f[acc] = ys, fs

    return out


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
