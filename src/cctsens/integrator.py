"""Adaptive explicit integration with event localization.

The stepper is the Dormand-Prince 5(4) pair with the first-same-as-last
optimization and a proportional step-size controller.  Between accepted
steps the state is reconstructed by cubic Hermite interpolation from
the stored states and derivatives, which is what event refinement and
``state_at`` rely on; dense output from the tableau is deliberately not
assumed.

Three kinds of events can be watched while integrating:

* exits from the feasible region: each constraint margin is evaluated
  at every step end, and the earliest root among the margins that are
  no longer positive (NaN included) is localized by bisection of that margin on the
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

One engine runs K starts ("lanes") one after another: each lane keeps
its own time, step control, events and end, and what the lanes of a run
share (the field, the events, the generated loop) is set up once.
``integrate_lanes`` returns only where each lane ended (a ``LaneEnd``);
``integrate`` is the one-lane run and also keeps its accepted points.
A lane whose state goes non-finite, whose step underflows or that takes
``_MAX_LANE_STEPS`` accepted steps stops with that error; the other lanes
run on.  A lane is stepped by the same code whatever else runs beside
it, so it equals its one-lane run bit for bit.

The generated loop (``_loop_source``) is the only code that takes a
step.  It steps a lane on Python floats, straight-line, and is made once
per state width and per source records of the field and margins, with
every component a local and every weight of ``_A`` and ``_E`` an exact
literal.  Where the field's one-state float entry carries a source
record (``model._Source``; both constructors attach one), each stage
evaluates the field's expressions in place, with no call and no list;
so do the margins at each step end, beside the field norm and the SEP
distance.  A field or margin without a record, or whose expressions
raise ZeroDivisionError, is called through its float entry
``on_floats``, or its array call.  The step-size rule and the quiet-step
test (no crossing, no SEP ball, no field-norm minimum, not the horizon)
are written into the loop; a quiet step just moves the loop's locals on,
and only other steps go to ``_Run.end_step``.  Each stage sum is
((a0 k0 + a1 k1) + ...) h + y per component, and error norms, field
norms and SEP distances add the squares of the components left to
right.  A margin is read only through its float entry (``_float_margin``,
which falls back to the array call), at a lane's start, at step ends and
in the bisection of a crossing alike; a float entry equals its array
call bit for bit.

``integrate_with_sensitivities`` integrates the variational equations

    Phi_x' = (df/dx) Phi_x,   Phi_x(0) = I
    Phi_p' = (df/dx) Phi_p + df/dp,   Phi_p(0) = 0

as one augmented system, so the state and both sensitivity blocks share
a single step-size control.  Its field is generated once per (n,
n_params) and runs on floats, on the float entries of the phase's field
and Jacobians (or their array calls where it has none); each entry of
J Phi_x and J Phi_p + J_p is summed left to right.  No matrix product
is taken, so no result here depends on a BLAS build.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .errors import DimensionMismatch, NumericalBlowup, OutOfRange, StiffnessFailure
from .model import ConstrainedSystem, Constraint, Phase, PhaseDynamics, _check_dims, _inlined

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
# Accepted steps after which a lane fails, far above the 1049 that any run of
# the tests or the benchmark takes; a run onto a pole of the field takes millions.
_MAX_LANE_STEPS = 200_000
# Straight-line float code, one function per kind and width (``_generated``).
_GENERATED: dict = {}


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
    ``constraints`` is not positive (a NaN margin, outside its limit's
    domain, is not): at the start, or at the earliest root inside a
    step.  The event info names that constraint.  With
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
    the run.  Reaching the horizon is not an event.  In a run of many
    lanes every lane watches the same events and records its own; one
    lane's event ends that lane only.
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
    """Where one lane of ``integrate_lanes`` ended, after ``steps`` accepted steps."""

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


def _hermite(t: float, t0: float, y0, f0, t1: float, y1, f1) -> list:
    """Cubic Hermite interpolant matching value and slope at both ends.

    Each component is summed on floats as ((a y0 + b f0) + c y1) + d f1,
    with a = 2s^3 - 3s^2 + 1, b = (s^3 - 2s^2 + s) h, c = -2s^3 + 3s^2
    and d = (s^3 - s^2) h for s = (t - t0) / h: the products and sums,
    in their order, of the same expression over whole arrays, at a
    fraction of its cost for a short state.  The ends y0, f0, y1, f1 are
    sequences of floats, as the engine keeps its accepted points, and
    so is the result.
    """
    h = t1 - t0
    s = (t - t0) / h
    s2 = s * s
    s3 = s2 * s
    a = 2 * s3 - 3 * s2 + 1
    b = (s3 - 2 * s2 + s) * h
    c = -2 * s3 + 3 * s2
    d = (s3 - s2) * h
    return [a * u0 + b * v0 + c * u1 + d * v1 for u0, v0, u1, v1 in zip(y0, f0, y1, f1)]


def _norm(v) -> float:
    """Euclidean norm of a sequence of floats, its squares added left to right."""
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total)


def _rms(v) -> float:
    """Root mean square of a sequence of floats, its squares added left to right."""
    total = 0.0
    for x in v:
        total += x * x
    return math.sqrt(total / len(v))


def _distance(y, target) -> float:
    """``_norm`` of y - target over the components of target."""
    return _norm([a - b for a, b in zip(y, target)])


def _initial_step(field, ps: list, y: list, f0: list, opts: IntegrationOptions) -> float:
    """First step size of a lane at y, field f0 (Hairer, Norsett & Wanner's estimate).

    ``field(xs, ps)`` maps a list of floats to its derivative as a list.
    """
    abs_tol, rel_tol, t_span = opts.abs_tol, opts.rel_tol, opts.t_max
    scale = [abs_tol + rel_tol * abs(v) for v in y]
    d0 = _rms([v / s for v, s in zip(y, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    h = min(1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1, t_span)
    f1 = field([v + h * g for v, g in zip(y, f0)], ps)
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, f0, scale)])
    # h is 0 when the scaled field overflows; the lane then stops on
    # step underflow.
    d = max(d1, d2 / h if h else math.inf)
    h1 = max(1e-6, h * 1e-3) if d <= 1e-15 else (0.01 / d) ** 0.2
    return min(100 * h, h1, opts.max_step, t_span)


def _generated(make_source, *args):
    """The function that ``make_source(*args)`` defines, made once per args.

    Each source defines one function, named ``generated``.
    """
    key = (make_source, args)
    fn = _GENERATED.get(key)
    if fn is None:
        scope: dict = {}
        exec(compile(make_source(*args), f"<{make_source.__name__}>", "exec"), scope)
        fn = _GENERATED[key] = scope["generated"]
    return fn


def _names(prefix: str, count: int) -> str:
    return ", ".join(f"{prefix}{j}" for j in range(count))


def _grid(prefix: str, rows: int, cols: int) -> str:
    return ", ".join(f"{prefix}{i}_{j}" for i in range(rows) for j in range(cols))


def _weighted(weights, stage_names, j: int) -> str:
    """((w0 k0_j + w1 k1_j) + ...) as source, the weights as exact literals."""
    return " + ".join(f"{w!r}*{k}{j}" for w, k in zip(weights, stage_names))


def _error_norm_lines(m: int) -> list[str]:
    """Source lines that set ``e`` to the error norm of a step of m components.

    They read the components y0.. of the state, z0.. of the new state
    and d0.. of the error vector, and ``abs_tol`` and ``rel_tol``.  e is
    the root mean square of d / (abs_tol + rel_tol max(|y|, |z|)), its
    squares added left to right, or None when a component of z or d is
    not finite (1e999 reads as inf).
    """
    finite = " and ".join(f"-1e999 < {v}{j} < 1e999" for v in "zd" for j in range(m))
    lines = [f"    if {finite}:"]
    for j in range(m):
        lines += [
            f"        a{j} = abs(y{j})",
            f"        b{j} = abs(z{j})",
            f"        q{j} = d{j} / (abs_tol + rel_tol*(a{j} if a{j} >= b{j} else b{j}))",
        ]
    squares = " + ".join(f"q{j}*q{j}" for j in range(m))
    return lines + [f"        e = sqrt(({squares}) / {m})", "    else:", "        e = None"]


def _stage_lines(m: int, components=None) -> list[str]:
    """Source lines of one Dormand-Prince step of m components on floats.

    They read the state y0.., its field k0_0.., the step size h and the
    tolerances, and set the stages k1_0.. to k6_0.., the new state
    z0.., the error vector d0.. and its norm ``e`` (``_error_norm_lines``,
    None when not finite).  Each stage calls ``field(xs, ps)`` on a list
    of the stage state, or, given the field's ``components`` as
    expressions on ``_x0``.., evaluates them in place with the stage
    state in ``_x0``...  Each component is a local, and every weight of
    ``_A`` and ``_E`` is kept, zeros included: 0.0 k is not 0 when k is
    inf or NaN.
    """
    k = [f"k{i}_" for i in range(7)]
    lines = []
    for i, row in enumerate(_A, start=1):
        sums = [f"({_weighted(row, k, j)})*h + y{j}" for j in range(m)]
        if i == len(_A):
            lines += [f"z{j} = {s}" for j, s in enumerate(sums)]
            sums = [f"z{j}" for j in range(m)]
        if components is None:
            lines.append(f"[{_names(k[i], m)}] = field([{', '.join(sums)}], ps)")
        else:
            lines += [f"_x{j} = {s}" for j, s in enumerate(sums)]
            lines += [f"{k[i]}{j} = {c}" for j, c in enumerate(components)]
    lines += [f"d{j} = ({_weighted(_E, k, j)})*h" for j in range(m)]
    return lines + [line[4:] for line in _error_norm_lines(m)]


def _variational_source(n: int, n_p: int) -> str:
    """Source of ``generated(f, jac_x, jac_p)``, the augmented field on floats.

    It takes the float entries of a phase's field and Jacobians (the
    Jacobians row-major and flat) and returns ``field(ys, ps)`` of
    ys = [x, Phi_x, Phi_p], both blocks row-major.  Each entry of
    J Phi_x and J Phi_p + J_p is summed left to right over k.
    """
    def product(i: int, phi: str, j: int) -> str:
        return " + ".join(f"j{i}_{k}*{phi}{k}_{j}" for k in range(n))

    entries = [product(i, "u", j) for i in range(n) for j in range(n)]
    entries += [f"{product(i, 'v', j)} + q{i}_{j}" for i in range(n) for j in range(n_p)]
    return "\n".join([
        "def generated(f, jac_x, jac_p):",
        "    def field(ys, ps):",
        f"        xs = ys[:{n}]",
        f"        [{_grid('j', n, n)}] = jac_x(xs, ps)",
        f"        [{_grid('q', n, n_p)}] = jac_p(xs, ps)",
        f"        [{_grid('u', n, n)}, {_grid('v', n, n_p)}] = ys[{n}:]",
        f"        return f(xs, ps) + [{', '.join(entries)}]",
        "    return field",
    ]) + "\n"


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


def _window_state(window, t_q: float) -> list:
    """Interpolated state at t_q inside a window of accepted points."""
    for (ta, ya, fa, _), (tb, yb, fb, _) in zip(window, window[1:]):
        if ta <= t_q <= tb:
            return _hermite(t_q, ta, ya, fa, tb, yb, fb)
    raise AssertionError("query left the interpolation window")


def _float_field(fn, p: np.ndarray):
    """A field or Jacobian at one state on floats: fn(xs, ps) as a flat list.

    xs and ps are the state and the parameters as lists of floats.  The
    one-state float entry ``fn.on_floats`` is used when fn has one; a
    callable without it (a wrapper around a model's callable) takes its
    array call at p, a matrix flattened row-major.
    """
    on_floats = getattr(fn, "on_floats", None)
    if on_floats is None:
        return lambda xs, ps: np.asarray(fn(np.array(xs), p), dtype=float).ravel().tolist()
    return on_floats


def _float_margin(value, p: np.ndarray):
    """A margin at one state on floats: ``value.on_floats``, or its array call at p."""
    on_floats = getattr(value, "on_floats", None)
    if on_floats is None:
        return lambda xs, ps: value(np.array(xs), p)
    return on_floats


def _most_violated(vals, crossed: list) -> int:
    """Which of the ``crossed`` margins (``vals[k]`` not > 0) names a crossing at one state.

    The least margin, the first of equals; a NaN margin, which left its
    limit's domain, comes before any number.
    """
    return min(crossed, key=lambda k: vals[k] if vals[k] <= 0.0 else -math.inf)


class _Lane:
    """One lane: its clock, first step size, last accepted point and events.

    The point is kept as lists of floats ``y`` and ``f`` with the field
    norm ``norm`` there; ``prev`` is the accepted point before it, as
    (t, y, f, norm), or None at the start.  ``end_step`` reads and moves
    these; the loop keeps its step control in its own locals.
    """

    __slots__ = ("index", "t", "h", "steps", "y", "f", "norm", "prev", "events")

    def __init__(self, index: int, y: list, f: list, norm) -> None:
        self.index = index
        self.t = 0.0
        self.h = 0.0
        self.steps = 0
        self.y, self.f, self.norm = y, f, norm
        self.prev = None
        self.events: list[Event] = []


class _Run:
    """What the lanes of one run share, and the events every lane watches.

    ``start`` and ``end_step`` handle a lane at its start and at each
    accepted step that is not quiet, on lists of floats; the results go
    to ``out``, one LaneEnd or error per lane.  Every margin is read
    through its float entry (``float_margins``).
    """

    def __init__(self, rhs, p, opts: IntegrationOptions, n_state: int,
                 events: Optional[EventConfig], norm_bound, n_lanes: int) -> None:
        events = events if events is not None else EventConfig()
        self.p, self.n, self.opts = p, n_state, opts
        self.field, self.ps = _float_field(rhs, p), p.tolist()
        self.t_end = opts.t_max
        self.constraints = events.constraints
        self.float_margins = [_float_margin(c.value, p) for c in self.constraints]
        self.sep = None if events.sep_target is None else np.asarray(events.sep_target, dtype=float)
        self.sep_floats = None if self.sep is None else self.sep.tolist()
        self.sep_radius = events.sep_radius
        self.min_threshold = events.norm_min_threshold
        self.minima = self.min_threshold is not None
        self.stop_at_min = events.stop_at_min
        self.locate = events.locate_crossings
        self.watch_norm = self.sep is not None or self.minima
        self.norm_bound = norm_bound
        self.out: list = [None] * n_lanes

    def record(self, lane: _Lane, t_ev: float, kind: EventKind, y_ev, info: dict) -> None:
        lane.events.append(Event(t_ev, kind, np.array(y_ev[: self.n], dtype=float), info))

    def fail(self, lane: _Lane, t: float, h: float, nonfinite: bool, steps: int) -> None:
        """Stop the lane at t: its step size h underflowed, or its ``steps`` reached the bound.

        The step underflows when h < ``_MIN_STEP`` max(1, |t|); the lane
        fails with NumericalBlowup when its last step was not finite.
        """
        if steps >= _MAX_LANE_STEPS:
            self.out[lane.index] = StiffnessFailure(f"{steps} accepted steps, the bound of a lane, at t = {t:.6g}")
        elif nonfinite:
            self.out[lane.index] = NumericalBlowup(f"state became non-finite near t = {t:.6g}")
        else:
            self.out[lane.index] = StiffnessFailure(f"step size underflowed to {h:.3e} at t = {t:.6g}")

    def finish(self, lane: _Lane) -> None:
        ordered = sorted(lane.events, key=lambda ev: ev.time)
        self.out[lane.index] = LaneEnd(lane.t, np.array(lane.y, dtype=float), lane.steps,
                                       tuple(ordered))

    def start(self, index: int, y: list, f: list, vals) -> Optional[_Lane]:
        """The lane starting at (y, f) with margins vals, or None if its start ends it.

        A non-finite field fails the lane.  A start on or outside the
        boundary (a hit of the most violated constraint) or inside the
        SEP ball ends the run there, with no step taken.  A lane that
        steps gets its first step size from ``_initial_step``.
        """
        n = self.n
        if not all(map(math.isfinite, f)):
            self.out[index] = NumericalBlowup(
                f"vector field is not finite at the initial state {np.array(y[:n])}"
            )
            return None
        lane = _Lane(index, y, f, _norm(f[:n]) if self.watch_norm else None)
        crossed = [k for k, v in enumerate(vals) if not v > 0.0]
        if crossed:
            self.record(lane, 0.0, EventKind.CONSTRAINT_CROSSING, y,
                        {"constraint": self.constraints[_most_violated(vals, crossed)].name})
            self.finish(lane)
            return None
        if self.sep is not None and _distance(y, self.sep_floats) <= self.sep_radius:
            self.record(lane, 0.0, EventKind.CONVERGED_TO_SEP, y, {"distance": 0.0})
            self.finish(lane)
            return None
        lane.h = _initial_step(self.field, self.ps, y, f, self.opts)
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
        crossed = [k for k, v in enumerate(vals) if not v > 0.0]
        if crossed:
            if self.locate:
                # Each margin that went non-positive is bisected on its
                # own; the earliest root decides, and the step ends there.
                roots = {
                    k: _refine_crossing(
                        lambda y_q, margin=self.float_margins[k]: margin(y_q[:n], ps),
                        _EVENT_REFINE_TOL, lane.t, lane.y, lane.f, t1, y1, f1,
                    )
                    for k in crossed
                }
                k = min(roots, key=lambda j: roots[j][0])
                t1, y1 = roots[k]
                f1 = field(y1, ps)
                if self.watch_norm:
                    norm = _norm(f1[:n])
            else:
                # The step end decides, as a start does: the most
                # violated margin names the crossing.
                k = _most_violated(vals, crossed)
            self.record(lane, t1, EventKind.CONSTRAINT_CROSSING, y1,
                        {"constraint": self.constraints[k].name})
            terminal = True

        prev = lane.prev
        if self.minima and prev is not None and lane.norm < prev[3] and lane.norm < norm:
            # A discrete minimum of the field norm at the lane's point.
            window = (prev, (lane.t, lane.y, lane.f, lane.norm), (t1, y1, f1, norm))
            if (
                self.norm_bound is None
                or _norm_floor(window, *self.norm_bound, p, n)
                <= self.min_threshold + _FLOOR_MARGIN * (1.0 + lane.norm)
            ):
                t_star, v_star = _refine_norm_min(
                    lambda t_q: _norm(field(_window_state(window, t_q), ps)[:n]),
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


def _record(entry):
    """(key, values) of a float entry's source record (``model._Source``).

    The key is the record without its namespace's values, which the
    loop takes as locals; (None, ()) when the entry has no record.
    """
    source = getattr(entry, "_source", None)
    return (None, ()) if source is None else (source.key, tuple(source.namespace.values()))


def _loop_source(m: int, n: int, field, margins) -> str:
    """Source of the lone-lane loop for a state of m components, n of them the system's.

    ``field`` and each of ``margins`` are the ``_record`` keys of the
    run's float field and margins, or None.  ``generated(run, lane, rows,
    consts)`` steps the lane alone on floats until it ends or fails;
    ``consts`` holds the values of the records' namespaces, field first
    (a machine's coupling and damping, numpy's functions), which come in
    as locals, so they never change the compiled code.  The lane's
    clock, step size, point, field norm, ``prev``, step count and step
    control are locals.  ``rows``, when given, collects each accepted
    point (t, y, f).

    Each step is ``_stage_lines``.  With a record of the field, each
    stage evaluates its components in place, with no call and no list;
    a ZeroDivisionError there (Python raises where numpy gives inf or
    nan) redoes the step from y and k0 with the same lines calling the
    field's float entry, which falls back to numpy.  Without one, each
    stage calls the field.  The field norm, the SEP distance and the
    margins at each step end are taken inline on floats, as ``_norm``
    sums squares.  A margin with a record is evaluated in place, and
    called on a ZeroDivisionError; one without is called.

    The step-size rule follows each step of size h from t with error
    norm e.  A step that is not finite (e None) is rejected and the
    next one is a quarter of it; one with e > 1 is rejected and scaled
    by max(0.2, 0.9 e^-0.2).  An accepted step scales the next by
    min(5, max(0.2, 0.9 e^-0.2)), by 5 at e = 0, and by at most 1
    right after a rejection.  The next step is capped at ``max_step``
    and at the horizon, from the step's end or, after a rejection, from
    t.  ``e ** -0.2`` is Python's power on floats.  An accepted step is
    quiet when it ends before the horizon, every margin is ``> 0.0`` (a
    NaN margin is not), its end lies outside the SEP ball, and the field
    norm at the lane's point is no discrete minimum between the point
    before and the step end: ``end_step`` would only move the lane on,
    so the loop moves its locals on instead.  Only the other steps build
    the margin list and go to ``end_step``.
    """
    records = [s for s in (field, *margins) if s is not None]
    values = [] if field is None else [f"_f{i}" for i in range(len(field[3]))]
    for a, s in enumerate(margins):
        values += [] if s is None else [f"_m{a}_{i}" for i in range(len(s[3]))]
    lines = [
        "from math import sqrt",
        "def generated(run, lane, rows, consts):",
        "    field, ps, margins = run.field, run.ps, run.float_margins",
        "    opts, t_end = run.opts, run.t_end",
        "    max_step, abs_tol, rel_tol = opts.max_step, opts.abs_tol, opts.rel_tol",
        "    sep, sep_radius, watch_norm, minima = run.sep_floats, run.sep_radius, run.watch_norm, run.minima",
        "    end_step = run.end_step",
    ]
    if records:
        lines.append(f"    [{_names('_p', max(len(s[1]) for s in records))}] = ps")
    if values:
        lines.append(f"    [{', '.join(values)}] = consts")
    lines += [
        "    if sep is not None:",
        f"        [{_names('s', n)}] = sep",
        "    t, h, y, f, norm, prev, steps = lane.t, lane.h, lane.y, lane.f, lane.norm, lane.prev, lane.steps",
        "    rejected = nonfinite = False",
        "    while True:",
        f"        if h < {_MIN_STEP!r} * max(1.0, abs(t)) or steps >= {_MAX_LANE_STEPS}:",
        "            run.fail(lane, t, h, nonfinite, steps)",
        "            return",
        f"        [{_names('y', m)}] = y",
        f"        [{_names('k0_', m)}] = f",
    ]
    call_lines = _stage_lines(m)
    if field is None:
        lines += [" " * 8 + line for line in call_lines]
    else:
        lines += [
            "        try:",
            *(" " * 12 + line for line in _stage_lines(m, _inlined(field, "_f"))),
            "        except ZeroDivisionError:",
            *(" " * 12 + line for line in call_lines),
        ]
    lines += [
        "        if e is None:",
        "            h = min(h * 0.25, max_step, t_end - t)",
        "            rejected = nonfinite = True",
        "            continue",
        "        if e > 1.0:",
        "            h = min(h * max(0.2, 0.9 * e ** -0.2), max_step, t_end - t)",
        "            rejected, nonfinite = True, False",
        "            continue",
        "        factor = 5.0 if e == 0.0 else min(5.0, max(0.2, 0.9 * e ** -0.2))",
        "        if rejected:",
        "            factor = min(factor, 1.0)",
        "        t1 = t + h",
        "        h = min(h * factor, max_step, t_end - t1)",
        "        rejected = nonfinite = False",
        f"        y_new = [{_names('z', m)}]",
        f"        f_new = [{_names('k6_', m)}]",
        f"        norm1 = sqrt({' + '.join(f'k6_{j}*k6_{j}' for j in range(n))}) if watch_norm else None",
        "        if sep is None:",
        "            dist = None",
        "        else:",
        *(f"            u{j} = z{j} - s{j}" for j in range(n)),
        f"            dist = sqrt({' + '.join(f'u{j}*u{j}' for j in range(n))})",
    ]
    if margins:
        # The margins read the first n components.
        lines.append(f"        x1 = y_new{'' if m == n else f'[:{n}]'}")
        lines += [f"        _x{j} = z{j}" for j in range(n)]
    for a, s in enumerate(margins):
        called = f"v{a} = margins[{a}](x1, ps)"
        if s is None:
            lines.append(" " * 8 + called)
        else:
            lines += ["        try:", f"            v{a} = {_inlined(s, f'_m{a}_')[0]}",
                      "        except ZeroDivisionError:", " " * 12 + called]
    positive = "".join(f" and v{a} > 0.0" for a in range(len(margins)))
    lines += [
        f"        if (t1 < t_end{positive} and (dist is None or dist > sep_radius)",
        "                and not (minima and prev is not None and norm < prev[3] and norm < norm1)):",
        "            prev = (t, y, f, norm)",
        "            t, y, f, norm = t1, y_new, f_new, norm1",
        "            steps += 1",
        "            if rows is not None:",
        "                rows.append((t, y, f))",
        "            continue",
        f"        vals = [{_names('v', len(margins))}]",
        "        lane.t, lane.y, lane.f, lane.norm, lane.prev, lane.steps = t, y, f, norm, prev, steps",
        "        ended = end_step(lane, t1, y_new, f_new, norm1, dist, vals)",
        "        t, y, f, norm, prev, steps = lane.t, lane.y, lane.f, lane.norm, lane.prev, lane.steps",
        "        if rows is not None:",
        "            rows.append((t, y, f))",
        "        if ended:",
        "            run.finish(lane)",
        "            return",
    ]
    return "\n".join(lines) + "\n"


def _engine(
    rhs, y0: np.ndarray, opts: IntegrationOptions, n_state: int,
    events: Optional[EventConfig], p: np.ndarray, norm_bound=None, rows=None,
) -> list:
    """Adaptive loop over the rows (lanes) of ``y0``, one lane after another.

    ``rhs(y, p)`` maps a state of shape (m,) to its derivative, through
    its float entry ``on_floats`` when it has one; ``p`` also goes to the
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

    Every lane that its start does not end steps through one generated
    loop (``_loop_source``), looked up once per run, by state width and
    by the source records of the field and of each margin.
    """
    y0 = np.asarray(y0, dtype=float)
    run = _Run(rhs, p, opts, n_state, events, norm_bound, len(y0))
    field, consts = _record(run.field)
    margins = []
    for value in run.float_margins:
        key, values = _record(value)
        margins.append(key)
        consts += values
    loop = _generated(_loop_source, y0.shape[1], n_state, field, tuple(margins))
    consts = list(consts)
    for index, y in enumerate(y0.tolist()):
        f = run.field(y, run.ps)
        if rows is not None:
            rows.append((0.0, y, f))
        lane = run.start(index, y, f, [value(y[:n_state], run.ps) for value in run.float_margins])
        if lane is not None:
            loop(run, lane, rows, consts)
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
    """Integrate one phase from every row of ``x0s``, one lane after another, in one run.

    Returns a LaneEnd per start: its end time, end state, step count and
    events equal those of the run ``integrate`` gives that start, bit
    for bit.  A lane that stops with NumericalBlowup or StiffnessFailure
    gets that error in its place; the other lanes run on.  The run sets
    up what its lanes share (the float field and margins, the events and
    the generated loop) once.
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

    This is the one-lane run of the engine behind ``integrate_lanes``,
    which also keeps the accepted points.
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
    field = _generated(_variational_source, n, n_p)(
        *(_float_field(fn, p) for fn in (dyn.f, dyn.jac_x, dyn.jac_p))
    )
    # The engine calls the field through its float entry.
    field.on_floats = field

    y0 = np.concatenate([x0, np.eye(n).ravel(), np.zeros(n * n_p)])
    rows: list = []
    (end,) = _engine(field, y0[None], opts, n, None, p, rows=rows)
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
    """State at time t by cubic Hermite interpolation; OutOfRange for a t (or NaN) off the span."""
    times = trajectory.times
    t0, t1 = float(times[0]), float(times[-1])
    slack = _SPAN_SLACK * max(1.0, abs(t0), abs(t1))
    if not t0 - slack <= t <= t1 + slack:
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
    return np.array(_hermite(t, float(times[i]), y0, f0, float(times[i + 1]), y1, f1))
