"""Feasibility boundary geometry.

The feasible region of a phase is the set where every constraint margin
h_k is positive; its boundary is made of the zero sets of the margins.
A point on h_k = 0 is classified by the sign of that margin's drift
along the flow,

    hdot_k = (grad_x h_k) f :   hdot_k < 0  leaving the region  (stable side),
                                hdot_k > 0  entering            (unstable side),
                                hdot_k = 0  tangent             (semi-saddle).

Off the corners where two margins vanish, this is the sign of the drift
of the product H = prod_k h_k, since there Hdot = (prod_{j != k} h_j)
hdot_k with a positive factor.  Nothing differentiates H: ``eval_H``
and ``combined_H`` give its value, which sets the reference margin
h_ref and is written to trajectory files.

The module also builds the union boundary of the fault and post-fault
phases (duplicate constraint names are kept once, from the post side)
and samples stability regions of the post-fault system on a rectangular
grid, annotating the constraint boundary with its point classification,
refined semi-saddles, and backward-orbit samples through them.  Each
constraint's samples are chained along its curve, and a semi-saddle is
refined wherever that constraint's drift changes sign between
neighbours on the chain.  Each backward orbit runs only until it leaves
the grid window: the window edges are watched as constraint margins, so
the run ends there.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CctError,
    EmptyCombinedBoundary,
    NoEquilibriumFound,
    NumericalBlowup,
    StiffnessFailure,
)
from .integrator import EventConfig, EventKind, IntegrationOptions, integrate, integrate_lanes
from .model import (
    ConstrainedSystem,
    Constraint,
    EquilibriumClass,
    Phase,
    _attraction_radius,
    eval_f,
    find_equilibrium,
)

__all__ = [
    "PseudoEpKind",
    "PseudoEpClass",
    "eval_H",
    "classify_pseudo_ep",
    "combined_constraints",
    "combined_H",
    "CellClass",
    "GridSpec",
    "classify_grid_points",
    "classify_grid_point",
    "BoundaryPoint",
    "SrGrid",
    "sample_stability_region",
]

# Default |h_k| tolerance for deciding a point sits on the boundary.
_BOUNDARY_TOL = 1e-8
# Default tangency tolerance, scaled by |grad_x h_k| |f| before use.
_TANGENCY_TOL = 1e-6
# Newton steps that pull a point onto its constraint.
_PROJECTION_STEPS = 6
# Bisection steps that locate a semi-saddle between two boundary points.
_SEMI_SADDLE_BISECTIONS = 80


class PseudoEpKind(Enum):
    STABLE = "stable"
    UNSTABLE = "unstable"
    SEMI_SADDLE = "semi_saddle"
    NOT_ON_BOUNDARY = "not_on_boundary"


@dataclass(frozen=True)
class PseudoEpClass:
    """Classification of a point against one constraint's zero set.

    ``h_value`` is that margin h_k at the point and ``h_dot`` its drift
    (grad_x h_k) f.
    """

    kind: PseudoEpKind
    h_value: float
    h_dot: float
    threshold: float  # the scaled tangency band actually applied


def _constraint_values(constraints: Sequence[Constraint], x, p) -> np.ndarray:
    return np.array([c.value(x, p) for c in constraints], dtype=float)


def eval_H(system: ConstrainedSystem, phase: Phase, x, p) -> float:
    """Product of the phase's constraints; 1.0 for a constraint-free phase."""
    values = _constraint_values(system.phases[phase].constraints, x, p)
    return float(np.prod(values)) if len(values) else 1.0


def classify_pseudo_ep(
    system: ConstrainedSystem,
    phase: Phase,
    constraint: Constraint,
    x,
    p,
    boundary_tol: float = _BOUNDARY_TOL,
    tangency_tol: float = _TANGENCY_TOL,
) -> PseudoEpClass:
    """Classify a point of ``constraint``'s zero set by the sign of its drift.

    The margin h_k must lie within ``boundary_tol`` of zero, and its
    drift (grad_x h_k) f is compared with the tangency band
    ``tangency_tol`` |grad_x h_k| |f|, so the verdict does not depend on
    the scaling of the constraint or of time.
    """
    h = float(constraint.value(x, p))
    gx = np.asarray(constraint.grad_x(x, p), dtype=float)
    f = eval_f(system, phase, x, p)
    h_dot = float(gx @ f)
    threshold = tangency_tol * float(np.linalg.norm(gx) * np.linalg.norm(f))
    if abs(h) > boundary_tol:
        kind = PseudoEpKind.NOT_ON_BOUNDARY
    elif h_dot < -threshold:
        kind = PseudoEpKind.STABLE
    elif h_dot > threshold:
        kind = PseudoEpKind.UNSTABLE
    else:
        kind = PseudoEpKind.SEMI_SADDLE
    return PseudoEpClass(kind=kind, h_value=h, h_dot=h_dot, threshold=threshold)


# ── combined fault/post boundary ──────────────────────────────────────────────


def combined_constraints(system: ConstrainedSystem) -> tuple[Constraint, ...]:
    """Union of post and fault constraints; fault-side name duplicates dropped."""
    post = system.phases[Phase.POST_FAULT].constraints
    post_names = {c.name for c in post}
    kept = tuple(post) + tuple(
        c for c in system.phases[Phase.FAULT_ON].constraints if c.name not in post_names
    )
    if not kept:
        raise EmptyCombinedBoundary(
            "neither the fault nor the post-fault phase declares constraints"
        )
    return kept


def combined_H(system: ConstrainedSystem, x, p) -> float:
    """Product of the margins over the union boundary."""
    return float(np.prod(_constraint_values(combined_constraints(system), x, p)))


# ── stability region sampling ─────────────────────────────────────────────────


class CellClass(Enum):
    STABLE = "stable"
    HITS_BOUNDARY = "hits_boundary"
    DIVERGES = "diverges"


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sampling window for planar systems."""

    x1_min: float
    x1_max: float
    x2_min: float
    x2_max: float
    n1: int = 100
    n2: int = 100

    def __post_init__(self) -> None:
        if not (self.x1_max > self.x1_min and self.x2_max > self.x2_min):
            raise ValueError("grid window is empty")
        if not all(isinstance(n, (int, np.integer)) for n in (self.n1, self.n2)):
            raise ValueError("grid sample counts must be integers")
        if self.n1 < 2 or self.n2 < 2:
            raise ValueError("grid needs at least 2 samples per axis")

    @property
    def x1(self) -> np.ndarray:
        return np.linspace(self.x1_min, self.x1_max, self.n1)

    @property
    def x2(self) -> np.ndarray:
        return np.linspace(self.x2_min, self.x2_max, self.n2)


@dataclass(frozen=True)
class BoundaryPoint:
    """A sampled point of one constraint's zero set, classified."""

    x: np.ndarray
    constraint: str
    kind: PseudoEpKind
    h_dot: float


@dataclass(frozen=True)
class SrGrid:
    """Classified stability-region grid of the post-fault system."""

    spec: GridSpec
    classes: np.ndarray  # (n1, n2) object array of CellClass
    sep: np.ndarray
    boundary_points: tuple[BoundaryPoint, ...]
    semi_saddles: tuple[BoundaryPoint, ...]
    manifolds: tuple[np.ndarray, ...]  # backward-orbit polylines through semi-saddles

    def stable_mask(self) -> np.ndarray:
        return np.array(
            [[c is CellClass.STABLE for c in row] for row in self.classes], dtype=bool
        )


_GRID_OPTS = IntegrationOptions(rel_tol=1e-6, abs_tol=1e-9, t_max=20.0, max_step=0.5)
_GRID_SEP_RADIUS = 1e-2


def classify_grid_points(
    system: ConstrainedSystem,
    p: np.ndarray,
    x0s: np.ndarray,
    x_sep: np.ndarray,
    opts: IntegrationOptions = _GRID_OPTS,
    sep_radius: float = _GRID_SEP_RADIUS,
) -> list[CellClass]:
    """STABLE, HITS_BOUNDARY or DIVERGES verdict for each row of ``x0s``.

    All points run as lanes of one lockstep integration of the
    post-fault phase.  A start with any post-fault constraint
    non-positive hits the boundary at t = 0; otherwise the run decides:
    a crossing of any constraint, entry into the SEP ball, or neither.
    Only whether a lane crossed is read, so a crossing ends its lane at
    that step end, unrefined.  A lane whose state blows up or whose
    step underflows diverges.

    The SEP ball is the ball of ``_attraction_radius`` when the phase
    certifies one, else the ball of ``sep_radius``; ``sep_radius`` thus
    sets the fallback ball, the smallest certified ball used, and the
    reach of the certified region, 100 x ``sep_radius`` from the SEP.
    No run leaves that region or crosses a limit in it, so a lane that
    enters the certified ball is STABLE, as its run to the
    ``sep_radius`` ball would be unless that run met ``t_max`` first.
    """
    p = np.asarray(p, dtype=float)
    x_sep = np.asarray(x_sep, dtype=float)
    radius = _attraction_radius(system, p, x_sep, sep_radius)
    events = EventConfig(
        constraints=system.phases[Phase.POST_FAULT].constraints,
        sep_target=x_sep,
        sep_radius=sep_radius if radius is None else radius,
        locate_crossings=False,
    )
    classes = []
    for traj in integrate_lanes(system, Phase.POST_FAULT, x0s, p, opts, events):
        if isinstance(traj, (NumericalBlowup, StiffnessFailure)):
            classes.append(CellClass.DIVERGES)
        elif traj.first_event(EventKind.CONSTRAINT_CROSSING) is not None:
            classes.append(CellClass.HITS_BOUNDARY)
        elif traj.first_event(EventKind.CONVERGED_TO_SEP) is not None:
            classes.append(CellClass.STABLE)
        else:
            classes.append(CellClass.DIVERGES)
    return classes


def classify_grid_point(
    system: ConstrainedSystem,
    p: np.ndarray,
    x0: np.ndarray,
    x_sep: np.ndarray,
    opts: IntegrationOptions = _GRID_OPTS,
    sep_radius: float = _GRID_SEP_RADIUS,
) -> CellClass:
    """Verdict for one start point: ``classify_grid_points`` with one lane."""
    x0 = np.asarray(x0, dtype=float)
    return classify_grid_points(system, p, x0[None], x_sep, opts, sep_radius)[0]


def _classify_rows(factory, factory_args, p, spec, opts, sep_radius, x_sep, rows):
    """Classes of the given grid rows, all cells in one lockstep run."""
    system = factory(*factory_args)
    rows = list(rows)
    starts = np.column_stack([np.repeat(spec.x1[rows], spec.n2), np.tile(spec.x2, len(rows))])
    classes = classify_grid_points(system, p, starts, x_sep, opts, sep_radius)
    return [(i, classes[r * spec.n2 : (r + 1) * spec.n2]) for r, i in enumerate(rows)]


def _scan_zero_crossings(values: np.ndarray, coords: np.ndarray):
    """Linearly interpolated coordinates where consecutive samples change sign."""
    roots = []
    for i in range(len(values) - 1):
        a, b = values[i], values[i + 1]
        if a == 0.0:
            roots.append(coords[i])
        elif (a > 0.0) != (b > 0.0):
            roots.append(coords[i] + a / (a - b) * (coords[i + 1] - coords[i]))
    if len(values) and values[-1] == 0.0:
        roots.append(coords[-1])
    return roots


def _project_to_constraint(c: Constraint, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Pull a nearby point onto h = 0 along the constraint gradient."""
    x = x.copy()
    for _ in range(_PROJECTION_STEPS):
        v = c.value(x, p)
        g = np.asarray(c.grad_x(x, p), dtype=float)
        gg = float(g @ g)
        if gg == 0.0:
            break
        x -= (v / gg) * g
        if abs(c.value(x, p)) < 1e-13:
            break
    return x


def _boundary_samples(system, p, spec, constraint: Constraint):
    """Feasible-boundary points of one constraint inside the closed window.

    Projection onto the constraint can carry a sample across a window
    edge; such samples are dropped.
    """
    others = [
        c for c in system.phases[Phase.POST_FAULT].constraints if c.name != constraint.name
    ]
    pts = []
    x1, x2 = spec.x1, spec.x2
    # Each grid row and column is one column batch of the constraint.
    for a in x1:
        vals = constraint.value(np.array([np.full(len(x2), a), x2]), p)
        for b_root in _scan_zero_crossings(vals, x2):
            pts.append(np.array([a, b_root]))
    for b in x2:
        vals = constraint.value(np.array([x1, np.full(len(x1), b)]), p)
        for a_root in _scan_zero_crossings(vals, x1):
            pts.append(np.array([a_root, b]))
    refined = []
    for x in pts:
        x = _project_to_constraint(constraint, x, p)
        inside = spec.x1_min <= x[0] <= spec.x1_max and spec.x2_min <= x[1] <= spec.x2_max
        if inside and all(o.value(x, p) >= -1e-10 for o in others):
            refined.append(x)
    return _along_curve(refined)


def _along_curve(points):
    """Points chained along their curve, dropping near-duplicates (1e-9).

    The chain starts at the lowest (x1, x2) and grows at whichever end
    lies nearer to a remaining point (the tail on a tie), so neighbours
    in the list are neighbours on the curve; it jumps only between
    separate pieces.
    """
    pts = sorted(points, key=lambda x: (x[0], x[1]))
    if not pts:
        return []
    xy = np.array(pts)
    chain, rest = [0], np.arange(1, len(pts))
    while len(rest):
        # Row 0 holds the distances from the tail, row 1 those from the head.
        d = np.linalg.norm(xy[rest] - xy[[chain[-1], chain[0]]][:, None], axis=2)
        end, k = np.unravel_index(np.argmin(d), d.shape)
        if d[end, k] > 1e-9:
            chain.insert(len(chain) if end == 0 else 0, rest[k])
        rest = np.delete(rest, k)
    return [pts[k] for k in chain]


def _is_loop(samples, spec: GridSpec) -> bool:
    """Whether a chain of boundary samples closes on itself.

    Its ends must lie within one grid-cell diagonal, as neighbours on a
    curve do, and some sample must lie farther from the start than the
    end does, which on a line none does.
    """
    if len(samples) < 3:
        return False
    dist = np.linalg.norm(np.array(samples) - samples[0], axis=1)
    cell = math.hypot((spec.x1_max - spec.x1_min) / (spec.n1 - 1),
                      (spec.x2_max - spec.x2_min) / (spec.n2 - 1))
    return dist[-1] <= cell and dist[-1] < dist.max()


def _refine_semi_saddle(system, p, constraint, x_a, x_b):
    """Bisect the sign change of the constraint's drift between two of its points."""

    def h_dot_at(x):
        return classify_pseudo_ep(system, Phase.POST_FAULT, constraint, x, p).h_dot

    g_a = h_dot_at(x_a)
    lo, hi = x_a, x_b
    for _ in range(_SEMI_SADDLE_BISECTIONS):
        mid = _project_to_constraint(constraint, 0.5 * (lo + hi), p)
        g_mid = h_dot_at(mid)
        if (g_a > 0.0) == (g_mid > 0.0):
            lo, g_a = mid, g_mid
        else:
            hi = mid
        if np.linalg.norm(hi - lo) < 1e-12:
            break
    return _project_to_constraint(constraint, 0.5 * (lo + hi), p)


def _window_edges(spec: GridSpec, n_params: int) -> tuple[Constraint, ...]:
    """The grid window's edges as margins, non-positive only strictly outside.

    Each bound is moved out by one ulp, so a point exactly on an edge
    counts as inside the closed window.  Each margin is its own float
    entry: lists of floats take the same subtraction as arrays.
    """
    x1_lo, x1_hi = math.nextafter(spec.x1_min, -math.inf), math.nextafter(spec.x1_max, math.inf)
    x2_lo, x2_hi = math.nextafter(spec.x2_min, -math.inf), math.nextafter(spec.x2_max, math.inf)
    grad_p = np.zeros(n_params)

    def edge(name, value, grad_x):
        grad_x = np.array(grad_x)
        value.on_floats = value
        return Constraint(name, value, lambda x, q: grad_x, lambda x, q: grad_p)

    return (
        edge("x1_min", lambda x, q: x[0] - x1_lo, [1.0, 0.0]),
        edge("x1_max", lambda x, q: x1_hi - x[0], [-1.0, 0.0]),
        edge("x2_min", lambda x, q: x[1] - x2_lo, [0.0, 1.0]),
        edge("x2_max", lambda x, q: x2_hi - x[1], [0.0, -1.0]),
    )


def _negated(fn):
    """-fn, with the negated float entry when fn has one (negation is exact)."""

    def negated(x, q):
        return -np.asarray(fn(x, q))

    on_floats = getattr(fn, "on_floats", None)
    if on_floats is not None:
        negated.on_floats = lambda xs, ps: [-v for v in on_floats(xs, ps)]
    return negated


def _manifold_samples(system, p, x_saddle, spec, opts):
    """Backward orbit through a semi-saddle, inside the closed window.

    The reversed post-fault field runs from the saddle until the first
    accepted step that ends outside the window, which ends the run as a
    crossing of that edge at that step end, unrefined; the step end
    outside the window is dropped, so every kept sample lies inside.  A
    saddle outside the window gives just itself.  A run that fails is
    retried at shorter horizons.
    """
    dyn = system.phases[Phase.POST_FAULT]
    reversed_dyn = replace(
        dyn, f=_negated(dyn.f), jac_x=_negated(dyn.jac_x), jac_p=_negated(dyn.jac_p)
    )
    reversed_system = ConstrainedSystem(
        n=system.n,
        param_names=system.param_names,
        phases={ph: reversed_dyn for ph in Phase},
    )
    events = EventConfig(constraints=_window_edges(spec, system.n_params), locate_crossings=False)
    for horizon in (6.0, 2.5, 1.0, 0.4):
        try:
            traj = integrate(
                reversed_system, Phase.POST_FAULT, x_saddle, p,
                replace(opts, t_max=horizon), events,
            )
        except (NumericalBlowup, StiffnessFailure):
            continue
        crossing = traj.first_event(EventKind.CONSTRAINT_CROSSING)
        if crossing is None:
            return traj.states[::-1]  # chronological order, ending at the saddle
        if crossing.time == 0.0:
            return traj.states[:1]  # the saddle itself lies outside
        return traj.states[-2::-1]  # without the step end outside the window
    return np.asarray([x_saddle])


def sample_stability_region(
    system: ConstrainedSystem,
    p: np.ndarray,
    spec: GridSpec,
    opts: IntegrationOptions = _GRID_OPTS,
    sep_radius: float = _GRID_SEP_RADIUS,
    sep_guess: Optional[np.ndarray] = None,
    jobs: int = 1,
    system_factory=None,
) -> SrGrid:
    """Classify every grid point of the post-fault system.

    A point is STABLE when its trajectory converges to the post-fault
    SEP without leaving the feasible region, HITS_BOUNDARY when some
    constraint reaches zero first (or the point starts infeasible),
    DIVERGES otherwise.  All cells run as lanes of one lockstep
    integration (``classify_grid_points``), which ends a run in the
    certified ball of the SEP's region of attraction when the phase has
    a ``jac_lipschitz`` bound; ``sep_radius`` sets the fallback ball, the
    smallest certified ball and the region's reach, 100 x ``sep_radius``.
    ``jobs > 1`` deals the rows to worker processes, row i to worker
    i % jobs, each running its rows as one lockstep integration;
    ``system_factory`` must then be a picklable (callable, args) pair
    that rebuilds the system.  Every lane equals its one-lane run, so
    the classes do not depend on ``jobs``.  Raises NoEquilibriumFound
    when the equilibrium found from ``sep_guess`` is not stable.
    """
    if system.n != 2:
        raise CctError("stability-region grids are only supported for planar systems")
    p = np.asarray(p, dtype=float)
    guess = np.zeros(2) if sep_guess is None else np.asarray(sep_guess, dtype=float)
    sep = find_equilibrium(system, Phase.POST_FAULT, p, guess)
    if sep.classification is not EquilibriumClass.STABLE:
        raise NoEquilibriumFound(
            f"post-phase equilibrium near {guess} is {sep.classification.value}, not stable"
        )
    x_sep = sep.x

    classes = np.empty((spec.n1, spec.n2), dtype=object)
    jobs = min(jobs, spec.n1)
    if jobs > 1 and system_factory is not None:
        factory, factory_args = system_factory
        # Row i goes to worker i % jobs: contiguous chunks would hand one
        # worker the cheap rows of a window and another its dear ones.
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            futures = [
                pool.submit(
                    _classify_rows, factory, factory_args, p, spec, opts,
                    sep_radius, x_sep, range(k, spec.n1, jobs),
                )
                for k in range(jobs)
            ]
            for fut in futures:
                for i, row in fut.result():
                    classes[i, :] = row
    else:
        for i, row in _classify_rows(
            lambda: system, (), p, spec, opts, sep_radius, x_sep, range(spec.n1)
        ):
            classes[i, :] = row

    boundary_points: list[BoundaryPoint] = []
    semi_saddles: list[BoundaryPoint] = []
    manifolds: list[np.ndarray] = []
    for c in system.phases[Phase.POST_FAULT].constraints:
        samples = _boundary_samples(system, p, spec, c)
        classified = [
            classify_pseudo_ep(system, Phase.POST_FAULT, c, x, p, boundary_tol=1e-6)
            for x in samples
        ]
        boundary_points.extend(
            BoundaryPoint(x=x, constraint=c.name, kind=cl.kind, h_dot=cl.h_dot)
            for x, cl in zip(samples, classified)
        )
        for k in range(len(samples) - 1 + _is_loop(samples, spec)):
            l = (k + 1) % len(samples)  # the last pair of a loop closes it
            if (classified[k].h_dot > 0.0) != (classified[l].h_dot > 0.0):
                x_ss = _refine_semi_saddle(system, p, c, samples[k], samples[l])
                cl = classify_pseudo_ep(system, Phase.POST_FAULT, c, x_ss, p, boundary_tol=1e-6)
                semi_saddles.append(
                    BoundaryPoint(x=x_ss, constraint=c.name, kind=cl.kind, h_dot=cl.h_dot)
                )
                manifolds.append(_manifold_samples(system, p, x_ss, spec, opts))

    return SrGrid(
        spec=spec,
        classes=classes,
        sep=x_sep,
        boundary_points=tuple(boundary_points),
        semi_saddles=tuple(semi_saddles),
        manifolds=tuple(manifolds),
    )
