"""Three-phase constrained dynamical systems.

A study object is a parameter-dependent vector field that switches
between three phases (pre-fault, fault-on, post-fault) together with a
list of inequality constraints per phase.  The state is feasible while
every constraint function is positive:

    x' = f_phase(x, p),        h_k(x, p) > 0  for all k in the phase.

Everything downstream (event-detecting integration, boundary geometry,
critical clearing times, sensitivities) works against this interface,
so a system only has to supply f, its Jacobians with respect to x and
p, and per-constraint values, gradients and (optionally) second
derivatives.

Two constructors are provided:

* ``smib_system`` builds the classic single-machine-infinite-bus swing
  model with angle and speed limits.  Derivatives are hand-coded.
* ``system_from_expressions`` builds a system from strings, using
  sympy to differentiate symbolically and lambdify to numpy callables,
  and bounds the Jacobian's variation by interval arithmetic.

The module also houses equilibrium location (damped Newton with
eigenvalue classification), the equilibrium parameter sensitivity
dx_s/dp obtained from the implicit function theorem, and the certified
region of attraction around a stable post-fault equilibrium, in which
runs end early.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatch,
    NoEquilibriumFound,
    SingularJacobian,
)

__all__ = [
    "Phase",
    "Constraint",
    "PhaseDynamics",
    "ConstrainedSystem",
    "EquilibriumClass",
    "EquilibriumResult",
    "SmibParams",
    "eval_f",
    "eval_jacobians",
    "find_equilibrium",
    "sep_sensitivity",
    "smib_system",
    "system_from_expressions",
]

# Newton iterations before giving up on an equilibrium.
_NEWTON_MAX_ITER = 50
# Step-halving attempts per Newton iteration.
_NEWTON_MAX_HALVINGS = 40
# |Re(eigenvalue)| below this is treated as a zero real part.
_HYPERBOLICITY_TOL = 1e-8
# Condition numbers beyond this count as singular to working precision.
_SINGULAR_COND = 1e12

# Field-norm minima and end states within this multiple of sep_radius
# count as part of the convergence tail, not as captures elsewhere; a
# certified region of attraction reaches no farther from its equilibrium.
_LOOSE_FACTOR = 100.0
# Factor on the level c of a certified region of attraction, a margin for
# the integration error of a run that has entered it.
_REGION_SHRINK = 0.5


class Phase(Enum):
    """Which piece of the piecewise vector field is active."""

    PRE_FAULT = "pre"
    FAULT_ON = "fault"
    POST_FAULT = "post"


class EquilibriumClass(Enum):
    """Linearization verdict at an equilibrium."""

    STABLE = "stable"
    UNSTABLE = "unstable"
    NON_HYPERBOLIC = "non_hyperbolic"


@dataclass(frozen=True)
class Constraint:
    """One scalar inequality h(x, p) > 0.

    ``grad_x``/``grad_p`` return the row of first derivatives.  The
    Hessian callables may be None: only the constraint that a mode-2
    result names needs second derivatives, for its graze conditions.
    """

    name: str
    value: Callable[[np.ndarray, np.ndarray], float]
    grad_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_p: Callable[[np.ndarray, np.ndarray], np.ndarray]
    hess_xx: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    hess_xp: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None


@dataclass(frozen=True)
class PhaseDynamics:
    """Vector field, its Jacobians and the constraint list of one phase.

    ``jac_lipschitz(p)``, when given, is a bound L valid over the whole
    state space with ||jac_x(x, p) - jac_x(y, p)||_2 <= L ||x - y|| for
    all x, y; the same L must bound the Lipschitz constant of every
    constraint's ``grad_x``.  Post-fault verdicts and grid cells use it
    to certify a region of attraction around the SEP
    (``_attraction_radius``); None, or a value that is not finite and
    nonnegative at p, certifies none.
    ``smib_system`` codes it by hand; ``system_from_expressions`` builds
    it by interval arithmetic and leaves it None where that finds no
    bound.
    """

    f: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_x: Callable[[np.ndarray, np.ndarray], np.ndarray]
    jac_p: Callable[[np.ndarray, np.ndarray], np.ndarray]
    constraints: tuple[Constraint, ...] = ()
    jac_lipschitz: Optional[Callable[[np.ndarray], float]] = None

    def lipschitz_bound(self, p: np.ndarray) -> Optional[float]:
        """``jac_lipschitz(p)`` when it is finite and nonnegative, else None."""
        if self.jac_lipschitz is None:
            return None
        lip = float(self.jac_lipschitz(p))
        return lip if math.isfinite(lip) and lip >= 0.0 else None


@dataclass(frozen=True)
class ConstrainedSystem:
    """A three-phase system over a shared state and parameter space."""

    n: int
    param_names: tuple[str, ...]
    phases: Mapping[Phase, PhaseDynamics]

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"state dimension must be positive, got {self.n}")
        if len(self.param_names) < 1:
            raise ValueError("at least one parameter is required")
        if len(set(self.param_names)) != len(self.param_names):
            raise ValueError(f"duplicate parameter names in {self.param_names}")
        missing = [ph for ph in Phase if ph not in self.phases]
        if missing:
            raise ValueError(f"missing phases: {[ph.value for ph in missing]}")
        for ph, dyn in self.phases.items():
            names = [c.name for c in dyn.constraints]
            if len(set(names)) != len(names):
                raise ValueError(f"duplicate constraint names in phase {ph.value}: {names}")

    @property
    def n_params(self) -> int:
        return len(self.param_names)

    def param_index(self, name: str) -> int:
        try:
            return self.param_names.index(name)
        except ValueError:
            raise ConfigError(
                f"unknown parameter {name!r}; system has {self.param_names}"
            ) from None


def _check_dims(system: ConstrainedSystem, x: np.ndarray, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    p = np.asarray(p, dtype=float)
    if x.shape != (system.n,):
        raise DimensionMismatch(f"state has shape {x.shape}, expected ({system.n},)")
    if p.shape != (system.n_params,):
        raise DimensionMismatch(f"parameters have shape {p.shape}, expected ({system.n_params},)")
    return x, p


def eval_f(system: ConstrainedSystem, phase: Phase, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Vector field of the given phase at (x, p)."""
    x, p = _check_dims(system, x, p)
    return np.asarray(system.phases[phase].f(x, p), dtype=float)


def eval_jacobians(
    system: ConstrainedSystem, phase: Phase, x: np.ndarray, p: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """State and parameter Jacobians (df/dx, df/dp) of the given phase."""
    x, p = _check_dims(system, x, p)
    dyn = system.phases[phase]
    jx = np.asarray(dyn.jac_x(x, p), dtype=float)
    jp = np.asarray(dyn.jac_p(x, p), dtype=float)
    return jx, jp


# ── Equilibria ────────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class EquilibriumResult:
    """Equilibrium point with its linearization verdict."""

    x: np.ndarray
    classification: EquilibriumClass
    residual: float
    eigenvalues: np.ndarray


def find_equilibrium(
    system: ConstrainedSystem,
    phase: Phase,
    p: np.ndarray,
    x_guess: np.ndarray,
    tol: float = 1e-10,
) -> EquilibriumResult:
    """Solve f_phase(x, p) = 0 by damped Newton iteration.

    Steps are halved until the residual norm decreases (up to 40
    halvings).  Raises NoEquilibriumFound when the residual is still
    above ``tol`` after 50 iterations and SingularJacobian when a
    Newton system cannot be solved.
    """
    x, p = _check_dims(system, np.asarray(x_guess, dtype=float), p)
    dyn = system.phases[phase]
    x = x.copy()
    r = np.asarray(dyn.f(x, p), dtype=float)
    rnorm = float(np.linalg.norm(r))
    for _ in range(_NEWTON_MAX_ITER):
        if rnorm <= tol:
            break
        jac = np.asarray(dyn.jac_x(x, p), dtype=float)
        try:
            step = np.linalg.solve(jac, -r)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobian(
                f"singular Jacobian during equilibrium search at x = {x.tolist()}"
            ) from exc
        scale = 1.0
        x_new, r_new, rnorm_new = x, r, rnorm
        for _ in range(_NEWTON_MAX_HALVINGS):
            x_try = x + scale * step
            r_try = np.asarray(dyn.f(x_try, p), dtype=float)
            rnorm_try = float(np.linalg.norm(r_try))
            if np.isfinite(rnorm_try) and rnorm_try < rnorm:
                x_new, r_new, rnorm_new = x_try, r_try, rnorm_try
                break
            scale *= 0.5
        else:
            raise NoEquilibriumFound(
                f"Newton stalled at residual {rnorm:.3e} (no descent direction)"
            )
        x, r, rnorm = x_new, r_new, rnorm_new
    if rnorm > tol:
        raise NoEquilibriumFound(
            f"no equilibrium within {_NEWTON_MAX_ITER} iterations; residual {rnorm:.3e} > {tol:.1e}"
        )
    jac = np.asarray(dyn.jac_x(x, p), dtype=float)
    eigs = np.linalg.eigvals(jac)
    real = eigs.real
    if np.any(np.abs(real) < _HYPERBOLICITY_TOL):
        cls = EquilibriumClass.NON_HYPERBOLIC
    elif np.all(real < 0.0):
        cls = EquilibriumClass.STABLE
    else:
        cls = EquilibriumClass.UNSTABLE
    return EquilibriumResult(x=x, classification=cls, residual=rnorm, eigenvalues=eigs)


def sep_sensitivity(
    system: ConstrainedSystem, phase: Phase, p: np.ndarray, x_s: np.ndarray
) -> np.ndarray:
    """First-order equilibrium shift dx_s/dp, shape (n, n_params).

    From differentiating f(x_s(p), p) = 0:  dx_s/dp solves
    (df/dx) dx_s/dp = -df/dp.  ``x_s`` must already be an equilibrium
    of the given phase; the Jacobian there must be nonsingular.
    """
    jx, jp = eval_jacobians(system, phase, x_s, p)
    try:
        cond = np.linalg.cond(jx)
        if not np.isfinite(cond) or cond > _SINGULAR_COND:
            raise np.linalg.LinAlgError(f"condition number {cond:.2e}")
        return np.linalg.solve(jx, -jp)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(
            "state Jacobian at the equilibrium is singular to working precision; "
            "the equilibrium shift is undefined (non-hyperbolic point)"
        ) from exc


# ── Certified regions of attraction ───────────────────────────────────────────


def _attraction_radius(system, p, x_sep, sep_radius: float):
    """Radius of a ball around x_sep inside a certified region of attraction, or None.

    The region is {e^T P e <= c} for e = x - x_sep and a stable
    post-fault equilibrium x_sep.  P solves the Lyapunov equation
    A^T P + P A = -I for A = jac_x(x_sep), so V = e^T P e has
    dV/dt <= -|e|^2 (1 - lam_hi L |e|), where L is the phase's
    ``jac_lipschitz`` bound and lam_lo, lam_hi are the extreme
    eigenvalues of P (Khalil, Nonlinear Systems, 3rd ed., ch. 8).  The
    level c keeps the region inside |e| < 1 / (lam_hi L), where V
    decreases, and inside ``_LOOSE_FACTOR * sep_radius``; each margin
    stays positive on it because
    h_k(x_sep) - sqrt(c g^T P^-1 g) - (L / 2) c / lam_lo > 0 for
    g = grad_x h_k(x_sep).  A run that enters the region therefore
    stays in it and crosses no limit.  The ball |e| <= sqrt(c / lam_hi)
    lies in the region.  None when the phase has no bound, P is not
    positive definite, a margin is not positive at x_sep, or the ball
    would be smaller than ``sep_radius``.  Post-fault verdicts (``cct``)
    and grid cells (``boundary``) end their runs in this ball.
    """
    dyn = system.phases[Phase.POST_FAULT]
    lip = dyn.lipschitz_bound(p)
    if lip is None:
        return None
    a = np.asarray(dyn.jac_x(x_sep, p), dtype=float)
    eye = np.eye(len(a))
    # The Lyapunov equation as one linear system in the row-major entries of P.
    try:
        P = np.linalg.solve(np.kron(a.T, eye) + np.kron(eye, a.T), -eye.ravel()).reshape(a.shape)
    except np.linalg.LinAlgError:
        return None
    P = 0.5 * (P + P.T)
    lam_lo, lam_hi = np.linalg.eigvalsh(P)[[0, -1]].tolist()
    if not lam_lo > 0.0:
        return None
    reach = _LOOSE_FACTOR * sep_radius
    if lip > 0.0:
        reach = min(reach, 1.0 / (lam_hi * lip))
    c = lam_lo * reach**2
    for con in dyn.constraints:
        h = float(con.value(x_sep, p))
        if not h > 0.0:
            return None
        g = np.asarray(con.grad_x(x_sep, p), dtype=float)
        beta = math.sqrt(float(g @ np.linalg.solve(P, g)))
        # The positive root in sqrt(c) of h - beta sqrt(c) - (L / 2) c / lam_lo.
        denom = beta + math.sqrt(beta * beta + 2.0 * lip * h / lam_lo)
        if denom > 0.0:
            c = min(c, (2.0 * h / denom) ** 2)
    radius = math.sqrt(_REGION_SHRINK * c / lam_hi)
    return radius if radius >= sep_radius else None


# ── Single machine, infinite bus ─────────────────────────────────────────────


@dataclass(frozen=True)
class SmibParams:
    """Swing-equation model with angle and speed limits.

    State x = [delta, omega] (rotor angle, speed deviation).  Dynamics

        delta' = omega
        omega' = (Pm - (EV/X) sin(delta) - D omega) / M

    The electrical coupling EV/X takes a different value per phase; a
    fault removes it entirely and clearing restores the pre-fault
    value.  The varying parameter vector is p = [Pm, M, delta_max,
    omega_max]; damping and the couplings are structural.
    """

    p_mech: float  # Pm, mechanical input power
    inertia: float  # M
    delta_max: float  # angle limit, h1 = delta_max - delta
    omega_max: float  # speed limit, h2 = omega_max - omega
    damping: float = 0.5  # D
    coupling_pre: float = 1.0  # EV/X before the fault
    coupling_fault: float = 0.0  # EV/X during the fault
    coupling_post: float = 1.0  # EV/X after clearing

    def __post_init__(self) -> None:
        if not self.inertia > 0.0:
            raise ValueError(f"inertia must be positive, got {self.inertia}")
        if self.damping < 0.0:
            raise ValueError(f"damping must be nonnegative, got {self.damping}")
        for name in ("p_mech", "delta_max", "omega_max"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.coupling_fault != 0.0:
            raise ValueError(
                f"the fault phase must disconnect the machine (coupling 0), got {self.coupling_fault}"
            )
        if self.coupling_pre != self.coupling_post:
            raise ValueError(
                "clearing must restore the pre-fault topology "
                f"(coupling_pre {self.coupling_pre} != coupling_post {self.coupling_post})"
            )

    @property
    def p0(self) -> np.ndarray:
        """Nominal parameter vector [Pm, M, delta_max, omega_max]."""
        return np.array([self.p_mech, self.inertia, self.delta_max, self.omega_max])


_SMIB_PARAM_NAMES = ("Pm", "M", "delta_max", "omega_max")


def _smib_phase(coupling: float, damping: float) -> PhaseDynamics:
    b, d = float(coupling), float(damping)

    def on_floats(xs: list, ps: list) -> list:
        # One state on floats: the same IEEE operations in the same order
        # as a column batch, and math.sin rounds as np.sin does (a test
        # re-checks that), at a fraction of numpy's per-scalar cost.
        angle, speed = xs
        return [speed, (ps[0] - b * math.sin(angle) - d * speed) / ps[1]]

    def f(x: np.ndarray, p: np.ndarray) -> np.ndarray:
        if x.ndim == 1:
            return np.array(on_floats(x.tolist(), p.tolist()))
        return np.array([x[1], (p[0] - b * np.sin(x[0]) - d * x[1]) / p[1]])

    f.on_floats = on_floats

    def jac_x(x: np.ndarray, p: np.ndarray) -> np.ndarray:
        return np.array(
            [[0.0, 1.0], [-b * math.cos(x[0]) / p[1], -d / p[1]]]
        )

    def jac_p(x: np.ndarray, p: np.ndarray) -> np.ndarray:
        f2 = (p[0] - b * math.sin(x[0]) - d * x[1]) / p[1]
        return np.array(
            [[0.0, 0.0, 0.0, 0.0], [1.0 / p[1], -f2 / p[1], 0.0, 0.0]]
        )

    def jac_lipschitz(p: np.ndarray) -> float:
        # Only the entry -b cos(delta) / M varies, by at most |b| / M per
        # unit of delta; the limits are linear.
        return abs(b) / p[1]

    return PhaseDynamics(
        f=f, jac_x=jac_x, jac_p=jac_p, constraints=_smib_constraints(),
        jac_lipschitz=jac_lipschitz,
    )


def _smib_constraints() -> tuple[Constraint, ...]:
    zero_xx = np.zeros((2, 2))
    zero_xp = np.zeros((2, 4))
    angle = Constraint(
        name="angle_limit",
        value=lambda x, p: p[2] - x[0],
        grad_x=lambda x, p: np.array([-1.0, 0.0]),
        grad_p=lambda x, p: np.array([0.0, 0.0, 1.0, 0.0]),
        hess_xx=lambda x, p: zero_xx,
        hess_xp=lambda x, p: zero_xp,
    )
    speed = Constraint(
        name="speed_limit",
        value=lambda x, p: p[3] - x[1],
        grad_x=lambda x, p: np.array([0.0, -1.0]),
        grad_p=lambda x, p: np.array([0.0, 0.0, 0.0, 1.0]),
        hess_xx=lambda x, p: zero_xx,
        hess_xp=lambda x, p: zero_xp,
    )
    return (angle, speed)


def smib_system(params: SmibParams) -> ConstrainedSystem:
    """Build the three-phase swing model; all phases share the limits."""
    return ConstrainedSystem(
        n=2,
        param_names=_SMIB_PARAM_NAMES,
        phases={
            Phase.PRE_FAULT: _smib_phase(params.coupling_pre, params.damping),
            Phase.FAULT_ON: _smib_phase(params.coupling_fault, params.damping),
            Phase.POST_FAULT: _smib_phase(params.coupling_post, params.damping),
        },
    )


# ── Declarative systems ──────────────────────────────────────────────────────


@cache
def _power_printer():
    """numpy code printer that writes a**b as numpy.power(a, b).

    ``**`` on a float or a numpy scalar rounds differently from the
    array loop of a column batch; the ufunc runs one loop for both, so a
    lane matches its one-state run bit for bit.  sqrt and 1/sqrt are
    correctly rounded either way and stay as printed.
    """
    from sympy import S
    from sympy.printing.numpy import NumPyPrinter

    class PowerPrinter(NumPyPrinter):
        def _print_Pow(self, expr, rational=False):
            if expr.exp in (S.Half, -S.Half):
                return super()._print_Pow(expr, rational)
            return f"{self._module_format('numpy.power')}({self._print(expr.base)}, {self._print(expr.exp)})"

    # The settings sympy.lambdify gives its own numpy printer.
    return PowerPrinter({"fully_qualified_modules": False, "inline": True, "allow_unknown_functions": True})


def _one_state(x) -> bool:
    """True unless x is a column batch (two or more dimensions).

    An array's ``ndim`` is read directly, at a fraction of the cost of
    ``np.ndim``.
    """
    return (x.ndim if type(x) is np.ndarray else np.ndim(x)) < 2


def _on_floats(fn, x, p):
    """Generated code ``fn`` at one state, given x and p as Python floats.

    The code then runs the same IEEE operations, and the same numpy
    ufunc loops (numpy.power, sin, ...), as on numpy scalars, at less
    cost per operation.  Python raises on a division by zero where numpy
    gives inf or nan; such a state is evaluated on numpy scalars.
    """
    xs = x.tolist() if type(x) is np.ndarray else x
    ps = p.tolist() if type(p) is np.ndarray else p
    try:
        return fn(xs, ps)
    except ZeroDivisionError:
        return fn(np.asarray(x, dtype=float), np.asarray(p, dtype=float))


def _lambdify(args, expr, shape: Optional[tuple[int, ...]] = None):
    """Numpy callable g(x, p) of a sympy expression.

    With ``shape`` None the expression is scalar: g returns a Python
    float for a state of shape (n,) and an array of shape (K,) for a
    column batch of shape (n, K).  Otherwise it is a matrix and g
    returns a float array of ``shape``, or ``shape + (K,)`` for a batch;
    constant entries are broadcast over the batch.  One state is
    evaluated on floats (``_on_floats``); a vector's g also has the
    one-state float entry ``g.on_floats(xs, ps)``, lists of floats in
    and out, which the integrator steps a lone lane with.

    DiracDelta, which differentiating Abs, sign or Heaviside leaves in a
    Hessian, is taken as 0: its value wherever the expression is twice
    differentiable.  numpy has no such function.
    """
    import sympy as sp

    if expr.has(sp.DiracDelta):
        expr = expr.replace(sp.DiracDelta, lambda *args: sp.S.Zero)
    if shape is None:
        fn = sp.lambdify(args, expr, modules="numpy", printer=_power_printer())

        def scalar(x, p):
            if _one_state(x):
                return float(_on_floats(fn, x, p))
            return np.broadcast_to(np.asarray(fn(x, p), dtype=float), np.shape(x)[1:])

        return scalar
    fn = sp.lambdify(args, list(sp.Matrix(expr)), modules="numpy", printer=_power_printer())
    # The entries of a vector already come in its shape.
    flat = len(shape) == 1

    def matrix(x, p):
        if _one_state(x):
            out = np.array(_on_floats(fn, x, p), dtype=float)
            return out if flat else out.reshape(shape)
        lanes = np.shape(x)[1:]
        entries = [np.broadcast_to(v, lanes) for v in fn(x, p)]
        return np.array(entries, dtype=float).reshape(shape + lanes)

    if flat:
        matrix.on_floats = lambda xs, ps: list(map(float, _on_floats(fn, xs, ps)))
    return matrix


def _interval_evaluated(expr) -> bool:
    """True when sympy's interval arithmetic reduced ``expr`` to finite bounds.

    Only sums, products and integer powers may still hold an interval
    (they evaluate once the parameters are numbers); an infinity, or any
    other function of an interval (sqrt, Abs, atan, Max, Piecewise, ...),
    is left unevaluated or unbounded.
    """
    import sympy as sp

    if expr.has(sp.oo, -sp.oo, sp.zoo, sp.nan):
        return False
    for node in sp.preorder_traversal(expr):
        if isinstance(node, sp.AccumBounds) or not node.has(sp.AccumBounds):
            continue
        if not (isinstance(node, (sp.Add, sp.Mul)) or (isinstance(node, sp.Pow) and node.exp.is_Integer)):
            return False
    return True


def _sup_abs(value) -> float:
    """sup |value| of a number or an interval; math.inf unless finite and real."""
    import sympy as sp

    ends = (value.min, value.max) if isinstance(value, sp.AccumBounds) else (value,)
    try:
        sups = [abs(float(v)) for v in ends]
    except TypeError:
        return math.inf
    return max(sups) if all(map(math.isfinite, sups)) else math.inf


def _interval_lipschitz(xs, ps, groups) -> Optional[Callable[[np.ndarray], float]]:
    """``jac_lipschitz`` of one phase by interval arithmetic, or None.

    ``groups`` holds the second derivatives of the field,
    d2 f_i / dx_j dx_k, and then each margin's Hessian.  Every state
    becomes the interval (-oo, oo) (Moore, Interval Analysis, 1966); an
    entry that sympy cannot reduce to finite bounds with the parameters
    symbolic makes the phase None.  At p, the parameters and the state
    intervals go in together, so each entry evaluates bottom-up on
    numbers and intervals, and its sup |.| bounds it over the whole
    state space.  (With p symbolic, sympy would fold
    (a + sin x1)(a + sin x2) into the square of one interval, which is
    not a bound.)  The Frobenius norm S of a group's sups bounds the
    variation of the field's Jacobian in the spectral norm, and of a
    margin's gradient: ||A(x) - A(y)|| <= S ||x - y||.  The bound is
    the largest S, or math.inf when p makes an entry non-finite (M = 0
    in sin(x1) / M).  The last p's bound is kept.
    """
    import sympy as sp

    whole = {x: sp.AccumBounds(-sp.oo, sp.oo) for x in xs}
    groups = [[e for e in group if e != 0] for group in groups]
    if not all(_interval_evaluated(e.xreplace(whole)) for group in groups for e in group):
        return None
    last: dict = {}

    def jac_lipschitz(p: np.ndarray) -> float:
        p = np.asarray(p, dtype=float)
        key = p.tobytes()
        if key not in last:
            at = {**whole, **{s: sp.Float(float(v)) for s, v in zip(ps, p)}}
            last.clear()
            last[key] = max(math.hypot(*(_sup_abs(e.xreplace(at)) for e in group)) for group in groups)
        return last[key]

    return jac_lipschitz


def system_from_expressions(
    state: Sequence[str],
    params: Sequence[str],
    phases: Mapping[str, Mapping],
) -> ConstrainedSystem:
    """Build a ConstrainedSystem from expression strings.

    ``phases`` maps each of "pre", "fault", "post" to a mapping with
    key "f" (list of n expressions) and optional "h" (mapping of
    constraint name to expression, or a list).  Expressions may use the
    state and parameter names plus standard functions (sin, cos, exp,
    ...).  All derivatives, including constraint second derivatives,
    are produced symbolically.

    Each phase's ``jac_lipschitz`` comes from interval bounds on the
    second derivatives of its field and margins over the whole state
    space (``_interval_lipschitz``).  It is None when an entry is
    unbounded there (x1**3 gives 6*x1) or holds a function sympy's
    interval arithmetic does not evaluate (sqrt, Abs, atan, Max,
    Piecewise, ...); such a system certifies no region of attraction.
    """
    import sympy as sp

    if len(state) < 1:
        raise ConfigError("at least one state variable is required")
    if len(params) < 1:
        raise ConfigError("at least one parameter is required")
    names = list(state) + list(params)
    if len(set(names)) != len(names):
        raise ConfigError(f"state/parameter names must be distinct, got {names}")
    xs = tuple(sp.Symbol(s, real=True) for s in state)
    ps = tuple(sp.Symbol(s, real=True) for s in params)
    local = {str(s): s for s in xs + ps}
    allowed = set(xs) | set(ps)
    args = (xs, ps)
    n, n_p = len(xs), len(ps)

    def parse(text: str):
        try:
            expr = sp.sympify(text, locals=dict(local))
        except (sp.SympifyError, SyntaxError, TypeError) as exc:
            raise ConfigError(f"cannot parse expression {text!r}: {exc}") from exc
        stray = expr.free_symbols - allowed
        if stray:
            raise ConfigError(
                f"expression {text!r} uses unknown names {sorted(str(s) for s in stray)}"
            )
        return expr

    built: dict[Phase, PhaseDynamics] = {}
    for phase in Phase:
        try:
            block = phases[phase.value]
        except KeyError:
            raise ConfigError(f"missing phase {phase.value!r}") from None
        f_texts = block.get("f")
        if not isinstance(f_texts, (list, tuple)) or len(f_texts) != n:
            raise ConfigError(
                f"phase {phase.value!r} needs a list of {n} expressions under 'f'"
            )
        f_exprs = sp.Matrix([parse(t) for t in f_texts])
        jx = f_exprs.jacobian(xs)
        jp = f_exprs.jacobian(ps)
        h_block = block.get("h", {})
        if isinstance(h_block, (list, tuple)):
            h_items = [(f"h{i + 1}", t) for i, t in enumerate(h_block)]
        else:
            h_items = list(h_block.items())
        constraints = []
        hessians = []
        for cname, text in h_items:
            expr = parse(text)
            gx = sp.Matrix([expr]).jacobian(xs)
            gp = sp.Matrix([expr]).jacobian(ps)
            hxx = sp.hessian(expr, xs) if n > 0 else sp.Matrix(0, 0, [])
            hxp = sp.Matrix([[sp.diff(expr, xi, pj) for pj in ps] for xi in xs])
            hessians.append(list(hxx))
            constraints.append(
                Constraint(
                    name=str(cname),
                    value=_lambdify(args, expr),
                    grad_x=_lambdify(args, gx, (n,)),
                    grad_p=_lambdify(args, gp, (n_p,)),
                    hess_xx=_lambdify(args, hxx, (n, n)),
                    hess_xp=_lambdify(args, hxp, (n, n_p)),
                )
            )
        built[phase] = PhaseDynamics(
            f=_lambdify(args, f_exprs, (n,)),
            jac_x=_lambdify(args, jx, (n, n)),
            jac_p=_lambdify(args, jp, (n, n_p)),
            constraints=tuple(constraints),
            jac_lipschitz=_interval_lipschitz(
                xs, ps, [[sp.diff(e, x) for e in jx for x in xs], *hessians]
            ),
        )
    return ConstrainedSystem(n=n, param_names=tuple(str(s) for s in params), phases=built)
