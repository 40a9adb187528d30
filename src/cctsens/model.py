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
  sympy to differentiate symbolically and to print numpy code, and
  bounds the Jacobian's variation by interval arithmetic.

Either way each float entry is compiled from its one definition, a
source record (``_Source``), which the integrator's loop also inlines.

The module also houses equilibrium location (damped Newton with
eigenvalue classification), the equilibrium parameter sensitivity
dx_s/dp obtained from the implicit function theorem, and the certified
region of attraction around a stable post-fault equilibrium, in which
runs end early.
"""

from __future__ import annotations

import ast
import builtins
import importlib
import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cache, partial
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
# Residual norm |f(x, p)| at which Newton accepts an equilibrium.
_NEWTON_TOL = 1e-10
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
class _Source:
    """What a one-state float entry computes, as Python expressions.

    Each of ``components`` (one per entry of the result; one for a
    margin) reads state j by the name ``states[j]``, parameter j by
    ``params[j]`` and every other name from ``namespace``, in that order
    of precedence; a name that a comprehension in it binds (a Sum's
    generator variable) is its own.  The record is the entry's only
    definition: ``_entry`` compiles the entry from it and attaches it as
    the entry's ``_source``.
    """

    states: tuple[str, ...]
    params: tuple[str, ...]
    components: tuple[str, ...]
    namespace: dict

    @property
    def key(self) -> tuple:
        """The record without its namespace's values, which compiled code takes as names."""
        return (self.states, self.params, self.components, tuple(self.namespace))


@dataclass(frozen=True)
class Constraint:
    """One scalar inequality h(x, p) > 0.

    ``grad_x``/``grad_p`` return the row of first derivatives.  The
    Hessian callables may be None: only the constraint that a mode-2
    result names needs second derivatives, for its graze conditions.

    Each callable takes one state x of shape (n,) and the parameters p.
    ``value`` may carry an optional float entry,
    ``value.on_floats(xs, ps) -> float``, with the state and parameters
    as lists of floats; it must equal ``value`` at that state bit for
    bit.  A lone lane reads the margin through it.  Both constructors
    compile that entry from a private source record (``_Source``), its
    ``_source``, from which the lone-lane loop evaluates the margin in
    place, with no call; an entry without one is called.
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

    ``f``, ``jac_x`` and ``jac_p`` take one state x of shape (n,) and
    the parameters p.  Each may carry an optional float entry
    ``on_floats(xs, ps)``: the state and parameters as lists of floats
    in, a list of floats out (a Jacobian's entries row-major and flat),
    equal bit for bit to the array call at that state.  A
    lone lane steps through the field's, and the variational equations
    run on all three.  A callable without one is called on arrays.
    Both constructors compile all three from private source records
    (``_Source``), each entry's ``_source``: the lone-lane loop
    evaluates the field's components in place from its record, at every
    stage of a step, and calls an entry without one.
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
) -> EquilibriumResult:
    """Solve f_phase(x, p) = 0 by damped Newton iteration.

    Steps are halved until the residual norm decreases (up to 40
    halvings).  Raises NoEquilibriumFound when the residual is still
    above 1e-10 after 50 iterations and SingularJacobian when a
    Newton system cannot be solved.
    """
    x, p = _check_dims(system, np.asarray(x_guess, dtype=float), p)
    dyn = system.phases[phase]
    x = x.copy()
    r = np.asarray(dyn.f(x, p), dtype=float)
    rnorm = float(np.linalg.norm(r))
    for _ in range(_NEWTON_MAX_ITER):
        if rnorm <= _NEWTON_TOL:
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
    if rnorm > _NEWTON_TOL:
        raise NoEquilibriumFound(
            f"no equilibrium within {_NEWTON_MAX_ITER} iterations; residual {rnorm:.3e} > {_NEWTON_TOL:.1e}"
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
        omega' = (Pm - b sin(delta) - D omega) / M

    with the electrical coupling b = EV/X while the machine is connected:
    the fault disconnects it (b = 0) and clearing restores the pre-fault
    topology, so ``coupling`` is the value before the fault and after
    clearing.  The varying parameter vector is p = [Pm, M, delta_max,
    omega_max]; the damping D and the coupling are structural.
    """

    p_mech: float  # Pm, mechanical input power
    inertia: float  # M
    delta_max: float  # angle limit, h1 = delta_max - delta
    omega_max: float  # speed limit, h2 = omega_max - omega
    damping: float = 0.5  # D
    coupling: float = 1.0  # EV/X, the machine connected

    def __post_init__(self) -> None:
        if not self.inertia > 0.0:
            raise ValueError(f"inertia must be positive, got {self.inertia}")
        if self.damping < 0.0:
            raise ValueError(f"damping must be nonnegative, got {self.damping}")
        for name in ("p_mech", "inertia", "delta_max", "omega_max", "damping", "coupling"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")

    @property
    def p0(self) -> np.ndarray:
        """Nominal parameter vector [Pm, M, delta_max, omega_max]."""
        return np.array([self.p_mech, self.inertia, self.delta_max, self.omega_max])


_SMIB_PARAM_NAMES = ("Pm", "M", "delta_max", "omega_max")
_SMIB_STATE_NAMES = ("delta", "omega")


def _on_arrays(on_floats, shape: Optional[tuple[int, ...]] = None):
    """The array call g(x, p) of a float entry ``on_floats(xs, ps)``, as ``g.on_floats``.

    g evaluates the entry on x and p as floats (an array's ``tolist``)
    and returns its float with ``shape`` None, else its flat list as an
    array of ``shape``.
    """
    def g(x, p):
        out = on_floats(x.tolist() if type(x) is np.ndarray else x,
                        p.tolist() if type(p) is np.ndarray else p)
        return out if shape is None else np.array(out).reshape(shape)

    g.on_floats = on_floats
    return g


def _inlined(key, prefix: str, state: str = "_x{}", param: str = "_p{}") -> list[str]:
    """The components of a source record, by its ``key``, on names of their own.

    State j becomes ``state.format(j)`` (``xs[j]`` in an entry),
    parameter j ``param.format(j)``, namespace name i ``{prefix}{i}``,
    and a name that a comprehension binds (a Sum's generator variable)
    ``_b{i}`` inside it.  So no name of an expression shadows one of the
    code around it, and a state or parameter that is no identifier
    (``lambda``, ``v w``) is never written.  Renaming on the syntax tree
    keeps every operation and its order (re-printing through sympy would
    re-sort sums and products by name).
    """
    states, params, components, names = key
    to = {name: f"{prefix}{i}" for i, name in enumerate(names)}
    to.update((name, param.format(j)) for j, name in enumerate(params))
    to.update((name, state.format(j)) for j, name in enumerate(states))

    def rename(node, to):
        if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
            bound = {n.id for g in node.generators for n in ast.walk(g.target) if isinstance(n, ast.Name)}
            to = {**to, **{name: f"_b{len(to) + i}" for i, name in enumerate(sorted(bound))}}
        elif isinstance(node, ast.Name):
            node.id = to.get(node.id, node.id)
        for child in ast.iter_child_nodes(node):
            rename(child, to)
        return node

    return [ast.unparse(rename(ast.parse(text, mode="eval"), to)) for text in components]


# A record's float entry, and its code by record key and by whether it returns one float.
_ENTRY = """def entry(xs, ps):
    try:
        return {out}
    except ZeroDivisionError:
        xs, ps = np.array(xs, dtype=float), np.array(ps, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            return {floats}
"""
_COMPILED: dict = {}


def _entry(source: _Source, shape: Optional[tuple[int, ...]] = None):
    """The array call (``_on_arrays``) of the float entry compiled from ``source``.

    The entry evaluates the ``_inlined`` components, with the
    namespace's values as its globals: the one component with ``shape``
    None, else a list.  Its ``_source`` is the record.  Its code is
    compiled once per record key, so records that differ only in their
    namespace's values (machines in coupling and damping) share it.
    Where Python raises ZeroDivisionError, it evaluates the state again
    on numpy float64 scalars, with the division warnings off, and
    returns their floats: numpy's inf or nan.
    """
    key = (source.key, shape is None)
    code = _COMPILED.get(key)
    if code is None:
        # Each state and parameter read by its index: cheaper than unpacking all.
        exprs = _inlined(source.key, "_n", "xs[{}]", "ps[{}]")
        form = "{}" if shape is None else "[{}]"
        code = _COMPILED[key] = compile(_ENTRY.format(
            out=form.format(", ".join(exprs)),
            floats=form.format(", ".join(f"float({e})" for e in exprs)),
        ), "<entry>", "exec")
    scope = {"np": np, **{f"_n{i}": value for i, value in enumerate(source.namespace.values())}}
    exec(code, scope)
    scope["entry"]._source = source
    return _on_arrays(scope["entry"], shape)


def _smib_entry(namespace: dict, shape, *components: str):
    """``_entry`` of a machine record: ``components`` on its state and parameter names."""
    return _entry(_Source(_SMIB_STATE_NAMES, _SMIB_PARAM_NAMES, components, namespace), shape)


def _smib_phase(coupling: float, damping: float) -> PhaseDynamics:
    b, d = float(coupling), float(damping)
    # The coupling and damping are names, not literals, so every machine
    # shares one compiled entry of each kind and one compiled loop.
    entry = partial(_smib_entry, {"sin": math.sin, "cos": math.cos, "b": b, "d": d})

    def jac_lipschitz(p: np.ndarray) -> float:
        # Only the entry -b cos(delta) / M varies, by at most |b| / M per
        # unit of delta; the limits are linear.
        return abs(b) / p[1]

    # The Jacobians row-major and flat.
    return PhaseDynamics(
        f=entry((2,), "omega", "(Pm - b*sin(delta) - d*omega)/M"),
        jac_x=entry((2, 2), "0.0", "1.0", "-b*cos(delta)/M", "-d/M"),
        jac_p=entry((2, 4), "0.0", "0.0", "0.0", "0.0",
                    "1.0/M", "-((Pm - b*sin(delta) - d*omega)/M)/M", "0.0", "0.0"),
        constraints=_SMIB_LIMITS, jac_lipschitz=jac_lipschitz,
    )


def _smib_limit(name: str, j: int) -> Constraint:
    """h = p[2 + j] - x[j], the limit on state j; its derivatives are records too."""
    entry = partial(_smib_entry, {})
    return Constraint(
        name, entry(None, f"{_SMIB_PARAM_NAMES[2 + j]} - {_SMIB_STATE_NAMES[j]}"),
        entry((2,), *("-1.0" if i == j else "0.0" for i in range(2))),
        entry((4,), *("1.0" if i == 2 + j else "0.0" for i in range(4))),
        entry((2, 2), *["0.0"] * 4), entry((2, 4), *["0.0"] * 8),
    )


# Every phase of every machine has these limits.  They, and the phase
# built below, compile the machine's entries at import, so that forked
# pool workers inherit the code.
_SMIB_LIMITS = (_smib_limit("angle_limit", 0), _smib_limit("speed_limit", 1))
_smib_phase(1.0, 0.5)


def smib_system(params: SmibParams) -> ConstrainedSystem:
    """Build the three-phase swing model; all phases share the limits.

    Clearing restores the topology, so the pre- and post-fault phases are
    one ``PhaseDynamics``, with the coupling; the fault phase has none.
    """
    connected = _smib_phase(params.coupling, params.damping)
    return ConstrainedSystem(
        n=len(_SMIB_STATE_NAMES),
        param_names=_SMIB_PARAM_NAMES,
        phases={
            Phase.PRE_FAULT: connected,
            Phase.FAULT_ON: _smib_phase(0.0, params.damping),
            Phase.POST_FAULT: connected,
        },
    )


# ── Declarative systems ──────────────────────────────────────────────────────


@cache
def _power_printer_type():
    """numpy code printer that writes a**b as numpy.power(a, b).

    On floats, Python's ``**`` raises OverflowError (``1e200 ** 2``) or
    returns a complex number (``(-8.0) ** (1/3)``); ``numpy.power``
    returns inf or nan, which the integrator reads as a blow-up.  sqrt
    and 1/sqrt stay as printed.
    """
    from sympy import S
    from sympy.printing.numpy import NumPyPrinter

    class PowerPrinter(NumPyPrinter):
        def _print_Pow(self, expr, rational=False):
            if expr.exp in (S.Half, -S.Half):
                return super()._print_Pow(expr, rational)
            return f"{self._module_format('numpy.power')}({self._print(expr.base)}, {self._print(expr.exp)})"

    return PowerPrinter


def _power_printer():
    """A new power printer, with the settings sympy.lambdify gives its numpy printer."""
    settings = {"fully_qualified_modules": False, "inline": True, "allow_unknown_functions": True}
    return _power_printer_type()(settings)


def _resolved(name: str, module_imports):
    """What ``name`` in printed code means, as in sympy.lambdify's namespace.

    numpy first, then the names the printer took from other modules
    (``functools.reduce`` for Max and Min, ``math.erf``), then the
    builtins and ``builtins`` itself (a Sum's ``builtins.sum``).
    """
    if name == "builtins":
        return builtins
    module = np if hasattr(np, name) else importlib.import_module(
        next((m for m, names in module_imports.items() if name in names), "builtins"))
    if not hasattr(module, name):
        raise ConfigError(f"generated code uses {name!r}, which neither numpy nor Python defines")
    return getattr(module, name)


def _lambdify(args, expr, shape: Optional[tuple[int, ...]] = None):
    """``_entry`` of a sympy expression: a float with ``shape`` None, else an array of ``shape``.

    The record's components are the power printer's code, each wrapped
    in ``float(...)``: on floats it runs the IEEE operations and numpy
    ufunc loops that it runs on numpy scalars, at less cost.  Its
    namespace holds the ``_resolved`` names that code uses.  Raises
    ConfigError where the code would call a state or parameter (a
    parameter ``power``, and ``x**3`` printed as ``power(x, 3)``).
    DiracDelta, which differentiating Abs, sign or Heaviside leaves in a
    Hessian, is taken as 0: its value wherever the expression is twice
    differentiable; numpy has no such function.
    """
    import sympy as sp

    if expr.has(sp.DiracDelta):
        expr = expr.replace(sp.DiracDelta, lambda *args: sp.S.Zero)
    printer = _power_printer()
    texts = [printer.doprint(e) for e in ([expr] if shape is None else sp.Matrix(expr))]
    states, params = (tuple(str(s) for s in group) for group in args)
    local = set(states) | set(params)
    # A Sum prints as builtins.sum over a range.
    sums = ("builtins", "range") if expr.has(sp.Sum) else ()
    clash = sorted(local & set(sums).union(*printer.module_imports.values()))
    if clash:
        raise ConfigError(f"generated code calls {clash}, which name states or parameters")
    wrap = "float"
    while wrap in local:
        wrap = "_" + wrap
    namespace = {wrap: float}
    for text in texts:
        nodes = [n for n in ast.walk(ast.parse(text, mode="eval")) if isinstance(n, ast.Name)]
        bound = {n.id for n in nodes if isinstance(n.ctx, ast.Store)}
        for name in (n.id for n in nodes if n.id not in local | bound | namespace.keys()):
            namespace[name] = _resolved(name, printer.module_imports)
    return _entry(_Source(states, params, tuple(f"{wrap}({t})" for t in texts), namespace), shape)


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
    from sympy.core.function import AppliedUndef

    if len(state) < 1:
        raise ConfigError("at least one state variable is required")
    if len(params) < 1:
        raise ConfigError("at least one parameter is required")
    names = list(state) + list(params)
    if not all(isinstance(s, str) for s in names):
        raise ConfigError(f"state and parameter names must be strings, got {names}")
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
        # A function with no definition has no code, nor has its derivative.
        unknown = {str(s) for s in expr.free_symbols - allowed}
        unknown |= {str(f.func) for f in expr.atoms(AppliedUndef)}
        if unknown:
            raise ConfigError(f"expression {text!r} uses unknown names {sorted(unknown)}")
        return expr

    built: dict[Phase, PhaseDynamics] = {}
    for phase in Phase:
        try:
            block = phases[phase.value]
        except KeyError:
            raise ConfigError(f"missing phase {phase.value!r}") from None
        if not isinstance(block, Mapping):
            raise ConfigError(f"phase {phase.value!r} must be a mapping, got {block!r}")
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
        elif isinstance(h_block, Mapping):
            h_items = list(h_block.items())
        else:
            raise ConfigError(
                f"phase {phase.value!r} needs a mapping or a list under 'h', got {h_block!r}"
            )
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
