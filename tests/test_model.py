"""Model layer checks.

Covers, in order: phase vector fields against hand-computed values,
analytic Jacobians against central finite differences, equilibrium
location and classification, the equilibrium parameter shift dx_s/dp,
input validation, the expression-built twin of the swing model, the
one-state calls of a hand-built system, and the interval-arithmetic
Lipschitz bound of expression-built systems.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from cctsens.boundary import GridSpec, sample_stability_region
from cctsens.cct import CctOptions, compute_cct
from cctsens.errors import (
    ConfigError,
    DimensionMismatch,
    NoEquilibriumFound,
    NumericalBlowup,
    SingularJacobian,
)
from cctsens.integrator import integrate, integrate_with_sensitivities
from cctsens.sensitivity import cct_sensitivity
from cctsens.validate import scan_cct
from cctsens.model import (
    EquilibriumClass,
    Phase,
    SmibParams,
    eval_f,
    eval_jacobians,
    find_equilibrium,
    sep_sensitivity,
    smib_system,
    system_from_expressions,
)

_PARAMS = SmibParams(p_mech=0.5, inertia=0.1, delta_max=2.0, omega_max=1.5)
_SYS = smib_system(_PARAMS)
_P0 = _PARAMS.p0


def _fd_jacobians(system, phase, x, p, eps=1e-6):
    """Central-difference Jacobians, the oracle for eval_jacobians."""
    n, n_p = system.n, system.n_params
    jx = np.zeros((n, n))
    jp = np.zeros((n, n_p))
    for j in range(n):
        e = np.zeros(n)
        e[j] = eps
        jx[:, j] = (eval_f(system, phase, x + e, p) - eval_f(system, phase, x - e, p)) / (2 * eps)
    for j in range(n_p):
        e = np.zeros(n_p)
        e[j] = eps
        jp[:, j] = (eval_f(system, phase, x, p + e) - eval_f(system, phase, x, p - e)) / (2 * eps)
    return jx, jp


# ── vector fields ─────────────────────────────────────────────────────────────


def test_fault_field_matches_hand_value():
    """With the machine disconnected, acceleration is Pm / M."""
    f = eval_f(_SYS, Phase.FAULT_ON, np.array([math.pi / 6, 0.0]), _P0)
    assert np.allclose(f, [0.0, 5.0], atol=1e-14), f"fault field {f} != [0, 5]"


def test_pre_and_post_fields_agree():
    """Clearing restores the pre-fault topology, so the fields coincide."""
    rng = np.random.default_rng(11)
    for _ in range(10):
        x = rng.uniform([-1.0, -2.0], [3.0, 2.0])
        f_pre = eval_f(_SYS, Phase.PRE_FAULT, x, _P0)
        f_post = eval_f(_SYS, Phase.POST_FAULT, x, _P0)
        assert np.array_equal(f_pre, f_post)


def test_post_field_hand_value():
    x = np.array([0.5, 1.5])
    f = eval_f(_SYS, Phase.POST_FAULT, x, _P0)
    expect = np.array([1.5, (0.5 - math.sin(0.5) - 0.5 * 1.5) / 0.1])
    assert np.allclose(f, expect, rtol=1e-14)


# ── Jacobians ─────────────────────────────────────────────────────────────────


def test_post_jacobian_hand_value():
    jx, jp = eval_jacobians(_SYS, Phase.POST_FAULT, np.zeros(2), _P0)
    assert np.allclose(jx, [[0.0, 1.0], [-10.0, -5.0]], atol=1e-14)
    f2 = 0.5 / 0.1
    assert np.allclose(jp, [[0, 0, 0, 0], [10.0, -f2 / 0.1, 0.0, 0.0]], atol=1e-12)


def test_jacobians_match_finite_differences():
    rng = np.random.default_rng(7)
    for phase in Phase:
        for _ in range(8):
            x = rng.uniform([-1.0, -2.0], [3.0, 2.0])
            p = np.array(
                [
                    rng.uniform(0.2, 0.9),
                    rng.uniform(0.05, 0.4),
                    rng.uniform(1.5, 3.0),
                    rng.uniform(0.5, 2.0),
                ]
            )
            jx, jp = eval_jacobians(_SYS, phase, x, p)
            jx_fd, jp_fd = _fd_jacobians(_SYS, phase, x, p)
            assert np.allclose(jx, jx_fd, rtol=1e-6, atol=1e-6), f"jac_x off in {phase}"
            assert np.allclose(jp, jp_fd, rtol=1e-6, atol=1e-6), f"jac_p off in {phase}"


def test_constraint_param_columns_are_zero():
    """delta_max/omega_max never enter the dynamics."""
    _, jp = eval_jacobians(_SYS, Phase.POST_FAULT, np.array([0.3, 0.4]), _P0)
    assert np.all(jp[:, 2:] == 0.0)


# ── equilibria ────────────────────────────────────────────────────────────────


@pytest.mark.parametrize("coupling", [1.0, 1.3])
def test_jacobian_lipschitz_bound_holds(coupling):
    # ||J(x) - J(y)||_2 <= L ||x - y|| on random pairs, near and far; the
    # limits are linear, so their gradients need no bound.
    rng = np.random.default_rng(5)
    for inertia in (0.1, 0.5):
        params = SmibParams(0.5, inertia, 2.0, 1.5, coupling_pre=coupling, coupling_post=coupling)
        system = smib_system(params)
        p = params.p0
        for phase, dyn in system.phases.items():
            lip = dyn.jac_lipschitz(p)
            assert lip == (0.0 if phase is Phase.FAULT_ON else coupling / inertia)
            for scale in (1e-3, 1.0, 10.0):
                for _ in range(50):
                    x = rng.uniform(-4.0, 4.0, 2)
                    y = x + scale * rng.normal(size=2)
                    gap = np.linalg.norm(dyn.jac_x(x, p) - dyn.jac_x(y, p), 2)
                    assert gap <= lip * np.linalg.norm(x - y) * (1.0 + 1e-12)
            for con in dyn.constraints:
                assert np.array_equal(con.grad_x(x, p), con.grad_x(y, p))


def test_pre_fault_sep_is_arcsin():
    eq = find_equilibrium(_SYS, Phase.PRE_FAULT, _P0, np.zeros(2))
    assert eq.classification is EquilibriumClass.STABLE
    assert eq.residual <= 1e-10
    assert abs(eq.x[0] - math.asin(0.5)) < 1e-12, f"SEP angle {eq.x[0]}"
    assert abs(eq.x[1]) < 1e-12


def test_unstable_equilibrium_is_classified():
    guess = np.array([math.pi - math.asin(0.5) + 0.05, 0.0])
    eq = find_equilibrium(_SYS, Phase.POST_FAULT, _P0, guess)
    assert abs(eq.x[0] - (math.pi - math.asin(0.5))) < 1e-10
    assert eq.classification is EquilibriumClass.UNSTABLE
    assert max(eq.eigenvalues.real) > 0.0


def test_no_equilibrium_when_input_exceeds_coupling():
    p = np.array([1.5, 0.1, 2.0, 1.5])
    with pytest.raises(NoEquilibriumFound):
        find_equilibrium(_SYS, Phase.PRE_FAULT, p, np.zeros(2))


def test_saddle_node_is_non_hyperbolic():
    """Pm equal to the coupling merges the equilibria at delta = pi/2."""
    p = np.array([1.0, 0.1, 2.0, 1.5])
    eq = find_equilibrium(_SYS, Phase.PRE_FAULT, p, np.array([math.pi / 2, 0.0]))
    assert eq.classification is EquilibriumClass.NON_HYPERBOLIC
    assert abs(eq.x[0] - math.pi / 2) < 1e-12


def test_undamped_center_is_non_hyperbolic():
    params = SmibParams(p_mech=0.5, inertia=0.1, delta_max=2.0, omega_max=1.5, damping=0.0)
    sys_ = smib_system(params)
    eq = find_equilibrium(sys_, Phase.PRE_FAULT, params.p0, np.zeros(2))
    assert eq.classification is EquilibriumClass.NON_HYPERBOLIC
    assert np.max(np.abs(eq.eigenvalues.real)) < 1e-8


def test_fault_phase_has_no_equilibrium_for_positive_input():
    """The disconnected field never vanishes; its Jacobian is structurally singular."""
    with pytest.raises(SingularJacobian):
        find_equilibrium(_SYS, Phase.FAULT_ON, _P0, np.zeros(2))


# ── equilibrium sensitivity ───────────────────────────────────────────────────


def test_sep_sensitivity_closed_form():
    eq = find_equilibrium(_SYS, Phase.PRE_FAULT, _P0, np.zeros(2))
    m4 = sep_sensitivity(_SYS, Phase.PRE_FAULT, _P0, eq.x)
    expect = 1.0 / math.cos(math.asin(0.5))
    assert abs(m4[0, 0] - expect) < 1e-10, f"d delta_s/dPm {m4[0, 0]} != {expect}"
    assert np.max(np.abs(m4[:, 1:])) < 1e-12, "inertia and limits must not move the SEP"
    assert np.max(np.abs(m4[1, :])) < 1e-12, "speed stays zero at equilibrium"


def test_sep_sensitivity_identity_residual():
    """(df/dx) (dx_s/dp) + df/dp = 0 at the equilibrium."""
    eq = find_equilibrium(_SYS, Phase.PRE_FAULT, _P0, np.zeros(2))
    m4 = sep_sensitivity(_SYS, Phase.PRE_FAULT, _P0, eq.x)
    jx, jp = eval_jacobians(_SYS, Phase.PRE_FAULT, eq.x, _P0)
    assert np.max(np.abs(jx @ m4 + jp)) <= 1e-10


def test_sep_first_order_prediction_halves_quadratically():
    eq = find_equilibrium(_SYS, Phase.PRE_FAULT, _P0, np.zeros(2))
    m4 = sep_sensitivity(_SYS, Phase.PRE_FAULT, _P0, eq.x)
    errs = []
    for dp in (0.04, 0.02):
        p_new = _P0.copy()
        p_new[0] += dp
        shifted = find_equilibrium(_SYS, Phase.PRE_FAULT, p_new, eq.x).x
        predicted = eq.x + m4[:, 0] * dp
        errs.append(np.linalg.norm(shifted - predicted))
    ratio = errs[1] / errs[0]
    assert ratio < 0.35, f"halving the step cut the error only by {1 / ratio:.2f}x"


def test_sep_sensitivity_singular_at_saddle_node():
    p = np.array([1.0, 0.1, 2.0, 1.5])
    eq = find_equilibrium(_SYS, Phase.PRE_FAULT, p, np.array([math.pi / 2, 0.0]))
    with pytest.raises(SingularJacobian):
        sep_sensitivity(_SYS, Phase.PRE_FAULT, p, eq.x)


# ── validation ────────────────────────────────────────────────────────────────


def test_dimension_mismatch_is_rejected():
    with pytest.raises(DimensionMismatch):
        eval_f(_SYS, Phase.PRE_FAULT, np.zeros(3), _P0)
    with pytest.raises(DimensionMismatch):
        eval_jacobians(_SYS, Phase.PRE_FAULT, np.zeros(2), np.zeros(5))


def test_smib_params_validation():
    with pytest.raises(ValueError):
        SmibParams(p_mech=0.5, inertia=0.0, delta_max=2.0, omega_max=1.5)
    with pytest.raises(ValueError):
        SmibParams(p_mech=0.5, inertia=0.1, delta_max=2.0, omega_max=1.5, damping=-0.1)
    with pytest.raises(ValueError):
        SmibParams(p_mech=0.5, inertia=0.1, delta_max=2.0, omega_max=1.5, coupling_fault=0.2)
    with pytest.raises(ValueError):
        SmibParams(p_mech=0.5, inertia=0.1, delta_max=math.inf, omega_max=1.5)


def test_param_index_lookup():
    assert _SYS.param_index("M") == 1
    with pytest.raises(ConfigError):
        _SYS.param_index("bogus")


# ── expression-built systems ──────────────────────────────────────────────────

_SMIB_EXPRS = {
    ph: {
        "f": ["x2", f"(Pm - {c} * sin(x1) - 0.5 * x2) / M"],
        "h": {"angle_limit": "delta_max - x1", "speed_limit": "omega_max - x2"},
    }
    for ph, c in (("pre", 1), ("fault", 0), ("post", 1))
}


def test_expression_system_matches_hand_coded_smib():
    twin = system_from_expressions(
        ["x1", "x2"], ["Pm", "M", "delta_max", "omega_max"], _SMIB_EXPRS
    )
    rng = np.random.default_rng(3)
    for phase in Phase:
        for _ in range(5):
            x = rng.uniform([-1.0, -2.0], [3.0, 2.0])
            assert np.allclose(
                eval_f(twin, phase, x, _P0), eval_f(_SYS, phase, x, _P0), rtol=1e-13, atol=1e-13
            )
            jx_t, jp_t = eval_jacobians(twin, phase, x, _P0)
            jx_h, jp_h = eval_jacobians(_SYS, phase, x, _P0)
            assert np.allclose(jx_t, jx_h, rtol=1e-13, atol=1e-13)
            assert np.allclose(jp_t, jp_h, rtol=1e-13, atol=1e-13)
    for c_twin, c_hand in zip(
        twin.phases[Phase.POST_FAULT].constraints, _SYS.phases[Phase.POST_FAULT].constraints
    ):
        x = np.array([0.4, 0.6])
        assert c_twin.name == c_hand.name
        assert abs(c_twin.value(x, _P0) - c_hand.value(x, _P0)) < 1e-14
        assert np.allclose(c_twin.grad_x(x, _P0), c_hand.grad_x(x, _P0), atol=1e-14)
        assert np.allclose(c_twin.grad_p(x, _P0), c_hand.grad_p(x, _P0), atol=1e-14)
        assert np.allclose(c_twin.hess_xx(x, _P0), c_hand.hess_xx(x, _P0), atol=1e-14)
        assert np.allclose(c_twin.hess_xp(x, _P0), c_hand.hess_xp(x, _P0), atol=1e-14)


def test_expression_system_rejects_unknown_names():
    bad = {ph: {"f": ["x2", "y3 + x1"]} for ph in ("pre", "fault", "post")}
    with pytest.raises(ConfigError):
        system_from_expressions(["x1", "x2"], ["a"], bad)


def test_expression_system_requires_all_phases():
    with pytest.raises(ConfigError):
        system_from_expressions(["x"], ["a"], {"pre": {"f": ["-a * x"]}})


def test_expression_constraint_second_derivatives():
    """Quadratic constraint: the symbolic Hessian must be exact."""
    phases = {
        ph: {"f": ["x2", "-a * x1 - x2"], "h": {"bowl": "1 - a * x1**2 - x1 * x2"}}
        for ph in ("pre", "fault", "post")
    }
    sys_ = system_from_expressions(["x1", "x2"], ["a"], phases)
    c = sys_.phases[Phase.POST_FAULT].constraints[0]
    x = np.array([0.7, -0.3])
    p = np.array([2.0])
    assert abs(c.value(x, p) - (1 - 2.0 * 0.49 - 0.7 * -0.3)) < 1e-14
    assert np.allclose(c.grad_x(x, p), [-2 * 2.0 * 0.7 - (-0.3), -0.7], atol=1e-14)
    assert np.allclose(c.hess_xx(x, p), [[-4.0, -1.0], [-1.0, 0.0]], atol=1e-14)
    assert np.allclose(c.hess_xp(x, p), [[-1.4], [0.0]], atol=1e-14)


# ── interval-arithmetic Lipschitz bounds ─────────────────────────────────────


# The swing machine as the benchmark's ``study`` workload writes it
# (EXPRESSION_SMIB in bench/workloads.py).
_LIMITS = {"angle_limit": "delta_max - delta", "speed_limit": "omega_max - omega"}
_BENCH_TWIN = system_from_expressions(
    ["delta", "omega"], ["Pm", "M", "delta_max", "omega_max"],
    {
        "pre": {"f": ["omega", "(Pm - sin(delta) - 0.5*omega)/M"], "h": _LIMITS},
        "fault": {"f": ["omega", "(Pm - 0.5*omega)/M"], "h": _LIMITS},
        "post": {"f": ["omega", "(Pm - sin(delta) - 0.5*omega)/M"], "h": _LIMITS},
    },
)


@pytest.mark.parametrize("system", [_SYS, _BENCH_TWIN], ids=["machine", "expressions"])
def test_zero_inertia_fails_as_the_twin_does(system):
    # M = 0 divides by zero.  Python floats raise ZeroDivisionError where
    # numpy gives inf or nan; the float entries of the machine, like the
    # twin's, then redo the state on numpy, so both fail with the
    # library's own errors.
    p = np.array([0.5, 0.0, 1.6, 0.9])
    x = [0.5, 0.0]
    with np.errstate(divide="ignore", invalid="ignore"):
        for dyn in system.phases.values():
            for entry in (dyn.f, dyn.jac_x, dyn.jac_p):
                assert not all(map(math.isfinite, entry.on_floats(x, p.tolist())))
                assert not np.isfinite(entry(np.array(x), p)).all()
        with pytest.raises(NoEquilibriumFound):
            compute_cct(system, p)
        for phase in Phase:
            with pytest.raises(NumericalBlowup):
                integrate(system, phase, np.array(x), p)
            with pytest.raises(NumericalBlowup):
                integrate_with_sensitivities(system, phase, np.array(x), p)

def _expression_phases(f, h=None):
    block = {"f": f, "h": h or {}}
    return {ph: block for ph in ("pre", "fault", "post")}


def test_powers_on_floats_give_inf_or_nan():
    # Python's ** raises OverflowError at 1e200 ** 2 and gives a complex
    # number at (-8.0) ** (1/3); the generated code's numpy.power gives
    # inf and nan, which a run reads as a blow-up.
    phases = _expression_phases(["x1**2", "x2**(1/3)"], {"m": "a - x1**2"})
    system = system_from_expressions(["x1", "x2"], ["a"], phases)
    dyn, p = system.phases[Phase.POST_FAULT], np.array([1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        f = dyn.f.on_floats([1e200, -8.0], p.tolist())
        assert f[0] == math.inf and math.isnan(f[1])
        assert dyn.constraints[0].value(np.array([1e200, 0.0]), p) == -math.inf
        with pytest.raises(NumericalBlowup):
            integrate(system, Phase.POST_FAULT, np.array([0.5, -8.0]), p)


def _one_state_calls(dyn):
    calls = [dyn.f, dyn.jac_x, dyn.jac_p]
    for c in dyn.constraints:
        calls += [c.value, c.grad_x, c.hess_xx, c.hess_xp]
    return calls


def _same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).ravel().tobytes()


@pytest.mark.bit_identity
@pytest.mark.parametrize("system", [_SYS, _BENCH_TWIN], ids=["machine", "expressions"])
def test_float_entries_equal_the_array_calls(system):
    # The one-state float entries that a lone lane and the variational
    # equations run on equal the array calls, entry for entry and sign
    # of zero included: the field, both Jacobians (row-major and flat)
    # and every margin, in every phase.
    rng = np.random.default_rng(2000)
    xs = rng.uniform([-4.0, -8.0], [4.0, 8.0], size=(2000, 2))
    for p in (_P0, np.array([-0.3, 0.05, 1.0, -2.0])):
        ps = p.tolist()
        for dyn in system.phases.values():
            for g in (dyn.f, dyn.jac_x, dyn.jac_p):
                for x in xs:
                    got = g.on_floats(x.tolist(), ps)
                    assert type(got) is list and all(type(v) is float for v in got)
                    assert _same_bits(got, g(x, p)), (g, x)
            for c in dyn.constraints:
                for x in xs:
                    got = c.value.on_floats(x.tolist(), ps)
                    assert type(got) is float and _same_bits(got, c.value(x, p)), (c.name, x)


def test_division_by_zero_at_one_state_gives_numpy_values():
    # Python floats raise where numpy divides by zero; such a state is
    # evaluated on numpy scalars and gives inf or nan, through the array
    # call and through the float entry alike.  The oracle is each
    # derivative written out on numpy float64 scalars.
    phases = _expression_phases(["a/x1", "x2/x1 - x1/x2"], {"m": "a - x2/x1"})
    dyn = system_from_expressions(["x1", "x2"], ["a"], phases).phases[Phase.POST_FAULT]
    p = np.array([1.0])
    a, zero = np.float64(1.0), np.float64(0.0)

    def oracle(x1, x2):
        return [
            [a / x1, x2 / x1 - x1 / x2],  # f
            [[-a / x1**2, zero], [-x2 / x1**2 - 1 / x2, 1 / x1 + x1 / x2**2]],  # jac_x
            [[1 / x1], [zero]],  # jac_p
            a - x2 / x1,  # value
            [x2 / x1**2, -1 / x1],  # grad_x
            [[-2 * x2 / x1**3, 1 / x1**2], [1 / x1**2, zero]],  # hess_xx
            [[zero], [zero]],  # hess_xp
        ]

    with np.errstate(divide="ignore", invalid="ignore"):
        for x in ([0.0, 1.0], [0.0, 0.0], [1.0, 0.0]):
            wants = oracle(*map(np.float64, x))
            for g, want in zip(_one_state_calls(dyn), wants):
                want = np.array(want, dtype=float)
                assert np.array_equal(g(np.array(x), p), want, equal_nan=True)
                got = g.on_floats(x, p.tolist())
                assert type(got) is (float if want.ndim == 0 else list)
                assert np.array_equal(got, want.ravel() if want.ndim else want, equal_nan=True)


def _one_state_only(fn, n: int):
    """fn without a float entry, raising on any state not of shape (n,)."""

    def one_state(x, p):
        if np.shape(x) != (n,):
            raise AssertionError(f"a state of shape {np.shape(x)}, not ({n},)")
        return fn(x, p)

    return one_state


def _hand_built(system):
    """``system`` as a hand-built one: one state per call, no float entries."""
    one = lambda fn: None if fn is None else _one_state_only(fn, system.n)
    entries = ("value", "grad_x", "grad_p", "hess_xx", "hess_xp")
    phases = {
        ph: replace(
            dyn, f=one(dyn.f), jac_x=one(dyn.jac_x), jac_p=one(dyn.jac_p),
            constraints=tuple(
                replace(c, **{k: one(getattr(c, k)) for k in entries}) for c in dyn.constraints
            ),
        )
        for ph, dyn in system.phases.items()
    }
    return replace(system, phases=phases)


def test_hand_built_system_takes_one_state_per_call():
    # Every callable of a hand-built system sees one state of shape (n,),
    # through the critical time, its sensitivities (a fault hit and a
    # graze), the dense scan and the stability-region grid with its
    # boundary samples, semi-saddles and manifolds.  Each result equals
    # the one from the float entries.
    opts = CctOptions(bisection_tol=1e-3)
    for params in (SmibParams(0.65, 0.1, 2.0, 0.7), SmibParams(0.5, 0.5, 1.6, 0.9)):
        system, plain = _hand_built(smib_system(params)), smib_system(params)
        result = compute_cct(system, params.p0, opts)
        assert result.t_cl == compute_cct(plain, params.p0, opts).t_cl
        assert np.array_equal(cct_sensitivity(system, params.p0, result).dt_cl,
                              cct_sensitivity(plain, params.p0, result).dt_cl)
    assert scan_cct(system, params.p0, 0.02) == scan_cct(plain, params.p0, 0.02)
    spec = GridSpec(x1_min=-0.5, x1_max=2.5, x2_min=-2.0, x2_max=2.0, n1=8, n2=6)
    grid = sample_stability_region(_hand_built(_SYS), _P0, spec)
    want = sample_stability_region(_SYS, _P0, spec)
    assert grid.semi_saddles and grid.manifolds
    assert (grid.classes == want.classes).all()
    for got, ref in ((grid.boundary_points, want.boundary_points),
                     (grid.semi_saddles, want.semi_saddles)):
        assert [b.x.tolist() for b in got] == [b.x.tolist() for b in ref]
    assert all(np.array_equal(a, b) for a, b in zip(grid.manifolds, want.manifolds))


# (system, parameter vectors, the bound expected at each).  The disk
# system is the curved one of test_boundary.py: its disk margin has a
# non-zero Hessian diag(-2, -2/b), its band margin [[0, -1], [-1, 0]].
_BOUNDED = [
    (
        _BENCH_TWIN,
        [np.array([0.5, m, 1.6, 0.9]) for m in (0.1, 0.3, 0.5)],
        lambda p: 1.0 / p[1],
    ),
    (
        system_from_expressions(
            ["x1", "x2"], ["a", "b"],
            {
                "pre": {"f": ["x2", "-a*sin(x1) - b*x2"]},
                "fault": {"f": ["x2", "0"]},
                "post": {
                    "f": ["x2", "-a*sin(x1) - b*x2"],
                    "h": {"disk": "1 - x1**2 - x2**2/b", "band": "a - x1*x2"},
                },
            },
        ),
        [np.array([1.0, 0.5]), np.array([3.0, 2.0])],
        lambda p: max(p[0], math.hypot(2.0, 2.0 / p[1]), math.sqrt(2.0)),
    ),
    (
        # Two angles coupled through cos(x1 - x2): the sups of the field's
        # second derivatives are (2, 1, 1, 1) / M and (1, 1, 1, 2) / M.
        system_from_expressions(
            ["x1", "x2"], ["Pm", "M"],
            _expression_phases(
                ["(Pm - sin(x1) - cos(x1 - x2)) / M", "(Pm - sin(x2) + cos(x1 - x2)) / M"],
                {"gap": "1 - (x1 - x2)**2 / 4"},
            ),
        ),
        [np.array([0.2, 0.5]), np.array([0.2, 2.0])],
        lambda p: math.sqrt(14.0) / p[1],
    ),
]


@pytest.mark.parametrize("system, ps, expected", _BOUNDED, ids=["bench_twin", "disk", "two_angles"])
def test_interval_lipschitz_bound_holds(system, ps, expected):
    # ||J(x) - J(y)||_2 <= L ||x - y|| and the same for every margin's
    # gradient, on random pairs near and far.
    rng = np.random.default_rng(7)
    dyn = system.phases[Phase.POST_FAULT]
    for p in ps:
        lip = dyn.jac_lipschitz(p)
        assert lip == pytest.approx(expected(p), rel=1e-14)
        for scale in (1e-3, 1.0, 10.0):
            for _ in range(50):
                x = rng.uniform(-4.0, 4.0, 2)
                y = x + scale * rng.normal(size=2)
                gap = np.linalg.norm(x - y)
                assert np.linalg.norm(dyn.jac_x(x, p) - dyn.jac_x(y, p), 2) <= lip * gap * (1.0 + 1e-12)
                for con in dyn.constraints:
                    assert np.linalg.norm(con.grad_x(x, p) - con.grad_x(y, p)) <= lip * gap * (1.0 + 1e-12)


@pytest.mark.parametrize("field, margin", [
    ("-x1**3 - 0.3*x2", None),  # second derivative 6*x1
    ("-x1 - 0.3*x2", "1 - x1**3"),  # a margin's Hessian entry 6*x1
    ("-sqrt(x1) - x2", None),
    ("-Abs(x1) - x2", None),
    ("-log(x1) - x2", None),
    ("-atan(x1) - x2", None),
    ("-Piecewise((x1**2, x1 > 0), (0, True)) - x2", None),
    # Finite intervals, but sign and DiracDelta of them stay unevaluated.
    ("-Abs(sin(x1)) - x2", None),
])
def test_no_interval_bound_for_unbounded_or_unevaluated_entries(field, margin):
    h = {} if margin is None else {"g": margin}
    system = system_from_expressions(["x1", "x2"], ["a"], _expression_phases(["x2", field], h))
    assert system.phases[Phase.POST_FAULT].jac_lipschitz is None


def test_non_finite_interval_bound_certifies_nothing():
    from cctsens.integrator import EventConfig, _norm_bound

    system = system_from_expressions(["x1", "x2"], ["M"], _expression_phases(["x2", "-sin(x1)/M - x2"]))
    dyn = system.phases[Phase.POST_FAULT]
    assert dyn.jac_lipschitz(np.array([0.5])) == 2.0
    assert dyn.lipschitz_bound(np.array([0.5])) == 2.0
    for m in (0.0, math.nan):
        assert not math.isfinite(dyn.jac_lipschitz(np.array([m])))
        assert dyn.lipschitz_bound(np.array([m])) is None
        assert _norm_bound(dyn, np.array([m]), EventConfig(norm_min_threshold=1e-3)) is None


def test_interval_bound_keeps_the_states_independent():
    # With a symbolic, sympy folds the product into the square
    # (a + [-1, 1])**2 - 1, whose sup |.| at a = 0 is 1.  The parameters
    # go in as numbers together with the states, so sin(x1) and sin(x2)
    # stay independent and the sup is the true 2.
    import sympy as sp

    from cctsens.model import _interval_lipschitz

    x1, x2, a = sp.symbols("x1 x2 a", real=True)
    bound = _interval_lipschitz((x1, x2), (a,), [[(a + sp.sin(x1)) * (a + sp.sin(x2)) - 1]])
    assert bound(np.array([0.0])) == 2.0
    assert bound(np.array([0.5])) == 1.75
