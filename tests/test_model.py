"""Model layer checks.

Covers, in order: phase vector fields against hand-computed values,
analytic Jacobians against central finite differences, equilibrium
location and classification, the equilibrium parameter shift dx_s/dp,
input validation, the expression-built twin of the swing model, and
the interval-arithmetic Lipschitz bound of expression-built systems.
"""

import math

import numpy as np
import pytest

from cctsens.errors import (
    ConfigError,
    DimensionMismatch,
    NoEquilibriumFound,
    SingularJacobian,
)
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


def test_expression_system_evaluates_column_batches():
    """(n, K) states give (n, K) fields and (K,) margins; constants broadcast."""
    phases = {
        ph: {"f": ["x2", "0"], "h": {"lid": "1 - x1", "floor": "2"}}
        for ph in ("pre", "fault", "post")
    }
    sys_ = system_from_expressions(["x1", "x2"], ["a"], phases)
    dyn = sys_.phases[Phase.POST_FAULT]
    p = np.array([1.0])
    xs = np.array([[0.1, 0.5, 2.0], [-1.0, 0.0, 3.0]])
    f = dyn.f(xs, p)
    assert f.shape == (2, 3)
    assert np.array_equal(f, [[-1.0, 0.0, 3.0], [0.0, 0.0, 0.0]])
    lid, floor = (c.value(xs, p) for c in dyn.constraints)
    assert lid.shape == floor.shape == (3,)
    assert np.array_equal(lid, [0.9, 0.5, -1.0]) and np.array_equal(floor, [2.0, 2.0, 2.0])
    # One state still gives an (n,) field and float margins.
    assert dyn.f(xs[:, 1], p).shape == (2,)
    assert isinstance(dyn.constraints[0].value(xs[:, 1], p), float)
    assert isinstance(dyn.constraints[1].value(xs[:, 1], p), float)


@pytest.mark.bit_identity
def test_machine_field_evaluates_column_batches():
    # One state, evaluated on floats, equals its column of the batch bit
    # for bit.
    rng = np.random.default_rng(5)
    xs = np.hstack([
        [[0.2, 1.1, -0.4], [0.3, -0.7, 1.2]],
        [rng.uniform(-10.0, 10.0, 2000), rng.uniform(-5.0, 5.0, 2000)],
    ])
    for phase in Phase:
        f = _SYS.phases[phase].f(xs, _P0)
        assert f.shape == xs.shape
        for k in range(xs.shape[1]):
            assert np.array_equal(f[:, k], eval_f(_SYS, phase, xs[:, k], _P0))
    margins = [c.value(xs, _P0) for c in _SYS.phases[Phase.POST_FAULT].constraints]
    assert all(m.shape == xs.shape[1:] for m in margins)


@pytest.mark.bit_identity
@pytest.mark.parametrize("scale", [1e-8, 1e-3, 1.0, 10.0, 1e3, 1e8])
def test_math_sin_equals_numpy_sin(scale):
    # One machine state takes math.sin and a column batch np.sin; lanes
    # equal their one-lane runs only while the two round alike, which
    # depends on the numpy build (its SIMD sin) and the C library.
    x = np.random.default_rng(17).uniform(-scale, scale, 100_000)
    assert np.array_equal(np.sin(x), [math.sin(v) for v in x.tolist()])


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


def _expression_phases(f, h=None):
    block = {"f": f, "h": h or {}}
    return {ph: block for ph in ("pre", "fault", "post")}


# Its one-state code holds numpy.power (from **), sqrt, exp and abs (from
# Abs), and sign in the derivatives of Abs.
_FLOAT_CASE = system_from_expressions(
    ["x1", "x2"], ["a", "b"],
    _expression_phases(
        ["x2*sqrt(1 + x1**2)", "-a*x1**3 - b*exp(-x2**2)*Abs(x1)"],
        {"bowl": "a - x1**2*exp(x2/4) - sqrt(2 + x2**2)", "cap": "Abs(b)*(1 + x1*x2) - x2**3/3"},
    ),
)


def _one_state_calls(dyn):
    calls = [dyn.f, dyn.jac_x, dyn.jac_p]
    for c in dyn.constraints:
        calls += [c.value, c.grad_x, c.hess_xx, c.hess_xp]
    return calls


@pytest.mark.bit_identity
def test_one_state_on_floats_equals_the_column_batch():
    # One state goes to the generated code as Python floats, a column
    # batch as arrays: every entry must round alike.
    dyn = _FLOAT_CASE.phases[Phase.POST_FAULT]
    p = np.array([1.3, -0.7])
    xs = np.random.default_rng(23).uniform(-3.0, 3.0, size=(2, 500))
    for g in _one_state_calls(dyn):
        batch = np.asarray(g(xs, p))
        for k in range(xs.shape[1]):
            assert np.array_equal(g(xs[:, k], p), batch[..., k])


def test_division_by_zero_at_one_state_gives_the_batch_column():
    # Python floats raise where numpy divides by zero; such a state is
    # evaluated on numpy scalars and gives inf or nan as the batch does.
    phases = _expression_phases(["a/x1", "x2/x1 - x1/x2"], {"m": "a - x2/x1"})
    dyn = system_from_expressions(["x1", "x2"], ["a"], phases).phases[Phase.POST_FAULT]
    p = np.array([1.0])
    xs = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])
    with np.errstate(divide="ignore", invalid="ignore"):
        for g in _one_state_calls(dyn):
            batch = np.asarray(g(xs, p))
            for k in range(xs.shape[1]):
                assert np.array_equal(g(xs[:, k], p), batch[..., k], equal_nan=True)


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
