"""Integrator checks.

Groups: accuracy against closed forms, interpolation, variational
equations against finite differences and the flow-composition identity,
event detection (crossings, convergence ball, field-norm minima), and
failure modes.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cctsens import integrator
from cctsens.errors import DimensionMismatch, NumericalBlowup, OutOfRange, StiffnessFailure
from cctsens.integrator import (
    EventConfig,
    EventKind,
    IntegrationOptions,
    integrate,
    integrate_lanes,
    integrate_with_sensitivities,
    state_at,
)
from cctsens.model import (
    Phase,
    SmibParams,
    find_equilibrium,
    smib_system,
    system_from_expressions,
)

_PARAMS = SmibParams(p_mech=0.5, inertia=0.1, delta_max=2.0, omega_max=1.5)
_SYS = smib_system(_PARAMS)
_P0 = _PARAMS.p0
_TIGHT = IntegrationOptions(rel_tol=1e-10, abs_tol=1e-12, t_max=1.0)

_DECAY = system_from_expressions(
    ["x"], ["a"], {ph: {"f": ["-a * x"]} for ph in ("pre", "fault", "post")}
)


def _fault_speed(t, pm=0.5, d=0.5, m=0.1):
    """Closed-form fault-on speed from a standstill start."""
    return (pm / d) * (1.0 - math.exp(-d * t / m))


# ── accuracy ──────────────────────────────────────────────────────────────────


def test_exponential_decay_accuracy():
    traj = integrate(_DECAY, Phase.PRE_FAULT, np.array([1.0]), np.array([1.0]), _TIGHT)
    err = abs(traj.final_state[0] - math.exp(-1.0)) / math.exp(-1.0)
    assert err <= 1e-8, f"relative error {err:.2e}"
    assert traj.times[0] == 0.0
    assert np.array_equal(traj.states[0], [1.0])


def test_fault_speed_closed_form():
    x0 = np.array([math.asin(0.5), 0.0])
    traj = integrate(_SYS, Phase.FAULT_ON, x0, _P0, IntegrationOptions(t_max=0.5))
    assert abs(traj.final_state[1] - _fault_speed(0.5)) <= 1e-6


def test_halving_tolerances_does_not_worsen():
    x0 = np.array([0.9, 0.3])
    errs = []
    reference = integrate(
        _SYS, Phase.POST_FAULT, x0, _P0, IntegrationOptions(rel_tol=1e-13, abs_tol=1e-13, t_max=2.0)
    ).final_state
    for rtol in (1e-6, 1e-8, 1e-10):
        traj = integrate(
            _SYS, Phase.POST_FAULT, x0, _P0,
            IntegrationOptions(rel_tol=rtol, abs_tol=rtol * 1e-2, t_max=2.0),
        )
        errs.append(np.linalg.norm(traj.final_state - reference))
    assert errs[1] <= errs[0] and errs[2] <= errs[1], f"errors not monotone: {errs}"


def test_final_time_is_exact():
    traj = integrate(_SYS, Phase.POST_FAULT, np.array([0.7, 0.1]), _P0, IntegrationOptions(t_max=3.7))
    assert traj.final_time == 3.7


# ── interpolation ─────────────────────────────────────────────────────────────


def test_state_at_returns_stored_nodes_exactly():
    traj = integrate(_SYS, Phase.POST_FAULT, np.array([0.7, 0.1]), _P0, IntegrationOptions(t_max=2.0))
    for i in (0, len(traj.times) // 2, -1):
        assert np.array_equal(state_at(traj, float(traj.times[i])), traj.states[i])


def test_state_at_matches_closed_form_between_nodes():
    x0 = np.array([math.asin(0.5), 0.0])
    traj = integrate(_SYS, Phase.FAULT_ON, x0, _P0, IntegrationOptions(t_max=0.5))
    for t_q in (0.123, 0.2371, 0.468):
        w = state_at(traj, t_q)[1]
        assert abs(w - _fault_speed(t_q)) <= 1e-6, f"interp at {t_q}: {w}"


def test_state_at_out_of_range():
    traj = integrate(_SYS, Phase.POST_FAULT, np.array([0.7, 0.1]), _P0, IntegrationOptions(t_max=1.0))
    with pytest.raises(OutOfRange):
        state_at(traj, 1.5)
    with pytest.raises(OutOfRange):
        state_at(traj, -0.2)


def _array_hermite(t, t0, y0, f0, t1, y1, f1):
    """The interpolant as one expression over whole arrays: the oracle of ``_hermite``."""
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


@pytest.mark.parametrize("width", [2, 14])
def test_hermite_equals_the_array_expression_bit_for_bit(width):
    # Width 14 is the augmented state of a sensitivity run of the machine.
    rng = np.random.default_rng(width)
    for _ in range(300):
        t0 = float(rng.uniform(-5.0, 5.0))
        t1 = t0 + float(rng.exponential(0.3)) + 1e-9
        y0, f0, y1, f1 = rng.normal(size=(4, width)) * rng.exponential(2.0, size=(4, 1))
        ends = [v.tolist() for v in (y0, f0, y1, f1)]
        for t in (t0, t1, float(rng.uniform(t0, t1))):
            got = integrator._hermite(t, t0, ends[0], ends[1], t1, ends[2], ends[3])
            assert got.tobytes() == _array_hermite(t, t0, y0, f0, t1, y1, f1).tobytes()


def test_state_at_equals_the_array_expression_bit_for_bit():
    opts = IntegrationOptions(t_max=2.0)
    plain = integrate(_SYS, Phase.FAULT_ON, np.array([0.5, 0.0]), _P0, opts)
    sens, _ = integrate_with_sensitivities(_SYS, Phase.POST_FAULT, np.array([1.0, 0.5]), _P0, opts)
    rng = np.random.default_rng(5)
    for traj in (plain, sens):
        times, states, derivs = traj.times, traj.states, traj.derivs
        for i in range(len(times) - 1):
            for t in (rng.uniform(times[i], times[i + 1]), 0.5 * (times[i] + times[i + 1])):
                expected = _array_hermite(
                    t, float(times[i]), states[i], derivs[i],
                    float(times[i + 1]), states[i + 1], derivs[i + 1],
                )
                assert state_at(traj, t).tobytes() == expected.tobytes()


# ── variational equations ─────────────────────────────────────────────────────


def test_sensitivities_start_from_identity_and_zero():
    _, bundle = integrate_with_sensitivities(
        _SYS, Phase.POST_FAULT, np.array([0.6, 0.2]), _P0, IntegrationOptions(t_max=0.3)
    )
    assert np.array_equal(bundle.phi_x[0], np.eye(2))
    assert np.array_equal(bundle.phi_p[0], np.zeros((2, 4)))


def test_linear_system_sensitivity_closed_form():
    """For x' = -a x, d x(t)/d x0 = exp(-a t) and d x(t)/d a = -t x(t)."""
    opts = IntegrationOptions(rel_tol=1e-12, abs_tol=1e-14, t_max=0.8)
    traj, bundle = integrate_with_sensitivities(
        _DECAY, Phase.PRE_FAULT, np.array([2.0]), np.array([1.3]), opts
    )
    t = 0.8
    assert abs(bundle.final_phi_x[0, 0] - math.exp(-1.3 * t)) < 1e-10
    assert abs(bundle.final_phi_p[0, 0] - (-t * 2.0 * math.exp(-1.3 * t))) < 1e-9


def test_trajectory_sensitivities_match_finite_differences():
    rng = np.random.default_rng(19)
    opts = IntegrationOptions(rel_tol=1e-11, abs_tol=1e-13, t_max=0.4)
    for phase in (Phase.FAULT_ON, Phase.POST_FAULT):
        for _ in range(4):
            x0 = rng.uniform([-0.5, -0.5], [1.2, 0.8])
            p = np.array([rng.uniform(0.3, 0.8), rng.uniform(0.08, 0.3), 2.0, 1.5])
            _, bundle = integrate_with_sensitivities(_SYS, phase, x0, p, opts)
            eps = 1e-6
            for j in range(2):
                e = np.zeros(2)
                e[j] = eps
                plus = integrate(_SYS, phase, x0 + e, p, opts).final_state
                minus = integrate(_SYS, phase, x0 - e, p, opts).final_state
                fd = (plus - minus) / (2 * eps)
                err = np.linalg.norm(bundle.final_phi_x[:, j] - fd) / max(np.linalg.norm(fd), 1.0)
                assert err <= 1e-3, f"phi_x col {j} off by {err:.2e} in {phase}"
            for j in range(2):  # Pm and M columns; limits give exact zeros
                e = np.zeros(4)
                e[j] = eps
                plus = integrate(_SYS, phase, x0, p + e, opts).final_state
                minus = integrate(_SYS, phase, x0, p - e, opts).final_state
                fd = (plus - minus) / (2 * eps)
                err = np.linalg.norm(bundle.final_phi_p[:, j] - fd) / max(np.linalg.norm(fd), 1.0)
                assert err <= 1e-3, f"phi_p col {j} off by {err:.2e} in {phase}"


def test_limit_parameters_have_exactly_zero_sensitivity():
    _, bundle = integrate_with_sensitivities(
        _SYS, Phase.POST_FAULT, np.array([0.6, 0.2]), _P0, IntegrationOptions(t_max=0.5)
    )
    assert np.all(bundle.phi_p[:, :, 2:] == 0.0)


def test_flow_composition_identity():
    """Phi_x over [0, t2] equals the product of the pieces over [0, t1], [t1, t2]."""
    opts = IntegrationOptions(rel_tol=1e-12, abs_tol=1e-14, t_max=0.6)
    x0 = np.array([0.8, -0.2])
    whole, bundle_whole = integrate_with_sensitivities(_SYS, Phase.POST_FAULT, x0, _P0, opts)
    opts1 = IntegrationOptions(rel_tol=1e-12, abs_tol=1e-14, t_max=0.25)
    leg1, bundle1 = integrate_with_sensitivities(_SYS, Phase.POST_FAULT, x0, _P0, opts1)
    opts2 = IntegrationOptions(rel_tol=1e-12, abs_tol=1e-14, t_max=0.35)
    _, bundle2 = integrate_with_sensitivities(
        _SYS, Phase.POST_FAULT, leg1.final_state, _P0, opts2
    )
    composed = bundle2.final_phi_x @ bundle1.final_phi_x
    rel = np.max(np.abs(composed - bundle_whole.final_phi_x)) / np.max(np.abs(composed))
    assert rel <= 1e-6, f"composition identity off by {rel:.2e}"


# ── events ────────────────────────────────────────────────────────────────────


# Every phase of the machine model carries the same two limits.
_LIMITS = _SYS.phases[Phase.POST_FAULT].constraints


def test_crossing_event_matches_closed_form_hit_time():
    p = np.array([0.5, 0.1, 2.0, 0.7])
    x0 = np.array([math.asin(0.5), 0.0])
    ev = EventConfig(constraints=_LIMITS)
    traj = integrate(_SYS, Phase.FAULT_ON, x0, p, IntegrationOptions(t_max=5.0), ev)
    hit = traj.first_event(EventKind.CONSTRAINT_CROSSING)
    t_exact = -(0.1 / 0.5) * math.log(1.0 - 0.5 * 0.7 / 0.5)
    assert hit is not None
    assert abs(hit.time - t_exact) <= 1e-8
    assert abs(p[3] - hit.state[1]) <= 1e-8, "speed margin not zero at the refined event"
    assert traj.final_time == hit.time, "terminal crossing must truncate the run"


def test_crossing_label_names_the_constraint():
    p = np.array([0.5, 0.1, 2.0, 0.7])
    ev = EventConfig(constraints=_LIMITS)
    traj = integrate(
        _SYS, Phase.FAULT_ON, np.array([math.asin(0.5), 0.0]), p, IntegrationOptions(t_max=5.0), ev
    )
    assert traj.events[0].info["constraint"] == "speed_limit"


def test_step_crossing_two_margins_reports_the_first():
    """A step past both margins leaves their product positive; the exit must still be seen."""
    ramp = system_from_expressions(
        ["x", "y"], ["a"],
        {ph: {"f": ["a", "a"], "h": {"hx": "1 - x", "hy": "1.01 - y"}}
         for ph in ("pre", "fault", "post")},
    )
    ev = EventConfig(constraints=ramp.phases[Phase.POST_FAULT].constraints)
    traj = integrate(
        ramp, Phase.POST_FAULT, np.zeros(2), np.array([1.0]), IntegrationOptions(t_max=3.0), ev
    )
    assert traj.events[0].kind is EventKind.CONSTRAINT_CROSSING
    assert traj.events[0].info["constraint"] == "hx"
    assert abs(traj.events[0].time - 1.0) <= 1e-8
    assert traj.final_time == traj.events[0].time


def test_infeasible_start_is_an_immediate_crossing():
    p = np.array([0.5, 0.1, 2.0, 0.7])
    ev = EventConfig(constraints=_LIMITS)
    # Past the speed limit only, then past both limits (product positive).
    for x0, label in (([0.5, 0.9], "speed_limit"), ([2.5, 0.9], "angle_limit")):
        traj = integrate(_SYS, Phase.POST_FAULT, np.array(x0), p, IntegrationOptions(t_max=5.0), ev)
        assert traj.events[0].kind is EventKind.CONSTRAINT_CROSSING
        assert traj.events[0].time == 0.0
        assert traj.events[0].info["constraint"] == label
        assert len(traj.times) == 1


def test_converged_to_sep_event():
    eq = find_equilibrium(_SYS, Phase.POST_FAULT, _P0, np.zeros(2))
    ev = EventConfig(sep_target=eq.x, sep_radius=1e-3)
    traj = integrate(_SYS, Phase.POST_FAULT, np.array([0.9, 0.3]), _P0, IntegrationOptions(t_max=20.0), ev)
    conv = traj.first_event(EventKind.CONVERGED_TO_SEP)
    assert conv is not None
    assert np.linalg.norm(conv.state - eq.x) <= 1e-3
    assert traj.final_time == conv.time


def test_sep_start_inside_ball_converges_at_zero():
    eq = find_equilibrium(_SYS, Phase.POST_FAULT, _P0, np.zeros(2))
    ev = EventConfig(sep_target=eq.x, sep_radius=1e-3)
    traj = integrate(_SYS, Phase.POST_FAULT, eq.x + 1e-5, _P0, IntegrationOptions(t_max=5.0), ev)
    assert traj.events[0].kind is EventKind.CONVERGED_TO_SEP
    assert traj.events[0].time == 0.0


def test_field_norm_minimum_near_unstable_equilibrium():
    # Launch just above the separatrix speed so the trajectory creeps past
    # the unstable equilibrium before escaping.
    uep = np.array([math.pi - math.asin(0.5), 0.0])
    ev = EventConfig(norm_min_threshold=math.inf)
    traj = integrate(
        _SYS, Phase.POST_FAULT, np.array([uep[0] - 0.3, 1.89051]), _P0,
        IntegrationOptions(t_max=6.0), ev,
    )
    mins = [e for e in traj.events if e.kind is EventKind.FIELD_NORM_LOCAL_MIN]
    assert mins, "no field-norm minima recorded"
    # Every interior discrete minimum must be matched by a refined event
    # that is at least as deep as the raw sample suggested.
    norms = np.array(
        [np.linalg.norm(np.asarray(_SYS.phases[Phase.POST_FAULT].f(x, _P0))) for x in traj.states]
    )
    for i in range(1, len(norms) - 1):
        if norms[i] < norms[i - 1] and norms[i] < norms[i + 1]:
            near = [
                e for e in mins if traj.times[i - 1] <= e.time <= traj.times[i + 1]
            ]
            assert near, f"discrete minimum at t = {traj.times[i]:.4f} has no event"
            assert min(e.info["f_norm"] for e in near) <= norms[i] + 1e-12
    best = min(mins, key=lambda e: e.info["f_norm"])
    assert np.linalg.norm(best.state - uep) < 0.1, "deepest minimum not near the other equilibrium"


def test_norm_min_threshold_filters_events():
    uep = np.array([math.pi - math.asin(0.5), 0.0])
    ev = EventConfig(norm_min_threshold=1e-2)
    traj = integrate(
        _SYS, Phase.POST_FAULT, uep + np.array([-0.35, 0.28]), _P0,
        IntegrationOptions(t_max=6.0), ev,
    )
    mins = [e for e in traj.events if e.kind is EventKind.FIELD_NORM_LOCAL_MIN]
    assert all(e.info["f_norm"] <= 1e-2 for e in mins)


def test_no_event_when_nothing_fires():
    ev = EventConfig(constraints=_LIMITS)
    traj = integrate(_SYS, Phase.POST_FAULT, np.array([0.6, 0.1]), _P0, IntegrationOptions(t_max=0.2), ev)
    assert traj.events == ()
    assert traj.final_time == 0.2


# ── field-norm floor ────────────────────────────────────────────────────────


def _windows(traj):
    """Every three consecutive accepted points of a run, as engine windows."""
    norms = np.linalg.norm(traj.derivs, axis=1).tolist()
    points = list(zip(traj.times.tolist(), traj.states, traj.derivs, norms))
    return [points[k - 1 : k + 2] for k in range(1, len(points) - 1)]


def _pieces(window, count=40):
    """Dense interpolated states on both Hermite pieces of a window."""
    (t_a, *_), _, (t_c, *_) = window
    return [integrator._window_state(window, t) for t in np.linspace(t_a, t_c, 2 * count + 1)]


def _floor_holds(window, field, jac_x, lip, p):
    """The floor lies below the refined minimum and every dense sample."""
    (t_a, *_), (_, y_b, *_), (t_c, *_) = window
    floor = integrator._norm_floor(window, jac_x, lip, p, len(y_b))
    d = integrator._excursion(window, len(y_b))
    _, v_star = integrator._refine_norm_min(
        lambda t: float(np.linalg.norm(field(integrator._window_state(window, t), p))),
        t_a, t_c, integrator._EVENT_REFINE_TOL,
    )
    dense = _pieces(window)
    return (
        v_star >= floor
        and all(np.linalg.norm(x - y_b) <= d for x in dense)
        and all(np.linalg.norm(field(x, p)) >= floor for x in dense)
    )


@pytest.mark.parametrize("params", [
    SmibParams(p_mech=0.5, inertia=0.1, delta_max=2.0, omega_max=1.5),
    SmibParams(p_mech=0.5, inertia=0.3, delta_max=50.0, omega_max=50.0),
    SmibParams(p_mech=0.5, inertia=0.25, delta_max=1.6, omega_max=0.9,
               coupling_pre=1.3, coupling_post=1.3),
])
def test_norm_floor_holds_on_windows_of_real_runs(params):
    system = smib_system(params)
    dyn = system.phases[Phase.POST_FAULT]
    p = params.p0
    starts = np.array([[2.7, 0.0], [0.0, 1.9], [-0.8, -1.2], [1.0, 0.8]])
    starts = starts[(starts[:, 0] < params.delta_max) & (starts[:, 1] < params.omega_max)]
    windows = [
        w
        for x0 in starts
        for w in _windows(integrate(system, Phase.POST_FAULT, x0, p, IntegrationOptions(t_max=8.0)))[::3]
    ]
    assert len(windows) > 50
    lip = dyn.jac_lipschitz(p)
    assert all(_floor_holds(w, dyn.f, dyn.jac_x, lip, p) for w in windows)


def _window_of(times, states, slopes):
    return [(t, np.array(y, dtype=float), np.array(f, dtype=float), float(np.linalg.norm(f)))
            for t, y, f in zip(times, states, slopes)]


def test_excursion_bound_is_attained():
    # All three points coincide and only the middle slope is nonzero: on
    # the later piece x - y_b = h s (1 - s)^2 f_b peaks at s = 1/3, at
    # exactly (4/27) h |f_b|.
    window = _window_of([0.0, 1.0, 3.0], [[0.0, 0.0]] * 3, [[0.0, 0.0], [0.6, 0.8], [0.0, 0.0]])
    d = integrator._excursion(window, 2)
    assert d == pytest.approx(4.0 / 27.0 * 2.0)
    peak = max(np.linalg.norm(x) for x in _pieces(window, count=300))
    assert peak <= d and peak == pytest.approx(d, rel=1e-4)


def _quadratic_field(x, p):
    # f = (1 - x1^2, 0): jac_x = [[-2 x1, 0], [0, 0]] vanishes at x1 = 0
    # and has the Lipschitz bound 2.
    return np.array([1.0 - x[0] ** 2, 0.0])


def _quadratic_jac(x, p):
    return np.array([[-2.0 * x[0], 0.0], [0.0, 0.0]])


def _linear_field(x, p):
    # f = A x + (1, 1) with A = [[1, 1], [1, 1]]: the Frobenius norm of A
    # is its spectral norm, 2, twice its largest entry.
    return np.array([1.0 + x[0] + x[1], 1.0 + x[0] + x[1]])


def _linear_jac(x, p):
    return np.ones((2, 2))


@pytest.mark.parametrize("field, jac_x, lip, states", [
    (_quadratic_field, _quadratic_jac, 2.0, [[-0.5, 0.0], [0.0, 0.0], [0.5, 0.0]]),
    (_linear_field, _linear_jac, 0.0, [[0.2, 0.2], [0.0, 0.0], [-0.2, -0.2]]),
])
def test_norm_floor_is_sharp(field, jac_x, lip, states):
    # Short steps between states whose field norm falls away from the
    # middle at the rate the floor allows: the floor holds and comes
    # within 2 % of the true minimum.
    p = np.zeros(1)
    window = _window_of([0.0, 0.01, 0.02], states, [field(np.array(y), p) for y in states])
    assert _floor_holds(window, field, jac_x, lip, p)
    floor = integrator._norm_floor(window, jac_x, lip, p, 2)
    lowest = min(np.linalg.norm(field(x, p)) for x in _pieces(window))
    assert lowest - floor < 0.02 * lowest


def test_norm_floor_leaves_every_run_bit_identical(monkeypatch):
    # Runs that watch minima come out the same with and without the bound,
    # row for row, and the bound skips most refinements in lockstep runs.
    params = SmibParams(p_mech=0.5, inertia=0.3, delta_max=50.0, omega_max=50.0)
    system = smib_system(params)
    post = system.phases[Phase.POST_FAULT]
    bare = replace(system, phases={**system.phases, Phase.POST_FAULT: replace(post, jac_lipschitz=None)})
    sep = np.array([math.asin(0.5), 0.0])
    ev = EventConfig(constraints=post.constraints, sep_target=sep, norm_min_threshold=1e-3)
    starts = np.array([[2.7, 0.0], [2.55, 0.0], [0.0, 3.0], [-1.0, 1.2], [1.0, -2.0]])
    opts = IntegrationOptions(t_max=20.0)
    singles = [_one_lane_runs(s, starts, params.p0, opts, ev) for s in (system, bare)]
    for k, (a, b) in enumerate(zip(*singles)):
        assert _same_run(a, b), f"run {k} changed"
    refinements = []
    real = integrator._refine_norm_min

    def counting(*args):
        refinements[-1] += 1
        return real(*args)

    monkeypatch.setattr(integrator, "_refine_norm_min", counting)
    runs = []
    for s in (system, bare):
        refinements.append(0)
        runs.append(integrate_lanes(s, Phase.POST_FAULT, starts, params.p0, opts, ev))
    for k, (a, b) in enumerate(zip(*runs)):
        assert _same_end(a, b), f"lane {k} changed"
    assert any(a.first_event(EventKind.FIELD_NORM_LOCAL_MIN) for a in runs[0])
    assert refinements[0] < refinements[1] / 2


def test_stop_at_min_ends_the_lane_at_the_step_end():
    uep = np.array([math.pi - math.asin(0.5), 0.0])
    x0 = np.array([uep[0] - 0.3, 1.89051])
    opts = IntegrationOptions(t_max=6.0)
    seen = []

    def stop(x_min, x_end):
        seen.append((x_min.copy(), x_end.copy()))
        return True

    plain = integrate(_SYS, Phase.POST_FAULT, x0, _P0, opts, EventConfig(norm_min_threshold=math.inf))
    never = integrate(_SYS, Phase.POST_FAULT, x0, _P0, opts,
                      EventConfig(norm_min_threshold=math.inf, stop_at_min=lambda a, b: False))
    assert _same_run(plain, never)
    cut = integrate(_SYS, Phase.POST_FAULT, x0, _P0, opts,
                    EventConfig(norm_min_threshold=math.inf, stop_at_min=stop))
    first = plain.first_event(EventKind.FIELD_NORM_LOCAL_MIN)
    assert [e.kind for e in cut.events] == [EventKind.FIELD_NORM_LOCAL_MIN]
    assert cut.events[0].time == first.time and np.array_equal(cut.events[0].state, first.state)
    n = len(cut.times)
    assert n < len(plain.times) and np.array_equal(cut.states, plain.states[:n])
    assert len(seen) == 1
    assert np.array_equal(seen[0][0], first.state) and np.array_equal(seen[0][1], cut.final_state)


# ── lanes ───────────────────────────────────────────────────────────────────

# The machine model plus a third state z' = log(1 + z): it stays at 0 from
# z = 0, and from z = -0.5 it runs into the domain edge of the logarithm.
_MACHINE_Z = system_from_expressions(
    ["d", "w", "z"], ["Pm", "M", "dmax", "wmax"],
    {ph: {"f": ["w", "(Pm - sin(d) - 0.5*w)/M", "log(1 + z)"],
          "h": {"angle_limit": "dmax - d", "speed_limit": "wmax - w"}}
     for ph in ("pre", "fault", "post")},
)


def _same_events(a, b):
    return len(a.events) == len(b.events) and all(
        x.time == y.time and x.kind is y.kind
        and np.array_equal(x.state, y.state) and x.info == y.info
        for x, y in zip(a.events, b.events)
    )


def _same_run(a, b):
    """Two one-lane runs agree row for row, or raised the same error."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return (
        np.array_equal(a.times, b.times)
        and np.array_equal(a.states, b.states)
        and np.array_equal(a.derivs, b.derivs)
        and _same_events(a, b)
    )


def _steps(run):
    return run.steps if isinstance(run, integrator.LaneEnd) else len(run.times) - 1


def _same_end(a, b):
    """Two runs, lanes or one-lane runs, end alike, or stopped with the same error."""
    if isinstance(a, Exception) or isinstance(b, Exception):
        return type(a) is type(b) and str(a) == str(b)
    return (
        a.final_time == b.final_time
        and np.array_equal(a.final_state, b.final_state)
        and _steps(a) == _steps(b)
        and _same_events(a, b)
    )


def _one_lane_runs(system, starts, p, opts, ev=None):
    """``integrate`` from each start, or the error it raised."""
    runs = []
    for x0 in starts:
        try:
            runs.append(integrate(system, Phase.POST_FAULT, x0, p, opts, ev))
        except (NumericalBlowup, StiffnessFailure) as exc:
            runs.append(exc)
    return runs


@pytest.mark.bit_identity
def test_lanes_equal_their_one_lane_runs():
    p = np.array([0.5, 0.1, 3.0, 1.95])
    uep = math.pi - math.asin(0.5)
    ev = EventConfig(
        constraints=_MACHINE_Z.phases[Phase.POST_FAULT].constraints,
        sep_target=np.array([math.asin(0.5), 0.0, 0.0]), sep_radius=1e-2,
        norm_min_threshold=0.05,
    )
    starts = np.array([
        [2.5, 1.5, 0.0],           # crosses the angle limit inside a step
        [0.6, 0.05, 0.0],          # enters the SEP ball
        [uep - 0.3, 1.89051, 0.0],  # creeps past the unstable equilibrium
        [0.5, 2.5, 0.0],           # starts past the speed limit
        [0.6, 0.05, -0.5],         # its field goes non-finite
        [0.53, 0.005, 0.0],        # starts in the SEP ball
    ])
    opts = IntegrationOptions(t_max=6.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        lanes = integrate_lanes(_MACHINE_Z, Phase.POST_FAULT, starts, p, opts, ev)
        singles = _one_lane_runs(_MACHINE_Z, starts, p, opts, ev)
    for k, (lane, single) in enumerate(zip(lanes, singles)):
        assert _same_end(lane, single), f"lane {k} differs from its one-lane run"

    cross, sep, creep, outside, blowup, inside = lanes
    hit = cross.events[0]
    assert hit.kind is EventKind.CONSTRAINT_CROSSING and hit.info["constraint"] == "angle_limit"
    assert singles[0].times[-2] < hit.time == cross.final_time
    assert [e.kind for e in sep.events] == [EventKind.CONVERGED_TO_SEP]
    assert creep.first_event(EventKind.FIELD_NORM_LOCAL_MIN) is not None
    assert outside.events[0].time == 0.0 and len(singles[3].times) == 1
    assert isinstance(blowup, NumericalBlowup)
    assert "non-finite near t" in str(blowup)
    assert [e.kind for e in inside.events] == [EventKind.CONVERGED_TO_SEP]
    assert inside.events[0].time == 0.0 and len(singles[5].times) == 1


@pytest.mark.bit_identity
def test_unlocated_crossings_end_at_the_step_that_crosses():
    """Without its root sought, a crossing ends its lane at that step end."""
    p = np.array([0.5, 0.1, 3.0, 1.95])
    uep = math.pi - math.asin(0.5)
    constraints = _MACHINE_Z.phases[Phase.POST_FAULT].constraints
    located = EventConfig(
        constraints=constraints, sep_target=np.array([math.asin(0.5), 0.0, 0.0]),
        sep_radius=1e-2, norm_min_threshold=0.05,
    )
    unlocated = replace(located, locate_crossings=False)
    starts = np.array([
        [2.5, 1.5, 0.0],           # crosses the angle limit inside a step
        [0.6, 0.05, 0.0],          # enters the SEP ball
        [uep - 0.3, 1.89051, 0.0],  # outlives every other lane, to t_max
        [0.5, 2.5, 0.0],           # starts past the speed limit
        [0.6, 0.05, -0.5],         # its field goes non-finite
        [0.53, 0.005, 0.0],        # starts in the SEP ball
        [-1.0, 1.8, 0.0],          # crosses the speed limit in its third step
    ])
    opts = IntegrationOptions(t_max=6.0)
    with np.errstate(invalid="ignore", divide="ignore"):
        lanes = integrate_lanes(_MACHINE_Z, Phase.POST_FAULT, starts, p, opts, unlocated)
        singles = _one_lane_runs(_MACHINE_Z, starts, p, opts, unlocated)
        refined = _one_lane_runs(_MACHINE_Z, starts, p, opts, located)
    for k, (lane, single) in enumerate(zip(lanes, singles)):
        assert _same_end(lane, single), f"lane {k} differs from its one-lane run"
    crossing = (0, 6)
    assert lanes[2].final_time == opts.t_max > max(lanes[k].final_time for k in crossing)
    for k, (lane, root) in enumerate(zip(lanes, refined)):
        if k not in crossing:
            assert _same_end(lane, root), f"lane {k} depends on root finding"
    for k in crossing:
        lane, single, root = lanes[k], singles[k], refined[k]
        (hit,) = lane.events
        assert hit.kind is EventKind.CONSTRAINT_CROSSING
        assert hit.time == lane.final_time and np.array_equal(hit.state, lane.final_state)
        margins = [c.value(hit.state, p) for c in constraints]
        assert min(margins) <= 0.0
        assert hit.info["constraint"] == constraints[int(np.argmin(margins))].name
        assert lane.steps == _steps(root)
        # The runs agree up to the last step, in which the refined root lies.
        assert np.array_equal(single.states[:-1], root.states[:-1])
        (root_hit,) = root.events
        assert single.times[-2] < root_hit.time < hit.time
        assert root_hit.info == hit.info


@pytest.mark.bit_identity
def test_lanes_equal_their_one_lane_runs_with_powers():
    # A cubic spring: the field raises the state to a power, which one
    # state and a column batch must round alike.
    duffing = system_from_expressions(
        ["x1", "x2"], ["a"],
        {ph: {"f": ["x2", "-a*x1**3 - 0.3*x2"]} for ph in ("pre", "fault", "post")},
    )
    p = np.array([1.0])
    starts = np.random.default_rng(0).uniform(-1.5, 1.5, size=(20, 2))
    opts = IntegrationOptions(t_max=5.0)
    lanes = integrate_lanes(duffing, Phase.POST_FAULT, starts, p, opts)
    for k, (lane, x0) in enumerate(zip(lanes, starts)):
        single = integrate(duffing, Phase.POST_FAULT, x0, p, opts)
        assert _same_end(lane, single), f"lane {k} differs from its one-lane run"


# The swing machine as the benchmark's ``study`` workload writes it
# (EXPRESSION_SMIB in bench/workloads.py).
_TWIN_LIMITS = {"angle_limit": "delta_max - delta", "speed_limit": "omega_max - omega"}
_BENCH_TWIN = system_from_expressions(
    ["delta", "omega"], ["Pm", "M", "delta_max", "omega_max"],
    {
        "pre": {"f": ["omega", "(Pm - sin(delta) - 0.5*omega)/M"], "h": _TWIN_LIMITS},
        "fault": {"f": ["omega", "(Pm - 0.5*omega)/M"], "h": _TWIN_LIMITS},
        "post": {"f": ["omega", "(Pm - sin(delta) - 0.5*omega)/M"], "h": _TWIN_LIMITS},
    },
)


def _replaying(stages, lane=None):
    """A field that returns the given stages in turn and records its inputs.

    ``stages`` has shape (7, m, K); the field hands out stages 1 to 6 as
    a column batch, or as lists of floats of one ``lane``.
    """
    calls = []

    def field(x, *_):
        calls.append(np.array(x, dtype=float))
        k = stages[len(calls)]
        return k if lane is None else k[:, lane].tolist()

    return field, calls


@pytest.mark.bit_identity
@pytest.mark.parametrize("width", [1, 2, 3, 7, 8, 13])
def test_float_stage_sums_equal_the_stage_major_reduce(width):
    # Stages of random sign and of sizes 1e-3 to 1e3: every stage state,
    # end state and error vector that _float_step sums on floats equals
    # its lane's column of _dp_step's stage-major batch.
    rng = np.random.default_rng(width)
    lanes = 40
    size = (7, width, lanes)
    k = rng.choice([-1.0, 1.0], size=size) * 10.0 ** rng.uniform(-3.0, 3.0, size=size)
    y = rng.normal(size=(width, lanes))
    h = 10.0 ** rng.uniform(-4.0, -0.6, size=lanes)
    batch_field, batch_calls = _replaying(k)
    batch = integrator._dp_step(batch_field, _P0, y, k[0], h)
    for a in range(lanes):
        field, calls = _replaying(k, a)
        lone = integrator._float_step(field, None, y[:, a].tolist(), k[0][:, a].tolist(), float(h[a]))
        for got, want in zip(calls, batch_calls):
            assert np.array_equal(got, want[:, a]), a
        for got, want in zip(lone, batch):
            assert np.array_equal(got, want[:, a]), a


@pytest.mark.bit_identity
@pytest.mark.parametrize("system", [_SYS, _BENCH_TWIN], ids=["machine", "expressions"])
def test_lone_step_equals_the_batch_rows(system):
    # The float kernel on the field's one-state float entry equals every
    # lane of the stage-major batch on its column batches.
    rhs = system.phases[Phase.POST_FAULT].f
    field, ps = integrator._float_field(rhs, _P0)
    rng = np.random.default_rng(11)
    for lanes in (1, 3, 64):
        y = rng.uniform([-3.0, -5.0], [3.0, 5.0], size=(lanes, 2)).T.copy()
        h = 10.0 ** rng.uniform(-4.0, -0.6, size=lanes)
        f = rhs(y, _P0)
        batch = integrator._dp_step(rhs, _P0, y, f, h)
        for a in range(lanes):
            lone = integrator._float_step(field, ps, y[:, a].tolist(), f[:, a].tolist(), float(h[a]))
            for got, want in zip(lone, batch):
                assert np.array_equal(got, want[:, a]), (lanes, a)


# Finite floats of every size: zeros, subnormals and values near 1e+-300
# are drawn on purpose besides hypothesis's own.
_ANY_FLOAT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-308, 1e-300, -1e300, 1.7e308]),
    st.floats(min_value=1e299, max_value=1e301),
    st.floats(min_value=1e-301, max_value=1e-299),
)
_TOLS = st.sampled_from([(1e-10, 1e-8), (1e-12, 1e-10), (1e-6, 1e-3), (1.0, 0.0)])


@pytest.mark.bit_identity
@settings(max_examples=400, deadline=None)
@given(st.data(), st.integers(1, 13), _TOLS)
def test_lone_error_norm_equals_the_batch_row(data, width, tols):
    # Three lanes' (y, y_new, err) of one width: each lane's norm on its
    # own equals its column of the batch's _error_norms, bit for bit.
    abs_tol, rel_tol = tols
    y, y_new, err = (
        np.array(data.draw(st.lists(st.lists(_ANY_FLOAT, min_size=width, max_size=width),
                                    min_size=3, max_size=3)))
        for _ in range(3)
    )
    with np.errstate(over="ignore"):
        batch = integrator._error_norms(y.T, y_new.T, err.T, abs_tol, rel_tol)
        for a in range(3):
            lone = integrator._lone_error_norm(y[a], y_new[a], err[a], abs_tol, rel_tol)
            assert lone == batch[a]


@pytest.mark.bit_identity
@pytest.mark.parametrize("width", [1, 7, 8, 13])
@pytest.mark.parametrize("lanes", [1, 2, 3, 64])
def test_lane_norms_equal_the_float_norms(width, lanes):
    # Each lane's norm and root mean square in a batch equal those of
    # the lane on its own, summed left to right on floats, in either
    # memory layout of the batch.
    v = np.random.default_rng(width * lanes).normal(size=(width, lanes))
    for batch in (v, np.asfortranarray(v)):
        norms, rms = integrator._norm_lanes(batch), integrator._rms_lanes(batch)
        for a, column in enumerate(v.T.tolist()):
            assert norms[a] == integrator._norm(column)
            assert rms[a] == integrator._lone_error_norm([0.0] * width, [0.0] * width, column, 1.0, 0.0)


@pytest.mark.parametrize("width", range(1, 14))
def test_lone_error_norm_sums_on_floats_below_eight_entries(monkeypatch, width):
    # A lone lane's error norm is summed on floats at every width: the
    # batch sums its rows left to right too, eight or more of them alike.
    calls = []
    rms_lanes = integrator._rms_lanes
    monkeypatch.setattr(integrator, "_rms_lanes", lambda v: calls.append(v.shape) or rms_lanes(v))
    rng = np.random.default_rng(width)
    y, y_new, err = rng.normal(size=(3, width)).tolist()
    integrator._lone_error_norm(y, y_new, err, 1e-10, 1e-8)
    assert calls == []


def test_lone_error_norm_is_none_when_not_finite():
    y, ok = np.zeros(3), np.ones(3)
    for bad in (np.array([1.0, math.inf, 0.0]), np.array([math.nan, 0.0, 0.0])):
        assert integrator._lone_error_norm(y, bad, ok, 1e-10, 1e-8) is None
        assert integrator._lone_error_norm(y, ok, bad, 1e-10, 1e-8) is None


def _chain(width):
    """Coupled damped oscillators of ``width`` states in all.

    ``width - 2`` states form a chain of oscillators (q_j, v_j), coupled
    by c, with a first-order tail r when that count is odd; then
    z' = log(1 + z), which goes non-finite from z = -0.5, and u' = u**2,
    which escapes in finite time from u = 1.  q0 is limited by qmax.
    """
    pairs = (width - 2) // 2
    states, f = [], []
    for j in range(pairs):
        left = f" + c*(q{j - 1} - q{j})" if j else ""
        right = f" + c*(q{j + 1} - q{j})" if j + 1 < pairs else ""
        states += [f"q{j}", f"v{j}"]
        f += [f"v{j}", f"-q{j} - 0.4*v{j}{left}{right}"]
    if (width - 2) % 2:
        states.append("r")
        f.append(f"q{pairs - 1} - r")
    states += ["z", "u"]
    f += ["log(1 + z)", "u**2"]
    return system_from_expressions(
        states, ["c", "qmax"],
        {ph: {"f": f, "h": {"q0_limit": "qmax - q0"}} for ph in ("pre", "fault", "post")},
    )


@pytest.mark.bit_identity
@pytest.mark.parametrize("width", [7, 8])
def test_lanes_equal_their_one_lane_runs_on_both_sides_of_the_float_sum(width):
    # From eight states on, numpy would sum a reduce over the states
    # pairwise in some layouts.  In each batch of three, one lane outlives
    # the other two and finishes alone, so the run switches to the
    # lone-lane step mid-run.
    system = _chain(width)
    p = np.array([0.3, 1.0])
    ev = EventConfig(
        constraints=system.phases[Phase.POST_FAULT].constraints,
        sep_target=np.zeros(width), sep_radius=0.05, norm_min_threshold=0.05,
    )
    opts = IntegrationOptions(t_max=8.0)

    def start(q0, v0, z=0.0, u=0.0):
        x = np.zeros(width)
        x[0], x[1], x[-2], x[-1] = q0, v0, z, u
        return x

    cross, converge, inside = start(0.95, 1.0), start(0.1, 0.0), start(0.01, 0.0)
    batches = {
        "outlives": [cross, converge, start(0.6, 0.0)],
        "blowup": [cross, inside, start(0.2, 0.0, z=-0.5)],
        "escape": [cross, inside, start(0.2, 0.0, u=1.0)],
    }
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        for name, starts in batches.items():
            lanes = integrate_lanes(system, Phase.POST_FAULT, np.array(starts), p, opts, ev)
            singles = _one_lane_runs(system, starts, p, opts, ev)
            for k, (lane, single) in enumerate(zip(lanes, singles)):
                assert _same_end(lane, single), f"{name}: lane {k} differs from its one-lane run"
            lone = lanes[2]
            if name == "outlives":
                assert lone.final_time == 8.0 and not lone.events
                assert lone.steps > lanes[1].steps > lanes[0].steps > 0
            else:
                assert lanes[0].final_time < 0.1 and lanes[1].steps == 0
                error, says = (
                    (NumericalBlowup, "non-finite near t")
                    if name == "blowup" else (StiffnessFailure, "underflowed")
                )
                assert type(lone) is error and says in str(lone)


def _swing_chain(machines):
    """``machines`` swing machines in a chain, each coupled to its neighbours by c.

    Every angle at asin(Pm) with every speed 0 is an equilibrium; the
    first machine's angle is limited by dmax.
    """
    states, f = [], []
    for j in range(machines):
        coupling = "".join(f" - c*sin(d{j} - d{i})" for i in (j - 1, j + 1) if 0 <= i < machines)
        states += [f"d{j}", f"w{j}"]
        f += [f"w{j}", f"(Pm - sin(d{j}){coupling} - 0.5*w{j})/M"]
    return system_from_expressions(
        states, ["Pm", "M", "c", "dmax"],
        {ph: {"f": f, "h": {"angle_limit": "dmax - d0"}} for ph in ("pre", "fault", "post")},
    )


@pytest.mark.bit_identity
@pytest.mark.parametrize("lanes", [1, 2, 3])
def test_lanes_equal_their_one_lane_runs_on_eight_states(lanes):
    # Four machines, eight states: numpy sums a reduce over eight or more
    # states pairwise in some layouts and lane counts, so every sum over
    # the states must be taken in one order.
    system = _swing_chain(4)
    p = np.array([0.5, 0.2, 0.5, 2.0])
    sep = np.tile([math.asin(0.5), 0.0], 4)
    ev = EventConfig(
        constraints=system.phases[Phase.POST_FAULT].constraints,
        sep_target=sep, sep_radius=0.05, norm_min_threshold=0.05,
    )
    starts = [sep.copy() for _ in range(3)]
    starts[0][1] = 8.0   # the first machine swings past its angle limit
    starts[1][3] = 0.5   # the second settles into the SEP ball
    starts[2][5] = 4.0   # the third is still swinging at the horizon
    # Every component off its equilibrium value, so no sum over the
    # states is exact.
    starts = np.array(starts[:lanes]) + np.random.default_rng(8).normal(scale=0.01, size=(lanes, 8))
    opts = IntegrationOptions(t_max=3.0)
    ends = integrate_lanes(system, Phase.POST_FAULT, starts, p, opts, ev)
    singles = _one_lane_runs(system, starts, p, opts, ev)
    for k, (lane, single) in enumerate(zip(ends, singles)):
        assert _same_end(lane, single), f"lane {k} differs from its one-lane run"
    kinds = [[e.kind for e in end.events] for end in ends]
    assert kinds[0][-1] is EventKind.CONSTRAINT_CROSSING
    if lanes > 1:
        assert kinds[1] == [EventKind.CONVERGED_TO_SEP]
    if lanes > 2:
        assert ends[2].final_time == opts.t_max > max(end.final_time for end in ends[:2])


def test_lane_memory_does_not_grow_with_the_horizon():
    # A lockstep run keeps where each lane ended, not its accepted points:
    # ten times the horizon, and more than three times the steps, leave
    # the peak flat.
    starts = np.column_stack([np.linspace(-0.5, 1.5, 64), np.linspace(1.0, -1.0, 64)])

    def peak(t_max):
        opts = IntegrationOptions(t_max=t_max)
        integrate_lanes(_SYS, Phase.POST_FAULT, starts, _P0, opts)
        tracemalloc.start()
        try:
            ends = integrate_lanes(_SYS, Phase.POST_FAULT, starts, _P0, opts)
            return ends, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    (short, short_peak), (long, long_peak) = peak(10.0), peak(100.0)
    assert long_peak <= 1.5 * short_peak, (short_peak, long_peak)
    assert all(end.final_time == 100.0 for end in long)
    assert sum(end.steps for end in long) > 3 * sum(end.steps for end in short)


def test_lanes_take_an_empty_batch_and_check_shapes():
    assert integrate_lanes(_SYS, Phase.POST_FAULT, np.zeros((0, 2)), _P0) == []
    with pytest.raises(DimensionMismatch):
        integrate_lanes(_SYS, Phase.POST_FAULT, np.zeros(2), _P0)


# ── failure modes ─────────────────────────────────────────────────────────────

_GROW = system_from_expressions(
    ["x"], ["a"], {ph: {"f": ["a * x**2"]} for ph in ("pre", "fault", "post")}
)


def test_finite_time_escape_raises_stiffness_failure():
    with pytest.raises(StiffnessFailure):
        integrate(_GROW, Phase.PRE_FAULT, np.array([1.0]), np.array([1.0]), IntegrationOptions(t_max=2.0))


def test_nonfinite_field_raises_blowup():
    with np.errstate(over="ignore"), pytest.raises(NumericalBlowup):
        integrate(_GROW, Phase.PRE_FAULT, np.array([1e200]), np.array([1.0]), IntegrationOptions(t_max=1.0))


def test_wrong_state_length_raises_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        integrate(_SYS, Phase.POST_FAULT, np.zeros(3), _P0)
    with pytest.raises(DimensionMismatch):
        integrate_with_sensitivities(_SYS, Phase.POST_FAULT, np.zeros(3), _P0)


def test_options_validation():
    with pytest.raises(ValueError):
        IntegrationOptions(rel_tol=-1e-8)
    with pytest.raises(ValueError):
        IntegrationOptions(t_max=0.0)
