"""Critical clearing time search: modes, brackets, failure paths.

During the fault the machine obeys M omega' = Pm - D omega with the
angle following along, so the speed-boundary hit time has the closed
form t_hit = -(M/D) ln(1 - D omega_max / Pm) and the angle at the hit
is delta_s + (Pm/D) (t + (M/D)(e^{-D t/M} - 1)).  Those formulas are
the oracles for the fault-boundary mode.
"""

import math
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import cctsens.cct as cct_mod
from cctsens.model import _LOOSE_FACTOR, _attraction_radius
from cctsens import (
    BracketCollapse,
    CctOptions,
    EmptyCombinedBoundary,
    EventKind,
    InconclusiveRun,
    InstabilityMode,
    IntegrationOptions,
    NoEquilibriumFound,
    NoFiniteCct,
    Phase,
    SmibParams,
    cct_sensitivity,
    classify_post_fault,
    classify_post_faults,
    clearing_outcome,
    compute_cct,
    eval_H,
    integrate,
    integrate_lanes,
    smib_system,
    system_from_expressions,
)
from cctsens.cli import build_system, load_config

_D = 0.5


def _fault_hit_time(pm, m, omega_max):
    return -(m / _D) * math.log(1.0 - _D * omega_max / pm)


def _fault_angle(pm, m, t):
    return math.asin(pm) + (pm / _D) * (t + (m / _D) * (math.exp(-_D * t / m) - 1.0))


def _fault_angle_hit_time(pm, m, delta_max):
    lo, hi = 0.0, 100.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _fault_angle(pm, m, mid) < delta_max:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# Fault-boundary configuration: the speed limit is reached while every
# earlier clearing still recovers.
_P1 = SmibParams(p_mech=0.65, inertia=0.1, delta_max=2.0, omega_max=0.7)
# Post-fault-crossing configuration: enough inertia that the swing
# after a feasible clearing can still reach the angle limit.
_P2 = SmibParams(p_mech=0.5, inertia=0.5, delta_max=1.6, omega_max=0.9)
# No-return configuration: limits so wide the boundary never matters.
_P3 = SmibParams(p_mech=0.5, inertia=0.3, delta_max=50.0, omega_max=50.0)


@pytest.fixture(scope="module")
def mode1_result():
    return compute_cct(smib_system(_P1), _P1.p0)


@pytest.fixture(scope="module")
def mode2_result():
    return compute_cct(smib_system(_P2), _P2.p0)


_OPTS3 = CctOptions(bisection_tol=1e-6, integration=IntegrationOptions(t_max=40.0))


@pytest.fixture(scope="module")
def mode3_result():
    return compute_cct(smib_system(_P3), _P3.p0, _OPTS3)


class TestFaultBoundaryMode:
    def test_mode(self, mode1_result):
        assert mode1_result.mode is InstabilityMode.FAULT_BOUNDARY
        assert mode1_result.mode == 1

    def test_critical_time_matches_closed_form(self, mode1_result):
        t_hit = _fault_hit_time(0.65, 0.1, 0.7)
        assert mode1_result.t_cl == pytest.approx(t_hit, rel=1e-7)
        assert mode1_result.fault_hit_time == mode1_result.t_cl

    def test_closed_form_recovered_at_tight_tolerances(self):
        opts = CctOptions(
            integration=IntegrationOptions(rel_tol=1e-11, abs_tol=1e-13)
        )
        res = compute_cct(smib_system(_P1), _P1.p0, opts)
        assert res.t_cl == pytest.approx(_fault_hit_time(0.65, 0.1, 0.7), abs=1e-9)

    def test_clearing_state_on_boundary(self, mode1_result):
        np.testing.assert_allclose(
            mode1_result.x_cr,
            [_fault_angle(0.65, 0.1, mode1_result.t_cl), 0.7],
            atol=1e-7,
        )

    def test_crossing_label(self, mode1_result):
        assert mode1_result.crossing_label == "speed_limit"

    def test_hit_seen_when_one_step_passes_both_limits(self):
        # The angle limit is reached at 1.8177 and the speed limit at
        # 1.8309, inside one step of the sustained-fault run.
        params = SmibParams(p_mech=0.47111, inertia=0.294804, delta_max=1.673151, omega_max=0.9)
        res = compute_cct(smib_system(params), params.p0, CctOptions(bisection_tol=1e-4))
        t_angle = _fault_angle_hit_time(0.47111, 0.294804, 1.673151)
        assert res.fault_hit_time == pytest.approx(t_angle, abs=1e-6)
        assert res.bracket_history[0] == (0.0, res.fault_hit_time)

    def test_no_interior_instability(self, mode1_result):
        assert mode1_result.mode is InstabilityMode.FAULT_BOUNDARY
        assert mode1_result.x_T is None and mode1_result.T is None

    def test_bracket_converged(self, mode1_result):
        assert mode1_result.t_hi - mode1_result.t_lo <= 0.01
        assert mode1_result.t_lo < mode1_result.t_cl <= mode1_result.t_hi


class TestPostFaultCrossingMode:
    def test_mode(self, mode2_result):
        assert mode2_result.mode is InstabilityMode.POST_FAULT_CROSSING

    def test_fault_hit_reported_but_not_critical(self, mode2_result):
        # With this much inertia the angle limit is what the sustained
        # fault reaches first.
        t_hit = _fault_angle_hit_time(0.5, 0.5, 1.6)
        assert mode2_result.fault_hit_time == pytest.approx(t_hit, rel=1e-7)
        assert mode2_result.fault_hit_state[0] == pytest.approx(1.6, abs=1e-8)
        assert mode2_result.t_cl < t_hit - 0.1

    def test_decisive_event_is_a_crossing(self, mode2_result):
        assert mode2_result.T == mode2_result.t1 < math.inf
        assert mode2_result.crossing_label == "angle_limit"

    def test_crossing_state_on_angle_boundary(self, mode2_result):
        assert mode2_result.x_T[0] == pytest.approx(1.6, abs=1e-7)
        assert abs(mode2_result.x_T[1]) < 0.3

    def test_graze_approaches_tangency_as_bracket_tightens(self):
        opts = CctOptions(bisection_tol=1e-4)
        res = compute_cct(smib_system(_P2), _P2.p0, opts)
        assert res.mode is InstabilityMode.POST_FAULT_CROSSING
        assert res.x_T[0] == pytest.approx(1.6, abs=1e-7)
        assert abs(res.x_T[1]) < 0.05

    def test_bracket_history_is_monotone_and_nested(self, mode2_result):
        los = [lo for lo, _ in mode2_result.bracket_history]
        his = [hi for _, hi in mode2_result.bracket_history]
        assert all(a <= b for a, b in zip(los, los[1:]))
        assert all(a >= b for a, b in zip(his, his[1:]))
        assert all(lo < hi for lo, hi in mode2_result.bracket_history)
        assert mode2_result.bracket_history[-1] == (mode2_result.t_lo, mode2_result.t_hi)

    def test_bracket_endpoints_verified_by_direct_clearing(self, mode2_result):
        assert clearing_outcome(smib_system(_P2), _P2.p0, mode2_result.t_lo).stable
        assert not clearing_outcome(smib_system(_P2), _P2.p0, mode2_result.t_hi).stable

    def test_deterministic(self, mode2_result):
        again = compute_cct(smib_system(_P2), _P2.p0)
        assert again.t_cl == mode2_result.t_cl
        assert again.bracket_history == mode2_result.bracket_history

    def test_reverify_passes_on_clean_bracket(self):
        res = compute_cct(smib_system(_P2), _P2.p0, CctOptions(reverify=True))
        assert res.mode is InstabilityMode.POST_FAULT_CROSSING


class TestNoReturnMode:
    def test_mode(self, mode3_result):
        assert mode3_result.mode is InstabilityMode.NO_RETURN
        assert mode3_result.mode == 3

    def test_capture_decides(self, mode3_result):
        assert mode3_result.T == mode3_result.t2 < mode3_result.t1
        assert mode3_result.crossing_label is None

    def test_capture_near_competing_equilibrium(self, mode3_result):
        # At a tight bracket the just-unstable run stalls at the saddle
        # between basins before drifting on.
        uep = np.array([math.pi - math.asin(0.5), 0.0])
        assert np.linalg.norm(mode3_result.x_T - uep) < 0.05

    def test_no_fault_hit(self, mode3_result):
        assert mode3_result.fault_hit_time is None
        assert mode3_result.fault_hit_state is None

    def test_critical_time_flips_direct_clearing(self, mode3_result):
        sys3 = smib_system(_P3)
        assert clearing_outcome(sys3, _P3.p0, mode3_result.t_cl - 0.01, _OPTS3).stable
        assert not clearing_outcome(
            sys3, _P3.p0, mode3_result.t_cl + 0.01, _OPTS3
        ).stable


class TestClassifyPostFault:
    _SYS = smib_system(_P2)
    _SEP = np.array([math.asin(0.5), 0.0])
    _H_REF = (1.6 - math.asin(0.5)) * 0.9

    def test_infeasible_clearing_short_circuits(self):
        x = np.array([2.0, 0.0])
        cls = classify_post_fault(self._SYS, _P2.p0, x, self._SEP, self._H_REF, CctOptions())
        assert not cls.stable
        assert cls.t1 == 0.0 and cls.T == 0.0
        assert cls.crossing_label == "angle_limit"
        assert eval_H(self._SYS, Phase.POST_FAULT, x, _P2.p0) / self._H_REF < 0.0

    def test_barely_feasible_clearing_counts_as_on_boundary(self):
        x = np.array([1.6 - 1e-9, 0.5])
        cls = classify_post_fault(
            self._SYS, _P2.p0, x, self._SEP, self._H_REF, CctOptions()
        )
        assert not cls.stable and cls.t1 == 0.0
        assert 0.0 < eval_H(self._SYS, Phase.POST_FAULT, x, _P2.p0) / self._H_REF < 1e-5

    def test_small_perturbation_converges(self, monkeypatch):
        runs = _recorded_runs(monkeypatch)
        cls = classify_post_fault(
            self._SYS, _P2.p0, self._SEP + [0.2, 0.1], self._SEP, self._H_REF,
            CctOptions(),
        )
        assert cls.stable and _entered_the_ball(runs)
        assert cls.t1 == math.inf and math.isinf(cls.T)

    def test_capture_ignored_when_run_recovers(self, monkeypatch):
        # At rest just inside the saddle the run slides back to the
        # SEP; field-norm dips near the SEP are part of convergence.
        sys3 = smib_system(_P3)
        runs = _recorded_runs(monkeypatch)
        cls = classify_post_fault(
            sys3, _P3.p0, np.array([2.55, 0.0]), self._SEP,
            (50.0 - math.asin(0.5)) * 50.0, CctOptions(),
        )
        assert cls.stable and _entered_the_ball(runs)

    def test_escape_captured_at_competing_equilibrium(self):
        sys3 = smib_system(_P3)
        cls = classify_post_fault(
            sys3, _P3.p0, np.array([2.7, 0.0]), self._SEP,
            (50.0 - math.asin(0.5)) * 50.0, CctOptions(),
        )
        assert not cls.stable
        assert cls.T == cls.t2 < math.inf
        assert cls.f_norm_min is not None and cls.f_norm_min <= 1e-3
        assert np.linalg.norm(cls.x_T - self._SEP) > 1.0

    def _saddle_return_verdicts(self, t_maxes):
        # The run stalls at the saddle (a capture near t = 4.5) and enters
        # the SEP's certified ball near t = 16.9.
        sys3 = smib_system(_P3)
        h_ref = (50.0 - math.asin(0.5)) * 50.0
        return [
            classify_post_fault(
                sys3, _P3.p0, np.array([0.0, 5.52713]), self._SEP, h_ref,
                CctOptions(integration=IntegrationOptions(t_max=t_max)),
            ).stable
            for t_max in t_maxes
        ]

    def test_saddle_return_verdict_does_not_depend_on_the_horizon(self):
        assert self._saddle_return_verdicts((20.0, 30.0)) == [True, True]

    @pytest.mark.xfail(
        strict=True, raises=AssertionError,
        reason="a run captured at the saddle that reaches the certified ball after t_max is called no-return",
    )
    def test_saddle_return_verdict_at_a_horizon_before_the_ball(self):
        stable = self._saddle_return_verdicts((15.0, 30.0))
        assert stable[0] == stable[1]

    def test_short_horizon_is_inconclusive(self):
        opts = CctOptions(integration=IntegrationOptions(t_max=0.2))
        with pytest.raises(InconclusiveRun):
            classify_post_fault(
                self._SYS, _P2.p0, np.array([1.2, 0.6]), self._SEP,
                self._H_REF, opts,
            )

    @pytest.mark.bit_identity
    def test_lanes_equal_their_one_lane_verdicts(self):
        sys3 = smib_system(_P3)
        h_ref = (50.0 - math.asin(0.5)) * 50.0
        # Captures come after t = 14; t_max = 16 leaves the start nearest
        # the saddle still wandering.
        opts = replace(_OPTS3, integration=IntegrationOptions(t_max=16.0))
        starts = np.array([
            self._SEP + [0.2, 0.1],  # converges
            [50.0 - 1e-9, 0.5],      # inside the band: t1 = 0, no run
            [49.5, 5.0],             # crosses the angle limit
            [2.62, 0.0],             # inconclusive at t_max
            [2.7, 0.0],              # captured away from the SEP
        ])
        batch = classify_post_faults(sys3, _P3.p0, starts, self._SEP, h_ref, opts)
        assert len(batch) == len(starts)
        for x, got in zip(starts, batch):
            try:
                want = classify_post_fault(sys3, _P3.p0, x, self._SEP, h_ref, opts)
            except InconclusiveRun as exc:
                want = exc
            assert type(got) is type(want)
            if isinstance(want, Exception):
                assert str(got) == str(want)
                continue
            for field in fields(want):
                a, b = getattr(got, field.name), getattr(want, field.name)
                if isinstance(b, np.ndarray):
                    assert np.array_equal(a, b), field.name
                else:
                    assert a == b, field.name
        kinds = [
            "error" if isinstance(c, Exception)
            else "stable" if c.stable
            else "band" if c.t1 == 0.0
            else "crossing" if c.T == c.t1
            else "capture"
            for c in batch
        ]
        assert kinds == ["stable", "band", "crossing", "error", "capture"]
        assert classify_post_faults(
            sys3, _P3.p0, np.empty((0, 2)), self._SEP, h_ref, opts
        ) == []


def _without_bound(system):
    """The same system with no jac_lipschitz on its post-fault phase."""
    post = replace(system.phases[Phase.POST_FAULT], jac_lipschitz=None)
    return replace(system, phases={**system.phases, Phase.POST_FAULT: post})


_REGION_MACHINES = [
    SmibParams(p_mech=0.5, inertia=m, delta_max=dmax, omega_max=wmax)
    for m in (0.1, 0.25, 0.5)
    for dmax, wmax in ((1.6, 0.9), (2.0, 0.75), (50.0, 50.0))
]
_SMIB_EXPRS = {
    ph: {
        "f": ["x2", f"(Pm - {c} * sin(x1) - 0.5 * x2) / M"],
        "h": {"angle_limit": "delta_max - x1", "speed_limit": "omega_max - x2"},
    }
    for ph, c in (("pre", 1), ("fault", 0), ("post", 1))
}


_CUBIC_EXPRS = {
    ph: {
        "f": ["x2", f"(Pm - {c} * (x1 + x1**3) - 0.5 * x2) / M"],
        "h": {"angle_limit": "delta_max - x1", "speed_limit": "omega_max - x2"},
    }
    for ph, c in (("pre", 1), ("fault", 0), ("post", 1))
}


def _smib_twin():
    """smib_system's machine (damping 0.5, coupling 1) built from expressions."""
    return system_from_expressions(["x1", "x2"], ["Pm", "M", "delta_max", "omega_max"], _SMIB_EXPRS)


def _feasible_states(params, rng, count):
    lo = np.array([-1.0, -1.5])
    hi = np.array([min(params.delta_max, 3.0), min(params.omega_max, 1.5)])
    xs = rng.uniform(lo, hi, size=(count, 2))
    return xs[(xs[:, 0] < params.delta_max) & (xs[:, 1] < params.omega_max)]


def _recorded_runs(monkeypatch):
    """The list that collects the end of every lane ``cct`` runs from here on."""
    runs = []

    def recording(*args, **kwargs):
        ends = integrate_lanes(*args, **kwargs)
        runs.extend(ends)
        return ends

    monkeypatch.setattr(cct_mod, "integrate_lanes", recording)
    return runs


def _entered_the_ball(runs):
    """The last lane run, which decided a one-state verdict, entered the SEP ball."""
    return runs[-1].first_event(EventKind.CONVERGED_TO_SEP) is not None


def _verdicts_and_runs(system, p, xs, monkeypatch, opts=CctOptions()):
    """Verdicts of classify_post_faults and the run of each lane."""
    runs = _recorded_runs(monkeypatch)
    _, x_sep, h_ref = cct_mod._operating_point(system, p, opts)
    out = classify_post_faults(system, p, xs, x_sep, h_ref, opts)
    monkeypatch.undo()
    return out, runs


def _steps(runs):
    return [0 if isinstance(t, Exception) else t.steps for t in runs]


def _ended_in_a_sink(traj, t_max):
    """A run that recorded a minimum and ended before t_max with no other event."""
    return (
        not isinstance(traj, Exception)
        and traj.final_time < t_max
        and traj.first_event(EventKind.FIELD_NORM_LOCAL_MIN) is not None
        and traj.first_event(EventKind.CONSTRAINT_CROSSING) is None
        and traj.first_event(EventKind.CONVERGED_TO_SEP) is None
    )


def _verdict_key(cls):
    if isinstance(cls, Exception):
        return type(cls), str(cls)
    x_T = None if cls.x_T is None else cls.x_T.tolist()
    return cls.stable, cls.t1, cls.t2, cls.T, cls.crossing_label, cls.f_norm_min, x_T


_LONG = CctOptions(integration=IntegrationOptions(t_max=200.0))


class TestCertifiedRegion:
    """Verdicts end on entry into a certified region of attraction.

    A run that enters the SEP's region is stable, whether or not it was
    captured on the way; a captured run ends in the region of the
    competing stable equilibrium that captured it.
    """

    def test_early_exit_never_changes_a_verdict(self, monkeypatch):
        rng = np.random.default_rng(11)
        t_max = CctOptions().integration.t_max
        n_ended = 0
        for params in _REGION_MACHINES:
            system = smib_system(params)
            xs = _feasible_states(params, rng, 40)
            fast, fast_runs = _verdicts_and_runs(system, params.p0, xs, monkeypatch)
            full, full_runs = _verdicts_and_runs(_without_bound(system), params.p0, xs, monkeypatch)
            assert [_verdict_key(c) for c in fast] == [_verdict_key(c) for c in full], params
            # The clearing states all need a run, so lanes line up with states.
            fast_steps, full_steps = _steps(fast_runs), _steps(full_runs)
            assert len(fast_steps) == len(full_steps) == len(xs)
            stable = [k for k, c in enumerate(full) if not isinstance(c, Exception) and c.stable]
            assert stable, params
            assert sum(fast_steps[k] for k in stable) < sum(full_steps[k] for k in stable), params
            # Every certified-stable verdict holds for a run without the
            # bound to t_max 200.
            _, x_sep, h_ref = cct_mod._operating_point(system, params.p0, CctOptions())
            long = classify_post_faults(_without_bound(system), params.p0, xs[stable], x_sep, h_ref, _LONG)
            assert all(c.stable for c in long), params
            # Captured runs that ended in a competing sink's certified ball
            # take fewer steps; every other unstable run takes the same.
            ended = {k for k, traj in enumerate(fast_runs) if _ended_in_a_sink(traj, t_max)}
            n_ended += len(ended)
            for k in set(range(len(xs))) - set(stable):
                if k in ended:
                    assert fast_steps[k] < full_steps[k]
                    assert fast[k].T == fast[k].t2 < fast[k].t1 == math.inf
                else:
                    assert fast_steps[k] == full_steps[k]
        assert n_ended > 0

    def test_expression_system_has_no_region_and_runs_unchanged(self, monkeypatch):
        # The cubic restoring term puts 6*x1, unbounded over the state
        # space, among the field's second derivatives: no bound, no region.
        params = _REGION_MACHINES[4]
        cubic = system_from_expressions(
            ["x1", "x2"], ["Pm", "M", "delta_max", "omega_max"], _CUBIC_EXPRS
        )
        assert cubic.phases[Phase.POST_FAULT].jac_lipschitz is None
        xs = _feasible_states(params, np.random.default_rng(12), 30)
        a, a_runs = _verdicts_and_runs(cubic, params.p0, xs, monkeypatch)
        b, b_runs = _verdicts_and_runs(_without_bound(cubic), params.p0, xs, monkeypatch)
        assert [_verdict_key(c) for c in a] == [_verdict_key(c) for c in b]
        assert any(not isinstance(c, Exception) and c.stable for c in a)
        assert _steps(a_runs) == _steps(b_runs)

    def test_expression_twin_takes_the_certified_exits(self, monkeypatch):
        # The swing model written as expressions gets smib_system's bound
        # 1/M from interval arithmetic, and with it the same early exits.
        twin = _smib_twin()
        rng = np.random.default_rng(12)
        for params in _REGION_MACHINES[3:6]:
            assert twin.phases[Phase.POST_FAULT].jac_lipschitz(params.p0) == 1.0 / params.inertia
            xs = _feasible_states(params, rng, 30)
            fast, fast_runs = _verdicts_and_runs(twin, params.p0, xs, monkeypatch)
            full, full_runs = _verdicts_and_runs(_without_bound(twin), params.p0, xs, monkeypatch)
            assert [_verdict_key(c) for c in fast] == [_verdict_key(c) for c in full], params
            fast_steps, full_steps = _steps(fast_runs), _steps(full_runs)
            assert len(fast_steps) == len(full_steps) == len(xs)
            assert all(a <= b for a, b in zip(fast_steps, full_steps)), params
            stable = [k for k, c in enumerate(full) if not isinstance(c, Exception) and c.stable]
            assert sum(fast_steps[k] for k in stable) < sum(full_steps[k] for k in stable), params

    def test_capture_then_return_is_stable_in_the_certified_ball(self):
        # Just inside the separatrix the run stalls at the saddle (a
        # capture near t = 4.5), turns back and enters the certified ball
        # near t = 16.9, but the sep_radius ball only near t = 23.  With
        # the bound it is stable at t_max 20 and 30; without it, it ends at
        # the horizon 20 after its capture and is unstable.
        # The expression twin has the bound too, so it takes the same path.
        x_cl = np.array([[0.0, 5.52713]])
        for system in (smib_system(_P3), _smib_twin()):
            _, x_sep, h_ref = cct_mod._operating_point(system, _P3.p0, CctOptions())
            for t_max in (20.0, 30.0):
                opts = CctOptions(integration=IntegrationOptions(t_max=t_max))
                (fast,) = classify_post_faults(system, _P3.p0, x_cl, x_sep, h_ref, opts)
                assert fast.stable and 4.0 < fast.t2 < 5.0
            (full,) = classify_post_faults(
                _without_bound(system), _P3.p0, x_cl, x_sep, h_ref, CctOptions()
            )
            assert not full.stable and full.T == full.t2 and 4.0 < full.t2 < 5.0

    def test_verdicts_near_the_separatrix_agree_with_a_long_run(self):
        # Clearing states across the separatrix of the no-return machine.
        # Ending in the certified ball judges each as a run of the system
        # without the bound to t_max 200 does.
        system = smib_system(_P3)
        xs = np.stack([np.zeros(31), np.linspace(5.52710, 5.52716, 31)], axis=1)
        _, x_sep, h_ref = cct_mod._operating_point(system, _P3.p0, CctOptions())
        fast = classify_post_faults(system, _P3.p0, xs, x_sep, h_ref, CctOptions())
        full = classify_post_faults(_without_bound(system), _P3.p0, xs, x_sep, h_ref, _LONG)
        assert [c.stable for c in fast] == [c.stable for c in full]
        assert {c.stable for c in fast} == {True, False}

    def test_each_batch_integrates_once(self, monkeypatch):
        # Among the _SLIPS starts, (0, 5.52713) enters the certified ball
        # after a capture.
        system = smib_system(_P3)
        batch, lanes, calls = cct_mod.classify_post_faults, cct_mod.integrate_lanes, []

        def counting_batch(*args):
            calls.append(0)
            return batch(*args)

        def counting_lanes(*args, **kwargs):
            calls[-1] += 1
            return lanes(*args, **kwargs)

        monkeypatch.setattr(cct_mod, "classify_post_faults", counting_batch)
        monkeypatch.setattr(cct_mod, "integrate_lanes", counting_lanes)
        _, x_sep, h_ref = cct_mod._operating_point(system, _P3.p0, CctOptions())
        cct_mod.classify_post_faults(system, _P3.p0, self._SLIPS, x_sep, h_ref, CctOptions())
        compute_cct(system, _P3.p0)
        assert len(calls) > 1 and all(c == 1 for c in calls)

    # Starts on the _P3 machine: the first three pole-slip into
    # x_sep + (2 pi k, 0), the next stalls at the saddle and returns, the
    # last converges.
    _SLIPS = np.array([[2.7, 0.0], [0.0, 8.0], [3.5, 1.0], [0.0, 5.52713], [0.0, 3.0]])

    def test_pole_slips_end_in_a_competing_sink(self, monkeypatch):
        system = smib_system(_P3)
        opts = CctOptions(integration=IntegrationOptions(t_max=40.0))
        fast, fast_runs = _verdicts_and_runs(system, _P3.p0, self._SLIPS, monkeypatch, opts)
        full, full_runs = _verdicts_and_runs(_without_bound(system), _P3.p0, self._SLIPS, monkeypatch, opts)
        assert [_verdict_key(c) for c in fast] == [_verdict_key(c) for c in full]
        assert [c.stable for c in fast] == [False, False, False, True, True]
        fast_steps, full_steps = _steps(fast_runs), _steps(full_runs)
        for k in range(3):
            assert _ended_in_a_sink(fast_runs[k], 40.0)
            assert fast_steps[k] < full_steps[k]
            slips = (fast_runs[k].final_state - [math.asin(0.5), 0.0]) / (2.0 * math.pi)
            assert slips[0] > 0.9 and abs(slips[0] - round(slips[0])) < 0.01 and abs(slips[1]) < 0.01
        assert not any(_ended_in_a_sink(traj, 40.0) for traj in fast_runs[3:])

    @pytest.mark.bit_identity
    def test_pole_slipping_lanes_equal_their_one_lane_runs(self, monkeypatch):
        system = smib_system(_P3)
        opts = CctOptions(integration=IntegrationOptions(t_max=40.0))
        batch, batch_runs = _verdicts_and_runs(system, _P3.p0, self._SLIPS, monkeypatch, opts)
        for k, x in enumerate(self._SLIPS):
            (one,), one_runs = _verdicts_and_runs(system, _P3.p0, x[None], monkeypatch, opts)
            assert _verdict_key(one) == _verdict_key(batch[k])
            a, b = one_runs[0], batch_runs[k]
            assert a.final_time == b.final_time and a.steps == b.steps
            assert np.array_equal(a.final_state, b.final_state)
            assert [(e.time, e.kind, e.state.tolist(), e.info) for e in a.events] == [
                (e.time, e.kind, e.state.tolist(), e.info) for e in b.events
            ]

    def test_no_sink_search_without_a_finite_bound(self, monkeypatch):
        # A bound that is infinite at p certifies nothing, so captures must
        # not pay a Newton solve for a sink that could never end the run.
        system = smib_system(_P3)
        post = replace(system.phases[Phase.POST_FAULT], jac_lipschitz=lambda p: math.inf)
        infinite = replace(system, phases={**system.phases, Phase.POST_FAULT: post})
        opts = CctOptions(integration=IntegrationOptions(t_max=40.0))
        _, x_sep, h_ref = cct_mod._operating_point(system, _P3.p0, opts)
        find, counts = cct_mod.find_equilibrium, []
        for s in (infinite, _without_bound(system), system):
            calls = []
            monkeypatch.setattr(
                cct_mod, "find_equilibrium", lambda *args: calls.append(args) or find(*args)
            )
            verdicts = classify_post_faults(s, _P3.p0, self._SLIPS, x_sep, h_ref, opts)
            monkeypatch.undo()
            counts.append(len(calls))
            assert [c.stable for c in verdicts] == [False, False, False, True, True]
        assert counts[0] == counts[1] < counts[2]

    def test_sink_stop_ends_only_inside_a_far_certified_sink(self):
        system = smib_system(_P3)
        opts = CctOptions()
        _, x_sep, _ = cct_mod._operating_point(system, _P3.p0, opts)
        saddle = np.array([math.pi - x_sep[0], 0.0])
        sink = x_sep + [2.0 * math.pi, 0.0]
        radius = _attraction_radius(system, _P3.p0, sink, opts.sep_radius)
        assert radius is not None
        stop = cct_mod._sink_stop(system, _P3.p0, x_sep, opts.sep_radius, opts)
        near = sink + [0.5 * radius, 0.0]
        assert stop(near, near)
        assert stop(near + [1e-3, 1e-3], sink)
        # The step end outside the sink's ball, a minimum at the saddle and
        # one in the SEP's own loose radius end nothing.
        assert not stop(near, sink + [2.0 * radius, 0.0])
        assert not stop(saddle + [1e-4, 0.0], saddle)
        assert not stop(x_sep + [0.05, 0.0], x_sep)
        # A sink whose region could meet the run's SEP ball ends nothing.
        huge = cct_mod._sink_stop(system, _P3.p0, x_sep, 2.0 * math.pi, opts)
        assert not huge(near, near)

    @pytest.mark.parametrize("params", _REGION_MACHINES + [
        SmibParams(p_mech=0.5, inertia=0.25, delta_max=1.6, omega_max=0.9,
                   coupling_pre=1.3, coupling_post=1.3),
        # Limits close enough to the SEP that the margins shrink the region.
        SmibParams(p_mech=0.5, inertia=0.5, delta_max=0.55, omega_max=0.03),
        SmibParams(p_mech=0.5, inertia=0.1, delta_max=0.6, omega_max=0.02),
    ])
    def test_region_is_sound(self, params):
        system = smib_system(params)
        p = params.p0
        sep_radius = CctOptions().sep_radius
        _, x_sep, _ = cct_mod._operating_point(system, p, CctOptions())
        radius = _attraction_radius(system, p, x_sep, sep_radius)
        assert radius is not None and radius >= sep_radius
        dyn = system.phases[Phase.POST_FAULT]
        # P of the Lyapunov equation A^T P + P A = -I, solved for its three
        # entries; the level c = lam_hi radius^2 gives the least ellipsoid
        # e^T P e <= c that holds the ball.
        (a11, a12), (a21, a22) = dyn.jac_x(x_sep, p)
        p11, p12, p22 = np.linalg.solve(
            [[2 * a11, 2 * a21, 0.0], [a12, a11 + a22, a21], [0.0, 2 * a12, 2 * a22]],
            [-1.0, 0.0, -1.0],
        )
        shape = np.array([[p11, p12], [p12, p22]])
        lam, vec = np.linalg.eigh(shape)
        c = lam[-1] * radius * radius
        angles = np.linspace(0.0, 2.0 * math.pi, 400, endpoint=False)
        units = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        # Points with e^T P e = c: e = sqrt(c) P^(-1/2) u for unit u.
        edge = math.sqrt(c) * units @ (vec / np.sqrt(lam)).T
        for e in edge:
            assert e @ shape @ e == pytest.approx(c, rel=1e-12)
            assert 2.0 * e @ shape @ dyn.f(x_sep + e, p) < 0.0
            assert all(con.value(x_sep + e, p) > 0.0 for con in dyn.constraints)
            assert np.linalg.norm(e) <= _LOOSE_FACTOR * sep_radius
        # Runs from the ball's edge stay inside the limits and the loose
        # radius all the way to the horizon.
        starts = x_sep + radius * units[::10]
        for x0 in starts:
            traj = integrate(system, Phase.POST_FAULT, x0, p, IntegrationOptions(t_max=10.0))
            assert traj.final_time == 10.0
            assert np.max(np.linalg.norm(traj.states - x_sep, axis=1)) <= _LOOSE_FACTOR * sep_radius
            for con in dyn.constraints:
                assert all(con.value(x, p) > 0.0 for x in traj.states)

    def test_no_region_without_a_bound(self):
        system = _without_bound(smib_system(_P2))
        _, x_sep, _ = cct_mod._operating_point(system, _P2.p0, CctOptions())
        assert _attraction_radius(system, _P2.p0, x_sep, 1e-3) is None

    def test_no_region_smaller_than_the_ball(self):
        # The angle limit 1.2e-3 past the SEP leaves no certified ball as
        # large as the 1e-3 one.
        params = SmibParams(p_mech=0.5, inertia=0.5, delta_max=math.asin(0.5) + 1.2e-3, omega_max=0.9)
        system = smib_system(params)
        x_sep = np.array([math.asin(0.5), 0.0])
        assert _attraction_radius(system, params.p0, x_sep, 1e-3) is None
        assert _attraction_radius(system, params.p0, x_sep, 1e-4) is not None


_CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def _same_fields(a, b):
    for field in fields(a):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            assert np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


@pytest.mark.parametrize("config", _CONFIGS, ids=lambda path: path.stem)
def test_config_results_do_not_depend_on_the_bound(config):
    # The certified shortcuts change no digit of a shipped configuration's
    # critical time or sensitivities.
    # The same holds for the machine written as expressions, whose bound
    # comes from interval arithmetic.
    cfg = load_config(config, (), None, 1)
    system, twin = build_system(cfg), _smib_twin()
    x = np.array([[0.3, -1.2], [0.7, 0.4]])
    for phase in Phase:
        assert np.allclose(twin.phases[phase].f(x, cfg.p0), system.phases[phase].f(x, cfg.p0))
    for s in (system, twin):
        results = [compute_cct(t, cfg.p0, cfg.opts) for t in (s, _without_bound(s))]
        _same_fields(*results)
        if results[0].mode is not InstabilityMode.NO_RETURN:
            _same_fields(*(cct_sensitivity(t, cfg.p0, r) for t, r in zip((s, _without_bound(s)), results)))


class TestClearingOutcome:
    def test_zero_clearing_is_stable(self, monkeypatch):
        runs = _recorded_runs(monkeypatch)
        cls = clearing_outcome(smib_system(_P2), _P2.p0, 0.0)
        assert cls.stable and _entered_the_ball(runs)

    def test_clearing_after_fault_hit_is_infeasible(self):
        t_hit = _fault_angle_hit_time(0.5, 0.5, 1.6)
        cls = clearing_outcome(smib_system(_P2), _P2.p0, t_hit + 0.1)
        assert not cls.stable and cls.t1 == 0.0
        assert cls.crossing_label == "angle_limit"

    def test_negative_clearing_rejected(self):
        with pytest.raises(ValueError):
            clearing_outcome(smib_system(_P2), _P2.p0, -0.1)

    @pytest.mark.parametrize("t_clear", [0.0, 0.3])
    def test_operating_point_past_both_limits_has_no_clearing_time(self, t_clear):
        # Both margins are negative at the SEP, so their product is
        # positive; each margin must be checked on its own.
        params = SmibParams(p_mech=0.5, inertia=0.5, delta_max=0.4, omega_max=-0.1)
        with pytest.raises(NoFiniteCct):
            clearing_outcome(smib_system(params), params.p0, t_clear)


class TestFailurePaths:
    def test_no_drive_means_no_finite_critical_time(self):
        params = SmibParams(p_mech=0.0, inertia=0.1, delta_max=2.0, omega_max=1.5)
        opts = CctOptions(
            integration=IntegrationOptions(t_max=2.0), horizon_doublings=2
        )
        with pytest.raises(NoFiniteCct):
            compute_cct(smib_system(params), params.p0, opts)

    def test_infeasible_operating_point(self):
        params = SmibParams(p_mech=0.5, inertia=0.1, delta_max=0.3, omega_max=1.5)
        with pytest.raises(NoFiniteCct):
            compute_cct(smib_system(params), params.p0)

    def test_unstable_at_zero(self):
        # The post-fault drive is strong enough to pull the pre-fault
        # equilibrium over the saddle even before any fault.
        sys2 = system_from_expressions(
            state=["x1", "x2"], params=["a"],
            phases={
                "pre": {"f": ["x2", "(0.5 - sin(x1) - 0.05*x2)/0.2"]},
                "fault": {"f": ["x2", "-0.05*x2/0.2"]},
                "post": {
                    "f": ["x2", "(a - sin(x1) - 0.05*x2)/0.2"],
                    "h": {"lid": "100 - x1"},
                },
            },
        )
        with pytest.raises(NoFiniteCct, match="[Ii]nstant"):
            compute_cct(sys2, np.array([0.999]))

    def test_missing_post_equilibrium(self):
        sys2 = system_from_expressions(
            state=["x1", "x2"], params=["a"],
            phases={
                "pre": {"f": ["x2", "(0.5 - sin(x1) - 0.5*x2)/0.2"]},
                "fault": {"f": ["x2", "-0.5*x2/0.2"]},
                "post": {
                    "f": ["x2", "(a - sin(x1) - 0.5*x2)/0.2"],
                    "h": {"lid": "100 - x1"},
                },
            },
        )
        with pytest.raises(NoEquilibriumFound):
            compute_cct(sys2, np.array([1.2]))

    def test_no_constraints_anywhere(self):
        sys2 = system_from_expressions(
            state=["x1", "x2"], params=["a"],
            phases={
                "pre": {"f": ["x2", "(a - sin(x1) - 0.5*x2)/0.2"]},
                "fault": {"f": ["x2", "-0.5*x2/0.2"]},
                "post": {"f": ["x2", "(a - sin(x1) - 0.5*x2)/0.2"]},
            },
        )
        with pytest.raises(EmptyCombinedBoundary):
            compute_cct(sys2, np.array([0.5]))

    def test_wandering_run_is_inconclusive(self):
        opts = CctOptions(integration=IntegrationOptions(t_max=0.05))
        with pytest.raises(InconclusiveRun):
            compute_cct(smib_system(_P2), _P2.p0, opts)

    def test_reverify_detects_flaky_classification(self, monkeypatch):
        real = cct_mod.classify_post_fault

        def flaky(system, p, x_cl, x_sep_post, h_ref, opts):
            out = real(system, p, x_cl, x_sep_post, h_ref, opts)
            if opts.integration.rel_tol < 1e-9:
                return replace(out, stable=True)
            return out

        monkeypatch.setattr(cct_mod, "classify_post_fault", flaky)
        with pytest.raises(BracketCollapse):
            compute_cct(smib_system(_P2), _P2.p0, CctOptions(reverify=True))


def _plain_cct(system, p, opts=CctOptions()):
    """compute_cct with every bisection verdict from one-lane classify_post_fault."""
    p = np.asarray(p, dtype=float)
    x_pre, x_post, h_ref = cct_mod._operating_point(system, p, opts)
    if not classify_post_fault(system, p, x_pre, x_post, h_ref, opts).stable:
        raise NoFiniteCct("instant clearing is already unstable")
    horizon = opts.integration.t_max
    hit_time = hit_state = hi_cls = None
    for run in range(opts.horizon_doublings + 2):
        fault = cct_mod._run_fault(system, p, x_pre, opts, horizon)
        crossing = fault.first_event(EventKind.CONSTRAINT_CROSSING)
        if crossing is not None:
            t_hi = hit_time = crossing.time
            hit_state = crossing.state.copy()
            hi_cls = cct_mod._hit_classification(crossing)
            break
        if run > opts.horizon_doublings:
            break
        cls_end = classify_post_fault(system, p, fault.final_state, x_post, h_ref, opts)
        if not cls_end.stable:
            t_hi, hi_cls = fault.final_time, cls_end
            break
        horizon *= 2.0
    assert hi_cls is not None
    hi_is_hit = hit_time is not None
    t_lo, history, iterations = 0.0, [(0.0, t_hi)], 0
    while t_hi - t_lo > opts.bisection_tol:
        if iterations >= opts.max_iterations:
            raise InconclusiveRun(
                f"bracket still {t_hi - t_lo:.3g} wide after "
                f"{iterations} bisection steps"
            )
        t_mid = 0.5 * (t_lo + t_hi)
        cls_mid = classify_post_fault(
            system, p, cct_mod.state_at(fault, t_mid), x_post, h_ref, opts
        )
        if cls_mid.stable:
            t_lo = t_mid
        else:
            t_hi, hi_cls, hi_is_hit = t_mid, cls_mid, False
        history.append((t_lo, t_hi))
        iterations += 1
    if hi_is_hit:
        mode, t_cl, x_cr, x_T, T = InstabilityMode.FAULT_BOUNDARY, t_hi, hit_state, None, None
    else:
        t_cl = 0.5 * (t_lo + t_hi)
        x_cr = cct_mod.state_at(fault, t_cl)
        mode = (
            InstabilityMode.POST_FAULT_CROSSING if hi_cls.t1 <= hi_cls.t2
            else InstabilityMode.NO_RETURN
        )
        x_T, T = hi_cls.x_T, hi_cls.T
    return cct_mod.CriticalResult(
        t_cl=t_cl, mode=mode, t_lo=t_lo, t_hi=t_hi, x_cr=x_cr, x_T=x_T, T=T,
        t1=hi_cls.t1, t2=hi_cls.t2, crossing_label=hi_cls.crossing_label,
        iterations=iterations, bracket_history=tuple(history),
        x_sep_pre=x_pre, x_sep_post=x_post, fault_hit_time=hit_time,
        fault_hit_state=hit_state, h_ref=h_ref,
    )


# Graze machines: at bisection_tol 1e-2, M = 0.3 is mode 1 and M = 0.5 mode 2
# with a fault hit, so its all-stable path breaks at its first unstable verdict.
_GRAZE1 = SmibParams(p_mech=0.5, inertia=0.3, delta_max=1.6, omega_max=0.9)
_DEFECT1 = SmibParams(p_mech=0.5, inertia=0.2, delta_max=1.6, omega_max=0.9)
# name -> (system, p, options) and the mode of its critical time.
_BATCH_CASES = {
    "speed-1e-2": ((smib_system(_P1), _P1.p0, CctOptions()), 1),
    "speed-1e-4": ((smib_system(_P1), _P1.p0, CctOptions(bisection_tol=1e-4)), 1),
    "graze-mode1": ((smib_system(_GRAZE1), _GRAZE1.p0, CctOptions()), 1),
    "graze-mode2": ((smib_system(_P2), _P2.p0, CctOptions()), 2),
    "defect1": ((smib_system(_DEFECT1), _DEFECT1.p0, CctOptions(bisection_tol=1e-4)), 2),
    "wide-mode3": ((smib_system(_P3), _P3.p0, _OPTS3), 3),
    "twin-speed": ((_smib_twin(), _P1.p0, CctOptions(bisection_tol=1e-4)), 1),
    "twin-graze-mode2": ((_smib_twin(), _P2.p0, CctOptions()), 2),
}


def _lane_counts(monkeypatch, plant=None):
    """Lane count of every classify_post_faults call, in call order.

    ``plant(k, out)``, when given, edits the output of the k-th call
    (from 0) and returns it.
    """
    real, counts = cct_mod.classify_post_faults, []

    def recording(system, p, x_cls, *args):
        counts.append(len(x_cls))
        out = real(system, p, x_cls, *args)
        return out if plant is None else plant(len(counts) - 1, out)

    monkeypatch.setattr(cct_mod, "classify_post_faults", recording)
    return counts


class TestBatchedBisection:
    """Bisection below a fault hit runs one lane per midpoint.

    The plain loop over one-lane verdicts is the oracle: every result
    field must match it bit for bit.
    """

    @pytest.mark.bit_identity
    @pytest.mark.parametrize("case", sorted(_BATCH_CASES))
    def test_result_equals_the_one_lane_loop(self, case):
        args, mode = _BATCH_CASES[case]
        result = compute_cct(*args)
        assert int(result.mode) == mode
        _same_fields(result, _plain_cct(*args))

    def test_defect1_repro_keeps_its_result(self):
        # A late midpoint falls in the clearing-feasibility band: it must
        # be the first unstable verdict, as in the one-lane loop.
        args = _BATCH_CASES["defect1"][0]
        result = compute_cct(*args)
        assert result.mode is InstabilityMode.POST_FAULT_CROSSING
        assert result.T == 0.0 and result.iterations == 14
        assert result.t_cl == _plain_cct(*args).t_cl

    def test_iteration_cap_raises_as_the_one_lane_loop(self):
        system, p, _ = _BATCH_CASES["speed-1e-2"][0]
        opts = CctOptions(max_iterations=3)
        with pytest.raises(InconclusiveRun) as want:
            _plain_cct(system, p, opts)
        with pytest.raises(InconclusiveRun) as got:
            compute_cct(system, p, opts)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("case", ["speed-1e-4", "graze-mode2"])
    def test_bisection_below_a_hit_runs_one_lane_per_step(self, case, monkeypatch):
        system, p, opts = _BATCH_CASES[case][0]
        counts = _lane_counts(monkeypatch)
        result = compute_cct(system, p, opts)
        # The instant-clearing check, then one verdict per bisection step.
        assert result.fault_hit_time is not None and result.iterations > 1
        assert counts == [1] * (1 + result.iterations)

    @pytest.mark.parametrize("k", [1, 4])
    def test_error_at_a_midpoint_is_raised(self, k, monkeypatch):
        system, p, opts = _BATCH_CASES["speed-1e-2"][0]
        planted = InconclusiveRun(f"planted at midpoint {k}")

        def plant(call, out):
            # Call 0 is the instant-clearing check; call k the k-th midpoint.
            return [planted] if call == k else out

        counts = _lane_counts(monkeypatch, plant)
        with pytest.raises(InconclusiveRun) as got:
            compute_cct(system, p, opts)
        assert got.value is planted
        assert counts == [1] * (1 + k)


class TestOptionsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"bisection_tol": 0.0},
        {"bisection_tol": math.inf},
        {"max_iterations": 0},
        {"sep_radius": 0.0},
        {"sep_radius": math.nan},
        {"sep_radius": math.inf},
        {"clearing_feasibility_tol": -1e-9},
        {"clearing_feasibility_tol": math.nan},
        {"clearing_feasibility_tol": math.inf},
        {"field_norm_threshold": 0.0},
        {"field_norm_threshold": math.nan},
        {"field_norm_threshold": math.inf},
        {"horizon_doublings": -1},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CctOptions(**kwargs)
