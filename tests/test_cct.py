"""Critical clearing time search: modes, brackets, failure paths.

During the fault the machine obeys M omega' = Pm - D omega with the
angle following along, so the speed-boundary hit time has the closed
form t_hit = -(M/D) ln(1 - D omega_max / Pm) and the angle at the hit
is delta_s + (Pm/D) (t + (M/D)(e^{-D t/M} - 1)).  Those formulas are
the oracles for the fault-boundary mode.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest

import cctsens.cct as cct_mod
from cctsens import (
    BracketCollapse,
    CctOptions,
    EmptyCombinedBoundary,
    InconclusiveRun,
    InstabilityMode,
    IntegrationOptions,
    NoEquilibriumFound,
    NoFiniteCct,
    SmibParams,
    classify_post_fault,
    classify_post_faults,
    clearing_outcome,
    compute_cct,
    smib_system,
    system_from_expressions,
)

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
        assert not mode1_result.interior_unstable
        assert mode1_result.x_T is None and mode1_result.T is None

    def test_bracket_converged(self, mode1_result):
        assert mode1_result.t_hi - mode1_result.t_lo <= 0.01
        assert mode1_result.t_lo < mode1_result.t_cl <= mode1_result.t_hi


class TestPostFaultCrossingMode:
    def test_mode(self, mode2_result):
        assert mode2_result.mode is InstabilityMode.POST_FAULT_CROSSING
        assert mode2_result.interior_unstable

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
        cls = classify_post_fault(
            self._SYS, _P2.p0, np.array([2.0, 0.0]), self._SEP, self._H_REF,
            CctOptions(),
        )
        assert not cls.stable
        assert cls.t1 == 0.0 and cls.T == 0.0
        assert cls.crossing_label == "angle_limit"
        assert cls.h_at_clearing < 0.0

    def test_barely_feasible_clearing_counts_as_on_boundary(self):
        x = np.array([1.6 - 1e-9, 0.5])
        cls = classify_post_fault(
            self._SYS, _P2.p0, x, self._SEP, self._H_REF, CctOptions()
        )
        assert not cls.stable and cls.t1 == 0.0
        assert 0.0 < cls.h_at_clearing < 1e-5

    def test_small_perturbation_converges(self):
        cls = classify_post_fault(
            self._SYS, _P2.p0, self._SEP + [0.2, 0.1], self._SEP, self._H_REF,
            CctOptions(),
        )
        assert cls.stable and cls.converged_to_sep
        assert cls.t1 == math.inf and math.isinf(cls.T)

    def test_capture_ignored_when_run_recovers(self):
        # At rest just inside the saddle the run slides back to the
        # SEP; field-norm dips near the SEP are part of convergence.
        sys3 = smib_system(_P3)
        cls = classify_post_fault(
            sys3, _P3.p0, np.array([2.55, 0.0]), self._SEP,
            (50.0 - math.asin(0.5)) * 50.0, CctOptions(),
        )
        assert cls.stable and cls.converged_to_sep

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

    def test_short_horizon_is_inconclusive(self):
        opts = CctOptions(integration=IntegrationOptions(t_max=0.2))
        with pytest.raises(InconclusiveRun):
            classify_post_fault(
                self._SYS, _P2.p0, np.array([1.2, 0.6]), self._SEP,
                self._H_REF, opts,
            )

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


class TestClearingOutcome:
    def test_zero_clearing_is_stable(self):
        cls = clearing_outcome(smib_system(_P2), _P2.p0, 0.0)
        assert cls.stable and cls.converged_to_sep

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


class TestOptionsValidation:
    @pytest.mark.parametrize("kwargs", [
        {"bisection_tol": 0.0},
        {"bisection_tol": math.inf},
        {"max_iterations": 0},
        {"sep_radius": 0.0},
        {"clearing_feasibility_tol": -1e-9},
        {"field_norm_threshold": 0.0},
        {"horizon_doublings": -1},
    ])
    def test_rejected(self, kwargs):
        with pytest.raises(ValueError):
            CctOptions(**kwargs)
