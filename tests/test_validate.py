"""Oracle module: finite differences, the clearing-time scan, reports.

The speed-limit configuration has closed forms for both the critical
time and its slopes, so the oracles themselves can be checked here
before they are trusted to judge anything else.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import cctsens.cct as cct_mod
import cctsens.validate as validate_mod
from cctsens import (
    CctOptions,
    EventKind,
    InconclusiveRun,
    InstabilityMode,
    ModeChangedAcrossStep,
    NoFiniteCct,
    Phase,
    PostFaultClassification,
    SmibParams,
    UnsupportedMode,
    compare,
    compare_abs,
    compute_cct,
    fd_cct_slope,
    fd_trajectory_sensitivity,
    integrate_with_sensitivities,
    oracle_csv_row,
    oracle_suite,
    scan_cct,
    smib_system,
    system_from_expressions,
    ORACLE_CSV_HEADER,
    IntegrationOptions,
)

_D = 0.5

_P1 = SmibParams(p_mech=0.65, inertia=0.1, delta_max=2.0, omega_max=0.7)
_SYS1 = smib_system(_P1)


@pytest.fixture(scope="module")
def mode1_result():
    return compute_cct(_SYS1, _P1.p0)


class TestReports:
    def test_relative_error_floor(self):
        r = compare("x", 1e-15, 0.0, (1e-4,), 0.5)
        assert r.rel_err == pytest.approx(1e-3)
        assert r.passed

    def test_pass_and_fail(self):
        assert compare("x", 1.0, 1.02, (1e-4,), 0.05).passed
        assert not compare("x", 1.0, 1.10, (1e-4,), 0.05).passed

    def test_absolute_gap_criterion(self):
        # Noise-level values on both sides must pass an absolute check
        # even though their ratio is arbitrary.
        assert compare_abs("z", 0.0, -1.6e-12, (1e-4,), 1e-3).passed
        assert not compare_abs("z", 1.0, 0.9, (1e-4,), 0.05).passed

    def test_csv_row_shape(self):
        r = compare("slope_Pm", -0.359, -0.358, (6.5e-5,), 0.05)
        row = oracle_csv_row(r)
        fields = row.split(",")
        assert len(fields) == len(ORACLE_CSV_HEADER.split(","))
        assert fields[0] == "slope_Pm"
        assert fields[-1] == "pass"
        assert "%.17g" % -0.359 in row


class TestFdCctSlope:
    def test_matches_closed_form(self):
        slope = fd_cct_slope(_SYS1, _P1.p0, 0)
        exact = -0.1 * 0.7 / (0.65 * (0.65 - _D * 0.7))
        assert slope < 0.0
        assert slope == pytest.approx(exact, rel=1e-3)

    def test_inert_parameter_has_zero_slope(self):
        # The angle limit is never active in this configuration and
        # does not enter the dynamics at all.
        assert abs(fd_cct_slope(_SYS1, _P1.p0, 2)) <= 1e-12

    def test_richardson_consistency(self):
        a = fd_cct_slope(_SYS1, _P1.p0, 0, eps=1e-3)
        b = fd_cct_slope(_SYS1, _P1.p0, 0, eps=5e-4)
        assert abs(a - b) <= 1e-4

    def test_mode_switch_across_step(self):
        params = SmibParams(p_mech=0.5, inertia=0.325, delta_max=1.6, omega_max=0.9)
        with pytest.raises(ModeChangedAcrossStep, match="mode"):
            fd_cct_slope(smib_system(params), params.p0, 1, eps=0.05)

    def test_rejects_bad_index(self):
        with pytest.raises(IndexError):
            fd_cct_slope(_SYS1, _P1.p0, 7)

    @pytest.mark.parametrize("eps", [0.0, -1e-3, math.nan, math.inf])
    def test_rejects_a_step_that_is_not_positive_and_finite(self, eps):
        with pytest.raises(ValueError, match="eps must be positive and finite"):
            fd_cct_slope(_SYS1, _P1.p0, 0, eps=eps)


class TestFdTrajectorySensitivity:
    def test_identity_at_zero_time(self):
        phi_x, phi_p = fd_trajectory_sensitivity(
            _SYS1, Phase.FAULT_ON, [0.3, 0.0], _P1.p0, 0.0, 0
        )
        np.testing.assert_array_equal(phi_x, np.eye(2))
        np.testing.assert_array_equal(phi_p, np.zeros(2))

    def test_decoupled_linear_closed_form(self):
        ph = {"f": ["a*x1", "-a*x2"], "h": {"lid": "10 - x1"}}
        sys_lin = system_from_expressions(
            ["x1", "x2"], ["a"], {"pre": ph, "fault": ph, "post": ph}
        )
        a, t = 0.7, 0.8
        x0 = np.array([1.3, -0.4])
        phi_x, phi_p = fd_trajectory_sensitivity(
            sys_lin, Phase.FAULT_ON, x0, [a], t, 0
        )
        np.testing.assert_allclose(
            phi_x,
            np.diag([math.exp(a * t), math.exp(-a * t)]),
            rtol=1e-8,
            atol=1e-9,
        )
        np.testing.assert_allclose(
            phi_p,
            [t * x0[0] * math.exp(a * t), -t * x0[1] * math.exp(-a * t)],
            rtol=1e-7,
        )

    def test_agrees_with_variational_run(self, mode1_result):
        x0 = mode1_result.x_sep_pre
        t = mode1_result.t_cl
        _, bundle = integrate_with_sensitivities(
            _SYS1, Phase.FAULT_ON, x0, _P1.p0, IntegrationOptions(t_max=t)
        )
        for k in range(4):
            phi_x, phi_p = fd_trajectory_sensitivity(
                _SYS1, Phase.FAULT_ON, x0, _P1.p0, t, k
            )
            assert np.max(np.abs(phi_x - bundle.final_phi_x)) <= 1e-6
            assert np.max(np.abs(phi_p - bundle.final_phi_p[:, k])) <= 1e-6

    def test_rejects_bad_index(self):
        with pytest.raises(IndexError):
            fd_trajectory_sensitivity(_SYS1, Phase.FAULT_ON, [0.3, 0.0], _P1.p0, 0.1, 9)


class TestScanCct:
    def test_agrees_with_bisection(self, mode1_result):
        step = 1e-3
        scanned = scan_cct(_SYS1, _P1.p0, step)
        assert abs(scanned - mode1_result.t_cl) <= step

    def test_full_scan_matches_early_exit(self):
        step = 0.01
        assert scan_cct(_SYS1, _P1.p0, step) == scan_cct(
            _SYS1, _P1.p0, step, verify_monotone=True
        )

    def test_coarse_grid_lands_past_the_hit(self, mode1_result):
        # With the first grid point already beyond the feasibility exit
        # the answer is half a step below it.
        assert scan_cct(_SYS1, _P1.p0, 0.2) == pytest.approx(0.1)

    def test_always_stable_raises(self):
        ph = {"f": ["x2", "-sin(x1) - 0.5*x2"], "h": {"lid": "a - x1"}}
        sys_flat = system_from_expressions(
            ["x1", "x2"], ["a"], {"pre": ph, "fault": ph, "post": ph}
        )
        with pytest.raises(NoFiniteCct, match="horizon"):
            scan_cct(sys_flat, [4.0], 0.5)

    def test_rejects_nonpositive_step(self):
        with pytest.raises(ValueError):
            scan_cct(_SYS1, _P1.p0, 0.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan])
    def test_rejects_non_finite_step(self, step):
        with pytest.raises(ValueError, match="positive and finite"):
            scan_cct(_SYS1, _P1.p0, step)

    def test_certified_ball_is_computed_once_per_scan(self, monkeypatch):
        # Every verdict of a scan watches the same events, so the SEP's
        # certified ball is computed once per scan, not once per verdict.
        x_sep = cct_mod.operating_point(_SYS1, _P1.p0, CctOptions()).x_sep_post
        radius, centres = cct_mod._attraction_radius, []
        monkeypatch.setattr(cct_mod, "_attraction_radius",
                            lambda *args: centres.append(args[2].tobytes()) or radius(*args))
        real, verdicts = validate_mod.classify_post_fault, []
        monkeypatch.setattr("cctsens.validate.classify_post_fault",
                            lambda *args: verdicts.append(args) or real(*args))
        scan_cct(_SYS1, _P1.p0, 0.002)
        assert len(verdicts) > 1
        assert centres == [x_sep.tobytes()]

    def test_non_monotone_pattern_is_reported(self, monkeypatch):
        pattern = iter([True, False, True, True, True])

        def fake_classify(point, x_cl):
            return PostFaultClassification(stable=next(pattern))

        monkeypatch.setattr("cctsens.validate.classify_post_fault", fake_classify)
        with pytest.warns(RuntimeWarning, match="not monotone"):
            scanned = scan_cct(_SYS1, _P1.p0, 0.03, verify_monotone=True)
        assert scanned == pytest.approx(0.045)

    def test_lane_errors_surface_in_scan_order(self, monkeypatch):
        # The scan has five points at step 0.03: points 0 and 1 recover,
        # point 2 is the first unstable one, and one verdict raises.
        def failing_at(bad):
            seen = []

            def fake_classify(point, x_cl):
                j = len(seen)
                seen.append(j)
                if j == bad:
                    raise InconclusiveRun(f"lane {j}")
                return PostFaultClassification(stable=j < 2)

            return fake_classify

        target = "cctsens.validate.classify_post_fault"
        monkeypatch.setattr(target, failing_at(3))
        assert scan_cct(_SYS1, _P1.p0, 0.03) == pytest.approx(0.075)
        monkeypatch.setattr(target, failing_at(1))
        with pytest.raises(InconclusiveRun, match="lane 1"):
            scan_cct(_SYS1, _P1.p0, 0.03)
        # A full scan reaches every point.
        monkeypatch.setattr(target, failing_at(3))
        with pytest.raises(InconclusiveRun, match="lane 3"):
            scan_cct(_SYS1, _P1.p0, 0.03, verify_monotone=True)

    def test_jobs_without_factory_stop_at_first_unstable(self, monkeypatch):
        # The scan must not classify the 400 points past its first
        # unstable one.
        params = SmibParams(p_mech=0.5, inertia=0.3, delta_max=50.0, omega_max=50.0)
        system = smib_system(params)
        real = validate_mod.classify_post_fault
        counts = [0]

        def counting(point, x_cl):
            counts[0] += 1
            return real(point, x_cl)

        monkeypatch.setattr("cctsens.validate.classify_post_fault", counting)
        scan_cct(system, params.p0, 0.05)
        assert 0 < counts[0] < 400

    def test_a_partial_scan_stops_at_its_first_unstable_verdict(self, monkeypatch):
        # One verdict per point up to and including the first unstable
        # one, and one per interior point of a full scan.
        params = SmibParams(p_mech=0.5, inertia=0.3, delta_max=50.0, omega_max=50.0)
        system, p, step, opts = smib_system(params), params.p0, 0.2, CctOptions()
        real, states = validate_mod.classify_post_fault, []

        def counting(point, x_cl):
            states.append(x_cl)
            return real(point, x_cl)

        monkeypatch.setattr("cctsens.validate.classify_post_fault", counting)
        scanned = scan_cct(system, p, step, opts)
        first_unstable = round(scanned / step - 0.5)
        assert len(states) == first_unstable + 1
        states.clear()
        assert scan_cct(system, p, step, opts, verify_monotone=True) == scanned
        fault = cct_mod._run_fault(cct_mod.operating_point(system, p, opts), opts.integration.t_max)
        # The fault run reaches no limit, so the scan runs to its horizon.
        assert fault.first_event(EventKind.CONSTRAINT_CROSSING) is None
        assert len(states) == math.floor(fault.final_time / step) > first_unstable + 1


class TestOracleSuite:
    def test_all_rows_pass(self):
        rows = oracle_suite(_SYS1, _P1.p0, sens_params=(0, 1, 3))
        assert rows and all(r.passed for r in rows)
        names = {r.name for r in rows}
        assert "cct_scan" in names
        assert {"slope_Pm", "slope_M", "slope_omega_max"} <= names
        assert "phi_x[0,0]" in names and "phi_p_M[1]" in names
        # Structural zeros must survive the comparison.
        assert "phi_x[1,0]" in names

    def test_single_quantity_selection(self):
        rows = oracle_suite(_SYS1, _P1.p0, sens_params=(0, 1, 3), quantities=["slope_Pm"])
        assert [r.name for r in rows] == ["slope_Pm"]

    def test_prefix_selection(self):
        rows = oracle_suite(_SYS1, _P1.p0, sens_params=(0,), quantities=["phi_p_Pm"])
        assert [r.name for r in rows] == ["phi_p_Pm[0]", "phi_p_Pm[1]"]

    def test_no_return_mode_skips_slopes(self, monkeypatch, mode1_result):
        fake = replace(mode1_result, mode=InstabilityMode.NO_RETURN)
        monkeypatch.setattr(
            "cctsens.validate.compute_cct", lambda *a, **k: fake
        )
        rows = oracle_suite(_SYS1, _P1.p0, sens_params=(0,), quantities=["phi_x"])
        assert [r.name for r in rows] == [
            "phi_x[0,0]", "phi_x[0,1]", "phi_x[1,0]", "phi_x[1,1]"
        ]

    def test_no_return_mode_rejects_requested_slopes(self, monkeypatch, mode1_result):
        fake = replace(mode1_result, mode=InstabilityMode.NO_RETURN)
        monkeypatch.setattr(
            "cctsens.validate.compute_cct", lambda *a, **k: fake
        )
        with pytest.raises(UnsupportedMode):
            oracle_suite(_SYS1, _P1.p0, sens_params=(0,), quantities=["slope_Pm"])

    def test_mode_switch_row_becomes_warning(self, monkeypatch):
        def fake_slope(system, p, k, eps=None, opts=None):
            raise ModeChangedAcrossStep("straddles the switch")

        monkeypatch.setattr("cctsens.validate.fd_cct_slope", fake_slope)
        with pytest.warns(RuntimeWarning, match="straddles"):
            rows = oracle_suite(
                _SYS1, _P1.p0, sens_params=(0,), quantities=["slope_Pm"]
            )
        assert rows == []
