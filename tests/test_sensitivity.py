"""Critical-time sensitivities against closed forms and finite differences.

For the fault-boundary mode the speed limit is hit at
t_cl = -(M/D) ln(1 - D omega_max / Pm), giving exact slopes

    dt/dPm        = -M omega_max / (Pm (Pm - D omega_max))
    dt/dM         =  t_cl / M
    dt/ddelta_max =  0
    dt/domega_max =  M / (Pm - D omega_max).

The grazing mode has no closed form here; its slopes are checked
against central differences of the bisection itself.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cctsens import (
    CctOptions,
    DegenerateGeometry,
    InstabilityMode,
    IntegrationOptions,
    SmibParams,
    TangentialIntersection,
    UnsupportedMode,
    cct_sensitivity,
    cct_sensitivity_mode1,
    cct_sensitivity_mode2,
    compute_cct,
    fault_matrices,
    post_matrices,
    smib_system,
)

_D = 0.5

_P1 = SmibParams(p_mech=0.65, inertia=0.1, delta_max=2.0, omega_max=0.7)
_SYS1 = smib_system(_P1)

_P2 = SmibParams(p_mech=0.5, inertia=0.5, delta_max=1.6, omega_max=0.9)
_SYS2 = smib_system(_P2)


@pytest.fixture(scope="module")
def mode1_result():
    return compute_cct(_SYS1, _P1.p0)


@pytest.fixture(scope="module")
def mode2_result():
    return compute_cct(_SYS2, _P2.p0, CctOptions(bisection_tol=1e-4))


def _mode1_exact(t_cl):
    pm, m, wmax = 0.65, 0.1, 0.7
    return np.array([
        -m * wmax / (pm * (pm - _D * wmax)),
        t_cl / m,
        0.0,
        m / (pm - _D * wmax),
    ])


class TestFaultMatrices:
    def test_shapes_and_active_constraint(self, mode1_result):
        fm = fault_matrices(_SYS1, _P1.p0, mode1_result)
        assert fm.m1.shape == (2, 2)
        assert fm.m2.shape == (2,)
        assert fm.m3.shape == (2, 4)
        assert fm.m4.shape == (2, 4)
        assert fm.constraint == "speed_limit"

    def test_equilibrium_shift_column(self, mode1_result):
        # Only Pm moves the pre-fault equilibrium: d delta_s / d Pm =
        # 1 / cos(asin(Pm)).
        fm = fault_matrices(_SYS1, _P1.p0, mode1_result)
        expected = np.zeros((2, 4))
        expected[0, 0] = 1.0 / math.cos(math.asin(0.65))
        np.testing.assert_allclose(fm.m4, expected, atol=1e-10)

    def test_field_at_stored_clearing_state(self, mode1_result):
        fm = fault_matrices(_SYS1, _P1.p0, mode1_result)
        # During the fault omega' = (Pm - D omega)/M and the hit is at
        # omega = omega_max.
        np.testing.assert_allclose(
            fm.m2, [0.7, (0.65 - _D * 0.7) / 0.1], rtol=1e-9
        )

    def test_limit_parameters_do_not_move_the_flow(self, mode1_result):
        fm = fault_matrices(_SYS1, _P1.p0, mode1_result)
        np.testing.assert_allclose(fm.m3[:, 2:], 0.0, atol=1e-12)

    def test_rejects_nonpositive_time(self, mode1_result):
        with pytest.raises(ValueError):
            fault_matrices(_SYS1, _P1.p0, replace(mode1_result, t_cl=0.0))


class TestMode1:
    def test_matches_closed_forms(self, mode1_result):
        s = cct_sensitivity_mode1(_SYS1, _P1.p0, mode1_result)
        np.testing.assert_allclose(
            s, _mode1_exact(mode1_result.t_cl), rtol=0, atol=5e-7
        )

    def test_inactive_limit_slope_is_exactly_zero(self, mode1_result):
        s = cct_sensitivity_mode1(_SYS1, _P1.p0, mode1_result)
        assert s[2] == 0.0

    def test_rejects_other_modes(self, mode2_result):
        with pytest.raises(ValueError):
            cct_sensitivity_mode1(_SYS2, _P2.p0, mode2_result)

    def test_tangential_hit_rejected(self, mode1_result):
        # With Pm = D omega_max the fault speed saturates exactly at
        # the limit, so a doctored hit state has zero normal speed.
        params = SmibParams(p_mech=0.35, inertia=0.1, delta_max=2.0, omega_max=0.7)
        doctored = replace(
            mode1_result,
            x_cr=np.array([0.8, 0.7]),
            x_sep_pre=np.array([math.asin(0.35), 0.0]),
        )
        with pytest.raises(TangentialIntersection):
            cct_sensitivity_mode1(smib_system(params), params.p0, doctored)


class TestPostMatrices:
    def test_shapes(self, mode2_result):
        pm = post_matrices(_SYS2, _P2.p0, mode2_result)
        assert pm.o1.shape == (2, 2)
        assert pm.o2.shape == (2,)
        assert pm.o3.shape == (2, 4)

    def test_field_at_stored_graze_state(self, mode2_result):
        pm = post_matrices(_SYS2, _P2.p0, mode2_result)
        x_t = mode2_result.x_T
        f2 = (0.5 - math.sin(x_t[0]) - _D * x_t[1]) / 0.5
        np.testing.assert_allclose(pm.o2, [x_t[1], f2], rtol=1e-12)

    def test_rejects_results_without_graze(self, mode1_result):
        with pytest.raises(ValueError):
            post_matrices(_SYS1, _P1.p0, mode1_result)


class TestMode2:
    def test_matches_finite_differences(self, mode2_result):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            dt_cl, _ = cct_sensitivity_mode2(_SYS2, _P2.p0, mode2_result)
        fd_opts = CctOptions(bisection_tol=1e-6)
        eps = 1e-3
        for i in (0, 1, 2):
            hi, lo = _P2.p0.copy(), _P2.p0.copy()
            hi[i] += eps
            lo[i] -= eps
            fd = (
                compute_cct(_SYS2, hi, fd_opts).t_cl
                - compute_cct(_SYS2, lo, fd_opts).t_cl
            ) / (2.0 * eps)
            assert dt_cl[i] == pytest.approx(fd, rel=0.05), f"param {i}"

    def test_signs_of_active_slopes(self, mode2_result):
        dt_cl, d_t = cct_sensitivity_mode2(_SYS2, _P2.p0, mode2_result)
        assert dt_cl[0] < 0.0  # more drive, earlier instability
        assert dt_cl[1] > 0.0  # more inertia buys time
        assert dt_cl[2] > 0.0  # wider angle window buys time
        assert abs(dt_cl[3]) < 5e-3  # speed limit is inactive at the graze
        assert d_t.shape == (4,)
        assert np.isfinite(d_t).all()

    def test_warns_on_coarse_bracket(self):
        coarse = compute_cct(_SYS2, _P2.p0)
        with pytest.warns(RuntimeWarning, match="bisection_tol"):
            cct_sensitivity_mode2(_SYS2, _P2.p0, coarse)

    def test_quiet_on_tight_bracket(self, mode2_result):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cct_sensitivity_mode2(_SYS2, _P2.p0, mode2_result)

    def test_rejects_other_modes(self, mode1_result):
        with pytest.raises(ValueError):
            cct_sensitivity_mode2(_SYS1, _P1.p0, mode1_result)

    @pytest.mark.parametrize("inertia,active", [
        (0.35, [-4.012413240078731, 1.0772725645801842, 1.0764803848906148]),
        (0.5, [-4.350789973366892, 0.9446371381801507, 1.1372917880103106]),
        (0.6, [-4.565074730012399, 0.8720563502068879, 1.1783449584709793]),
    ])
    def test_inactive_limit_slope_is_exactly_zero(self, inertia, active):
        # At the default bracket the stored graze state still drifts
        # across the angle limit; the conditions of that limit alone
        # give the speed limit no say in the critical time.
        params = SmibParams(p_mech=0.5, inertia=inertia, delta_max=1.6, omega_max=0.9)
        system = smib_system(params)
        result = compute_cct(system, params.p0)
        assert result.mode is InstabilityMode.POST_FAULT_CROSSING
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            dt_cl, _ = cct_sensitivity_mode2(system, params.p0, result)
        assert dt_cl[3] == 0.0
        np.testing.assert_allclose(dt_cl[:3], active, rtol=1e-9, atol=0)

    def test_corner_graze_is_degenerate(self, mode2_result):
        # At the constraint corner both margins vanish and the product
        # gradient collapses to zero.
        doctored = replace(mode2_result, x_T=np.array([1.6, 0.9]))
        with pytest.raises(DegenerateGeometry), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cct_sensitivity_mode2(_SYS2, _P2.p0, doctored)


class TestDispatcher:
    def test_mode1(self, mode1_result):
        res = cct_sensitivity(_SYS1, _P1.p0, mode1_result)
        assert res.mode is InstabilityMode.FAULT_BOUNDARY
        assert res.dT is None
        np.testing.assert_allclose(
            res.dt_cl, _mode1_exact(mode1_result.t_cl), atol=5e-7
        )

    def test_mode2(self, mode2_result):
        res = cct_sensitivity(_SYS2, _P2.p0, mode2_result)
        assert res.mode is InstabilityMode.POST_FAULT_CROSSING
        assert res.dT is not None and res.dT.shape == (4,)

    def test_mode3_unsupported(self, mode2_result):
        doctored = replace(mode2_result, mode=InstabilityMode.NO_RETURN)
        with pytest.raises(UnsupportedMode):
            cct_sensitivity(_SYS2, _P2.p0, doctored)
