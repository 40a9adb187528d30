"""End-to-end acceptance checks across the whole toolchain.

Each criterion runs as one test with its numerical tolerances and a
wall-clock budget; conftest.py prints one PASS/FAIL summary line per
criterion.  Finite-difference baselines are computed fresh on every
run, never hard-coded, so these tests cross-check independent code
paths rather than replaying stored numbers.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from cctsens import (
    CctOptions,
    CellClass,
    EventConfig,
    EventKind,
    GridSpec,
    InstabilityMode,
    IntegrationOptions,
    ModeChangedAcrossStep,
    Phase,
    PseudoEpKind,
    SmibParams,
    cct_sensitivity,
    classify_pseudo_ep,
    compute_cct,
    eval_H,
    find_equilibrium,
    integrate,
    integrate_with_sensitivities,
    sample_stability_region,
    scan_cct,
    sep_sensitivity,
    smib_system,
    system_from_expressions,
)
from cctsens import model
from cctsens.cli import main as cli_main
from cctsens.validate import fd_cct_slope, fd_trajectory_sensitivity

_D = 0.5  # fixed damping of the two-constraint machine model


@contextmanager
def _budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"runtime {elapsed:.1f}s exceeds the {seconds:.0f}s budget"


def _machine(p_mech, inertia, delta_max, omega_max):
    params = SmibParams(
        p_mech=p_mech, inertia=inertia, delta_max=delta_max, omega_max=omega_max
    )
    return params, smib_system(params)


def test_a1_integrator_accuracy():
    with _budget(1.0):
        # Pure exponential decay, exact solution x0 * exp(-t).
        decay = system_from_expressions(
            ["x1", "x2"],
            ["a"],
            {ph: {"f": ["-a*x1", "-a*x2"], "h": {"box": "4 - x1"}}
             for ph in ("pre", "fault", "post")},
        )
        x0 = np.array([1.3, -0.7])
        t_end = 2.0
        traj = integrate(
            decay, Phase.POST_FAULT, x0, np.array([1.0]),
            IntegrationOptions(rel_tol=1e-11, abs_tol=1e-13, t_max=t_end),
        )
        exact = x0 * math.exp(-t_end)
        rel = np.max(np.abs(traj.final_state - exact) / np.abs(exact))
        assert rel <= 1e-8, f"decay relative error {rel:.2e}"

        # Disconnected-machine speed: x2(t) = (Pm/D)(1 - exp(-D t / M)),
        # checked at the solver's own sample times at default tolerances.
        params, system = _machine(0.65, 0.1, 50.0, 50.0)
        x_s = find_equilibrium(system, Phase.PRE_FAULT, params.p0, np.zeros(2)).x
        traj = integrate(
            system, Phase.FAULT_ON, x_s, params.p0, IntegrationOptions(t_max=0.25)
        )
        scale = params.p_mech / _D
        for t, state in zip(traj.times, traj.states):
            if t < 0.01:
                continue  # the closed form starts at zero speed
            exact = scale * (1.0 - math.exp(-_D * t / params.inertia))
            rel = abs(state[1] - exact) / abs(exact)
            assert rel <= 1e-6, f"fault-on speed error {rel:.2e} at t={t:.3f}"


def test_a2_variational_vs_finite_differences():
    with _budget(10.0):
        rng = np.random.default_rng(7)
        for phase in (Phase.PRE_FAULT, Phase.FAULT_ON, Phase.POST_FAULT):
            for _ in range(20):
                params, system = _machine(
                    float(rng.uniform(0.2, 0.9)),
                    float(rng.uniform(0.1, 0.6)),
                    2.5,
                    2.5,
                )
                x0 = np.array(
                    [float(rng.uniform(-1.2, 1.5)), float(rng.uniform(-1.0, 1.0))]
                )
                t = float(rng.uniform(0.1, 0.4))
                _, bundle = integrate_with_sensitivities(
                    system, phase, x0, params.p0, IntegrationOptions(t_max=t)
                )
                k = int(rng.integers(4))
                phi_x_fd, phi_p_fd = fd_trajectory_sensitivity(
                    system, phase, x0, params.p0, t, k
                )
                # Relative to the matrix scale with a unit floor, so the
                # structural zeros do not divide by zero.
                rel_x = np.max(np.abs(bundle.final_phi_x - phi_x_fd)) / max(
                    1.0, np.max(np.abs(phi_x_fd))
                )
                rel_p = np.max(np.abs(bundle.final_phi_p[:, k] - phi_p_fd)) / max(
                    1.0, np.max(np.abs(phi_p_fd))
                )
                assert rel_x <= 1e-3, f"phi_x mismatch {rel_x:.2e} in {phase}"
                assert rel_p <= 1e-3, f"phi_p mismatch {rel_p:.2e} in {phase}"

        # Flow-map composition: the state transition over [0, t2] equals
        # the product of the transitions over [t1, t2] and [0, t1].
        params, system = _machine(0.65, 0.15, 2.5, 2.5)
        t1, t2 = 0.2, 0.45
        for _ in range(5):
            x0 = np.array(
                [float(rng.uniform(-1.0, 1.2)), float(rng.uniform(-0.8, 0.8))]
            )
            _, full = integrate_with_sensitivities(
                system, Phase.POST_FAULT, x0, params.p0, IntegrationOptions(t_max=t2)
            )
            leg1_traj, leg1 = integrate_with_sensitivities(
                system, Phase.POST_FAULT, x0, params.p0, IntegrationOptions(t_max=t1)
            )
            _, leg2 = integrate_with_sensitivities(
                system,
                Phase.POST_FAULT,
                leg1_traj.final_state,
                params.p0,
                IntegrationOptions(t_max=t2 - t1),
            )
            err = np.max(
                np.abs(leg2.final_phi_x @ leg1.final_phi_x - full.final_phi_x)
            )
            assert err <= 1e-6, f"composition error {err:.2e}"


def test_a3_equilibrium_shift_closed_form(monkeypatch):
    # The inertia column of the shift is proportional to the Newton
    # residual, so the equilibrium is solved close to machine precision
    # here.
    monkeypatch.setattr(model, "_NEWTON_TOL", 1e-14)
    with _budget(1.0):
        for p_mech in (0.3, 0.5, 0.65, 0.8):
            params, system = _machine(p_mech, 0.1, 2.0, 0.7)
            x_s = find_equilibrium(system, Phase.PRE_FAULT, params.p0, np.zeros(2)).x
            shift = sep_sensitivity(system, Phase.PRE_FAULT, params.p0, x_s)
            exact = 1.0 / math.cos(math.asin(p_mech))
            assert abs(shift[0, 0] - exact) <= 1e-8
            # The equilibrium does not move with the inertia or either limit.
            assert np.max(np.abs(shift[:, 1:])) <= 1e-10
            assert abs(shift[1, 0]) <= 1e-10


def test_a4_boundary_hit_slopes_across_power_sweep():
    with _budget(120.0):
        previous = None
        for p_mech in np.linspace(0.45, 0.85, 9):
            params, system = _machine(float(p_mech), 0.1, 2.0, 0.7)
            result = compute_cct(system, params.p0)
            assert result.mode is InstabilityMode.FAULT_BOUNDARY
            sens = cct_sensitivity(system, params.p0, result)
            fd = fd_cct_slope(system, params.p0, 0, eps=1e-3)
            rel = abs(sens.dt_cl[0] - fd) / abs(fd)
            assert rel <= 0.05, f"slope mismatch {rel:.2e} at p_mech={p_mech:.2f}"
            if previous is not None:
                assert result.t_cl < previous, "clearing time must fall as power rises"
            previous = result.t_cl


def test_a5_graze_slopes_match_finite_differences():
    with _budget(120.0):
        params, system = _machine(0.5, 0.5, 1.6, 0.9)
        result = compute_cct(system, params.p0, CctOptions(bisection_tol=1e-4))
        assert result.mode is InstabilityMode.POST_FAULT_CROSSING
        sens = cct_sensitivity(system, params.p0, result)
        fd_opts = CctOptions(bisection_tol=1e-6)
        for k in range(3):
            fd = fd_cct_slope(system, params.p0, k, eps=1e-3, opts=fd_opts)
            rel = abs(sens.dt_cl[k] - fd) / abs(fd)
            assert rel <= 0.05, f"graze slope mismatch {rel:.2e} for parameter {k}"
        # The speed limit is inactive at the graze, so both slopes sit at
        # zero; compare absolutely where a relative criterion is undefined.
        fd = fd_cct_slope(system, params.p0, 3, eps=1e-3, opts=fd_opts)
        assert abs(sens.dt_cl[3] - fd) <= 5e-3
        assert sens.dt_cl[1] > 0.0, "more inertia must buy clearing time"


def test_a6_mode_switch_is_diagnosed():
    with _budget(120.0):
        inertias = np.linspace(0.1, 0.5, 9)
        modes = []
        for inertia in inertias:
            params, system = _machine(0.5, float(inertia), 1.6, 0.9)
            modes.append(int(compute_cct(system, params.p0).mode))
        assert modes[0] == 1 and modes[-1] == 2
        assert modes == sorted(modes), "the mode must switch exactly once"
        switch = next(i for i in range(len(modes) - 1) if modes[i] != modes[i + 1])

        # Each regime's slope is validated on its own side of the switch.
        params, system = _machine(0.5, 0.2, 1.6, 0.9)
        result = compute_cct(system, params.p0)
        sens = cct_sensitivity(system, params.p0, result)
        fd = fd_cct_slope(system, params.p0, 1, eps=1e-3)
        assert abs(sens.dt_cl[1] - fd) / abs(fd) <= 0.05

        params, system = _machine(0.5, 0.45, 1.6, 0.9)
        result = compute_cct(system, params.p0, CctOptions(bisection_tol=1e-4))
        sens = cct_sensitivity(system, params.p0, result)
        fd = fd_cct_slope(
            system, params.p0, 1, eps=1e-3, opts=CctOptions(bisection_tol=1e-6)
        )
        assert abs(sens.dt_cl[1] - fd) / abs(fd) <= 0.05

        # A finite-difference step straddling the switch must raise a
        # diagnostic instead of returning a silently wrong slope.
        mid = 0.5 * float(inertias[switch] + inertias[switch + 1])
        half = 0.5 * float(inertias[switch + 1] - inertias[switch])
        params, system = _machine(0.5, mid, 1.6, 0.9)
        with pytest.raises(ModeChangedAcrossStep):
            fd_cct_slope(system, params.p0, 1, eps=half)


@pytest.mark.slow
def test_a7_bisection_agrees_with_dense_scan():
    with _budget(120.0):
        cases = [
            _machine(0.65, 0.1, 2.0, 0.7),
            _machine(0.5, 0.5, 1.6, 0.9),
            _machine(0.5, 0.2, 1.6, 0.9),
        ]
        tol = CctOptions().bisection_tol
        for params, system in cases:
            result = compute_cct(system, params.p0)
            approx = scan_cct(system, params.p0, step=tol / 10.0)
            assert abs(result.t_cl - approx) <= tol
            history = result.bracket_history
            assert history, "bisection must record its bracket"
            for (lo, hi) in history:
                assert lo < hi
            for (lo0, hi0), (lo1, hi1) in zip(history, history[1:]):
                assert lo1 >= lo0 and hi1 <= hi0, "bracket must shrink monotonically"


def test_a8_classification_matches_displacement_integration():
    with _budget(30.0):
        rng = np.random.default_rng(2024)
        short = IntegrationOptions(rel_tol=1e-10, abs_tol=1e-12, t_max=1e-4, max_step=1e-4)
        compared = agreed = 0
        for _ in range(1000):
            params, system = _machine(
                float(rng.uniform(0.2, 0.9)),
                float(rng.uniform(0.1, 0.5)),
                float(rng.uniform(0.8, 2.5)),
                float(rng.uniform(0.4, 1.2)),
            )
            angle, speed = system.phases[Phase.POST_FAULT].constraints
            if rng.integers(2) == 0:
                face = angle
                x = np.array(
                    [params.delta_max, float(rng.uniform(-0.9, 0.9)) * params.omega_max]
                )
            else:
                face = speed
                x = np.array(
                    [float(rng.uniform(-0.9, 0.9)) * params.delta_max, params.omega_max]
                )
            verdict = classify_pseudo_ep(system, Phase.POST_FAULT, face, x, params.p0)
            if verdict.kind is PseudoEpKind.SEMI_SADDLE:
                continue
            if abs(verdict.h_dot) <= 1000.0 * verdict.threshold:
                continue  # inside the noise band, the displacement sign is unreliable
            traj = integrate(system, Phase.POST_FAULT, x, params.p0, short)
            displaced = eval_H(system, Phase.POST_FAULT, traj.final_state, params.p0)
            compared += 1
            flow_leaves = displaced < 0.0
            if flow_leaves == (verdict.kind is PseudoEpKind.STABLE):
                agreed += 1
        assert compared >= 900, f"only {compared} points left after the noise filter"
        assert agreed / compared >= 0.99, f"agreement {agreed}/{compared}"

        # Constructed tangency points: on the speed face the acceleration
        # vanishes where sin(delta) = p_mech - D * omega_max.
        for _ in range(25):
            p_mech = float(rng.uniform(0.2, 0.9))
            omega_max = float(rng.uniform(0.4, 1.2))
            params, system = _machine(p_mech, float(rng.uniform(0.1, 0.5)), 2.5, omega_max)
            x = np.array([math.asin(p_mech - _D * omega_max), omega_max])
            speed = system.phases[Phase.POST_FAULT].constraints[1]
            verdict = classify_pseudo_ep(system, Phase.POST_FAULT, speed, x, params.p0)
            assert verdict.kind is PseudoEpKind.SEMI_SADDLE
            assert abs(verdict.h_value) <= 1e-8
            assert abs(verdict.h_dot) <= verdict.threshold


@pytest.mark.slow
def test_a9_stability_grid_consistency_and_inertia_trend():
    with _budget(300.0):
        spec = GridSpec(-1.5, 3.5, -2.5, 2.5, 100, 100)
        # The classifier's own tolerances; near-boundary labels are only
        # meaningful when re-simulated at the tolerance that produced them.
        grid_opts = IntegrationOptions(rel_tol=1e-6, abs_tol=1e-9, t_max=20.0, max_step=0.5)
        sep_radius = 1e-2
        extents = {}
        row = int(np.argmin(np.abs(spec.x2)))
        for inertia in (0.1, 0.3):
            params, system = _machine(0.65, inertia, 2.0, 0.7)
            grid = sample_stability_region(
                system, params.p0, spec, opts=grid_opts, sep_radius=sep_radius
            )
            mask = grid.stable_mask()
            extents[inertia] = int(mask[:, row].sum())
            events = EventConfig(
                constraints=system.phases[Phase.POST_FAULT].constraints,
                sep_target=grid.sep,
                sep_radius=sep_radius,
            )
            for i in range(spec.n1):
                for j in range(spec.n2):
                    if not mask[i, j]:
                        continue
                    traj = integrate(
                        system,
                        Phase.POST_FAULT,
                        np.array([spec.x1[i], spec.x2[j]]),
                        params.p0,
                        grid_opts,
                        events,
                    )
                    assert traj.first_event(EventKind.CONSTRAINT_CROSSING) is None, (
                        f"stable cell ({i},{j}) crossed the boundary on re-simulation"
                    )
                    assert traj.first_event(EventKind.CONVERGED_TO_SEP) is not None, (
                        f"stable cell ({i},{j}) did not reconverge"
                    )
        assert extents[0.3] > extents[0.1], (
            f"stable extent along x1 must grow with inertia: {extents}"
        )


def test_a10_sweep_output_is_deterministic(tmp_path):
    config = {
        "system": {
            "kind": "smib", "p_mech": 0.65, "inertia": 0.1,
            "delta_max": 2.0, "omega_max": 0.7,
        },
        "sweep": {
            "parameter": "Pm", "start": 0.55, "stop": 0.75,
            "count": 5, "tangents": True,
        },
        "tolerances": {"bisection_tol": 0.01},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))

    start = time.monotonic()
    assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "run1")]) == 0
    first = time.monotonic() - start
    start = time.monotonic()
    assert cli_main(["sweep", "--config", str(path), "--out", str(tmp_path / "run2")]) == 0
    second = time.monotonic() - start

    bytes1 = (tmp_path / "run1" / "sweep.csv").read_bytes()
    bytes2 = (tmp_path / "run2" / "sweep.csv").read_bytes()
    assert bytes1 == bytes2, "reruns of the same sweep must be byte-identical"
    # Everything beyond the two sweep runs themselves must be negligible,
    # keeping the whole check under twice one sweep's runtime.
    assert second < 2.0 * first + 1.0
