"""Boundary geometry: H, margin drifts, classification, grids."""

import math
from dataclasses import replace

import numpy as np
import pytest

from cctsens import (
    CellClass,
    ConstrainedSystem,
    EmptyCombinedBoundary,
    EventConfig,
    EventKind,
    GridSpec,
    IntegrationOptions,
    NoEquilibriumFound,
    Phase,
    PseudoEpKind,
    SmibParams,
    classify_grid_point,
    classify_grid_points,
    classify_pseudo_ep,
    combined_H,
    combined_constraints,
    eval_H,
    eval_f,
    eval_jacobians,
    find_equilibrium,
    integrate,
    integrate_lanes,
    sample_stability_region,
    smib_system,
    system_from_expressions,
)
from cctsens import boundary, integrator
from cctsens.boundary import (
    _GRID_OPTS,
    _GRID_SEP_RADIUS,
    _along_curve,
    _boundary_samples,
    _project_to_constraint,
    _scan_zero_crossings,
)
from cctsens.model import _attraction_radius
from cctsens.sensitivity import _graze_rows

_PARAMS = SmibParams(p_mech=0.5, inertia=0.1, delta_max=2.0, omega_max=1.5)
_SYS = smib_system(_PARAMS)
_P = _PARAMS.p0
_ANGLE, _SPEED = _SYS.phases[Phase.POST_FAULT].constraints


def _fd_grad(fn, z, eps=1e-6):
    z = np.asarray(z, dtype=float)
    g = np.zeros_like(z)
    for i in range(len(z)):
        zp, zm = z.copy(), z.copy()
        zp[i] += eps
        zm[i] -= eps
        g[i] = (fn(zp) - fn(zm)) / (2.0 * eps)
    return g


# A system with curved constraints, so the graze rows of each margin
# carry nontrivial Hessians.
_CURVED = system_from_expressions(
    state=["x1", "x2"],
    params=["a", "b"],
    phases={
        "pre": {"f": ["x2", "-a*sin(x1) - b*x2"]},
        "fault": {"f": ["x2", "0"]},
        "post": {
            "f": ["x2", "-a*sin(x1) - b*x2"],
            "h": {
                "disk": "1 - x1**2 - x2**2/b",
                "band": "a - x1*x2",
            },
        },
    },
)

_CURVED_MARGINS = _CURVED.phases[Phase.POST_FAULT].constraints  # disk, band


def _curved_rows(c, x, p):
    """Graze rows of one margin of the curved system under its own field."""
    jx, jp = eval_jacobians(_CURVED, Phase.POST_FAULT, x, p)
    return _graze_rows(c, x, p, eval_f(_CURVED, Phase.POST_FAULT, x, p), jx, jp)


def _margin_drift(c, x, p):
    return float(_curved_rows(c, x, p)[0][0] @ eval_f(_CURVED, Phase.POST_FAULT, x, p))


def _margin_hessians(c, x, p):
    """(hess_xx, hess_xp) read off the graze rows, which are linear in the field.

    Under the unit field e_i with zero Jacobians the drift rows are
    hess_xx e_i and hess_xp^T e_i: column i of hess_xx and row i of hess_xp.
    """
    zx, zp = np.zeros((2, 2)), np.zeros((2, 2))
    probes = [_graze_rows(c, x, p, e, zx, zp) for e in np.eye(2)]
    return (
        np.column_stack([rows_x[1] for rows_x, _ in probes]),
        np.vstack([rows_p[1] for _, rows_p in probes]),
    )


class TestEvalH:
    def test_product_of_margins(self):
        x = np.array([0.3, 0.4])
        assert eval_H(_SYS, Phase.POST_FAULT, x, _P) == pytest.approx(
            (2.0 - 0.3) * (1.5 - 0.4), abs=1e-15
        )

    def test_zero_on_boundary(self):
        assert eval_H(_SYS, Phase.POST_FAULT, np.array([0.5, 1.5]), _P) == 0.0

    def test_negative_outside(self):
        assert eval_H(_SYS, Phase.POST_FAULT, np.array([2.3, 0.0]), _P) < 0.0

    def test_constraint_free_phase_is_one(self):
        sys2 = system_from_expressions(
            state=["x1"], params=["a"],
            phases={"pre": {"f": ["-a*x1"]}, "fault": {"f": ["0"]},
                    "post": {"f": ["-a*x1"]}},
        )
        assert eval_H(sys2, Phase.POST_FAULT, np.array([0.7]), np.array([1.0])) == 1.0


class TestGradientsAndHessians:
    @pytest.mark.parametrize("x,p", [
        (np.array([0.4, 0.2]), np.array([0.6, 1.3])),
        (np.array([-0.3, 0.9]), np.array([0.9, 0.4])),
        (np.array([0.1, -0.5]), np.array([0.2, 2.0])),
    ])
    def test_gradients_match_finite_differences(self, x, p):
        for c in _CURVED_MARGINS:
            gx = np.asarray(c.grad_x(x, p), dtype=float)
            gp = np.asarray(c.grad_p(x, p), dtype=float)
            gx_fd = _fd_grad(lambda z: c.value(z, p), x)
            gp_fd = _fd_grad(lambda q: c.value(x, q), p)
            np.testing.assert_allclose(gx, gx_fd, rtol=0, atol=5e-9)
            np.testing.assert_allclose(gp, gp_fd, rtol=0, atol=5e-9)

    @pytest.mark.parametrize("x,p", [
        (np.array([0.4, 0.2]), np.array([0.6, 1.3])),
        (np.array([-0.2, 0.6]), np.array([1.1, 0.7])),
    ])
    def test_hessians_match_finite_differences(self, x, p):
        for c in _CURVED_MARGINS:
            hxx, hxp = _margin_hessians(c, x, p)
            for i in range(2):
                row_fd = _fd_grad(lambda z: _curved_rows(c, z, p)[0][0, i], x)
                np.testing.assert_allclose(hxx[i], row_fd, rtol=0, atol=5e-8)
                cross_fd = _fd_grad(lambda q: _curved_rows(c, x, q)[0][0, i], p)
                np.testing.assert_allclose(hxp[i], cross_fd, rtol=0, atol=5e-8)

    def test_hessian_symmetry(self):
        for c in _CURVED_MARGINS:
            hxx, _ = _margin_hessians(c, np.array([0.3, -0.4]), np.array([0.8, 1.2]))
            np.testing.assert_allclose(hxx, hxx.T, atol=1e-14)


class TestHDot:
    def test_hand_value_on_speed_boundary(self):
        # The speed margin is omega_max - x2, so its drift is -f2.
        x = np.array([0.5, 1.5])
        f2 = (0.5 - math.sin(0.5) - 0.5 * 1.5) / 0.1
        h_dot = classify_pseudo_ep(_SYS, Phase.POST_FAULT, _SPEED, x, _P).h_dot
        assert h_dot == pytest.approx(-f2, rel=1e-14)
        assert h_dot == pytest.approx(7.29426, abs=5e-5)

    def test_matches_trajectory_slope(self):
        x = np.array([0.8, 0.6])
        f = eval_f(_SYS, Phase.POST_FAULT, x, _P)
        eps = 1e-6
        for c in (_ANGLE, _SPEED):
            slope = (c.value(x + eps * f, _P) - c.value(x - eps * f, _P)) / (2.0 * eps)
            h_dot = classify_pseudo_ep(_SYS, Phase.POST_FAULT, c, x, _P).h_dot
            assert h_dot == pytest.approx(slope, rel=1e-7)

    @pytest.mark.parametrize("x,p", [
        (np.array([0.4, 0.2]), np.array([0.6, 1.3])),
        (np.array([-0.3, 0.9]), np.array([0.9, 0.4])),
    ])
    def test_hdot_gradients_match_finite_differences(self, x, p):
        for c in _CURVED_MARGINS:
            rows_x, rows_p = _curved_rows(c, x, p)
            dx_fd = _fd_grad(lambda z: _margin_drift(c, z, p), x)
            dp_fd = _fd_grad(lambda q: _margin_drift(c, x, q), p)
            np.testing.assert_allclose(rows_x[1], dx_fd, rtol=0, atol=2e-7)
            np.testing.assert_allclose(rows_p[1], dp_fd, rtol=0, atol=2e-7)


class TestClassifyPseudoEp:
    def test_interior_point(self):
        cl = classify_pseudo_ep(_SYS, Phase.POST_FAULT, _ANGLE, np.array([0.6, 0.0]), _P)
        assert cl.kind is PseudoEpKind.NOT_ON_BOUNDARY
        assert cl.h_value > 0.0

    def test_exiting_flow_is_stable(self):
        # x2 > 0 pushes the angle through its limit, its margin decreasing.
        cl = classify_pseudo_ep(_SYS, Phase.POST_FAULT, _ANGLE, np.array([2.0, 1.0]), _P)
        assert cl.kind is PseudoEpKind.STABLE
        assert cl.h_dot == pytest.approx(-1.0, rel=1e-14)

    def test_entering_flow_is_unstable(self):
        cl = classify_pseudo_ep(_SYS, Phase.POST_FAULT, _ANGLE, np.array([2.0, -1.0]), _P)
        assert cl.kind is PseudoEpKind.UNSTABLE

    def test_tangent_flow_is_semi_saddle(self):
        cl = classify_pseudo_ep(_SYS, Phase.POST_FAULT, _ANGLE, np.array([2.0, 0.0]), _P)
        assert cl.kind is PseudoEpKind.SEMI_SADDLE

    def test_speed_boundary_semi_saddle(self):
        # On the speed line the drift is -f2, so tangency sits where f2 = 0.
        p = SmibParams(p_mech=0.5, inertia=0.1, delta_max=2.0, omega_max=0.5).p0
        x = np.array([math.asin(0.5 - 0.5 * 0.5), 0.5])
        cl = classify_pseudo_ep(_SYS, Phase.POST_FAULT, _SPEED, x, p)
        assert cl.kind is PseudoEpKind.SEMI_SADDLE

    def test_tangency_band_scales_with_field(self):
        # Tiny drift inside the scaled band still counts as tangent.
        near = classify_pseudo_ep(_SYS, Phase.POST_FAULT, _ANGLE, np.array([2.0, 1e-8]), _P)
        assert near.kind is PseudoEpKind.SEMI_SADDLE
        clear = classify_pseudo_ep(_SYS, Phase.POST_FAULT, _ANGLE, np.array([2.0, 1e-2]), _P)
        assert clear.kind is PseudoEpKind.STABLE

    def test_threshold_reported(self):
        cl = classify_pseudo_ep(_SYS, Phase.POST_FAULT, _ANGLE, np.array([2.0, 1.0]), _P)
        gx = _ANGLE.grad_x(np.array([2.0, 1.0]), _P)
        f = eval_f(_SYS, Phase.POST_FAULT, np.array([2.0, 1.0]), _P)
        assert cl.threshold == pytest.approx(
            1e-6 * np.linalg.norm(gx) * np.linalg.norm(f), rel=1e-12
        )

    def test_against_short_flow_oracle(self):
        # Propagate boundary points a tiny step and compare the sign of
        # the measured slope of their margin with the classification.
        rng = np.random.default_rng(7)
        opts = IntegrationOptions(rel_tol=1e-10, abs_tol=1e-12, t_max=1e-4)
        from cctsens import integrate

        checked = 0
        for _ in range(100):
            if rng.random() < 0.5:
                c, x = _ANGLE, np.array([2.0, rng.uniform(-1.4, 1.4)])
            else:
                c, x = _SPEED, np.array([rng.uniform(-0.5, 1.9), 1.5])
            cl = classify_pseudo_ep(_SYS, Phase.POST_FAULT, c, x, _P)
            if cl.kind is PseudoEpKind.SEMI_SADDLE:
                continue
            traj = integrate(_SYS, Phase.POST_FAULT, x, _P, opts)
            h1 = c.value(traj.final_state, _P)
            slope = (h1 - cl.h_value) / traj.final_time
            expected = PseudoEpKind.UNSTABLE if slope > 0 else PseudoEpKind.STABLE
            assert cl.kind is expected
            checked += 1
        assert checked >= 80


class TestCombinedBoundary:
    def test_duplicate_names_kept_once(self):
        kept = combined_constraints(_SYS)
        assert [c.name for c in kept] == ["angle_limit", "speed_limit"]

    def test_combined_matches_post_for_duplicates(self):
        x = np.array([0.7, 0.2])
        h = combined_H(_SYS, x, _P)
        assert h == pytest.approx(eval_H(_SYS, Phase.POST_FAULT, x, _P), rel=1e-15)

    def test_fault_only_constraint_included(self):
        sys2 = system_from_expressions(
            state=["x1", "x2"], params=["a"],
            phases={
                "pre": {"f": ["x2", "-a*x1"]},
                "fault": {"f": ["x2", "0"], "h": {"lid": "2 - x1", "cap": "3 - x2"}},
                "post": {"f": ["x2", "-a*x1"], "h": {"lid": "1 - x1"}},
            },
        )
        # The fault-side "lid" is absent: the name appears once.
        kept = combined_constraints(sys2)
        assert [c.name for c in kept] == ["lid", "cap"]
        # The post-side duplicate wins: margin 1 - x1, not 2 - x1.
        x = np.array([0.5, 0.5])
        h = combined_H(sys2, x, np.array([1.0]))
        assert h == pytest.approx(0.5 * 2.5, rel=1e-15)

    def test_no_constraints_anywhere_raises(self):
        sys2 = system_from_expressions(
            state=["x1"], params=["a"],
            phases={"pre": {"f": ["-a*x1"]}, "fault": {"f": ["0"]},
                    "post": {"f": ["-a*x1"]}},
        )
        with pytest.raises(EmptyCombinedBoundary):
            combined_H(sys2, np.array([0.1]), np.array([1.0]))


def _pointwise_boundary_samples(system, p, spec, constraint):
    """Loop reference for ``_boundary_samples``: one margin call per grid point."""
    others = [
        c for c in system.phases[Phase.POST_FAULT].constraints if c.name != constraint.name
    ]
    pts = []
    for a in spec.x1:
        vals = np.array([constraint.value(np.array([a, b]), p) for b in spec.x2])
        pts += [np.array([a, b]) for b in _scan_zero_crossings(vals, spec.x2)]
    for b in spec.x2:
        vals = np.array([constraint.value(np.array([a, b]), p) for a in spec.x1])
        pts += [np.array([a, b]) for a in _scan_zero_crossings(vals, spec.x1)]
    refined = [_project_to_constraint(constraint, x, p) for x in pts]
    return _along_curve([x for x in refined if all(o.value(x, p) >= -1e-10 for o in others)])


@pytest.fixture(scope="module")
def grid():
    spec = GridSpec(x1_min=-0.5, x1_max=2.5, x2_min=-2.0, x2_max=2.0,
                    n1=16, n2=12)
    return sample_stability_region(_SYS, _P, spec)


class TestStabilityRegionGrid:
    def test_sep_cell_is_stable(self, grid):
        i = int(np.argmin(np.abs(grid.spec.x1 - grid.sep[0])))
        j = int(np.argmin(np.abs(grid.spec.x2 - grid.sep[1])))
        assert grid.classes[i, j] is CellClass.STABLE

    def test_infeasible_cells_hit_boundary(self, grid):
        for i, a in enumerate(grid.spec.x1):
            for j, b in enumerate(grid.spec.x2):
                if a > 2.0 or b > 1.5:
                    assert grid.classes[i, j] is CellClass.HITS_BOUNDARY

    def test_all_classes_assigned(self, grid):
        kinds = {grid.classes[i, j] for i in range(16) for j in range(12)}
        assert CellClass.STABLE in kinds
        assert CellClass.HITS_BOUNDARY in kinds
        assert all(isinstance(k, CellClass) for k in kinds)

    def test_cells_match_pointwise_classification(self, grid):
        rng = np.random.default_rng(3)
        for _ in range(12):
            i = int(rng.integers(0, 16))
            j = int(rng.integers(0, 12))
            x0 = np.array([grid.spec.x1[i], grid.spec.x2[j]])
            assert classify_grid_point(_SYS, _P, x0, grid.sep) is grid.classes[i, j]

    def test_boundary_points_lie_on_their_constraint(self, grid):
        by_name = {c.name: c for c in _SYS.phases[Phase.POST_FAULT].constraints}
        assert grid.boundary_points
        for bp in grid.boundary_points:
            assert abs(by_name[bp.constraint].value(bp.x, _P)) < 1e-9

    def test_boundary_points_classified_by_flow_direction(self, grid):
        for bp in grid.boundary_points:
            if bp.constraint != "angle_limit" or abs(bp.x[1]) < 1e-6:
                continue
            expected = PseudoEpKind.STABLE if bp.x[1] > 0 else PseudoEpKind.UNSTABLE
            assert bp.kind is expected

    def test_semi_saddles_found(self, grid):
        # Angle line grazes at zero speed; speed line where the
        # acceleration changes sign.
        locs = {bp.constraint: bp.x for bp in grid.semi_saddles}
        assert set(locs) == {"angle_limit", "speed_limit"}
        np.testing.assert_allclose(locs["angle_limit"], [2.0, 0.0], atol=1e-8)
        delta_star = math.asin(0.5 - 0.5 * 1.5)
        np.testing.assert_allclose(locs["speed_limit"], [delta_star, 1.5], atol=1e-8)
        for bp in grid.semi_saddles:
            assert bp.kind is PseudoEpKind.SEMI_SADDLE

    # The disk's samples form: an open arc (1); a loop whose two chain ends
    # are neighbours, next to a short arc left of the window that holds the
    # tangency at x1 = -1 (2); an arc whose lowest (x1, x2) sample lies
    # inside it, next to that tangency (3).
    @pytest.mark.parametrize("window", [
        (-0.9, 1.2, -0.7, 0.8), (-0.99, 1.2, -0.7, 0.8), (-1.2, 1.2, -0.8, 0.2),
    ])
    def test_curved_semi_saddles_are_its_tangencies(self, window):
        # The oracle walks the disk x1 = cos t, x2 = sqrt(b) sin t inside the
        # window and finds the drift's sign changes, at (+-1, 0) and about
        # (+-0.63, -+0.55).  Samples sorted by (x1, x2) interleave the disk's
        # two branches, which refined a semi-saddle at every branch switch.
        p = np.array([1.0, 0.5])
        spec = GridSpec(*window, n1=9, n2=9)
        grid = sample_stability_region(_CURVED, p, spec)
        t = np.linspace(-0.5 * math.pi, 1.5 * math.pi, 4000)  # seam at the bottom
        disk = np.column_stack([np.cos(t), math.sqrt(p[1]) * np.sin(t)])
        inside = (
            (disk[:, 0] >= spec.x1_min) & (disk[:, 0] <= spec.x1_max)
            & (disk[:, 1] >= spec.x2_min) & (disk[:, 1] <= spec.x2_max)
        )
        rising = [_margin_drift(_CURVED_MARGINS[0], x, p) > 0.0 for x in disk]
        tangencies = [
            0.5 * (disk[k] + disk[k + 1]) for k in range(len(disk) - 1)
            if inside[k] and inside[k + 1] and rising[k] != rising[k + 1]
        ]
        assert len(tangencies) == 3
        assert len(grid.manifolds) == len(grid.semi_saddles)
        outside = [
            bp.x for bp in grid.semi_saddles
            if not (spec.x1_min <= bp.x[0] <= spec.x1_max and spec.x2_min <= bp.x[1] <= spec.x2_max)
        ]
        assert len(grid.semi_saddles) == 3 + len(outside)
        for x in tangencies:
            near = [bp for bp in grid.semi_saddles if np.linalg.norm(bp.x - x) < 2e-3]
            assert len(near) == 1 and near[0].kind is PseudoEpKind.SEMI_SADDLE
        for x in outside:
            np.testing.assert_allclose(x, [-1.0, 0.0], atol=1e-8)

    @pytest.mark.parametrize("n", [7, 4])
    def test_corner_of_two_limits_is_no_semi_saddle(self, n):
        # Both limits pass through the corner (1, 1), where the product of
        # the margins has zero drift; each limit's own drift there is not
        # zero, so the corner samples belong to the runs on either side.
        params = SmibParams(0.5, 0.1, 1.0, 1.0)
        spec = GridSpec(-1.0, 2.0, -2.0, 1.0, n1=n, n2=n)
        grid = sample_stability_region(smib_system(params), params.p0, spec)
        assert [bp.constraint for bp in grid.semi_saddles] == ["angle_limit", "speed_limit"]
        np.testing.assert_allclose(grid.semi_saddles[0].x, [1.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(grid.semi_saddles[1].x, [0.0, 1.0], atol=1e-8)
        assert len(grid.manifolds) == 2

    def test_boundary_points_lie_in_the_window(self):
        # Projection onto the disk moves a sample along the disk's
        # gradient, which can carry it across a window edge.
        spec = GridSpec(-0.9, 1.2, -0.7, 0.8, n1=9, n2=9)
        grid = sample_stability_region(_CURVED, np.array([1.0, 0.5]), spec)
        assert grid.boundary_points
        for bp in grid.boundary_points:
            assert spec.x1_min <= bp.x[0] <= spec.x1_max
            assert spec.x2_min <= bp.x[1] <= spec.x2_max

    def test_straight_limit_is_not_a_loop(self):
        # Three samples on the speed line, in cells far taller than wide:
        # the line's ends lie within a cell diagonal, yet it has one
        # semi-saddle, not a second one from closing the line on itself.
        spec = GridSpec(x1_min=-0.6, x1_max=0.1, x2_min=-2.0, x2_max=2.0, n1=3, n2=3)
        grid = sample_stability_region(_SYS, _P, spec)
        assert [bp.constraint for bp in grid.semi_saddles] == ["speed_limit"]

    def test_manifold_per_semi_saddle(self, grid):
        assert len(grid.manifolds) == len(grid.semi_saddles)
        for poly, bp in zip(grid.manifolds, grid.semi_saddles):
            assert poly.ndim == 2 and poly.shape[1] == 2
            assert np.isfinite(poly).all()
            np.testing.assert_allclose(poly[-1], bp.x, atol=1e-8)

    def test_stable_mask_shape(self, grid):
        mask = grid.stable_mask()
        assert mask.shape == (16, 12)
        assert mask.any() and not mask.all()

    def test_parallel_matches_sequential(self, grid):
        # Row i goes to worker i % jobs; 3 does not divide the 7 rows.
        spec = GridSpec(x1_min=-0.5, x1_max=2.5, x2_min=-2.0, x2_max=2.0,
                        n1=7, n2=5)
        seq = sample_stability_region(_SYS, _P, spec)
        for jobs in (2, 3):
            par = sample_stability_region(
                _SYS, _P, spec, jobs=jobs, system_factory=(smib_system, (_PARAMS,))
            )
            assert all(
                seq.classes[i, j] is par.classes[i, j]
                for i in range(7) for j in range(5)
            ), jobs

    @pytest.mark.parametrize("system,p", [(_SYS, _P), (_CURVED, np.array([1.0, 0.5]))])
    def test_batched_boundary_samples_match_pointwise_reference(self, system, p):
        spec = GridSpec(x1_min=-1.5, x1_max=2.5, x2_min=-2.0, x2_max=2.0, n1=16, n2=12)
        n_samples = 0
        for c in system.phases[Phase.POST_FAULT].constraints:
            batched = _boundary_samples(system, p, spec, c)
            reference = _pointwise_boundary_samples(system, p, spec, c)
            assert len(batched) == len(reference)
            for x, x_ref in zip(batched, reference):
                np.testing.assert_array_equal(x, x_ref)
            n_samples += len(batched)
        assert n_samples

    def test_unstable_sep_guess_is_rejected(self):
        # Newton from the saddle's own location stays there; a grid around
        # a saddle would call every cell diverging or hitting the boundary.
        params = SmibParams(0.5, 0.2, 2.9, 1.5)
        spec = GridSpec(x1_min=-0.5, x1_max=2.5, x2_min=-1.0, x2_max=1.0, n1=3, n2=3)
        with pytest.raises(NoEquilibriumFound, match="unstable"):
            sample_stability_region(
                smib_system(params), params.p0, spec,
                sep_guess=(math.pi - math.asin(0.5), 0.0),
            )

    def test_rejects_non_planar_system(self):
        sys3 = system_from_expressions(
            state=["x1", "x2", "x3"], params=["a"],
            phases={
                "pre": {"f": ["x2", "x3", "-a*x1"]},
                "fault": {"f": ["x2", "x3", "0"]},
                "post": {"f": ["x2", "x3", "-a*x1"], "h": {"lid": "1 - x1"}},
            },
        )
        from cctsens import CctError

        spec = GridSpec(x1_min=0, x1_max=1, x2_min=0, x2_max=1, n1=2, n2=2)
        with pytest.raises(CctError):
            sample_stability_region(sys3, np.array([1.0]), spec)


def _cells(spec):
    """The grid's start points, row by row."""
    return np.column_stack([np.repeat(spec.x1, spec.n2), np.tile(spec.x2, spec.n1)])


def _sep_radius_classes(system, p, starts, x_sep, locate_crossings=True):
    """Cell classes of runs that end only at the ``_GRID_SEP_RADIUS`` ball."""
    events = EventConfig(
        constraints=system.phases[Phase.POST_FAULT].constraints,
        sep_target=x_sep,
        sep_radius=_GRID_SEP_RADIUS,
        locate_crossings=locate_crossings,
    )
    classes = []
    for end in integrate_lanes(system, Phase.POST_FAULT, starts, p, _GRID_OPTS, events):
        if isinstance(end, Exception):
            classes.append(CellClass.DIVERGES)
        elif end.first_event(EventKind.CONSTRAINT_CROSSING) is not None:
            classes.append(CellClass.HITS_BOUNDARY)
        elif end.first_event(EventKind.CONVERGED_TO_SEP) is not None:
            classes.append(CellClass.STABLE)
        else:
            classes.append(CellClass.DIVERGES)
    return classes


class TestCertifiedGridBall:
    """Grid lanes end in the certified ball of the SEP and at the step end
    past a limit, unrefined; neither changes a class."""

    @pytest.mark.parametrize("inertia", [0.1, 0.3])
    def test_classes_on_the_a9_window_equal_the_sep_radius_runs(self, inertia):
        params = SmibParams(p_mech=0.65, inertia=inertia, delta_max=2.0, omega_max=0.7)
        system, p = smib_system(params), params.p0
        x_sep = find_equilibrium(system, Phase.POST_FAULT, p, np.zeros(2)).x
        assert _attraction_radius(system, p, x_sep, _GRID_SEP_RADIUS) > _GRID_SEP_RADIUS
        starts = _cells(GridSpec(-1.5, 3.5, -2.5, 2.5, 100, 100))
        classes = classify_grid_points(system, p, starts, x_sep)
        for locate_crossings in (True, False):
            assert classes == _sep_radius_classes(system, p, starts, x_sep, locate_crossings)
        assert {CellClass.STABLE, CellClass.HITS_BOUNDARY} <= set(classes)

    def test_fixture_grid_classes_equal_the_sep_radius_runs(self, grid):
        starts = _cells(grid.spec)
        for locate_crossings in (True, False):
            assert list(grid.classes.ravel()) == _sep_radius_classes(
                _SYS, _P, starts, grid.sep, locate_crossings
            )

    def test_phase_without_bound_ends_at_the_sep_radius_ball(self, monkeypatch):
        dyn = _SYS.phases[Phase.POST_FAULT]
        unbounded = replace(
            _SYS, phases={**_SYS.phases, Phase.POST_FAULT: replace(dyn, jac_lipschitz=None)}
        )
        x_sep = find_equilibrium(_SYS, Phase.POST_FAULT, _P, np.zeros(2)).x
        starts = _cells(GridSpec(-0.5, 1.5, -1.0, 1.0, 5, 4))
        seen = []

        def recording(system, phase, x0s, p, opts, events):
            ends = integrate_lanes(system, phase, x0s, p, opts, events)
            seen.append((events.sep_radius, ends))
            return ends

        monkeypatch.setattr(boundary, "integrate_lanes", recording)
        bounded_classes = classify_grid_points(_SYS, _P, starts, x_sep)
        unbounded_classes = classify_grid_points(unbounded, _P, starts, x_sep)
        assert unbounded_classes == bounded_classes
        (ball, _), (fallback, ends) = seen
        assert ball == _attraction_radius(_SYS, _P, x_sep, _GRID_SEP_RADIUS) > _GRID_SEP_RADIUS
        assert fallback == _GRID_SEP_RADIUS
        stable = [end for end, c in zip(ends, unbounded_classes) if c is CellClass.STABLE]
        assert stable
        for end in stable:
            assert np.linalg.norm(end.final_state - x_sep) <= _GRID_SEP_RADIUS


# A weakly damped oscillator: its backward orbits spiral out slowly, so
# they can stay inside a small window for the whole manifold horizon.
_DAMPED = system_from_expressions(
    state=["x1", "x2"],
    params=["a"],
    phases={
        "pre": {"f": ["x2", "-x1 - a*x2"]},
        "fault": {"f": ["x2", "0"]},
        "post": {"f": ["x2", "-x1 - a*x2"], "h": {"lid": "1 - x1"}},
    },
)
_DAMPED_P = np.array([0.05])
_MANIFOLD_OPTS = IntegrationOptions(rel_tol=1e-6, abs_tol=1e-9, t_max=20.0, max_step=0.5)
_MANIFOLD_HORIZON = 6.0


def _full_backward_orbit(system, p, x_saddle):
    """The reversed post-fault field from the saddle to the full horizon, no events."""
    dyn = system.phases[Phase.POST_FAULT]
    reversed_dyn = replace(dyn, f=lambda x, q: -np.asarray(dyn.f(x, q)))
    reversed_system = ConstrainedSystem(
        n=system.n, param_names=system.param_names,
        phases={ph: reversed_dyn for ph in Phase},
    )
    opts = replace(_MANIFOLD_OPTS, t_max=_MANIFOLD_HORIZON)
    return integrate(reversed_system, Phase.POST_FAULT, x_saddle, p, opts).states


def _manifold_oracle(system, p, x_saddle, spec):
    """Full backward orbit cut at its first sample outside the closed window."""
    x = _full_backward_orbit(system, p, x_saddle)
    inside = (
        (spec.x1_min <= x[:, 0]) & (x[:, 0] <= spec.x1_max)
        & (spec.x2_min <= x[:, 1]) & (x[:, 1] <= spec.x2_max)
    )
    stop = len(x) if inside.all() else int(np.argmin(inside))
    return x[:stop][::-1]


def _checked_manifolds(system, p, spec):
    """Each manifold of the grid against its oracle; returns (grid, oracles)."""
    grid = sample_stability_region(system, p, spec, opts=_MANIFOLD_OPTS)
    assert grid.semi_saddles and len(grid.manifolds) == len(grid.semi_saddles)
    oracles = [_manifold_oracle(system, p, bp.x, spec) for bp in grid.semi_saddles]
    for poly, oracle in zip(grid.manifolds, oracles):
        assert np.array_equal(poly, oracle)
    return grid, oracles


class TestManifolds:
    def test_orbit_leaving_the_window_equals_its_oracle(self):
        spec = GridSpec(x1_min=-0.5, x1_max=2.5, x2_min=-2.0, x2_max=2.0, n1=16, n2=12)
        grid, oracles = _checked_manifolds(_SYS, _P, spec)
        for bp, oracle in zip(grid.semi_saddles, oracles):
            assert 1 < len(oracle) < len(_full_backward_orbit(_SYS, _P, bp.x))

    def test_orbit_inside_up_to_the_horizon_equals_its_oracle(self):
        spec = GridSpec(x1_min=-2.0, x1_max=2.0, x2_min=-2.0, x2_max=2.0, n1=16, n2=12)
        grid, oracles = _checked_manifolds(_DAMPED, _DAMPED_P, spec)
        (bp,), (oracle,) = grid.semi_saddles, oracles
        assert len(oracle) == len(_full_backward_orbit(_DAMPED, _DAMPED_P, bp.x))

    def test_sample_on_the_window_edge_counts_as_inside(self):
        # Each edge is the extreme x1 the orbit samples; an open edge test
        # would cut the manifold at that sample.
        wide = GridSpec(x1_min=-2.0, x1_max=2.0, x2_min=-2.0, x2_max=2.0, n1=16, n2=12)
        _, (oracle,) = _checked_manifolds(_DAMPED, _DAMPED_P, wide)
        for name, bound in (("x1_max", oracle[:, 0].max()), ("x1_min", oracle[:, 0].min())):
            spec = replace(wide, **{name: float(bound)})
            _, (on_edge,) = _checked_manifolds(_DAMPED, _DAMPED_P, spec)
            assert bound in on_edge[:, 0]
        # The angle semi-saddle at x1 = 2 starts its orbit on the edge.
        spec = GridSpec(x1_min=-0.5, x1_max=2.0, x2_min=-2.0, x2_max=2.0, n1=16, n2=12)
        grid, oracles = _checked_manifolds(_SYS, _P, spec)
        angle = [k for k, bp in enumerate(grid.semi_saddles) if bp.constraint == "angle_limit"]
        assert angle and all(grid.semi_saddles[k].x[0] == 2.0 for k in angle)
        assert all(len(oracles[k]) > 1 for k in angle)

    def test_semi_saddle_outside_the_window_is_its_own_manifold(self):
        # The disk leaves the window for a short arc through its tangency at
        # x1 = -1; the samples on either side of that arc are neighbours, so
        # the tangency is refined to a point left of the window.
        spec = GridSpec(x1_min=-0.99, x1_max=1.2, x2_min=-0.7, x2_max=0.8, n1=9, n2=9)
        grid = sample_stability_region(_CURVED, np.array([1.0, 0.5]), spec, opts=_MANIFOLD_OPTS)
        outside = [
            (bp, poly) for bp, poly in zip(grid.semi_saddles, grid.manifolds)
            if bp.x[0] < spec.x1_min
        ]
        assert outside
        for bp, poly in outside:
            assert np.array_equal(poly, bp.x[None])

    def test_backward_runs_stop_at_the_window(self, monkeypatch):
        runs = []

        def recording_integrate(*args, **kwargs):
            runs.append(integrate(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr("cctsens.boundary.integrate", recording_integrate)
        spec = GridSpec(x1_min=-0.5, x1_max=2.5, x2_min=-2.0, x2_max=2.0, n1=16, n2=12)
        grid = sample_stability_region(_SYS, _P, spec, opts=_MANIFOLD_OPTS)
        assert grid.manifolds and len(runs) == len(grid.manifolds)
        for traj, poly in zip(runs, grid.manifolds):
            assert len(traj.states) <= len(poly) + 1
            assert traj.events[-1].kind is EventKind.CONSTRAINT_CROSSING

    def test_manifolds_equal_those_of_refined_runs(self, monkeypatch):
        spec = GridSpec(x1_min=-0.5, x1_max=2.5, x2_min=-2.0, x2_max=2.0, n1=16, n2=12)
        unrefined = sample_stability_region(_SYS, _P, spec, opts=_MANIFOLD_OPTS)
        monkeypatch.setattr(
            boundary, "EventConfig",
            lambda **kw: EventConfig(**{**kw, "locate_crossings": True}),
        )
        refined = sample_stability_region(_SYS, _P, spec, opts=_MANIFOLD_OPTS)
        assert unrefined.manifolds and len(unrefined.manifolds) == len(refined.manifolds)
        for a, b in zip(unrefined.manifolds, refined.manifolds):
            assert np.array_equal(a, b)
        assert np.array_equal(unrefined.classes, refined.classes)


    @pytest.mark.bit_identity
    @pytest.mark.parametrize("case", ["leaving", "damped"])
    def test_samples_equal_those_without_float_entries(self, case, monkeypatch):
        system, p, spec = {
            "leaving": (_SYS, _P, GridSpec(-0.5, 2.5, -2.0, 2.0, n1=16, n2=12)),
            "damped": (_DAMPED, _DAMPED_P, GridSpec(-2.0, 2.0, -2.0, 2.0, n1=16, n2=12)),
        }[case]
        grid = sample_stability_region(system, p, spec, opts=_MANIFOLD_OPTS)
        saddles = [bp.x for bp in grid.semi_saddles]
        assert saddles
        dyn = system.phases[Phase.POST_FAULT]
        edges = boundary._window_edges
        assert all(hasattr(fn, "on_floats") for fn in (dyn.f, dyn.jac_x, dyn.jac_p))
        assert all(hasattr(c.value, "on_floats") for c in edges(spec, system.n_params))
        floats = [
            boundary._manifold_samples(system, p, x, spec, _MANIFOLD_OPTS) for x in saddles
        ]

        # Plain wrappers carry no float entry, so every call takes arrays.
        def plain(fn):
            return lambda *args: fn(*args)

        plain_dyn = replace(dyn, f=plain(dyn.f), jac_x=plain(dyn.jac_x), jac_p=plain(dyn.jac_p))
        stripped = replace(system, phases={**system.phases, Phase.POST_FAULT: plain_dyn})
        monkeypatch.setattr(
            boundary, "_window_edges",
            lambda *args: tuple(replace(c, value=plain(c.value)) for c in edges(*args)),
        )
        arrays = [
            boundary._manifold_samples(stripped, p, x, spec, _MANIFOLD_OPTS) for x in saddles
        ]
        for a, b in zip(floats, arrays):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_stability_region_seeks_no_crossing_root(monkeypatch):
    """Cells and manifolds read only whether a limit was crossed."""
    calls = []
    refine = integrator._refine_crossing

    def counting(*args):
        calls.append(args)
        return refine(*args)

    monkeypatch.setattr(integrator, "_refine_crossing", counting)
    spec = GridSpec(x1_min=-0.5, x1_max=2.5, x2_min=-2.0, x2_max=2.0, n1=16, n2=12)
    grid = sample_stability_region(_SYS, _P, spec)
    assert CellClass.HITS_BOUNDARY in grid.classes and grid.manifolds
    assert calls == []


class TestGridSpecValidation:
    def test_empty_window_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(x1_min=1.0, x1_max=1.0, x2_min=0.0, x2_max=1.0)

    def test_tiny_grid_rejected(self):
        with pytest.raises(ValueError):
            GridSpec(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, n1=1)

    @pytest.mark.parametrize("n", [2.5, 3.0, "3"])
    def test_non_integer_counts_rejected(self, n):
        with pytest.raises(ValueError, match="integers"):
            GridSpec(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, n2=n)
        assert GridSpec(x1_min=0.0, x1_max=1.0, x2_min=0.0, x2_max=1.0, n1=np.int64(3)).n1 == 3
