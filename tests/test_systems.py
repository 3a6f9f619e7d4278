import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from invset.batchflow import integrate_to_guard
from invset.hybrid import IntegrationOptions, InvalidSectionPoint, PoincareEvaluationError
from invset.systems import (
    COMPASS_GAIT_SECTION_SEED,
    SYSTEM_NAMES,
    CecParams,
    CompassGaitParams,
    NecParams,
    build_system,
    cec_map,
    cec_poincare_map,
    cec_true_invariant_set,
    compass_kinetic_energy,
    compass_mass_matrix,
    compass_potential_energy,
    compass_total_energy,
    nec_map,
    nec_poincare_map,
    nec_true_volume,
)


class TestCec:
    def test_fixed_point(self):
        p = CecParams()
        assert np.allclose(cec_map(np.array([1.0, 1.0]), p), [1.0, 1.0])

    def test_boundary_is_pointwise_fixed(self):
        p = CecParams()
        x = np.array([1.0, 2.0])  # M-norm exactly 1
        assert np.allclose(cec_map(x, p), x, atol=1e-14)

    def test_hand_evaluation(self):
        p = CecParams()
        out = cec_map(np.array([1.0, 1.5]), p)
        assert np.allclose(out, [1.0, 1.25], atol=1e-14)

    def test_batch_matches_single(self):
        p = CecParams()
        pts = np.array([[0.3, 0.8], [1.0, 2.0], [4.0, -1.0]])
        batch = cec_map(pts, p)
        singles = np.array([cec_map(row, p) for row in pts])
        assert np.array_equal(batch, singles)

    def test_contraction_inside_expansion_outside(self):
        p = CecParams()
        rng = np.random.default_rng(0)
        M = np.asarray(p.M)
        for _ in range(200):
            x = p.c + rng.standard_normal(2)
            rho = float((x - p.c) @ M @ (x - p.c))
            if rho in (0.0, 1.0):
                continue
            out = cec_map(x, p)
            rho_out = float((out - p.c) @ M @ (out - p.c))
            if rho < 1.0:
                assert rho_out < rho
            else:
                assert rho_out > rho

    def test_true_set_is_exactly_invariant(self):
        E = cec_true_invariant_set(CecParams())
        pts = E.sample(2000, seed=5)
        images = cec_map(pts, CecParams())
        assert E.contains_batch(images).all()


class TestNec:
    def test_first_branch_fixed_point(self):
        p = NecParams()
        assert np.allclose(nec_map(np.array([-0.6, 0.0]), p), [-0.6, 0.0])

    def test_contract_toward_first_center(self):
        p = NecParams()
        assert np.allclose(nec_map(np.array([-0.6, 0.1]), p), [-0.6, 0.05], atol=1e-15)

    def test_expansion_branch(self):
        p = NecParams()
        assert np.allclose(nec_map(np.array([2.0, 0.0]), p), [2.6, 0.0], atol=1e-15)

    def test_branch_order_is_first_match(self):
        # a point in the open first disc maps with c1 even if also near c2
        p = NecParams(c1=(-0.1, 0.0), c2=(0.1, 0.0), r=0.6, kappa=1.3)
        out = nec_map(np.array([0.0, 0.0]), p)
        assert np.allclose(out, 0.5 * (np.array([0.0, 0.0]) + p.c1))

    def test_batch_matches_single(self):
        p = NecParams()
        pts = np.array([[-0.6, 0.1], [0.55, 0.05], [2.0, 0.0], [0.0, 1.5]])
        batch = nec_map(pts, p)
        singles = np.array([nec_map(row, p) for row in pts])
        assert np.array_equal(batch, singles)

    def test_disc_union_is_invariant(self):
        p = NecParams()
        rng = np.random.default_rng(1)
        for center in (p.c1, p.c2):
            g = rng.standard_normal((500, 2))
            g /= np.linalg.norm(g, axis=1)[:, None]
            pts = center + g * (p.r * np.sqrt(rng.random(500)))[:, None]
            images = nec_map(pts, p)
            inside = np.minimum(
                np.linalg.norm(images - p.c1, axis=1), np.linalg.norm(images - p.c2, axis=1)
            )
            assert np.all(inside <= p.r + 1e-12)

    def test_true_volume(self):
        assert nec_true_volume(NecParams()) == pytest.approx(2 * math.pi * 0.36)


class TestCompassGait:
    def test_energy_conserved_along_flow(self, compass_params, compass_system):
        # passive dynamics between impacts at the default (tight) tolerances
        y = COMPASS_GAIT_SECTION_SEED
        x_pre = compass_system.chart_inverse(y)
        x_plus = compass_system.reset(x_pre)
        e0 = compass_total_energy(x_plus, compass_params)
        x_minus, T = integrate_to_guard(compass_system, x_plus)
        e1 = compass_total_energy(x_minus, compass_params)
        assert T > 0.5
        assert abs(e1 - e0) / abs(e0) < 1e-8

    def test_impact_dissipates_kinetic_energy(self, compass_params, compass_system):
        rng = np.random.default_rng(2)
        y_star = COMPASS_GAIT_SECTION_SEED
        for _ in range(25):
            y = y_star + 0.05 * rng.standard_normal(3)
            x_pre = compass_system.chart_inverse(y)
            if compass_system.guard_velocity(x_pre) >= 0:
                continue
            ke_pre = compass_kinetic_energy(x_pre, compass_params)
            ke_post = compass_kinetic_energy(compass_system.reset(x_pre), compass_params)
            assert ke_post <= ke_pre + 1e-12

    def test_reset_swaps_angles_involutively(self, compass_system):
        x = np.array([0.21, -0.31, -1.8, -1.5])
        once = compass_system.reset(x)
        twice = compass_system.reset(once)
        assert np.allclose(twice[:2], x[:2], atol=1e-15)

    def test_mass_matrix_positive_definite(self, compass_params):
        rng = np.random.default_rng(3)
        for _ in range(50):
            q = rng.uniform(-0.8, 0.8, size=2)
            eigs = np.linalg.eigvalsh(compass_mass_matrix(q, compass_params))
            assert eigs.min() > 0

    def test_mechanics_take_a_batch_row_for_row(self, compass_params):
        rng = np.random.default_rng(5)
        x = np.array([0.2, -0.3, -1.5, -1.4]) + 0.3 * rng.standard_normal((50, 4))
        for energy in (compass_kinetic_energy, compass_potential_energy, compass_total_energy):
            rows = [energy(row, compass_params) for row in x]
            assert np.array_equal(energy(x, compass_params), rows)
        rows = [compass_mass_matrix(row[:2], compass_params) for row in x]
        assert np.array_equal(compass_mass_matrix(x, compass_params), rows)

    def test_settled_gait_is_periodic(self, compass_map):
        y = COMPASS_GAIT_SECTION_SEED.copy()
        for _ in range(100):
            y = compass_map(y)
        assert np.linalg.norm(compass_map(y) - y) < 1e-6

    def test_guard_chart_lands_on_guard(self, compass_system):
        rng = np.random.default_rng(4)
        for _ in range(20):
            y = COMPASS_GAIT_SECTION_SEED + 0.2 * rng.standard_normal(3)
            x = compass_system.chart_inverse(y)
            assert abs(compass_system.guard(x)) < 1e-10
            assert np.allclose(compass_system.chart(x), y)

    def test_batched_map_matches_scipy_path(self, compass_system, compass_map):
        # independent reference: scipy's DOP853 with a terminal downward guard
        # event, stepping past the crossings the event filter rejects
        system = compass_system

        def field(_t, x):
            return system.vector_field(x)

        def strike(_t, x):
            return float(system.guard(x))

        strike.terminal = True
        strike.direction = -1
        tols = {"method": "DOP853", "rtol": 1e-12, "atol": 1e-14}

        def reference(y):
            x, t = system.reset(system.chart_inverse(y)), 0.0
            while True:
                sol = solve_ivp(field, (t, 5.0), x, events=strike, **tols)
                assert sol.status == 1, "no heel strike within the flow budget"
                t, x = float(sol.t_events[0][0]), sol.y_events[0][0]
                if system.event_filter(x):
                    return system.chart(x)
                nudge = solve_ivp(field, (t, t + 1e-6), x, **tols)
                t, x = float(nudge.t[-1]), nudge.y[:, -1]

        rng = np.random.default_rng(5)
        for _ in range(5):
            y = COMPASS_GAIT_SECTION_SEED + 0.02 * rng.standard_normal(3)
            assert np.abs(reference(y) - compass_map(y)).max() < 1e-7

    def test_batch_evaluation_equals_single(self, compass_map):
        rng = np.random.default_rng(6)
        ys = COMPASS_GAIT_SECTION_SEED + 0.02 * rng.standard_normal((8, 3))
        batch, ok = compass_map.batch_evaluator(ys)
        assert ok.all()
        singles = np.array([compass_map(y) for y in ys])
        assert np.array_equal(batch, singles)

    def test_swing_leg_behind_is_an_invalid_section_point(self, compass_system, compass_map):
        y = np.array([-0.3, 1.0, 1.0])  # theta_sw, omega_sw, omega_st
        x_pre = compass_system.chart_inverse(y)
        assert compass_system.guard_velocity(x_pre) < 0  # a downward crossing
        assert not compass_system.event_filter(x_pre)  # with the swing leg behind
        with pytest.raises(InvalidSectionPoint):
            compass_map(y)
        stack = np.stack([COMPASS_GAIT_SECTION_SEED, y])
        _, ok = compass_map.batch_evaluator(stack)
        assert ok.tolist() == [True, False]
        with pytest.raises(InvalidSectionPoint):
            compass_map(stack)

    def test_period_consistent_under_tolerance_halving(self, compass_params, compass_system):
        y = COMPASS_GAIT_SECTION_SEED
        x_plus = compass_system.reset(compass_system.chart_inverse(y))
        base = IntegrationOptions(rel_tol=1e-9, abs_tol=1e-11)
        tight = IntegrationOptions(rel_tol=5e-10, abs_tol=5e-12)
        _, t_base = integrate_to_guard(compass_system, x_plus, base)
        _, t_tight = integrate_to_guard(compass_system, x_plus, tight)
        assert abs(t_base - t_tight) < 1e-7


class TestFixedPoints:
    def test_cec_fixed_point_from_interior(self):
        from invset.hybrid import fd_jacobian, find_fixed_point

        pmap = cec_poincare_map()
        for y0 in ([0.9, 0.9], [1.2, 0.8], [1.0, 1.4]):
            star = find_fixed_point(pmap, np.array(y0), tol=1e-12)
            assert np.allclose(star, [1.0, 1.0], atol=1e-10)
        # the map is quadratic-order at its fixed point: derivative vanishes
        J = fd_jacobian(pmap, np.array([1.0, 1.0]))
        assert np.abs(J).max() < 1e-5

    def test_nec_fixed_point_on_contraction_branch(self):
        from invset.hybrid import find_fixed_point

        pmap = nec_poincare_map()
        star = find_fixed_point(pmap, np.array([-0.5, 0.05]), tol=1e-12)
        assert np.allclose(star, [-0.6, 0.0], atol=1e-10)


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_stack_call_equals_the_batch_evaluator(name):
    bundle = build_system(name)
    rng = np.random.default_rng(12)
    stack = bundle.fixed_point_seed + 0.02 * rng.standard_normal((8, bundle.reduced_dim))
    out, ok = bundle.poincare_map.batch_evaluator(stack)
    assert ok.sum() >= 6  # the walker loses a row that escapes
    assert np.array_equal(bundle.poincare_map(stack[ok]), out[ok])
    assert np.array_equal(bundle.poincare_map(stack[3]), out[3])
    if not ok.all():
        with pytest.raises(PoincareEvaluationError):
            bundle.poincare_map(stack)


class TestRegistry:
    def test_build_all(self):
        for name in ("cec", "nec", "compass_gait"):
            bundle = build_system(name)
            assert bundle.poincare_map.reduced_dim == bundle.reduced_dim

    def test_overrides_applied(self):
        bundle = build_system("nec", {"kappa": 1.5})
        assert bundle.params.kappa == 1.5

    def test_unknown_override_rejected(self):
        with pytest.raises(ValueError):
            build_system("cec", {"radius": 1.0})

    def test_unknown_system_rejected(self):
        with pytest.raises(ValueError):
            build_system("pendulum")

    def test_param_validation(self):
        with pytest.raises(ValueError):
            NecParams(r=-1.0)
        with pytest.raises(ValueError):
            NecParams(kappa=0.9)
        with pytest.raises(ValueError):
            CompassGaitParams(slope=-0.1)
        with pytest.raises(ValueError):
            CecParams(M=((1.0, 2.0), (0.0, 1.0)))
        with pytest.raises(ValueError, match="semidefinite"):
            CecParams(M=((1.0, 0.0), (0.0, -1.0)))
        with pytest.raises(ValueError, match="differ"):
            NecParams(c1=(1.0, 2.0), c2=(1.0, 2.0))

    @pytest.mark.parametrize(
        "params_cls, overrides",
        [
            (CecParams, {"c": (math.nan, 1.0)}),
            (CecParams, {"M": ((math.nan, 0.0), (0.0, 1.0))}),
            (NecParams, {"r": math.nan}),
            (NecParams, {"kappa": math.inf}),
            (NecParams, {"c1": (math.nan, 0.0)}),
            (CompassGaitParams, {"m": math.nan}),
            (CompassGaitParams, {"a": math.inf}),
            (CompassGaitParams, {"min_leg_separation": math.nan}),
        ],
    )
    def test_non_finite_param_rejected(self, params_cls, overrides):
        # comparisons with NaN are False, so a range check alone lets it through
        with pytest.raises(ValueError, match="finite"):
            params_cls(**overrides)
