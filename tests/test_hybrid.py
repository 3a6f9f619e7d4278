import math

import numpy as np
import pytest

from invset.hybrid import (
    GuardNotReached,
    HybridSystemDefinition,
    ImmediateReimpact,
    IntegrationOptions,
    NoConvergence,
    PoincareMap,
    UnstableLinearization,
    contraction_init,
    fd_jacobian,
    find_fixed_point,
    integrate_to_guard,
    poincare_step,
    spectral_radius,
)


def linear_decay_system():
    """1D flow x' = -1 with the guard at x = 0."""
    return HybridSystemDefinition(
        state_dim=1,
        reduced_dim=1,
        vector_field=lambda x: np.array([-1.0]),
        guard_function=lambda x: float(x[0]),
        reset=lambda x: x,
        chart=lambda x: x,
        chart_inverse=lambda y: y,
    )


def harmonic_oscillator():
    """x'' = -x with state (x, v) and the guard at x = 0."""
    return HybridSystemDefinition(
        state_dim=2,
        reduced_dim=2,
        vector_field=lambda s: np.array([s[1], -s[0]]),
        guard_function=lambda s: float(s[0]),
        reset=lambda s: s,
        chart=lambda s: s,
        chart_inverse=lambda y: y,
    )


class TestIntegrateToGuard:
    def test_linear_flow_to_root(self):
        x_minus, T = integrate_to_guard(linear_decay_system(), np.array([1.0]))
        assert T == pytest.approx(1.0, abs=1e-10)
        assert abs(x_minus[0]) < 1e-10

    @pytest.mark.parametrize("method", ["rk45"])
    def test_harmonic_oscillator_quarter_period(self, method):
        opts = IntegrationOptions(method=method)
        x_minus, T = integrate_to_guard(harmonic_oscillator(), np.array([1.0, 0.0]), opts)
        assert T == pytest.approx(math.pi / 2, abs=1e-8)
        assert abs(x_minus[0]) < 1e-10
        assert x_minus[1] == pytest.approx(-1.0, abs=1e-8)

    def test_guard_residual_below_tolerance(self):
        sys = harmonic_oscillator()
        for x0 in ([1.0, 0.0], [0.5, 0.25], [2.0, -0.3]):
            x_minus, _ = integrate_to_guard(sys, np.array(x0))
            assert abs(sys.guard_function(x_minus)) < 1e-10

    def test_guard_not_reached(self):
        sys = HybridSystemDefinition(
            state_dim=1,
            reduced_dim=1,
            vector_field=lambda x: np.array([1.0]),  # flows away from the guard
            guard_function=lambda x: float(x[0]),
            reset=lambda x: x,
            chart=lambda x: x,
            chart_inverse=lambda y: y,
        )
        with pytest.raises(GuardNotReached):
            integrate_to_guard(sys, np.array([1.0]), IntegrationOptions(max_flow_time=0.5))

    def test_immediate_reimpact(self):
        with pytest.raises(ImmediateReimpact):
            integrate_to_guard(linear_decay_system(), np.array([5e-7]))

    def test_filtered_crossing_continues_search(self):
        # damped oscillator: successive downward crossings of x = 0 carry
        # decaying speed; the filter rejects the first, fast crossing and the
        # search must continue to the next one a full period later
        sys = HybridSystemDefinition(
            state_dim=2,
            reduced_dim=2,
            vector_field=lambda s: np.array([s[1], -s[0] - 0.4 * s[1]]),
            guard_function=lambda s: float(s[0]),
            reset=lambda s: s,
            chart=lambda s: s,
            chart_inverse=lambda y: y,
            event_filter=lambda s: abs(s[1]) <= 0.5,
        )
        x_minus, T = integrate_to_guard(sys, np.array([1.0, 0.0]), IntegrationOptions(max_flow_time=30.0))
        assert T > 4.0  # well past the first crossing near t = pi/2
        assert abs(x_minus[0]) < 1e-10
        assert abs(x_minus[1]) <= 0.5

    def test_all_crossings_filtered_raises(self):
        sys = HybridSystemDefinition(
            state_dim=2,
            reduced_dim=2,
            vector_field=lambda s: np.array([s[1], -s[0]]),
            guard_function=lambda s: float(s[0]),
            reset=lambda s: s,
            chart=lambda s: s,
            chart_inverse=lambda y: y,
            event_filter=lambda s: False,
        )
        with pytest.raises(GuardNotReached):
            integrate_to_guard(sys, np.array([1.0, 0.0]), IntegrationOptions(max_flow_time=10.0))

    def test_halving_tolerances_is_consistent(self):
        sys = harmonic_oscillator()
        base = IntegrationOptions(rel_tol=1e-9, abs_tol=1e-11)
        tighter = IntegrationOptions(rel_tol=5e-10, abs_tol=5e-12)
        _, t_base = integrate_to_guard(sys, np.array([1.0, 0.0]), base)
        _, t_tight = integrate_to_guard(sys, np.array([1.0, 0.0]), tighter)
        assert abs(t_base - t_tight) < 10 * 5e-10


class TestFixedPoint:
    def test_linear_contraction(self):
        target = np.array([2.0, -1.0])
        pmap = PoincareMap.from_function(lambda y: 0.5 * (y - target) + target, 2)
        star = find_fixed_point(pmap, np.zeros(2), tol=1e-12)
        assert np.linalg.norm(star - target) < 1e-10

    def test_residual_contract(self):
        pmap = PoincareMap.from_function(lambda y: np.array([math.cos(y[0])]), 1)
        star = find_fixed_point(pmap, np.array([0.5]), tol=1e-10)
        assert abs(pmap(star)[0] - star[0]) < 1e-10

    def test_newton_reaches_repelling_fixed_points_too(self):
        pmap = PoincareMap.from_function(lambda y: 2.0 * y + 1.0, 1)
        star = find_fixed_point(pmap, np.array([1.0]))
        assert star[0] == pytest.approx(-1.0, abs=1e-10)

    def test_no_convergence_without_fixed_point(self):
        pmap = PoincareMap.from_function(lambda y: y + 1.0, 1)
        with pytest.raises(NoConvergence):
            find_fixed_point(pmap, np.array([1.0]), max_iters=30)


class TestJacobian:
    def test_linear_map_recovered(self):
        L = np.array([[0.3, -0.2], [0.1, 0.8]])
        pmap = PoincareMap.from_function(lambda y: L @ y, 2)
        J = fd_jacobian(pmap, np.array([0.4, -0.3]))
        assert np.abs(J - L).max() < 1e-6 * np.abs(L).max()

    def test_custom_perturbation(self):
        pmap = PoincareMap.from_function(lambda y: y**2, 1)
        J = fd_jacobian(pmap, np.array([2.0]), eps=1e-7)
        assert J[0, 0] == pytest.approx(4.0, abs=1e-5)


class TestContractionInit:
    def test_isotropic_contraction_gives_ball(self):
        E = contraction_init(0.5 * np.eye(2), r=3.0)
        assert np.allclose(E.A, np.eye(2) / 3.0, atol=1e-9)
        assert np.linalg.norm(E.center) < 1e-12

    def test_diagonal_case_satisfies_rate_inequality(self):
        J = np.diag([0.9, 0.1])
        rate = spectral_radius(J)
        E = contraction_init(J, r=2.0)
        P = (2.0 * E.A) @ (2.0 * E.A)
        gap = (rate**2 + 1e-8) * P - J.T @ P @ J
        assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-10 * np.linalg.norm(P)
        assert np.linalg.eigvalsh(P).min() >= 1.0 - 1e-9

    def test_random_stable_jacobians(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            J = rng.standard_normal((3, 3))
            J *= 0.8 / spectral_radius(J)
            rate = spectral_radius(J)
            E = contraction_init(J, r=2.0, center=rng.standard_normal(3))
            P = (2.0 * E.A) @ (2.0 * E.A)
            gap = (rate**2 + 1e-8) * P - J.T @ P @ J
            assert np.linalg.eigvalsh(0.5 * (gap + gap.T)).min() >= -1e-9 * np.linalg.norm(P)

    def test_centered_at_fixed_point(self):
        center = np.array([1.0, -2.0])
        E = contraction_init(0.3 * np.eye(2), r=2.0, center=center)
        assert np.allclose(E.center, center, atol=1e-12)
        assert E.contains(center)

    def test_unstable_rejected(self):
        with pytest.raises(UnstableLinearization):
            contraction_init(1.1 * np.eye(2), r=2.0)

    def test_scale_must_exceed_one(self):
        with pytest.raises(ValueError):
            contraction_init(0.5 * np.eye(2), r=0.9)


class TestPoincareStep:
    def test_fixed_point_of_identity_chart_system(self):
        # flow straight down to the guard and reset back up: the section map
        # is the identity on the chart coordinate
        sys = HybridSystemDefinition(
            state_dim=2,
            reduced_dim=1,
            vector_field=lambda s: np.array([0.0, -1.0]),
            guard_function=lambda s: float(s[1]),
            reset=lambda s: np.array([s[0], 1.0]),
            chart=lambda s: np.array([s[0]]),
            chart_inverse=lambda y: np.array([y[0], 0.0]),
        )
        out = poincare_step(sys, np.array([0.7]))
        assert out[0] == pytest.approx(0.7, abs=1e-12)
