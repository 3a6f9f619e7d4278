import dataclasses
import math
import warnings

import numpy as np
import pytest
import scipy.optimize

from invset._dopri import _P, BatchStepper
from invset.batchflow import (
    BatchHybridCallbacks,
    brentq,
    integrate_to_guard,
    vectorized_poincare_map,
)
from invset.hybrid import (
    GuardNotReached,
    ImmediateReimpact,
    IntegrationOptions,
    InvalidSectionPoint,
    NoConvergence,
    PoincareEvaluationError,
    PoincareMap,
    UnstableLinearization,
    contraction_init,
    fd_jacobian,
    find_fixed_point,
    spectral_radius,
)
from invset.systems import COMPASS_GAIT_SECTION_SEED, cec_poincare_map


def _identity(x):
    return x


def _log_past_three(y):
    """A closed-form map that is NaN below 3."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.log(y - 3.0)


def _constant(value, x):
    """`value` at every state of `x`, one value per row."""
    return np.full(x.shape[:-1], value)


def oscillator(acceleration, event_filter=None):
    """x'' = acceleration(x, v) with state (x, v), the guard at x = 0 (where
    hdot = v), and identity reset and chart."""
    return BatchHybridCallbacks(
        state_dim=2,
        reduced_dim=2,
        vector_field=lambda s: np.stack([s[..., 1], acceleration(s[..., 0], s[..., 1])], axis=-1),
        guard=lambda s: s[..., 0],
        guard_velocity=lambda s: s[..., 1],
        reset=_identity,
        chart=_identity,
        chart_inverse=_identity,
        event_filter=event_filter,
    )


def linear_decay_system(speed=-1.0):
    """1D flow x' = speed with the guard at x = 0."""
    return BatchHybridCallbacks(
        state_dim=1,
        reduced_dim=1,
        vector_field=lambda x: np.full_like(x, speed),
        guard=lambda x: x[..., 0],
        guard_velocity=lambda x: _constant(speed, x),
        reset=_identity,
        chart=_identity,
        chart_inverse=_identity,
    )


def harmonic_oscillator():
    """x'' = -x with state (x, v) and the guard at x = 0."""
    return oscillator(lambda x, v: -x)


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
            assert abs(sys.guard(x_minus)) < 1e-10

    def test_guard_not_reached(self):
        sys = linear_decay_system(speed=1.0)  # flows away from the guard
        with pytest.raises(GuardNotReached):
            integrate_to_guard(sys, np.array([1.0]), IntegrationOptions(max_flow_time=0.5))

    def test_initial_state_outside_the_domain(self):
        options = IntegrationOptions()
        x_plus = np.array([-10.0 * options.guard_tol])  # h(x+) < -guard_tol
        with pytest.raises(GuardNotReached, match="outside the domain"):
            integrate_to_guard(linear_decay_system(), x_plus, options)

    def test_immediate_reimpact(self):
        with pytest.raises(ImmediateReimpact):
            integrate_to_guard(linear_decay_system(), np.array([5e-7]))

    def test_filtered_crossing_continues_search(self):
        # damped oscillator: successive downward crossings of x = 0 carry
        # decaying speed; the filter rejects the first, fast crossing and the
        # search must continue to the next one a full period later
        sys = oscillator(lambda x, v: -x - 0.4 * v, event_filter=lambda s: np.abs(s[..., 1]) <= 0.5)
        x_minus, T = integrate_to_guard(sys, np.array([1.0, 0.0]), IntegrationOptions(max_flow_time=30.0))
        assert T > 4.0  # well past the first crossing near t = pi/2
        assert abs(x_minus[0]) < 1e-10
        assert abs(x_minus[1]) <= 0.5

    def test_all_crossings_filtered_raises(self):
        sys = oscillator(lambda x, v: -x, event_filter=lambda s: _constant(False, s))
        with pytest.raises(GuardNotReached):
            integrate_to_guard(sys, np.array([1.0, 0.0]), IntegrationOptions(max_flow_time=10.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("rel_tol", math.nan), ("abs_tol", math.inf), ("guard_tol", 0.0),
            ("max_flow_time", math.nan), ("t_min", math.nan), ("t_min", -1e-6),
        ],
    )
    def test_non_finite_or_out_of_range_option_rejected(self, field, value):
        # a NaN tolerance rejects every step down to the attempt cap: it must
        # not get as far as an integration
        with pytest.raises(ValueError, match=field):
            IntegrationOptions(**{field: value})

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
        pmap = PoincareMap.from_function(np.cos, 1)
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

    def test_non_finite_initial_guess_ends_after_one_call(self):
        pmap = PoincareMap.from_function(_log_past_three, 1)
        calls = []

        def counting(y):
            calls.append(np.shape(y))
            return pmap(y)

        with pytest.raises(NoConvergence, match="initial guess"):
            find_fixed_point(counting, np.array([1.0]))
        assert len(calls) == 1


class TestMapContract:
    def test_closed_form_call_raises_for_a_non_finite_output(self):
        pmap = PoincareMap.from_function(_log_past_three, 1)
        with pytest.raises(PoincareEvaluationError):
            pmap(np.array([1.0]))
        out, ok = pmap.batch_evaluator(np.array([[4.0], [1.0]]))
        assert ok.tolist() == [True, False]
        assert np.isnan(out[1]).all()
        stack = np.array([[4.0], [5.0]])
        assert np.array_equal(pmap(stack), _log_past_three(stack))
        with pytest.raises(PoincareEvaluationError, match="row 1"):
            pmap(np.array([[4.0], [1.0], [0.0]]))

    def test_failed_rows_read_nan_in_a_copy(self):
        # an identity map hands back its input, which must not be written
        points = np.array([[1.0, 2.0], [np.inf, 0.0]])
        out, ok = PoincareMap.from_function(_identity, 2).batch_evaluator(points)
        assert ok.tolist() == [True, False]
        assert np.isnan(out[1]).all()
        assert np.array_equal(out[0], points[0])
        assert points[1, 0] == np.inf


class TestJacobian:
    def test_linear_map_recovered(self):
        L = np.array([[0.3, -0.2], [0.1, 0.8]])
        pmap = PoincareMap.from_function(lambda y: y @ L.T, 2)
        J = fd_jacobian(pmap, np.array([0.4, -0.3]))
        assert np.abs(J - L).max() < 1e-6 * np.abs(L).max()

    def test_custom_perturbation(self):
        pmap = PoincareMap.from_function(lambda y: y**2, 1)
        J = fd_jacobian(pmap, np.array([2.0]), eps=1e-7)
        assert J[0, 0] == pytest.approx(4.0, abs=1e-5)

    @pytest.mark.parametrize("check", [True, False], ids=["check", "no-check"])
    @pytest.mark.parametrize("name", ["walker", "cec"])
    def test_one_map_call_equals_the_column_loop(self, name, check, request):
        if name == "walker":
            pmap, y = request.getfixturevalue("compass_map_tight"), COMPASS_GAIT_SECTION_SEED
        else:
            pmap, y = cec_poincare_map(), np.array([1.3, 0.6])
        calls = []

        def counting(points):
            calls.append(np.shape(points))
            return pmap(points)

        J = fd_jacobian(counting, y, check=check)
        assert len(calls) == 1
        # the column-by-column reference: one map call per perturbed point
        eps = 1e-6 * max(1.0, float(np.linalg.norm(y)))
        base = pmap(y)
        reference = np.empty((base.size, y.size))
        for j in range(y.size):
            step = np.zeros(y.size)
            step[j] = eps
            reference[:, j] = (pmap(y + step) - base) / eps
        assert np.array_equal(J, reference)
        assert np.array_equal(fd_jacobian(pmap, y, f0=base, check=check), reference)


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
        assert E.contains_batch([center]).tolist() == [True]

    def test_unstable_rejected(self):
        with pytest.raises(UnstableLinearization):
            contraction_init(1.1 * np.eye(2), r=2.0)

    def test_normal_jacobian_gives_ball(self):
        # a normal J contracts at its spectral radius in the Euclidean norm
        turn = 0.7
        Q = np.array([[math.cos(turn), -math.sin(turn)], [math.sin(turn), math.cos(turn)]])
        for J in (np.diag([0.9, 0.1]), Q @ np.diag([0.9, -0.3]) @ Q.T):
            E = contraction_init(J, r=2.0)
            assert np.allclose(E.A, np.eye(2) / 2.0, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "n, diagonal, superdiagonal",
        [(2, 0.5, 1.0)]
        + [
            (n, diagonal, superdiagonal)
            for n in (3, 4, 5, 6)
            for diagonal, superdiagonal in ((0.5, 1.0), (0.5, 0.1), (0.8, 1.0), (0.3, 2.0))
        ],
    )
    def test_defective_jacobian_rejected_without_warning(self, n, diagonal, superdiagonal):
        # a Jordan block has no eigenbasis, so no eigenbasis metric
        J = diagonal * np.eye(n) + superdiagonal * np.eye(n, k=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(UnstableLinearization, match="not diagonalizable"):
                contraction_init(J, r=2.0)

    def test_scale_must_exceed_one(self):
        with pytest.raises(ValueError):
            contraction_init(0.5 * np.eye(2), r=0.9)


class TestPoincareStep:
    def test_fixed_point_of_identity_chart_system(self):
        # flow straight down to the guard and reset back up: the section map
        # is the identity on the chart coordinate
        sys = BatchHybridCallbacks(
            state_dim=2,
            reduced_dim=1,
            vector_field=lambda s: np.zeros_like(s) + [0.0, -1.0],
            guard=lambda s: s[..., 1],
            guard_velocity=lambda s: _constant(-1.0, s),
            reset=lambda s: np.stack([s[..., 0], np.ones_like(s[..., 0])], axis=-1),
            chart=lambda s: s[..., :1],
            chart_inverse=lambda y: np.stack([y[..., 0], np.zeros_like(y[..., 0])], axis=-1),
        )
        out = vectorized_poincare_map(sys)(np.array([0.7]))
        assert out[0] == pytest.approx(0.7, abs=1e-12)


def _scipy_roots(f, a, b):
    """scipy's brentq per row on `f(x, rows)` of one-element arrays, with
    iteration counts; NaN and -1 where it raises."""
    roots = np.full(a.size, np.nan)
    iterations = np.full(a.size, -1)
    for i in range(a.size):
        try:
            root, info = scipy.optimize.brentq(
                lambda x: float(f(np.array([x]), np.array([i]))[0]), a[i], b[i], full_output=True
            )
        except (ValueError, RuntimeError):
            continue
        roots[i], iterations[i] = root, info.iterations
    return roots, iterations


class TestBatchedLocalization:
    @pytest.mark.parametrize(
        "g, exact_root",
        [
            (lambda x: (x - 0.5) * (x * x + 1.0) * (x + 2.0), 0.5),
            (lambda x: np.sin(3.0 * x) - 0.5 * x, 0.0),
            (lambda x: np.exp(x) - 1.0 - 2.0 * x, 0.0),
        ],
        ids=["polynomial", "trigonometric", "exponential"],
    )
    def test_brentq_matches_scipy_row_for_row(self, g, exact_root):
        rng = np.random.default_rng(21)
        a = exact_root - 10.0 ** rng.uniform(-8, 0, 300)
        b = exact_root + 10.0 ** rng.uniform(-8, 0, 300)
        a[:5] = exact_root  # roots exact at an endpoint
        b[5:10] = exact_root
        f = lambda x, rows: g(x)
        expected, iterations = _scipy_roots(f, a, b)
        assert np.isfinite(expected).sum() > 250
        assert len(set(iterations[iterations > 0])) >= 4
        assert np.array_equal(brentq(f, a, b), expected, equal_nan=True)

    def test_brentq_failures_are_nan_rows(self):
        def f(x, rows):
            cubic = np.where((x > 0.1) & (x < 0.3), np.nan, x**3 - 0.125)
            return np.where(rows == 1, np.where(x < 1e-300, -1.0, 1.0), cubic)

        # a good bracket; a step function that 100 iterations do not resolve;
        # NaN at an end; NaN inside; a root exact at an end; no sign change
        a = np.array([0.4, 0.0, 0.2, 0.0, 0.4, 0.6])
        b = np.array([1.0, 1e30, 1.0, 1.0, 0.5, 1.0])
        roots = brentq(f, a, b)
        expected, _ = _scipy_roots(f, a, b)
        assert np.array_equal(roots, expected, equal_nan=True)
        assert np.isnan(roots[[1, 2, 3, 5]]).all()
        assert roots[4] == 0.5
        assert roots[0] == pytest.approx(0.5, abs=1e-12)

    def test_brentq_calls_back_on_running_rows_only(self):
        seen = []

        def f(x, rows):
            seen.append(rows.copy())
            return x**3 - 0.3

        a, b = np.zeros(6), np.array([1.0, 0.7, 0.67, 0.6695, 0.669433, 0.6694329501])
        brentq(f, a, b)
        assert [len(rows) for rows in seen[:2]] == [6, 6]
        assert all(np.all(np.diff(rows) > 0) for rows in seen)
        assert len(seen[-1]) < 6

    def test_segment_coefficients_equal_per_row_products(self):
        rng = np.random.default_rng(8)
        n, dim = 40, 4
        y0 = rng.standard_normal((n, dim)) * 10.0 ** rng.integers(-60, 60, (n, dim))
        mix = rng.standard_normal((dim, dim))
        stepper = BatchStepper(lambda y: y @ mix, y0, 1.0, 1e-6, 1e-12)
        stepper.step()
        rows = stepper.accepted_rows[::3]
        assert rows.size > 5
        attempted, _, _, _, k = stepper._last
        seg = stepper.segment(rows)
        for i, row in enumerate(rows):
            local = np.searchsorted(attempted, row)
            assert np.array_equal(seg.coeffs[i], k[:, local, :].copy().T @ _P)


def nan_guard_system():
    """Flow x0' = 1 from x0 = 0 to the guard 1 - x0^3 = 0; for x1 > 0 the
    guard is NaN on 0.3 < x0 < 0.999, inside the crossing step."""

    def guard(x):
        hole = (x[..., 1] > 0) & (0.3 < x[..., 0]) & (x[..., 0] < 0.999)
        return np.where(hole, np.nan, 1.0 - x[..., 0] ** 3)

    return BatchHybridCallbacks(
        state_dim=2,
        reduced_dim=1,
        vector_field=lambda x: np.zeros_like(x) + [1.0, 0.0],
        guard=guard,
        guard_velocity=lambda x: -3.0 * x[..., 0] ** 2,
        reset=lambda x: np.stack([np.zeros_like(x[..., 1]), x[..., 1]], axis=-1),
        chart=lambda x: x[..., 1:],
        chart_inverse=lambda y: np.stack([np.ones_like(y[..., 0]), y[..., 0]], axis=-1),
    )


def test_failed_localization_fails_only_its_row():
    pmap = vectorized_poincare_map(nan_guard_system())
    out, ok = pmap.batch_evaluator(np.array([[-1.0], [1.0]]))
    assert ok.tolist() == [True, False]
    assert np.isnan(out[1]).all()
    assert np.array_equal(out[0], pmap(np.array([-1.0])))
    assert out[0][0] == -1.0
    with pytest.raises(GuardNotReached):
        pmap(np.array([1.0]))


def holeless_guard_system(**fields):
    """`nan_guard_system` with a guard defined everywhere and `fields` replaced."""
    return dataclasses.replace(nan_guard_system(), guard=lambda x: 1.0 - x[..., 0] ** 3, **fields)


@pytest.mark.parametrize("hole_from", [0.5, -1.0], ids=["mid-flight", "from-the-start"])
def test_non_finite_vector_field_fails_only_its_row(hole_from):
    # for x1 > 0 the field is NaN once x0 > hole_from: no step can pass it
    calls = []

    def field(x):
        calls.append(x.shape[0])
        assert len(calls) < 5_000, "the engine keeps retrying a non-finite vector field"
        hole = (x[..., 1] > 0) & (x[..., 0] > hole_from)
        return np.where(hole[..., None], np.nan, np.zeros_like(x) + [1.0, 0.0])

    pmap = vectorized_poincare_map(holeless_guard_system(vector_field=field))
    out, ok = pmap.batch_evaluator(np.array([[-1.0], [1.0]]))
    assert ok.tolist() == [True, False]
    assert np.isnan(out[1]).all()
    assert np.array_equal(out[0], pmap(np.array([-1.0])))
    with pytest.raises(GuardNotReached, match="non-finite vector field"):
        pmap(np.array([1.0]))


def test_non_finite_chart_image_fails_its_row():
    chart = lambda x: np.where(x[..., 1:] > 0, np.inf, x[..., 1:])
    pmap = vectorized_poincare_map(holeless_guard_system(chart=chart))
    out, ok = pmap.batch_evaluator(np.array([[-1.0], [1.0]]))
    assert ok.tolist() == [True, False]
    assert np.isnan(out[1]).all()
    with pytest.raises(InvalidSectionPoint):
        pmap(np.array([1.0]))
