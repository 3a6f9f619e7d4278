import math

import numpy as np
import pytest

from invset.ellipsoid import Ellipsoid
from invset.rbf import (
    GAMMA_BALL,
    RBFSet,
    RbfSamplingError,
    _inflate_to_feasibility,
    _offsets,
    _penalty_value_grad,
    fit_rbf,
    sample_uniform_rbf_with_volume,
)


class TestMembership:
    def test_center_is_member(self):
        s = RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=0.5)
        assert s.contains_batch([np.zeros(2)]).tolist() == [True]

    def test_ball_threshold_boundary(self):
        # at gamma = exp(-1/2) the single-bump boundary is exactly |x - mu| = sigma
        s = RBFSet(centers=[[1.0, -1.0]], widths=[0.7], gamma=GAMMA_BALL)
        direction = np.array([0.6, 0.8])
        boundary = np.array([1.0, -1.0]) + 0.7 * direction
        beyond = np.array([1.0, -1.0]) + 0.7 * (1 + 1e-9) * direction
        assert s.contains_batch([boundary, beyond]).tolist() == [True, False]

    def test_matches_ellipsoid_ball(self):
        center = np.array([0.5, 0.2, -0.1])
        sigma = 0.8
        s = RBFSet(centers=[center], widths=[sigma], gamma=GAMMA_BALL)
        ball = Ellipsoid.ball(sigma, center)
        rng = np.random.default_rng(0)
        pts = center + rng.uniform(-1.2, 1.2, size=(500, 3))
        assert np.array_equal(s.contains_batch(pts), ball.contains_batch(pts))

    def test_membership_continuity_near_boundary(self):
        s = RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=GAMMA_BALL)
        vals = s.values(np.column_stack([np.linspace(0.9, 1.1, 50), np.zeros(50)]))
        assert np.all(np.diff(vals) < 0)
        boundary = s.values(np.array([[1.0, 0.0]]))[0]
        assert boundary == pytest.approx(GAMMA_BALL, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            RBFSet(centers=[[0.0, 0.0]], widths=[-1.0], gamma=0.5)
        with pytest.raises(ValueError):
            RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=1.5)  # gamma >= m
        with pytest.raises(ValueError):
            RBFSet(centers=[[0.0, 0.0], [1.0, 1.0]], widths=[1.0], gamma=0.5)
        for centers, widths in [
            ([[math.nan, 0.0], [1.0, 0.0]], [1.0, 1.0]),
            ([[0.0, 0.0], [1.0, 0.0]], [math.nan, 1.0]),
            ([[0.0, 0.0], [1.0, 0.0]], [math.inf, 1.0]),
        ]:
            with pytest.raises(ValueError, match="non-finite"):
                RBFSet(centers=centers, widths=widths, gamma=0.5)


class TestFit:
    def test_single_point_clamps_width(self):
        s = fit_rbf(np.array([[2.0, 3.0]]), m=1)
        assert np.allclose(s.centers[0], [2.0, 3.0], atol=1e-9)
        assert s.widths[0] < 1e-3
        assert s.contains_batch([[2.0, 3.0]]).tolist() == [True]

    def test_all_training_points_are_members(self):
        rng = np.random.default_rng(1)
        pts = np.vstack(
            [rng.normal([-1, 0], 0.3, size=(60, 2)), rng.normal([1.5, 0.5], 0.4, size=(60, 2))]
        )
        s = fit_rbf(pts, m=2)
        assert np.all(s.values(pts) - s.gamma >= -1e-6)

    def test_two_cluster_structure_recovered(self):
        rng = np.random.default_rng(2)
        pts = np.vstack(
            [rng.normal([-2, 0], 0.2, size=(80, 2)), rng.normal([2, 0], 0.2, size=(80, 2))]
        )
        s = fit_rbf(pts, m=2, gamma=0.4)
        xs = np.sort(s.centers[:, 0])
        assert xs[0] < -1.5 and xs[1] > 1.5

    def test_warm_start_preserved_and_dead_bumps_reseeded(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(0, 1, size=(50, 2))
        warm = RBFSet(centers=[[0.1, 0.0], [-0.1, 0.0]], widths=[1.0, 1.0], gamma=0.4)
        s = fit_rbf(pts, m=2, gamma=0.4, init=warm)
        assert np.all(s.values(pts) - s.gamma >= -1e-6)
        dead = RBFSet(centers=[[0.1, 0.0], [-0.1, 0.0]], widths=[1.0, 1e-6], gamma=0.4)
        s2 = fit_rbf(pts, m=2, gamma=0.4, init=dead)
        assert np.all(s2.widths > 1e-5)

    def test_objective_decreases_with_fixed_penalty(self):
        # L-BFGS-B steps never increase the penalized objective; verify
        # indirectly: fitted widths are no wider than the seed's
        rng = np.random.default_rng(4)
        pts = rng.normal(0, 0.5, size=(100, 2))
        fat = RBFSet(centers=[[0.0, 0.0]], widths=[5.0], gamma=0.4)
        s = fit_rbf(pts, m=1, gamma=0.4, init=fat)
        assert s.widths[0] < 5.0

    def test_convex_blob_degenerates_to_connected_set(self):
        # fitting two bumps to one elliptical blob must not tear it apart:
        # the segment between the fitted centers stays inside the set
        ellipse = Ellipsoid(
            A=np.array([[1.2, 0.4], [0.4, 0.9]]), b=np.array([0.5, -0.2])
        )
        pts = ellipse.sample(400, seed=12)
        s = fit_rbf(pts, m=2)
        midpoints = s.centers[0] + np.linspace(0, 1, 9)[:, None] * (
            s.centers[1] - s.centers[0]
        )
        assert s.contains_batch(midpoints).all()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            fit_rbf(np.empty((0, 2)), m=1)
        with pytest.raises(ValueError, match="basis function"):
            fit_rbf(np.zeros((5, 2)), m=0)

    @pytest.mark.parametrize("gamma", [1.0, 1.5])
    def test_width_repair_at_gamma_one_or_more_scales_every_width_alike(self, gamma):
        # no single bump reaches gamma >= 1, so the repair scales all widths
        # by one factor, the smallest that covers every point
        pts = np.random.default_rng(6).standard_normal((100, 2))
        centers = np.array([[-0.5, 0.0], [0.5, 0.0]])
        widths = np.array([0.3, 0.3])
        assert not RBFSet(centers=centers, widths=widths, gamma=gamma).contains_batch(pts).all()
        repaired = _inflate_to_feasibility(centers, widths, pts, gamma)
        assert np.all(RBFSet(centers, repaired, gamma).values(pts) - gamma >= -1e-7)
        factor = repaired[0] / widths[0]
        assert factor > 1.0 and repaired[1] == factor * widths[1]
        narrower = RBFSet(centers, repaired * (1.0 - 1e-9), gamma)
        assert not narrower.contains_batch(pts).all()


class TestSampling:
    def test_samples_are_members(self):
        s = RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=GAMMA_BALL)
        pts = sample_uniform_rbf_with_volume(s, 2000, seed=5)[0]
        assert pts.shape == (2000, 2)
        assert s.contains_batch(pts).all()

    def test_ball_covariance(self):
        # at the ball threshold the set is the sigma-ball: covariance of the
        # uniform law is sigma^2 / (dim + 2) per coordinate
        sigma = 0.8
        s = RBFSet(centers=[[0.0, 0.0]], widths=[sigma], gamma=GAMMA_BALL)
        pts = sample_uniform_rbf_with_volume(s, 60_000, seed=6)[0]
        target = sigma**2 / 4.0
        assert np.all(np.abs(pts.var(axis=0) - target) < 0.05 * target)

    def test_two_lobe_mass_split(self):
        # disjoint lobes with 2:1 width ratio: area ratio 4:1 in 2D
        s = RBFSet(centers=[[-5.0, 0.0], [5.0, 0.0]], widths=[1.0, 0.5], gamma=GAMMA_BALL)
        pts = sample_uniform_rbf_with_volume(s, 40_000, seed=7)[0]
        left = (pts[:, 0] < 0).mean()
        expected = 4.0 / 5.0
        sigma_mc = math.sqrt(expected * (1 - expected) / 40_000)
        assert abs(left - expected) < 3 * sigma_mc

    def test_volume_estimate(self):
        sigma = 1.0
        s = RBFSet(centers=[[0.0, 0.0]], widths=[sigma], gamma=GAMMA_BALL)
        _, volume = sample_uniform_rbf_with_volume(s, 50_000, seed=8)
        assert volume == pytest.approx(math.pi, rel=0.02)

    def test_box_holds_the_whole_set_at_small_gamma(self):
        # a member lies within sqrt(2 ln(m / gamma)) widths of some center:
        # 4.29 at m = 1 and gamma = 1e-4, beyond the 4-width default pad
        s = RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=1e-4)
        member = np.array([4.2, 0.0])
        assert s.contains_batch([member]).tolist() == [True]
        lo, hi = s.bounding_box()
        assert np.all(lo <= member) and np.all(member <= hi)
        _, volume = sample_uniform_rbf_with_volume(s, 20_000, seed=3)
        assert volume == pytest.approx(math.pi * 2.0 * math.log(1e4), rel=0.02)

    def test_deterministic(self):
        s = RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=GAMMA_BALL)
        a = sample_uniform_rbf_with_volume(s, 100, seed=9, context=2)[0]
        b = sample_uniform_rbf_with_volume(s, 100, seed=9, context=2)[0]
        assert np.array_equal(a, b)

    def test_empty_draw_rejected(self):
        s = RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=GAMMA_BALL)
        with pytest.raises(ValueError, match="n >= 1"):
            sample_uniform_rbf_with_volume(s, 0, seed=9)

    def test_low_acceptance_rate_raises(self):
        # two unit bumps 1e5 apart fill about 2.4e-5 of their own bounding box
        s = RBFSet(centers=[[0.0, 0.0], [1e5, 0.0]], widths=[1.0, 1.0], gamma=0.25)
        with pytest.raises(RbfSamplingError):
            sample_uniform_rbf_with_volume(s, 100, seed=10)

    def test_serialization_round_trip(self):
        s = RBFSet(centers=[[0.1, 0.2], [-0.3, 0.4]], widths=[0.5, 0.6], gamma=0.25)
        back = RBFSet.from_dict(s.to_dict())
        assert np.array_equal(back.centers, s.centers)
        assert np.array_equal(back.widths, s.widths)
        assert back.gamma == s.gamma

    @pytest.mark.parametrize("m", [1, 3, 2.0, True], ids=["fewer", "more", "float", "bool"])
    def test_from_dict_rejects_an_m_that_does_not_count_the_centers(self, m):
        data = RBFSet(centers=[[0.1, 0.2], [-0.3, 0.4]], widths=[0.5, 0.6], gamma=0.25).to_dict()
        with pytest.raises(ValueError, match="number of centers"):
            RBFSet.from_dict({**data, "m": m})


def _cube_penalty_value_grad(centers, widths, points, gamma, weight):
    # reference: the penalty summed over the (m, n, dim) offset cube
    diff = points[None, :, :] - centers[:, None, :]  # (m, n, dim)
    d2 = (diff**2).sum(axis=2)  # (m, n)
    bumps = np.exp(-0.5 * d2 / widths[:, None] ** 2)
    field = bumps.sum(axis=0)  # (n,)
    hinge = np.maximum(0.0, gamma - field)
    value = float((widths**2).sum() + weight * (hinge**2).sum())
    coeff = -2.0 * weight * hinge  # d(value)/d(field_j)
    grad_centers = (coeff[None, :, None] * bumps[:, :, None] * diff).sum(axis=1) / widths[
        :, None
    ] ** 2
    grad_widths = 2.0 * widths + (coeff[None, :] * bumps * d2).sum(axis=1) / widths**3
    return value, grad_centers, grad_widths


def _cube_values(rbf_set, points):
    # reference: the field summed over the (n, m, dim) offset cube
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    d2 = ((pts[:, None, :] - rbf_set.centers[None, :, :]) ** 2).sum(axis=2)
    return np.exp(-0.5 * d2 / rbf_set.widths**2).sum(axis=1)


def _kernel_cases(seed, dims, ms, count):
    """Seeded (centers, widths, points, gamma, weight) cases; the points
    spread to about twice the widths, so some hinges are positive."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        dim, m = int(rng.choice(dims)), int(rng.choice(ms))
        n = int(rng.choice([1, 2, 7, 8, 9, 127, 128, 129, int(rng.integers(1, 2001))]))
        centers = rng.normal(0.0, 1.0, size=(m, dim))
        widths = rng.uniform(0.3, 1.5, size=m)
        points = centers[rng.integers(0, m, size=n)] + rng.normal(0.0, 2.0, size=(n, dim))
        gamma = float(rng.uniform(0.1, 0.9))
        weight = float(10.0 ** rng.uniform(1.0, 5.0))
        yield centers, widths, points, gamma, weight


class TestKernelSummationOrder:
    """The per-axis kernels keep every sum of the (m, n, dim) cube's order."""

    def test_penalty_is_bit_identical(self):
        active = 0
        for c, w, p, gamma, weight in _kernel_cases(0, range(2, 8), range(1, 8), 300):
            expect = _cube_penalty_value_grad(c, w, p, gamma, weight)
            got = _penalty_value_grad(c, w, np.ascontiguousarray(p.T), gamma, weight)
            assert got[0] == expect[0]
            assert np.array_equal(got[1], expect[1])
            assert np.array_equal(got[2], expect[2])
            active += bool(np.any(expect[1]))
        assert active > 200

    def test_values_are_bit_identical(self):
        for c, w, p, gamma, _ in _kernel_cases(1, range(1, 8), range(1, 8), 300):
            s = RBFSet(centers=c, widths=w, gamma=gamma)
            assert np.array_equal(s.values(p), _cube_values(s, p))

    def test_pairwise_sums_agree_to_rounding(self):
        # the cube reference sums one axis, 8 or more axes, and a field of 8 or
        # more bumps pairwise; summed in order here, only the last bits may differ
        for c, w, p, gamma, weight in _kernel_cases(2, [1, 8, 9], range(1, 8), 100):
            expect = _cube_penalty_value_grad(c, w, p, gamma, weight)
            got = _penalty_value_grad(c, w, np.ascontiguousarray(p.T), gamma, weight)
            assert got[0] == pytest.approx(expect[0], rel=1e-12)
            scale = np.abs(expect[1]).max()
            assert np.allclose(got[1], expect[1], rtol=1e-12, atol=1e-12 * scale)
            assert np.allclose(got[2], expect[2], rtol=1e-12)
        for c, w, p, gamma, _ in _kernel_cases(3, range(1, 10), range(1, 12), 150):
            s = RBFSet(centers=c, widths=w, gamma=gamma)
            assert np.allclose(s.values(p), _cube_values(s, p), rtol=1e-12, atol=0.0)

    def test_pairwise_center_sum_would_be_caught(self):
        # numpy's pairwise `sum` over the point axis changes the last bits,
        # so the exact check above rejects it
        mismatches = 0
        for c, w, p, gamma, weight in _kernel_cases(0, range(2, 8), range(1, 8), 50):
            diff, d2 = _offsets(np.ascontiguousarray(p.T), c)
            bumps = np.exp(-0.5 * d2 / w[:, None] ** 2)
            coeff_bumps = -2.0 * weight * np.maximum(0.0, gamma - bumps.sum(axis=0)) * bumps
            pairwise = (coeff_bumps[:, None, :] * diff).sum(axis=-1) / w[:, None] ** 2
            expect = _cube_penalty_value_grad(c, w, p, gamma, weight)[1]
            mismatches += not np.array_equal(pairwise, expect)
        assert mismatches > 0


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_penalty_gradient_matches_central_differences(dim, m):
    rng = np.random.default_rng(10 * dim + m)
    centers = rng.normal(0.0, 0.5, size=(m, dim))
    widths = rng.uniform(0.4, 1.0, size=m)
    points = rng.normal(0.0, 1.0, size=(40, dim))
    points_t = np.ascontiguousarray(points.T)
    gamma, weight = 0.5, 100.0
    x = np.concatenate([centers.ravel(), widths])

    def value(x):
        centers, widths = x[: m * dim].reshape(m, dim), x[m * dim :]
        return _penalty_value_grad(centers, widths, points_t, gamma, weight)[0]

    _, grad_centers, grad_widths = _penalty_value_grad(centers, widths, points_t, gamma, weight)
    field = RBFSet(centers=centers, widths=widths, gamma=gamma).values(points)
    assert 0 < np.count_nonzero(field < gamma) < len(points)  # the hinge is active on some points
    h = 1e-6
    central = np.array(
        [(value(x + h * e) - value(x - h * e)) / (2.0 * h) for e in np.eye(x.size)]
    )
    grad = np.concatenate([grad_centers.ravel(), grad_widths])
    assert np.allclose(central, grad, rtol=1e-5, atol=1e-5 * np.abs(grad).max())
