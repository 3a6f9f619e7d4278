import math

import numpy as np
import pytest

from invset.ellipsoid import Ellipsoid
from invset.rbf import (
    GAMMA_BALL,
    RBFSet,
    RbfSamplingError,
    fit_rbf,
    sample_uniform_rbf,
    sample_uniform_rbf_with_volume,
)


class TestMembership:
    def test_center_is_member(self):
        s = RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=0.5)
        assert s.contains(np.zeros(2))

    def test_ball_threshold_boundary(self):
        # at gamma = exp(-1/2) the single-bump boundary is exactly |x - mu| = sigma
        s = RBFSet(centers=[[1.0, -1.0]], widths=[0.7], gamma=GAMMA_BALL)
        direction = np.array([0.6, 0.8])
        assert s.contains(np.array([1.0, -1.0]) + 0.7 * direction)
        assert not s.contains(np.array([1.0, -1.0]) + 0.7 * (1 + 1e-9) * direction)

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


class TestFit:
    def test_single_point_clamps_width(self):
        s = fit_rbf(np.array([[2.0, 3.0]]), m=1)
        assert np.allclose(s.centers[0], [2.0, 3.0], atol=1e-9)
        assert s.widths[0] < 1e-3
        assert s.contains(np.array([2.0, 3.0]))

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


class TestSampling:
    def test_samples_are_members(self):
        s = RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=GAMMA_BALL)
        pts = sample_uniform_rbf(s, 2000, seed=5)
        assert pts.shape == (2000, 2)
        assert s.contains_batch(pts).all()

    def test_ball_covariance(self):
        # at the ball threshold the set is the sigma-ball: covariance of the
        # uniform law is sigma^2 / (dim + 2) per coordinate
        sigma = 0.8
        s = RBFSet(centers=[[0.0, 0.0]], widths=[sigma], gamma=GAMMA_BALL)
        pts = sample_uniform_rbf(s, 60_000, seed=6)
        target = sigma**2 / 4.0
        assert np.all(np.abs(pts.var(axis=0) - target) < 0.05 * target)

    def test_two_lobe_mass_split(self):
        # disjoint lobes with 2:1 width ratio: area ratio 4:1 in 2D
        s = RBFSet(centers=[[-5.0, 0.0], [5.0, 0.0]], widths=[1.0, 0.5], gamma=GAMMA_BALL)
        pts = sample_uniform_rbf(s, 40_000, seed=7)
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
        assert s.contains(member)
        lo, hi = s.bounding_box()
        assert np.all(lo <= member) and np.all(member <= hi)
        _, volume = sample_uniform_rbf_with_volume(s, 20_000, seed=3)
        assert volume == pytest.approx(math.pi * 2.0 * math.log(1e4), rel=0.02)

    def test_deterministic(self):
        s = RBFSet(centers=[[0.0, 0.0]], widths=[1.0], gamma=GAMMA_BALL)
        a = sample_uniform_rbf(s, 100, seed=9, context=2)
        b = sample_uniform_rbf(s, 100, seed=9, context=2)
        assert np.array_equal(a, b)

    def test_low_acceptance_rate_raises(self):
        s = RBFSet(centers=[[0.0, 0.0]], widths=[1e-3], gamma=GAMMA_BALL)
        with pytest.raises(RbfSamplingError):
            sample_uniform_rbf(s, 100, bounding_box=(np.full(2, -50.0), np.full(2, 50.0)), seed=10)

    def test_serialization_round_trip(self):
        s = RBFSet(centers=[[0.1, 0.2], [-0.3, 0.4]], widths=[0.5, 0.6], gamma=0.25)
        back = RBFSet.from_dict(s.to_dict())
        assert np.array_equal(back.centers, s.centers)
        assert np.array_equal(back.widths, s.widths)
        assert back.gamma == s.gamma
