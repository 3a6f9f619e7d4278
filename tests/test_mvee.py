import math

import numpy as np
import pytest

from invset.ellipsoid import DegenerateCloudWarning, Ellipsoid, _core_set, mvee

SQUARE = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])


def brute_force_square_cover_volume():
    """Coarse grid search over centered ellipses covering the square corners.

    By symmetry the optimal cover of the four corners is centered at the
    origin, so only the shape matrix is scanned.  Returns the smallest volume
    found on the grid.
    """
    best = np.inf
    for a11 in np.linspace(0.05, 1.2, 47):
        for a22 in np.linspace(0.05, 1.2, 47):
            for a12 in np.linspace(-0.5, 0.5, 41):
                A = np.array([[a11, a12], [a12, a22]])
                det = a11 * a22 - a12 * a12
                if det <= 0:
                    continue
                if np.all(np.linalg.norm(SQUARE @ A.T, axis=1) <= 1.0):
                    best = min(best, math.pi / det)
    return best


class TestKnownGeometry:
    def test_square_corners_give_circumscribed_circle(self):
        E = mvee(SQUARE)
        assert E.volume() == pytest.approx(2 * math.pi, abs=1e-4)
        assert np.linalg.norm(E.center) < 1e-9
        # the circle has radius sqrt(2): A = I / sqrt(2)
        assert np.allclose(E.A, np.eye(2) / math.sqrt(2), atol=1e-7)

    def test_square_volume_is_grid_optimal(self):
        E = mvee(SQUARE)
        oracle = brute_force_square_cover_volume()
        # the grid is coarse; the solver must not beat it by more than
        # resolution and must not exceed it
        assert E.volume() <= oracle + 1e-9
        assert E.volume() >= oracle * 0.97

    def test_triangle_circumscribed_circle(self):
        angles = np.deg2rad([90.0, 210.0, 330.0])
        tri = np.column_stack([np.cos(angles), np.sin(angles)])
        E = mvee(tri)
        assert np.allclose(E.A, np.eye(2), atol=1e-6)
        assert np.linalg.norm(E.center) < 1e-7
        assert E.volume() == pytest.approx(math.pi, abs=1e-4)

    def test_tetrahedron_circumscribed_ball(self):
        tet = np.array(
            [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
        ) / math.sqrt(3.0)
        E = mvee(tet)
        assert np.allclose(E.A, np.eye(3), atol=1e-6)
        assert E.volume() == pytest.approx(4 * math.pi / 3, abs=1e-4)

    def test_entry_rule_grows_the_core_set_to_the_hexagon_circle(self):
        angles = np.deg2rad(np.arange(0.0, 360.0, 60.0))
        hexagon = np.column_stack([np.cos(angles), np.sin(angles)])
        interior = 0.5 * np.random.default_rng(4).uniform(-1.0, 1.0, (30, 2))
        pts = np.vstack([hexagon, interior])
        core = pts[_core_set(pts)]
        # the core set alone has a strictly smaller cover than the true one,
        # so the points the entry rule lets in are what make the cover right
        assert mvee(core).volume() < 0.9 * math.pi
        E = mvee(pts)
        assert np.allclose(E.A, np.eye(2), atol=1e-6)
        assert np.linalg.norm(E.center) < 1e-7
        assert E.volume() == pytest.approx(math.pi, abs=1e-4)


class TestContracts:
    def test_contains_all_inputs(self):
        rng = np.random.default_rng(0)
        for dim in (2, 3):
            pts = rng.standard_normal((200, dim)) @ rng.standard_normal((dim, dim))
            E = mvee(pts)
            assert np.all(np.linalg.norm(pts @ E.A.T - E.b, axis=1) <= 1.0 + 1e-12)

    def test_interior_points_are_inactive(self):
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((60, 2))
        E = mvee(pts)
        interior = 0.3 * pts[:5] + 0.7 * E.center
        augmented = mvee(np.vstack([pts, interior]))
        assert augmented.volume() == pytest.approx(E.volume(), rel=1e-5)

    def test_affine_equivariance(self):
        rng = np.random.default_rng(2)
        cases = []
        for dim in (2, 3):
            for _ in range(3):
                pts = rng.standard_normal((80, dim))
                T = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
                cases.append((pts, T, rng.standard_normal(dim)))
        # a small round cloud far from the origin against its centered copy
        small = 1e-4 * rng.standard_normal((200, 2))
        round_cloud = small - small.mean(axis=0)
        cases.append((round_cloud, np.eye(2), np.array([10.0, 10.0])))
        # the degeneracy rule is scale-free: a tiny full-rank cloud is no ridge case
        for scale in (1e-9, 1e-100):
            cases.append((round_cloud, scale * np.eye(2), np.zeros(2)))
        for pts, T, shift in cases:
            direct = mvee(pts @ T.T + shift).volume()
            mapped = abs(np.linalg.det(T)) * mvee(pts).volume()
            assert abs(direct - mapped) / mapped < 1e-5

    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            mvee(np.empty((0, 2)))
        with pytest.raises(ValueError):
            mvee(np.array([[0.0, np.nan]]))
        with pytest.raises(ValueError, match="overflow"):
            mvee(np.random.default_rng(0).standard_normal((50, 2)) * 1e160)

    @pytest.mark.parametrize(
        "setting",
        [{"tol": 0.0}, {"tol": math.nan}, {"tol": math.inf}, {"max_iters": -1}, {"max_iters": 2.5}],
        ids=["tol-0", "tol-nan", "tol-inf", "max_iters-negative", "max_iters-float"],
    )
    def test_rejects_bad_solver_settings(self, setting):
        # a NaN tol would never pass the gap test; a negative cap would leave no gap
        (name,) = setting
        pts = np.random.default_rng(0).standard_normal((50, 3))
        with pytest.raises(ValueError, match=name):
            mvee(pts, **setting)

    def test_degenerate_cloud_is_regularized_and_flagged(self):
        line = np.column_stack([np.linspace(-1, 1, 40), np.zeros(40)])
        # scatter eigenvalues in ratio 1e-10, at the origin and shifted by 10
        white = np.random.default_rng(5).standard_normal((200, 2))
        white -= white.mean(axis=0)
        white = white @ np.linalg.inv(np.linalg.cholesky(white.T @ white / 200)).T
        thin = white * [1.0, 1e-5]
        covers = []
        for cloud in (line, thin, thin + 10.0):
            with pytest.warns(DegenerateCloudWarning):
                E = mvee(cloud)
            assert isinstance(E, Ellipsoid)
            assert np.all(np.linalg.norm(cloud @ E.A.T - E.b, axis=1) <= 1.0 + 1e-9)
            covers.append(E)
        A_far, A_near = covers[2].A, covers[1].A
        assert np.abs(A_far - A_near).max() <= 1e-9 * np.abs(A_near).max()
        assert np.abs(covers[2].center - 10.0 - covers[1].center).max() <= 1e-9

    def test_volume_optimality_against_sample_subsets(self):
        # removing non-hull points must not change the cover
        rng = np.random.default_rng(3)
        pts = rng.standard_normal((500, 2))
        E_full = mvee(pts)
        resid = np.linalg.norm(pts @ E_full.A.T - E_full.b, axis=1)
        active = pts[resid > 0.95]
        E_active = mvee(np.vstack([active, pts[:3]]))
        assert E_active.volume() == pytest.approx(E_full.volume(), rel=1e-6)
