import math
import warnings

import numpy as np
import pytest
from scipy import stats
from scipy.linalg import cho_solve

import invset.ellipsoid
from invset.ellipsoid import Ellipsoid, unit_ball_volume
from invset.rng import sample_stream


def cec_true_set():
    # shape/offset form of {(x-c)' M (x-c) <= 1} with M = [[2,1],[1,1]], c = [1,1]
    M = np.array([[2.0, 1.0], [1.0, 1.0]])
    c = np.array([1.0, 1.0])
    w, v = np.linalg.eigh(M)
    A = (v * np.sqrt(w)) @ v.T
    return Ellipsoid(A=A, b=A @ c)


def rotated_offset_ellipsoid(dim, seed):
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((dim, dim))
    return Ellipsoid(A=B @ B.T + dim * np.eye(dim), b=3.0 * rng.standard_normal(dim))


def reference_sample(E, n, seed, context=0, make_stream=sample_stream):
    # the sampler's definition, one stream per point; Ellipsoid.sample must
    # match it bit for bit
    d = E.dim
    ball = np.empty((n, d))
    for i in range(n):
        stream = make_stream(seed, context, i)
        g = stream.standard_normal(d)
        norm = np.linalg.norm(g)
        while norm == 0.0:  # probability-zero guard, stream-local retry
            g = stream.standard_normal(d)
            norm = np.linalg.norm(g)
        radius = stream.random() ** (1.0 / d)
        ball[i] = (radius / norm) * g
    return cho_solve(E._chol, (ball + E.b).T).T


class ZeroingStream:
    """Generator whose Gaussian draws read as zero whenever their first value
    exceeds 0.4, so the zero-norm retry runs on about a third of the rows.
    Each zeroed draw appends to `zeroed`."""

    def __init__(self, stream, zeroed):
        self._stream = stream
        self._zeroed = zeroed
        self.bit_generator = stream.bit_generator

    def standard_normal(self, size=None, out=None):
        g = self._stream.standard_normal(size, out=out)
        if g[0] > 0.4:
            g[...] = 0.0
            self._zeroed.append(g)
        return g

    def random(self):
        return self._stream.random()


class TestContainment:
    def test_center_of_unit_ball(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        assert E.contains_batch([[0.0, 0.0]]).tolist() == [True]

    def test_boundary_is_inside_just_outside_is_not(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        assert E.contains_batch([[1.0, 0.0], [1.0 + 1e-6, 0.0]]).tolist() == [True, False]

    def test_cec_boundary_point(self):
        # (x-c)' M (x-c) = [0,1] M [0,1]' = 1 exactly: on the boundary
        E = cec_true_set()
        assert E.contains_batch([[1.0, 2.0]]).tolist() == [True]
        assert abs(np.linalg.norm(E.A @ [1.0, 2.0] - E.b) - 1.0) < 1e-12

    @pytest.mark.parametrize("point", [[1.0, 0.0, 0.0], [[1.0, 0.0, 0.0]]], ids=["point", "batch"])
    def test_dimension_mismatch_rejected(self, point):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        with pytest.raises(ValueError):
            E.contains_batch(point)

    def test_overflowing_residual_is_outside(self):
        # escaped cec images square their offset each step; an overflowed
        # residual is +inf, outside, and raises no warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside = Ellipsoid.ball(1.0, [0.0, 0.0]).contains_batch([[1e200, 0.0]])
        assert inside.tolist() == [False]


class TestValidation:
    def test_asymmetric_matrix_rejected(self):
        with pytest.raises(ValueError):
            Ellipsoid(A=np.array([[1.0, 0.5], [0.0, 1.0]]), b=np.zeros(2))

    def test_indefinite_matrix_rejected(self):
        with pytest.raises(ValueError):
            Ellipsoid(A=np.array([[1.0, 0.0], [0.0, -1.0]]), b=np.zeros(2))

    @pytest.mark.parametrize(
        "A, b, message",
        [
            (np.eye(2), np.zeros(3), "inconsistent shapes"),
            (np.ones((2, 3)), np.zeros(2), "inconsistent shapes"),
            (np.array([[1.0, 0.0], [0.0, np.nan]]), np.zeros(2), "non-finite"),
            (np.eye(2), np.array([np.inf, 0.0]), "non-finite"),
        ],
        ids=["b-of-3", "A-2x3", "nan-A", "inf-b"],
    )
    def test_malformed_parameters_rejected(self, A, b, message):
        with pytest.raises(ValueError, match=message):
            Ellipsoid(A=A, b=b)

    def test_center_solves_offset(self):
        rng = np.random.default_rng(5)
        B = rng.standard_normal((3, 3))
        A = B @ B.T + 3 * np.eye(3)
        E = Ellipsoid(A=A, b=rng.standard_normal(3))
        assert np.linalg.norm(A @ E.center - E.b) < 1e-12

    def test_immutable(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        with pytest.raises(ValueError):
            E.A[0, 0] = 2.0


class TestVolume:
    def test_unit_disk(self):
        assert Ellipsoid.ball(1.0, [0.0, 0.0]).volume() == pytest.approx(math.pi)

    def test_radius_sqrt10_disk(self):
        # M0 = 0.1 I <=> A0 = sqrt(0.1) I: volume pi / 0.1
        A = math.sqrt(0.1) * np.eye(2)
        E = Ellipsoid(A=A, b=np.zeros(2))
        assert E.volume() == pytest.approx(10 * math.pi, rel=1e-12)

    def test_cec_true_volume(self):
        # det M = 1 so the volume is pi / sqrt(det M) = pi
        assert cec_true_set().volume() == pytest.approx(math.pi, rel=1e-12)

    def test_scaling_covariance(self):
        E = Ellipsoid.ball(1.0, [0.5, -0.25, 0.0])
        for k in (0.5, 2.0, 7.0):
            scaled = Ellipsoid(A=k * E.A, b=k * E.b)
            assert scaled.volume() == pytest.approx(E.volume() / k**3, rel=1e-12)

    def test_unit_ball_volume_values(self):
        assert unit_ball_volume(2) == pytest.approx(math.pi)
        assert unit_ball_volume(3) == pytest.approx(4 * math.pi / 3)


class TestSampling:
    def test_samples_contained(self):
        rng = np.random.default_rng(11)
        B = rng.standard_normal((3, 3))
        A = B @ B.T + 4 * np.eye(3)
        E = Ellipsoid(A=A, b=rng.standard_normal(3))
        pts = E.sample(500, seed=2)
        assert E.contains_batch(pts).all()

    def test_unit_disk_moments(self):
        # second moment of the uniform unit ball is 1/(dim + 2) per coordinate
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        pts = E.sample(100_000, seed=7)
        assert np.abs(pts.mean(axis=0)).max() < 0.02
        var = pts.var(axis=0)
        assert np.all(np.abs(var - 0.25) < 0.05 * 0.25)

    def test_rotated_ellipse_radius_and_angle_uniform(self):
        # mapped back to the unit disk, uniform samples have radius^2 ~ U(0, 1)
        # and angle ~ U(-pi, pi); KS at level 0.01 on a fixed seed
        E = cec_true_set()
        z = E.sample(20_000, seed=5) @ E.A.T - E.b
        radius_sq = np.einsum("ij,ij->i", z, z)
        angle = np.arctan2(z[:, 1], z[:, 0])
        assert stats.kstest(radius_sq, "uniform").pvalue > 0.01
        assert stats.kstest(angle, "uniform", args=(-math.pi, 2 * math.pi)).pvalue > 0.01

    def test_deterministic_and_order_independent(self):
        E = Ellipsoid.ball(2.0, [1.0, -1.0])
        a = E.sample(50, seed=9, context=3)
        b = E.sample(50, seed=9, context=3)
        assert np.array_equal(a, b)
        # drawing a longer batch reproduces the shorter one exactly
        c = E.sample(80, seed=9, context=3)
        assert np.array_equal(a, c[:50])

    def test_context_separates_batches(self):
        E = Ellipsoid.ball(1.0, [0.0, 0.0])
        assert not np.array_equal(E.sample(10, seed=9, context=1), E.sample(10, seed=9, context=2))

    def test_empty_draw_rejected(self):
        with pytest.raises(ValueError, match="n >= 1"):
            Ellipsoid.ball(1.0, [0.0, 0.0]).sample(0, seed=9)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [1, 7, 1000])
    @pytest.mark.parametrize("seed, context", [(0, 0), (9, 3), (2**40 + 5, 7 * 2**32 + 11)])
    def test_bit_identical_to_one_stream_per_point(self, dim, n, seed, context):
        # the last pair has a context >= 2**32, as verify_k_step's contexts are
        for E in (Ellipsoid.ball(0.5, np.zeros(dim)), rotated_offset_ellipsoid(dim, seed=dim)):
            assert np.array_equal(E.sample(n, seed, context), reference_sample(E, n, seed, context))

    def test_zero_norm_retry_matches_per_point_streams(self, monkeypatch):
        zeroed = []

        def zeroing_stream(seed, context, index):
            return ZeroingStream(sample_stream(seed, context, index), zeroed)

        E = rotated_offset_ellipsoid(2, seed=4)
        expected = reference_sample(E, 200, 6, 1, make_stream=zeroing_stream)
        zeroed.clear()
        monkeypatch.setattr(invset.ellipsoid, "sample_stream", zeroing_stream)
        pts = E.sample(200, seed=6, context=1)
        assert len(zeroed) > 50
        assert np.array_equal(pts, expected)

    def test_one_stream_per_call(self, monkeypatch):
        calls = []

        def counting_stream(seed, context, index):
            calls.append((seed, context, index))
            return sample_stream(seed, context, index)

        monkeypatch.setattr(invset.ellipsoid, "sample_stream", counting_stream)
        Ellipsoid.ball(1.0, [0.0, 0.0]).sample(1000, seed=3, context=2)
        assert calls == [(3, 2, 0)]


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        B = rng.standard_normal((2, 2))
        E = Ellipsoid(A=B @ B.T + 2 * np.eye(2), b=rng.standard_normal(2))
        data = E.to_dict()
        assert data["dim"] == 2 and len(data["A"]) == 4
        back = Ellipsoid.from_dict(data)
        assert np.array_equal(back.A, E.A)
        assert np.array_equal(back.b, E.b)

    def test_json_round_trip_through_text(self):
        import json

        E = Ellipsoid.ball(math.sqrt(10), [0.0, 0.0])
        back = Ellipsoid.from_dict(json.loads(json.dumps(E.to_dict())))
        assert back.volume() == E.volume()
