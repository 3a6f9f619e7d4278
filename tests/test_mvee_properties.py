"""Property tests of `mvee` against John's optimality condition.

The unit ball is the minimum-volume ellipsoid of a set inside it exactly when
there are contact points z_i (|z_i| = 1) and weights l_i >= 0 with
sum l_i z_i z_i^T = I and sum l_i z_i = 0 (John 1948).  The check below maps
the inputs into the cover's unit-ball frame z = A p - b and asks
`scipy.optimize.nnls` for such weights on the points at the boundary; it never
looks at the solver's own weights.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import nnls

from invset import ellipsoid
from invset.ellipsoid import Ellipsoid, MveeConvergenceWarning, mvee

CONTACT = 1.0 - 1e-6  # |z| at or above this counts as a contact point
JOHN_RESIDUAL = 1e-8


def john_residual(E, points):
    """Least residual of John's condition over non-negative contact weights."""
    z = points @ E.A.T - E.b
    contact = z[np.linalg.norm(z, axis=1) >= CONTACT]
    d = z.shape[1]
    outer = (contact[:, :, None] * contact[:, None, :]).reshape(len(contact), d * d)
    system = np.vstack([outer.T, contact.T])
    target = np.concatenate([np.eye(d).ravel(), np.zeros(d)])
    return nnls(system, target)[1]


def residuals(E, points):
    return np.linalg.norm(points @ E.A.T - E.b, axis=1)


@st.composite
def mapped_clouds(draw):
    """A seeded Gaussian cloud and a linear map with condition number <= e^2."""
    seed = draw(st.integers(0, 2**32 - 1))
    d = draw(st.sampled_from([2, 3, 6]))
    n = draw(st.integers(d + 2, 300))
    rng = np.random.default_rng(seed)
    points = rng.standard_normal((n, d))
    q1, _ = np.linalg.qr(rng.standard_normal((d, d)))
    q2, _ = np.linalg.qr(rng.standard_normal((d, d)))
    T = q1 @ np.diag(np.exp(rng.uniform(-1.0, 1.0, d))) @ q2
    return points, T, rng.standard_normal(d)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(mapped_clouds())
def test_cover_contains_is_equivariant_and_meets_john(cloud):
    points, T, shift = cloud
    E = mvee(points)
    assert residuals(E, points).max() <= 1.0 + 1e-12
    assert john_residual(E, points) <= JOHN_RESIDUAL

    mapped = points @ T.T + shift
    F = mvee(mapped)
    assert residuals(F, mapped).max() <= 1.0 + 1e-12
    assert john_residual(F, mapped) <= JOHN_RESIDUAL
    # F must be the image of E: shape T^-T (A^T A) T^-1, center T c + shift
    Ti = np.linalg.inv(T)
    shape = F.A.T @ F.A
    np.testing.assert_allclose(shape, Ti.T @ E.A.T @ E.A @ Ti, rtol=1e-6,
                               atol=1e-6 * np.abs(shape).max())
    np.testing.assert_allclose(F.center, T @ E.center + shift, rtol=0,
                               atol=1e-6 * (1.0 + np.abs(F.center).max()))
    assert F.volume() == pytest.approx(abs(np.linalg.det(T)) * E.volume(), rel=1e-6)


@pytest.fixture
def cloud():
    return np.random.default_rng(0).standard_normal((200, 2))


def test_john_check_rejects_a_slightly_suboptimal_cover(cloud):
    E = mvee(cloud)
    # shift the center, then rescale to contain every point again
    b = E.b + np.array([1e-3, 0.0])
    worst = np.linalg.norm(cloud @ E.A.T - b, axis=1).max()
    shifted = Ellipsoid(A=E.A / worst, b=b / worst)
    assert 1.001 < shifted.volume() / E.volume() < 1.003
    assert residuals(shifted, cloud).max() <= 1.0 + 1e-12
    assert john_residual(shifted, cloud) > 1e-2


def test_john_check_rejects_a_loose_tolerance(cloud, monkeypatch):
    monkeypatch.setattr(ellipsoid, "_MVEE_TOL", 1e-2)
    assert john_residual(mvee(cloud), cloud) > 1e-2


def test_iteration_cap_warns_and_still_contains(cloud, monkeypatch):
    monkeypatch.setattr(ellipsoid, "_MVEE_MAX_ITERS", 1)
    with pytest.warns(MveeConvergenceWarning, match="duality gap"):
        E = mvee(cloud)
    assert residuals(E, cloud).max() <= 1.0 + 1e-12


def test_converged_solve_is_silent(cloud):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mvee(cloud)
