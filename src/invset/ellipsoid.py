"""Ellipsoids: membership, uniform sampling, volume, and minimum-volume covers.

An ellipsoid is stored in shape/offset form ``{x : ||A x - b||_2 <= 1}`` with
``A`` symmetric positive definite.  Its center is ``A^{-1} b`` and its volume
is ``V_dim / det(A)`` where ``V_dim`` is the unit-ball volume.
"""

import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.spatial import ConvexHull, QhullError

from .rng import sample_stream

_SYMMETRY_TOL = 1e-10


class DegenerateCloudWarning(RuntimeWarning):
    """Point cloud was rank deficient; the returned cover was regularized."""


def unit_ball_volume(dim: int) -> float:
    """Volume of the unit ball in `dim` dimensions."""
    return math.pi ** (dim / 2.0) / math.gamma(dim / 2.0 + 1.0)


@dataclass(frozen=True, eq=False)
class Ellipsoid:
    """Closed set {x : ||A x - b||_2 <= 1}; immutable and thread-safe."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        b = np.array(self.b, dtype=float).reshape(-1)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] != b.size:
            raise ValueError(f"inconsistent shapes A{A.shape}, b{b.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("non-finite entries in ellipsoid parameters")
        scale = max(1.0, float(np.abs(A).max()))
        if np.abs(A - A.T).max() > _SYMMETRY_TOL * scale:
            raise ValueError("shape matrix is not symmetric")
        A = 0.5 * (A + A.T)
        if np.linalg.eigvalsh(A).min() <= 0.0:
            raise ValueError("shape matrix is not positive definite")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.b.size

    @cached_property
    def _chol(self):
        return cho_factor(self.A)

    @cached_property
    def center(self) -> np.ndarray:
        c = cho_solve(self._chol, self.b)
        c.setflags(write=False)
        return c

    def contains(self, x) -> bool:
        """Closed membership test: ||A x - b|| <= 1 (boundary included)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected point of dimension {self.dim}, got shape {x.shape}")
        return bool(np.linalg.norm(self.A @ x - self.b) <= 1.0)

    def contains_batch(self, points) -> np.ndarray:
        """Vectorized membership for an (n, dim) array; NaN rows are outside.

        A residual that overflows is +inf, so far-off rows are outside too.
        """
        pts = np.asarray(points, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.linalg.norm(pts @ self.A.T - self.b, axis=-1)
            return resid <= 1.0

    def boundary_distance(self, x) -> float:
        """Value of ||A x - b||; <= 1 inside, 1 on the boundary."""
        return float(np.linalg.norm(self.A @ np.asarray(x, dtype=float) - self.b))

    def volume(self) -> float:
        L = np.linalg.cholesky(self.A)
        det = float(np.prod(np.diag(L))) ** 2
        return unit_ball_volume(self.dim) / det

    def sample(self, n: int, seed: int, context: int = 0) -> np.ndarray:
        """Draw `n` points uniformly from the ellipsoid volume.

        Each point is produced from its own counter-based stream keyed by
        (seed, context, index): a Gaussian direction is normalized to the unit
        sphere, scaled by U^(1/dim) for uniformity in the ball, then mapped
        through A^{-1}(z + b) using the cached factorization of A.  Results
        are identical however the loop is scheduled.
        """
        if n < 1:
            raise ValueError("need n >= 1")
        d = self.dim
        ball = np.empty((n, d))
        for i in range(n):
            stream = sample_stream(seed, context, i)
            g = stream.standard_normal(d)
            norm = np.linalg.norm(g)
            while norm == 0.0:  # probability-zero guard, stream-local retry
                g = stream.standard_normal(d)
                norm = np.linalg.norm(g)
            radius = stream.random() ** (1.0 / d)
            ball[i] = (radius / norm) * g
        return cho_solve(self._chol, (ball + self.b).T).T

    def to_dict(self) -> dict:
        """JSON form {"dim": n, "A": row-major flat list, "b": list}."""
        return {
            "dim": self.dim,
            "A": [float(v) for v in self.A.ravel()],
            "b": [float(v) for v in self.b],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Ellipsoid":
        dim = int(data["dim"])
        A = np.asarray(data["A"], dtype=float).reshape(dim, dim)
        b = np.asarray(data["b"], dtype=float)
        return cls(A=A, b=b)

    @classmethod
    def ball(cls, radius: float, center) -> "Ellipsoid":
        center = np.asarray(center, dtype=float)
        dim = center.size
        A = np.eye(dim) / float(radius)
        return cls(A=A, b=A @ center)


def _hull_vertices(points: np.ndarray) -> np.ndarray:
    """Reduce to convex-hull vertices; the cover depends only on them."""
    n, d = points.shape
    if d == 1:
        return np.array([[points[:, 0].min()], [points[:, 0].max()]])
    if n <= max(4 * (d + 1), 16):
        return points
    try:
        hull = ConvexHull(points)
    except QhullError:
        return points  # flat cloud; handled by regularization downstream
    return points[hull.vertices]


_REFRESH_PERIOD = 256


def _khachiyan_weights(points: np.ndarray, tol: float, max_iters: int):
    """Dual weight-update iteration (Frank-Wolfe ascent with away steps).

    Maximizes log det of the weighted scatter of lifted points.  The inverse
    scatter and the leverages kappa_j are maintained by Sherman-Morrison
    rank-1 updates and recomputed from scratch periodically (and before any
    accepted stop) to control drift.  Returns the weight vector and a
    degeneracy flag.  Termination: every support leverage is within a
    (1 +/- tol) factor of (d + 1).
    """
    n, d = points.shape
    q = np.hstack([points, np.ones((n, 1))])
    m = d + 1
    u = np.full(n, 1.0 / n)
    degenerate = False

    def refresh():
        nonlocal degenerate
        v = q.T @ (q * u[:, None])
        try:
            vi = np.linalg.inv(v)
        except np.linalg.LinAlgError:
            v = v + np.eye(m) * max(np.trace(v) / m, 1e-300) * 1e-12
            vi = np.linalg.inv(v)
            degenerate = True
        return vi, np.einsum("ij,ij->i", q @ vi, q)

    vi, kappa = refresh()
    fresh = True
    since_refresh = 0
    for _ in range(max_iters):
        j_up = int(np.argmax(kappa))
        gap_up = kappa[j_up] - m
        kappa_support = np.where(u > 0.0, kappa, np.inf)
        j_down = int(np.argmin(kappa_support))
        gap_down = m - kappa[j_down]
        if gap_up <= tol * m and gap_down <= tol * m:
            if fresh:
                break
            vi, kappa = refresh()
            fresh, since_refresh = True, 0
            continue
        if since_refresh >= _REFRESH_PERIOD:
            vi, kappa = refresh()
            fresh, since_refresh = True, 0
            continue
        if gap_up >= gap_down:
            j, kj = j_up, kappa[j_up]
            lam = gap_up / (m * (kj - 1.0))
            denom = (1.0 - lam) + lam * kj
            vq = vi @ q[j]
            w = q @ vq
            vi = (vi - (lam / denom) * np.outer(vq, vq)) / (1.0 - lam)
            kappa = (kappa - (lam / denom) * w * w) / (1.0 - lam)
            u *= 1.0 - lam
            u[j] += lam
        else:
            j, kj = j_down, kappa[j_down]
            step_denom = m * (kj - 1.0)
            cap = u[j] / (1.0 - u[j]) if u[j] < 1.0 else np.inf
            lam = cap if step_denom <= 0.0 else min(gap_down / step_denom, cap)
            if not np.isfinite(lam) or lam <= 0.0:
                break  # all weight on one point: nothing left to move away
            denom = (1.0 + lam) - lam * kj
            if denom <= 1e-12:
                vi, kappa = refresh()
                fresh, since_refresh = True, 0
                continue
            vq = vi @ q[j]
            w = q @ vq
            vi = (vi + (lam / denom) * np.outer(vq, vq)) / (1.0 + lam)
            kappa = (kappa + (lam / denom) * w * w) / (1.0 + lam)
            u *= 1.0 + lam
            u[j] = max(u[j] - lam, 0.0)
        fresh = False
        since_refresh += 1
    u = np.maximum(u, 0.0)
    total = u.sum()
    if total > 0:
        u /= total
    return u, degenerate


def mvee(points, tol: float = 1e-7, max_iters: int = 100_000) -> Ellipsoid:
    """Minimum-volume ellipsoid enclosing `points`.

    Every input satisfies ||A p - b|| <= 1 exactly (the raw iterate is
    rescaled by the worst residual), and the volume is within a (1 + tol)
    factor of optimal at the default tolerance.  Rank-deficient clouds are
    regularized with a ridge proportional to the trace scale and reported via
    DegenerateCloudWarning.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("mvee requires at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("mvee requires finite points")
    n, d = pts.shape
    if tol <= 0:
        raise ValueError("tol must be positive")

    work = _hull_vertices(pts)
    u, degenerate = _khachiyan_weights(work, tol, max_iters)
    center = u @ work
    cov = work.T @ (work * u[:, None]) - np.outer(center, center)
    cov = 0.5 * (cov + cov.T)

    spread = float(((pts - pts.mean(axis=0)) ** 2).sum(axis=1).max())
    w, vecs = np.linalg.eigh(cov)
    ridge = max(1e-9 * np.trace(cov) / d, 1e-12 * spread, 1e-18)
    if w.min() <= ridge or not np.all(np.isfinite(w)):
        # rank-deficient or numerically wrecked cloud: fall back to the
        # ridged uniform scatter; the final rescale restores containment
        degenerate = True
        center = pts.mean(axis=0)
        cov = (pts - center).T @ (pts - center) / n + ridge * np.eye(d)
        cov = 0.5 * (cov + cov.T)
        w, vecs = np.linalg.eigh(cov)
        w = np.maximum(w, ridge)
    # A = ((d * cov)^{-1})^{1/2} so that (x-c)^T cov^{-1} (x-c) <= d on inputs.
    A = (vecs / np.sqrt(d * w)) @ vecs.T
    A = 0.5 * (A + A.T)
    b = A @ center

    worst = float(np.linalg.norm(pts @ A.T - b, axis=1).max())
    if worst > 1.0:
        A = A / worst
        b = b / worst

    if degenerate:
        warnings.warn(
            "rank-deficient point cloud: minimum-volume cover was regularized",
            DegenerateCloudWarning,
            stacklevel=2,
        )
    return Ellipsoid(A=A, b=b)
