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

from .rng import rewind, sample_stream

_SYMMETRY_TOL = 1e-10


class DegenerateCloudWarning(RuntimeWarning):
    """Point cloud was rank deficient; the returned cover was regularized."""


class MveeConvergenceWarning(RuntimeWarning):
    """The MVEE solver hit `max_iters` before its duality-gap test passed; the
    returned cover still contains every input but may be too large."""


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

    def contains_batch(self, points) -> np.ndarray:
        """Vectorized membership for an (n, dim) array; NaN rows are outside.

        A residual that overflows is +inf, so far-off rows are outside too.
        """
        pts = np.asarray(points, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            resid = np.linalg.norm(pts @ self.A.T - self.b, axis=-1)
            return resid <= 1.0

    def volume(self) -> float:
        L = np.linalg.cholesky(self.A)
        det = float(np.prod(np.diag(L))) ** 2
        return unit_ball_volume(self.dim) / det

    def sample(self, n: int, seed: int, context: int = 0) -> np.ndarray:
        """Draw `n` points uniformly from the ellipsoid volume.

        Point i is drawn from the counter-based stream keyed by
        (seed, context, i): a Gaussian direction is normalized to the unit
        sphere, scaled by U^(1/dim) for uniformity in the ball, then mapped
        through A^{-1}(z + b) using the cached factorization of A.  One
        generator is made per call and rewound per point (`rng.rewind`), so
        point i consumes exactly the words of `sample_stream(seed, context, i)`.
        Results are identical however many points are drawn.
        """
        if n < 1:
            raise ValueError("need n >= 1")
        d = self.dim
        stream = sample_stream(seed, context, 0)
        fresh = stream.bit_generator.state
        inv_d = 1.0 / d
        g = np.empty((n, d))
        radius = np.empty(n)
        # Only the draws stay scalar.  The radius uses Python's pow: numpy's
        # SIMD array power differs from it in the last bit on some inputs.
        for i in range(n):
            rewind(stream, fresh, i)
            stream.standard_normal(out=g[i])
            radius[i] = stream.random() ** inv_d
        # Stacked matmul reduces each row in the order np.linalg.norm does;
        # einsum and sum(axis=1) do not, and would change the last bit.
        norm = np.sqrt(np.matmul(g[:, None, :], g[:, :, None])[:, 0, 0])
        for i in np.flatnonzero(norm == 0.0).tolist():
            # probability-zero guard: redraw the row with a stream-local retry
            rewind(stream, fresh, i)
            while norm[i] == 0.0:
                stream.standard_normal(out=g[i])
                norm[i] = np.linalg.norm(g[i])
            radius[i] = stream.random() ** inv_d
        ball = (radius / norm)[:, None] * g
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


def _newton_weights(points: np.ndarray, tol: float, max_iters: int):
    """Active-set Newton ascent on the dual of the minimum-volume cover.

    Maximizes log det V(u), V(u) = sum_j u_j q_j q_j^T over the lifted points
    q_j = (p_j, 1), on the simplex u >= 0, sum u = 1.  Each step solves the
    Newton KKT system on the active set S.  A ratio test keeps u >= 0, and the
    point that blocks the step leaves S; outside the quadratic region the
    step is damped by 1 / (1 + lambda), lambda^2 being the Newton decrement.
    Once the step is negligible, the point of largest leverage
    kappa_j = q_j^T V^{-1} q_j joins S, unless max kappa <= (1 + tol) m,
    which bounds the duality gap and stops.  Returns the weights, a
    degeneracy flag (rank-deficient lifted scatter) and the gap
    max kappa / m - 1 reached.

    The KKT system is never formed.  With V = L L^T and z_j = L^{-1} q_j, the
    Hessian on S is -(G o G) = -psi psi^T, G = Z_S Z_S^T, where row j of psi
    is the upper triangle of z_j z_j^T with off-diagonals scaled by sqrt(2).
    The step is the minimum-norm solution, from an SVD of psi, which has
    m(m+1)/2 columns however large S is: no |S| x |S| matrix is factored.
    """
    n, d = points.shape
    q = np.hstack([points, np.ones((n, 1))])
    m = d + 1
    u = np.full(n, 1.0 / n)
    w = np.linalg.eigvalsh(q.T @ (q * u[:, None]))
    if not w[0] > 1e-12 * w[-1]:
        return u, True, np.inf
    rows, cols = np.triu_indices(m)
    scale = np.where(rows == cols, 1.0, math.sqrt(2.0))
    svec_eye = (rows == cols).astype(float)  # psi @ svec_eye = kappa_S
    active = np.ones(n, dtype=bool)
    for step in range(max_iters + 1):
        L = np.linalg.cholesky(q.T @ (q * u[:, None]))
        z = q @ np.linalg.inv(L).T
        kappa = np.einsum("ij,ij->i", z, z)
        gap = kappa.max() / m - 1.0
        S = np.flatnonzero(active)
        psi = z[S][:, rows] * z[S][:, cols] * scale
        U, sig, Vt = np.linalg.svd(psi, full_matrices=False)
        keep = sig > max(psi.shape) * np.finfo(float).eps * sig[0]
        # Newton model: minimize |psi^T du - svec(I)| subject to 1^T du = 0,
        # where 1 = psi @ svec(l l^T) for l = L^T e_m, the last row of L.
        l = L[-1]
        c = Vt[keep] @ svec_eye
        g = Vt[keep] @ (l[rows] * l[cols] * scale)
        c -= (g @ c) / (g @ g) * g
        du = U[:, keep] @ (c / sig[keep])
        lam2 = float(c @ c)
        negligible = lam2 <= tol * tol
        if (negligible and gap <= tol) or step == max_iters:
            break
        j = int(np.argmax(kappa))
        if negligible and not active[j]:
            # j enters S with the exact line-search step towards it
            lam = (kappa[j] - m) / (m * (kappa[j] - 1.0))
            u *= 1.0 - lam
            u[j] += lam
            active[j] = True
            continue
        t = 1.0 if lam2 <= 0.25 else 1.0 / (1.0 + math.sqrt(lam2))
        ratio = np.where(du < 0.0, u[S] / np.where(du < 0.0, -du, 1.0), np.inf)
        blocker = int(np.argmin(ratio))
        u[S] += min(t, ratio[blocker]) * du
        if ratio[blocker] <= t:
            u[S[blocker]] = 0.0
            active[S[blocker]] = False
        u = np.maximum(u, 0.0)
        u /= u.sum()
    return u, False, gap


def mvee(points, tol: float = 1e-7, max_iters: int = 100_000) -> Ellipsoid:
    """Minimum-volume ellipsoid enclosing `points`.

    Every input satisfies ||A p - b|| <= 1 exactly (the raw iterate is
    rescaled by the worst residual).  The dual weights on the convex-hull
    vertices are solved by an active-set Newton method that stops on the
    duality gap: every lifted leverage is at most (1 + tol)(d + 1), which
    puts the volume within a factor (1 + tol (d + 1) / d)^(d / 2), about
    1 + tol (d + 1) / 2, of optimal.  `max_iters` caps
    the Newton steps; a solve that hits it before the gap test passes is
    reported via MveeConvergenceWarning, with the gap reached.  Rank-deficient
    clouds are regularized with a ridge proportional to the trace scale and
    reported via DegenerateCloudWarning.
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
    u, degenerate, gap = _newton_weights(work, tol, max_iters)
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
    elif gap > tol:
        warnings.warn(
            f"MVEE solver stopped after {max_iters} Newton steps at duality gap "
            f"{gap:.3g} > tol = {tol:g}; the cover was rescaled to contain every input",
            MveeConvergenceWarning,
            stacklevel=2,
        )
    return Ellipsoid(A=A, b=b)
