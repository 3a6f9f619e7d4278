"""Nonconvex candidate sets built from sums of isotropic Gaussian bumps.

The set is {x : sum_i exp(-0.5 ||x - mu_i||^2 / sigma_i^2) >= gamma}.  With a
single bump and gamma = exp(-1/2) this is exactly the closed sigma-ball, which
is the calibration used throughout the tests.  Fitting minimizes the total
squared width subject to every training point being a member, via a quadratic
penalty on the constraint hinge.
"""

import math
from dataclasses import dataclass

import numpy as np

from .rng import sample_stream

#: Threshold at which a single bump's membership region is its sigma-ball.
GAMMA_BALL = math.exp(-0.5)

_WIDTH_FLOOR = 1e-6
_REJECTION_CHUNK = 4096
_MIN_ACCEPT_RATE = 1e-4
_PENALTY_ROUNDS = 5
_PENALTY_START = 10.0
_MAX_INNER = 150


class RbfSamplingError(RuntimeError):
    """Rejection sampling acceptance rate collapsed: the set fills too little of its box."""


@dataclass(frozen=True, eq=False)
class RBFSet:
    """Sublevel-complement set of a summed-Gaussian field; immutable."""

    centers: np.ndarray  # (m, dim)
    widths: np.ndarray  # (m,)
    gamma: float

    def __post_init__(self):
        centers = np.atleast_2d(np.asarray(self.centers, dtype=float))
        widths = np.asarray(self.widths, dtype=float).reshape(-1)
        if centers.shape[0] != widths.size:
            raise ValueError("one width per center required")
        if not (np.all(np.isfinite(centers)) and np.all(np.isfinite(widths))):
            raise ValueError("non-finite entries in RBF parameters")
        if np.any(widths <= 0):
            raise ValueError("widths must be positive")
        if not 0.0 < self.gamma < centers.shape[0]:
            raise ValueError("threshold must lie in (0, m)")
        centers.setflags(write=False)
        widths.setflags(write=False)
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "widths", widths)
        object.__setattr__(self, "gamma", float(self.gamma))

    @property
    def m(self) -> int:
        return self.centers.shape[0]

    @property
    def dim(self) -> int:
        return self.centers.shape[1]

    def values(self, points) -> np.ndarray:
        """Summed Gaussian field at each row of `points`.

        Each squared distance is summed over the axes in axis order, and the
        field over the bumps in bump order, one term at a time: fitted sets
        and samples depend on this order to the last bit.
        """
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        _, d2 = _offsets(np.ascontiguousarray(pts.T), self.centers)
        return np.exp(-0.5 * d2 / self.widths[:, None] ** 2).sum(axis=0)

    def contains_batch(self, points) -> np.ndarray:
        """Vectorized membership; NaN rows are outside, and so are rows so far
        off that their squared distance overflows (the field there is 0)."""
        with np.errstate(over="ignore", invalid="ignore"):
            return self.values(points) >= self.gamma

    def bounding_box(self, coverage: float = 4.0):
        """Axis-aligned box around all bumps, centers +/- pad * width.

        A member's field reaches gamma, so some bump there is at least
        gamma / m: every member lies within sqrt(2 ln(m / gamma)) widths of
        a center.  The pad is the larger of that reach and `coverage`, so the
        box holds the whole set.
        """
        reach = math.sqrt(2.0 * math.log(self.m / self.gamma))
        pad = max(coverage, reach) * self.widths[:, None]
        return (self.centers - pad).min(axis=0), (self.centers + pad).max(axis=0)

    def to_dict(self) -> dict:
        return {
            "m": self.m,
            "centers": [[float(v) for v in row] for row in self.centers],
            "widths": [float(v) for v in self.widths],
            "gamma": float(self.gamma),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RBFSet":
        rbf = cls(
            centers=np.asarray(data["centers"], dtype=float),
            widths=np.asarray(data["widths"], dtype=float),
            gamma=float(data["gamma"]),
        )
        if type(data["m"]) is not int or data["m"] != rbf.m:
            raise ValueError(f"m must be the number of centers, {rbf.m}, got {data['m']!r}")
        return rbf


def _farthest_point_seeding(points: np.ndarray, m: int, gamma: float):
    """Deterministic geometric initialization.

    Farthest-point selection of m cluster seeds, refined by a few Lloyd
    rounds so the centers settle into the mass of their clusters; widths are
    sized so each cluster's farthest member sits on the bump's own threshold
    boundary.
    """
    centroid = points.mean(axis=0)
    first = int(np.argmin(np.linalg.norm(points - centroid, axis=1)))
    chosen = [first]
    dist = np.linalg.norm(points - points[first], axis=1)
    while len(chosen) < m:
        nxt = int(np.argmax(dist))
        chosen.append(nxt)
        dist = np.minimum(dist, np.linalg.norm(points - points[nxt], axis=1))
    centers = points[chosen].copy()
    for _ in range(10):
        assign = np.argmin(
            np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2), axis=1
        )
        for i in range(m):
            cluster = points[assign == i]
            if cluster.shape[0]:
                centers[i] = cluster.mean(axis=0)
    assign = np.argmin(
        np.linalg.norm(points[:, None, :] - centers[None, :, :], axis=2), axis=1
    )
    denom = math.sqrt(2.0 * max(math.log(1.0 / gamma), 0.05)) if gamma < 1.0 else 1.0
    widths = np.empty(m)
    for i in range(m):
        cluster = points[assign == i]
        radius = np.linalg.norm(cluster - centers[i], axis=1).max() if cluster.size else 0.0
        widths[i] = max(radius / denom, 100.0 * _WIDTH_FLOOR)
    return centers, widths


def _offsets(points_t, centers):
    """Offsets (m, dim, n) of the points, given as columns of the (dim, n)
    `points_t`, from each center, and their squared lengths (m, n) summed one
    axis at a time in axis order."""
    diff = points_t[None, :, :] - centers[:, :, None]
    d2 = diff[:, 0] ** 2
    for k in range(1, diff.shape[1]):
        d2 += diff[:, k] ** 2
    return diff, d2


def _penalty_value_grad(centers, widths, points_t, gamma, weight):
    """Penalized objective and its gradients in the centers and the widths.

    `points_t` holds the training points as the columns of a (dim, n) array.
    Squared distances are summed over the axes in axis order, and the center
    gradient over the points in point order, one term at a time; the fitted
    set depends on this order to the last bit.  The center gradient therefore
    takes the last entry of a cumulative sum: numpy's `sum` along a contiguous
    axis adds pairwise.
    """
    diff, d2 = _offsets(points_t, centers)
    bumps = np.exp(-0.5 * d2 / widths[:, None] ** 2)
    field = bumps.sum(axis=0)  # (n,)
    hinge = np.maximum(0.0, gamma - field)
    value = float((widths**2).sum() + weight * (hinge**2).sum())
    coeff_bumps = -2.0 * weight * hinge * bumps  # d(value)/d(field_j) times bump
    pulls = np.cumsum(coeff_bumps[:, None, :] * diff, axis=2)[:, :, -1]
    grad_centers = pulls / widths[:, None] ** 2
    grad_widths = 2.0 * widths + (coeff_bumps * d2).sum(axis=1) / widths**3
    return value, grad_centers, grad_widths


def _inflate_to_feasibility(centers, widths, points, gamma, slack=1e-7):
    """Smallest per-bump width inflation making every point a member.

    Each uncovered point is handed to the bump that already contributes the
    most there, and that bump's width is raised until it covers the point on
    its own.  The field is monotone increasing in every width, so earlier
    repairs are never undone; when gamma >= 1 no single bump can reach the
    threshold alone and a global scale is bisected instead.
    """
    current = RBFSet(centers=centers, widths=widths, gamma=gamma)
    if float((current.values(points) - gamma).min()) >= -slack:
        return widths
    if gamma < 1.0:
        widths = widths.copy()
        reach = math.sqrt(2.0 * math.log(1.0 / gamma))
        for _ in range(points.shape[0]):
            trial = RBFSet(centers=centers, widths=widths, gamma=gamma)
            deficits = trial.values(points) - gamma
            worst = int(np.argmin(deficits))
            if deficits[worst] >= -slack:
                return widths
            diff = points[worst] - centers
            d2 = (diff**2).sum(axis=1)
            bump = int(np.argmax(np.exp(-0.5 * d2 / widths**2)))
            needed = math.sqrt(d2[bump]) / reach
            widths[bump] = max(widths[bump], needed * (1.0 + 1e-9), _WIDTH_FLOOR)
        return widths

    def deficit(scale):
        trial = RBFSet(centers=centers, widths=widths * scale, gamma=gamma)
        return float((trial.values(points) - gamma).min())

    hi = 2.0
    while deficit(hi) < 0.0:
        hi *= 2.0
        if hi > 1e9:
            raise RuntimeError("width inflation failed to reach feasibility")
    lo = 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if deficit(mid) >= 0.0:
            hi = mid
        else:
            lo = mid
    return widths * hi


def fit_rbf(
    points,
    m: int,
    gamma: float = GAMMA_BALL,
    init: RBFSet = None,
) -> RBFSet:
    """Fit an m-bump set containing every row of `points`.

    Minimizes the total squared width under the membership constraints with a
    quadratic penalty: each round runs L-BFGS-B (widths bounded below by the
    width floor) from the previous round's optimum, then raises the penalty
    weight tenfold.  A final width inflation guarantees the containment
    postcondition, so all training points are members of the returned set
    (residual >= -1e-6).
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.size == 0:
        raise ValueError("fit_rbf requires at least one point")
    if m < 1:
        raise ValueError("need at least one basis function")
    usable_init = (
        init is not None
        and init.m == m
        and init.dim == pts.shape[1]
        # a collapsed bump contributes nothing and never recovers by descent
        and bool(np.all(init.widths > 10.0 * _WIDTH_FLOOR))
    )
    if usable_init:
        centers = init.centers.copy()
        widths = init.widths.copy()
    else:
        centers, widths = _farthest_point_seeding(pts, m, gamma)

    # imported here: scipy.optimize adds about 0.14 s to `import invset`
    from scipy.optimize import minimize

    split = centers.size
    pts_t = np.ascontiguousarray(pts.T)

    def penalty(x, weight):
        value, g_c, g_w = _penalty_value_grad(
            x[:split].reshape(m, -1), x[split:], pts_t, gamma, weight
        )
        return value, np.concatenate([g_c.ravel(), g_w])

    x = np.concatenate([centers.ravel(), widths])
    bounds = [(None, None)] * split + [(_WIDTH_FLOOR, None)] * m
    for r in range(_PENALTY_ROUNDS):
        x = minimize(
            penalty, x, args=(_PENALTY_START * 10.0**r,), jac=True, method="L-BFGS-B",
            bounds=bounds, options={"maxiter": _MAX_INNER},
        ).x
    centers, widths = x[:split].reshape(m, -1), x[split:]

    widths = _inflate_to_feasibility(centers, widths, pts, gamma)
    return RBFSet(centers=centers, widths=widths, gamma=gamma)


def sample_uniform_rbf_with_volume(
    rbf_set: RBFSet,
    n: int,
    seed: int = 0,
    context: int = 0,
):
    """Uniform sample of the set by rejection from its `bounding_box()`, plus
    the Monte-Carlo volume estimate the acceptance rate implies.

    Trials are drawn in fixed-size chunks from counter-based streams keyed by
    (seed, context, chunk); acceptance order is the trial order, so the result
    is reproducible and independent of scheduling.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    lo, hi = rbf_set.bounding_box()
    box_volume = float(np.prod(hi - lo))
    dim = rbf_set.dim

    accepted = []
    n_accepted = 0
    trials = 0
    chunk_index = 0
    while n_accepted < n:
        stream = sample_stream(seed, context, chunk_index)
        chunk = lo + stream.random((_REJECTION_CHUNK, dim)) * (hi - lo)
        mask = rbf_set.contains_batch(chunk)
        accepted.append(chunk[mask])
        n_accepted += int(mask.sum())
        trials += _REJECTION_CHUNK
        chunk_index += 1
        if trials >= 10 * _REJECTION_CHUNK and n_accepted < _MIN_ACCEPT_RATE * trials:
            raise RbfSamplingError(
                f"acceptance rate {n_accepted / trials:.2e} below {_MIN_ACCEPT_RATE}; "
                "the set fills too little of its bounding box"
            )
    volume = box_volume * (n_accepted / trials)
    return np.concatenate(accepted, axis=0)[:n], volume
