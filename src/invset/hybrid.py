"""Hybrid systems: guarded flows, return maps, fixed points, contraction seeds.

A hybrid system alternates continuous flow on the domain {h >= 0} with a
discrete reset fired on the guard {h = 0, hdot < 0}.  The return map takes a
pre-impact guard point (in reduced chart coordinates), applies the reset,
flows until the next accepted downward guard crossing, and projects back to
the chart.  Every flow runs on the batched Dormand-Prince 5(4) engine of
`batchflow`.  This module holds what the engine shares with the rest of the
package (options, failure classes, the map type) and the analysis of a
map's fixed point.
"""

import warnings
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg import solve_discrete_lyapunov

from .ellipsoid import Ellipsoid

_TIGHTEN_FACTOR = 1e-2  # tolerance scale of IntegrationOptions.tightened
_FD_WARN_TOL = 1e-3  # forward/central Jacobian disagreement that warns


class PoincareEvaluationError(RuntimeError):
    """A return-map evaluation could not be completed."""


class GuardNotReached(PoincareEvaluationError):
    """No accepted guard crossing within the flow-time budget (divergence/fall)."""


class ImmediateReimpact(PoincareEvaluationError):
    """Accepted guard crossing earlier than t_min (grazing or degenerate contact)."""


class InvalidSectionPoint(PoincareEvaluationError):
    """Chart point does not correspond to a transversal guard state."""


class NoConvergence(RuntimeError):
    """Fixed-point search exhausted its iteration budget."""


class UnstableLinearization(ValueError):
    """Spectral radius of the return-map Jacobian is not below one."""


class FiniteDifferenceWarning(RuntimeWarning):
    """Forward and central difference estimates disagree beyond tolerance."""


@dataclass(frozen=True)
class IntegrationOptions:
    """Adaptive-step integration and event-localization settings.

    `method` names the Runge-Kutta pair; the only one is "rk45", the
    Dormand-Prince 5(4) pair of the batched engine.
    """

    rel_tol: float = 1e-9
    abs_tol: float = 1e-11
    guard_tol: float = 1e-10
    t_min: float = 1e-6
    max_flow_time: float = 10.0
    method: str = "rk45"

    def __post_init__(self):
        if self.method != "rk45":
            raise ValueError(f"unknown integration method {self.method!r} (only 'rk45')")
        if min(self.rel_tol, self.abs_tol, self.guard_tol, self.max_flow_time) <= 0:
            raise ValueError("tolerances and max_flow_time must be positive")

    def tightened(self) -> "IntegrationOptions":
        """Stricter copy used for fixed-point and Jacobian computations."""
        return replace(
            self,
            rel_tol=max(self.rel_tol * _TIGHTEN_FACTOR, 1e-13),
            abs_tol=max(self.abs_tol * _TIGHTEN_FACTOR, 1e-14),
        )


DEFAULT_INTEGRATION = IntegrationOptions()


def _finite_rows(fn, points):
    """Batch evaluation of `fn`; rows with a non-finite output fail."""
    out = np.asarray(fn(points), dtype=float)
    return out, np.all(np.isfinite(out), axis=1)


@dataclass(frozen=True, eq=False)
class PoincareMap:
    """Deterministic map on reduced guard coordinates.

    `evaluator` maps one point; `batch_evaluator` maps an (n, dim) array in
    one call and returns (outputs, ok) with NaN rows where evaluation failed.
    """

    reduced_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    batch_evaluator: Callable[[np.ndarray], tuple]

    def __call__(self, y) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(y, dtype=float)), dtype=float)

    @classmethod
    def from_function(cls, fn, reduced_dim: int) -> "PoincareMap":
        """Map of `fn`, which maps one point or an (n, reduced_dim) array."""
        return cls(reduced_dim=reduced_dim, evaluator=fn, batch_evaluator=partial(_finite_rows, fn))


def fd_jacobian(pmap, y_star, eps: float = None, *, f0=None, check: bool = True) -> np.ndarray:
    """Finite-difference Jacobian of the map at `y_star`.

    Column j is the forward difference along basis vector e_j.  With
    `check=True` a central-difference companion is formed and a
    FiniteDifferenceWarning is emitted if the two disagree by more than
    `_FD_WARN_TOL` in relative norm (simulation noise from event localization
    limits the attainable accuracy).
    """
    y = np.asarray(y_star, dtype=float)
    n = y.size
    if eps is None:
        eps = 1e-6 * max(1.0, float(np.linalg.norm(y)))
    if eps <= 0:
        raise ValueError("eps must be positive")
    base = np.asarray(pmap(y), dtype=float) if f0 is None else np.asarray(f0, dtype=float)
    forward = np.empty((base.size, n))
    central = np.empty_like(forward) if check else None
    for j in range(n):
        step = np.zeros(n)
        step[j] = eps
        f_plus = np.asarray(pmap(y + step), dtype=float)
        forward[:, j] = (f_plus - base) / eps
        if check:
            f_minus = np.asarray(pmap(y - step), dtype=float)
            central[:, j] = (f_plus - f_minus) / (2.0 * eps)
    if check:
        scale = max(float(np.linalg.norm(central)), 1.0)
        if float(np.linalg.norm(forward - central)) > _FD_WARN_TOL * scale:
            warnings.warn(
                "forward and central difference Jacobians disagree; "
                "consider tightening integration tolerances or adjusting eps",
                FiniteDifferenceWarning,
                stacklevel=2,
            )
    return forward


def find_fixed_point(pmap, y0, tol: float = 1e-10, max_iters: int = 200) -> np.ndarray:
    """Fixed point y* with ||P(y*) - y*|| < tol.

    A short damped relaxation first steers the iterate into the basin of the
    attracting fixed point (maps can have other, spurious zeros of
    P(y) - y that plain Newton would lock onto); Newton iteration on
    g(y) = P(y) - y with a forward-difference Jacobian then polishes, again
    falling back to damped steps whenever a Newton step fails or does not
    reduce the residual.
    """
    y = np.asarray(y0, dtype=float).copy()
    try:
        fy = np.asarray(pmap(y), dtype=float)
    except PoincareEvaluationError as exc:
        raise NoConvergence(f"map evaluation failed at the initial guess: {exc}") from exc
    identity = np.eye(y.size)
    residual = float(np.linalg.norm(fy - y))
    warmup_target = max(tol, 1e-2 * residual)
    for _ in range(10):
        if residual < warmup_target:
            break
        candidate = y + 0.5 * (fy - y)
        try:
            f_candidate = np.asarray(pmap(candidate), dtype=float)
        except PoincareEvaluationError:
            break
        r_candidate = float(np.linalg.norm(f_candidate - candidate))
        if r_candidate >= 0.9 * residual:
            break  # damping makes no progress; go straight to Newton
        y, fy, residual = candidate, f_candidate, r_candidate
    for _ in range(max_iters):
        if residual < tol:
            return y
        g = fy - y
        candidate = None
        try:
            jac = fd_jacobian(pmap, y, f0=fy, check=False)
            step = np.linalg.solve(jac - identity, -g)
            candidate = y + step
        except (PoincareEvaluationError, np.linalg.LinAlgError):
            candidate = None
        accepted = False
        if candidate is not None:
            try:
                f_candidate = np.asarray(pmap(candidate), dtype=float)
                r_candidate = float(np.linalg.norm(f_candidate - candidate))
                if r_candidate < residual:
                    y, fy, residual = candidate, f_candidate, r_candidate
                    accepted = True
            except PoincareEvaluationError:
                accepted = False
        if not accepted:
            y = y + 0.5 * g
            try:
                fy = np.asarray(pmap(y), dtype=float)
            except PoincareEvaluationError as exc:
                raise NoConvergence(f"damped iteration left the map's domain: {exc}") from exc
            residual = float(np.linalg.norm(fy - y))
    raise NoConvergence(
        f"no fixed point within {max_iters} iterations (residual {residual:.3e})"
    )


def spectral_radius(matrix) -> float:
    return float(np.abs(np.linalg.eigvals(np.asarray(matrix, dtype=float))).max())


def _sqrtm_spd(matrix: np.ndarray) -> np.ndarray:
    w, vecs = np.linalg.eigh(matrix)
    root = (vecs * np.sqrt(np.maximum(w, 0.0))) @ vecs.T
    return 0.5 * (root + root.T)


def _contraction_holds(jac, metric, rate, slack: float = 1e-8) -> bool:
    gap = (rate * rate + slack) * metric - jac.T @ metric @ jac
    gap = 0.5 * (gap + gap.T)
    floor = -1e-10 * float(np.linalg.norm(metric))
    return float(np.linalg.eigvalsh(gap).min()) >= floor


def contraction_init(jacobian, r: float, center=None) -> Ellipsoid:
    """Conservatively large initial ellipsoid from the local linearization.

    Builds a contraction metric P >= I with J^T P J <= (b^2 + slack) P where
    b is the spectral radius of J, then returns the ellipsoid
    {x : (x - center)^T P (x - center) <= r^2}, i.e. the metric's unit ball
    inflated by the user factor r around the fixed point.

    The metric comes from the discrete Lyapunov equation
    J^T P J - (b + margin)^2 P = -I with margin = 0.01 (1 - b); the margin is
    shrunk automatically (finally falling back to an eigenbasis metric) if
    the rate certificate fails for strongly non-normal J.
    """
    jac = np.asarray(jacobian, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
        raise ValueError("jacobian must be square")
    rate = spectral_radius(jac)
    if rate >= 1.0:
        raise UnstableLinearization(
            f"spectral radius {rate:.6f} >= 1: the linearization is not contracting"
        )
    if r <= 1.0:
        raise ValueError("scale factor r must exceed 1")
    n = jac.shape[0]
    identity = np.eye(n)

    metric = None
    margin = 0.01 * (1.0 - rate)
    for _ in range(6):
        inflated = rate + margin
        try:
            candidate = solve_discrete_lyapunov(jac.T / inflated, identity / inflated**2)
        except np.linalg.LinAlgError:
            margin *= 0.5
            continue
        candidate = 0.5 * (candidate + candidate.T)
        eig_min = float(np.linalg.eigvalsh(candidate).min())
        if eig_min <= 0.0:
            margin *= 0.5
            continue
        candidate = candidate / eig_min  # smallest eigenvalue 1, so P >= I
        if _contraction_holds(jac, candidate, rate):
            metric = candidate
            break
        margin *= 0.1
    if metric is None:
        # Eigenbasis metric (V^-H V^-1): exact rate-b certificate whenever J
        # is diagonalizable.
        _, vecs = np.linalg.eig(jac)
        vinv = np.linalg.inv(vecs)
        candidate = np.real(vinv.conj().T @ vinv)
        candidate = 0.5 * (candidate + candidate.T)
        candidate = candidate / float(np.linalg.eigvalsh(candidate).min())
        if not _contraction_holds(jac, candidate, rate):
            raise UnstableLinearization(
                "could not certify a contraction metric for the given Jacobian"
            )
        metric = candidate

    shaping = _sqrtm_spd(metric) / float(r)
    c = np.zeros(n) if center is None else np.asarray(center, dtype=float)
    return Ellipsoid(A=shaping, b=shaping @ c)
