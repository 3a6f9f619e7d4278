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

import math
import warnings
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .ellipsoid import Ellipsoid

_TIGHTEN_FACTOR = 1e-2  # tolerance scale of IntegrationOptions.tightened
_FD_WARN_TOL = 1e-3  # forward/central Jacobian disagreement that warns
# cond(V) of J = V diag(w) V^-1 beyond which Re(V^-H V^-1) keeps no digit
_MAX_EIGENBASIS_COND = 1.0 / math.sqrt(np.finfo(float).eps)


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
    """The return-map Jacobian has no contraction metric: its spectral radius
    is not below one, or it is not diagonalizable to working precision."""


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
        # the chained comparisons are False for NaN, which would stall the
        # step-size control at its minimum step
        positive = (self.rel_tol, self.abs_tol, self.guard_tol, self.max_flow_time)
        if not all(0.0 < x < math.inf for x in positive):
            raise ValueError(
                "rel_tol, abs_tol, guard_tol and max_flow_time must be finite and positive"
            )
        if not 0.0 <= self.t_min < self.max_flow_time:
            # a crossing is accepted only in [t_min, max_flow_time]
            raise ValueError("t_min must be >= 0 and below max_flow_time")

    def tightened(self) -> "IntegrationOptions":
        """Stricter copy used for fixed-point and Jacobian computations."""
        return replace(
            self,
            rel_tol=max(self.rel_tol * _TIGHTEN_FACTOR, 1e-13),
            abs_tol=max(self.abs_tol * _TIGHTEN_FACTOR, 1e-14),
        )


DEFAULT_INTEGRATION = IntegrationOptions()


def checked_rows(out, ok=True):
    """The failure rule of every map: a row fails when its evaluation failed
    (`ok` False) or an output is non-finite, and then reads all-NaN.  Returns
    (outputs, ok), the outputs a copy (an identity map returns its input)."""
    out = np.array(out, dtype=float)
    ok = ok & np.isfinite(out).all(axis=1)
    out[~ok] = np.nan
    return out, ok


@dataclass(frozen=True, eq=False)
class PoincareMap:
    """Deterministic map on reduced guard coordinates.

    `batch_evaluator` maps an (n, dim) stack to (outputs, ok) under the rule
    of `checked_rows`; `evaluator` maps it to outputs or raises the
    PoincareEvaluationError of its first failed row.
    """

    reduced_dim: int
    evaluator: Callable[[np.ndarray], np.ndarray]
    batch_evaluator: Callable[[np.ndarray], tuple]

    def __call__(self, y) -> np.ndarray:
        """Image of one point (dim,) or of each row of a stack (n, dim)."""
        y = np.asarray(y, dtype=float)
        out = self.evaluator(np.atleast_2d(y))
        return out if y.ndim > 1 else out[0]

    @classmethod
    def from_function(cls, fn, reduced_dim: int) -> "PoincareMap":
        """Map of `fn`, which maps an (n, reduced_dim) stack row by row."""
        def evaluator(points):
            out, ok = checked_rows(fn(points))
            if not ok.all():
                raise PoincareEvaluationError(f"non-finite map output in row {int(np.argmin(ok))}")
            return out

        return cls(reduced_dim, evaluator, lambda points: checked_rows(fn(points)))


def fd_jacobian(pmap, y_star, eps: float = None, *, f0=None, check: bool = True) -> np.ndarray:
    """Finite-difference Jacobian at `y_star` from one `pmap` call on a stack of points.

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
    elif not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be finite and positive, got {eps!r}")
    steps = eps * np.eye(n)
    stack = [y + steps] + ([y - steps] if check else []) + ([y[None]] if f0 is None else [])
    images = np.asarray(pmap(np.concatenate(stack)), dtype=float)
    base = images[-1] if f0 is None else np.asarray(f0, dtype=float)
    forward = ((images[:n] - base) / eps).T
    if check:
        central = ((images[:n] - images[n : 2 * n]) / (2.0 * eps)).T
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
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")

    def trial(point):
        """(point, P(point), ||P(point) - point||); raises where the map fails."""
        image = np.asarray(pmap(point), dtype=float)
        return point, image, float(np.linalg.norm(image - point))

    try:
        y, fy, residual = trial(np.asarray(y0, dtype=float).copy())
    except PoincareEvaluationError as exc:
        raise NoConvergence(f"map evaluation failed at the initial guess: {exc}") from exc
    warmup_target = max(tol, 1e-2 * residual)
    for _ in range(10):
        if residual < warmup_target:
            break
        try:
            candidate = trial(y + 0.5 * (fy - y))
        except PoincareEvaluationError:
            break
        if candidate[2] >= 0.9 * residual:
            break  # damping makes no progress; go straight to Newton
        y, fy, residual = candidate
    identity = np.eye(y.size)
    for _ in range(max_iters):
        if residual < tol:
            return y
        g = fy - y
        try:
            jac = fd_jacobian(pmap, y, f0=fy, check=False)
            candidate = trial(y + np.linalg.solve(jac - identity, -g))
        except (PoincareEvaluationError, np.linalg.LinAlgError):
            candidate = None
        if candidate is not None and candidate[2] < residual:
            y, fy, residual = candidate
            continue
        try:  # the damped step
            y, fy, residual = trial(y + 0.5 * g)
        except PoincareEvaluationError as exc:
            raise NoConvergence(f"damped iteration left the map's domain: {exc}") from exc
    raise NoConvergence(
        f"no fixed point within {max_iters} iterations (residual {residual:.3e})"
    )


def _sqrtm_spd(matrix: np.ndarray) -> np.ndarray:
    w, vecs = np.linalg.eigh(matrix)
    root = (vecs * np.sqrt(np.maximum(w, 0.0))) @ vecs.T
    return 0.5 * (root + root.T)


def _contraction_holds(jac, metric, rate, slack: float = 1e-8) -> bool:
    gap = (rate * rate + slack) * metric - jac.T @ metric @ jac
    gap = 0.5 * (gap + gap.T)
    floor = -1e-10 * float(np.linalg.norm(metric))
    return float(np.linalg.eigvalsh(gap).min()) >= floor


def check_contraction_scale(r):
    """Raise ValueError unless the scale factor `r` is finite and exceeds 1."""
    if not 1.0 < r < math.inf:
        raise ValueError(f"scale factor r must be finite and exceed 1, got {r!r}")


def contraction_init(jacobian, r: float, center=None) -> Ellipsoid:
    """Conservatively large initial ellipsoid from the local linearization.

    The metric is the eigenbasis metric P = Re(V^-H V^-1) of
    J = V diag(w) V^-1, scaled to smallest eigenvalue 1: a diagonalizable J
    contracts at its spectral radius b in the norm |V^-1 x|, so P >= I and
    J^T P J <= (b^2 + slack) P.  Returns the ellipsoid
    {x : (x - center)^T P (x - center) <= r^2}, i.e. the metric's unit ball
    inflated by the user factor r around the fixed point.

    Raises UnstableLinearization when b >= 1, or when cond(V) exceeds
    1/sqrt(eps): J is then not diagonalizable to working precision.
    """
    jac = np.asarray(jacobian, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != jac.shape[1]:
        raise ValueError("jacobian must be square")
    eigenvalues, vecs = np.linalg.eig(jac)
    rate = float(np.abs(eigenvalues).max())
    if rate >= 1.0:
        raise UnstableLinearization(
            f"spectral radius {rate:.6f} >= 1: the linearization is not contracting"
        )
    check_contraction_scale(r)

    cond = float(np.linalg.cond(vecs))
    if not cond <= _MAX_EIGENBASIS_COND:
        raise UnstableLinearization(
            f"Jacobian is not diagonalizable to working precision (cond(V) = {cond:.3e})"
        )
    vinv = np.linalg.inv(vecs)
    metric = np.real(vinv.conj().T @ vinv)
    metric = 0.5 * (metric + metric.T)
    metric = metric / float(np.linalg.eigvalsh(metric).min())
    if not _contraction_holds(jac, metric, rate):
        raise UnstableLinearization(
            "could not certify a contraction metric for the given Jacobian"
        )

    shaping = _sqrtm_spd(metric) / float(r)
    c = np.zeros(len(jac)) if center is None else np.asarray(center, dtype=float)
    return Ellipsoid(A=shaping, b=shaping @ c)
