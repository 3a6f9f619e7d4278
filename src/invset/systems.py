"""Benchmark systems: two analytic planar maps and a compass-gait walker.

The expander-contractor maps are closed-form planar return maps with known
invariant sets (an ellipse, and a pair of tangent discs).  The compass-gait
walker is a 4-state hybrid system whose return map is evaluated by simulating
the swing phase between heel strikes.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .batchflow import BatchHybridCallbacks, vectorized_poincare_map
from .hybrid import DEFAULT_INTEGRATION, IntegrationOptions, PoincareMap


# ---------------------------------------------------------------------------
# Convex expander-contractor (CEC)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CecParams:
    """Fixed point c and metric M of the convex expander-contractor."""

    c: np.ndarray = (1.0, 1.0)
    M: np.ndarray = ((2.0, 1.0), (1.0, 1.0))

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).reshape(2)
        M = np.asarray(self.M, dtype=float).reshape(2, 2)
        if not (np.isfinite(c).all() and np.isfinite(M).all()):
            raise ValueError("c and M must be finite")
        if np.abs(M - M.T).max() > 1e-12 * max(1.0, np.abs(M).max()):
            raise ValueError("metric must be symmetric")
        if np.linalg.eigvalsh(M).min() < 0:
            raise ValueError("metric must be positive semidefinite")
        c.setflags(write=False)
        M.setflags(write=False)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "M", M)


def cec_map(x, p: CecParams) -> np.ndarray:
    """Scale the offset from c by its M-weighted norm.

    Points with (x-c)^T M (x-c) < 1 contract toward c, points outside
    expand, and the unit-M-ball boundary is pointwise fixed.  Accepts a
    single point (2,) or a batch (n, 2).  The quadratic form is summed term
    by term in row-major order, so each row's bits do not depend on the
    batch (an `einsum` takes another path for one or two rows); an
    overflowing row is left non-finite, and so fails.
    """
    d = np.asarray(x, dtype=float) - p.c
    with np.errstate(over="ignore", invalid="ignore"):
        rho = sum(d[..., j] * p.M[j, k] * d[..., k] for j in range(2) for k in range(2))
        return d * np.sqrt(rho)[..., None] + p.c


def cec_true_invariant_set(p: CecParams):
    """Shape/offset form of the exactly invariant ellipse {(x-c)' M (x-c) <= 1}."""
    from .ellipsoid import Ellipsoid

    w, vecs = np.linalg.eigh(p.M)
    root = (vecs * np.sqrt(w)) @ vecs.T
    return Ellipsoid(A=root, b=root @ p.c)


def cec_poincare_map(p: CecParams = None) -> PoincareMap:
    return PoincareMap.from_function(partial(cec_map, p=CecParams() if p is None else p), 2)


# ---------------------------------------------------------------------------
# Nonconvex expander-contractor (NEC)
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class NecParams:
    """Disc centers, radius, and expansion factor of the nonconvex map."""

    c1: np.ndarray = (-0.6, 0.0)
    c2: np.ndarray = (0.6, 0.0)
    r: float = 0.6
    kappa: float = 1.3

    def __post_init__(self):
        c1 = np.asarray(self.c1, dtype=float).reshape(2)
        c2 = np.asarray(self.c2, dtype=float).reshape(2)
        # the chained comparisons also reject NaN
        if not 0 < self.r < math.inf:
            raise ValueError("disc radius must be finite and positive")
        if not 1 < self.kappa < math.inf:
            raise ValueError("expansion factor must be finite and exceed 1")
        if not (np.isfinite(c1).all() and np.isfinite(c2).all()):
            raise ValueError("disc centers must be finite")
        if np.linalg.norm(c1 - c2) == 0:
            raise ValueError("disc centers must differ")
        c1.setflags(write=False)
        c2.setflags(write=False)
        object.__setattr__(self, "c1", c1)
        object.__setattr__(self, "c2", c2)
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "kappa", float(self.kappa))


def nec_map(x, p: NecParams) -> np.ndarray:
    """Piecewise map: average toward the first disc center whose open disc
    contains x (checked in order c1, c2), otherwise expand by kappa.

    The true invariant set is the union of the two closed discs.  Accepts a
    single point (2,) or a batch (n, 2).
    """
    x = np.asarray(x, dtype=float)
    in1 = (np.linalg.norm(x - p.c1, axis=-1) < p.r)[..., None]
    in2 = (np.linalg.norm(x - p.c2, axis=-1) < p.r)[..., None]
    return np.where(in1, 0.5 * (x + p.c1), np.where(in2, 0.5 * (x + p.c2), p.kappa * x))


def nec_poincare_map(p: NecParams = None) -> PoincareMap:
    return PoincareMap.from_function(partial(nec_map, p=NecParams() if p is None else p), 2)


def nec_true_volume(p: NecParams) -> float:
    return 2.0 * math.pi * p.r * p.r


# ---------------------------------------------------------------------------
# Compass-gait walker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompassGaitParams:
    """Point-mass compass walker on a downhill slope.

    Legs of length l = a + b carry mass m at distance a from the foot
    (b from the hip); the hip carries mass m_h.  Angles are measured from the
    vertical, state is [theta_sw, theta_st, omega_sw, omega_st], and the
    ground descends with angle `slope` in the walking direction.
    """

    m: float = 5.0
    m_h: float = 10.0
    a: float = 0.5
    b: float = 0.5
    g: float = 9.81
    slope: float = math.radians(3.0)
    min_leg_separation: float = 0.05

    def __post_init__(self):
        # a NaN field would make every integration step fail until the attempt cap
        if not all(0 < x < math.inf for x in (self.m, self.m_h, self.a, self.b, self.g)):
            raise ValueError("masses, lengths, and gravity must be finite and positive")
        if not 0.0 < self.slope < math.pi / 2:
            raise ValueError("slope must lie in (0, pi/2)")
        if not math.isfinite(self.min_leg_separation):
            raise ValueError("min_leg_separation must be finite")

    @property
    def l(self) -> float:
        return self.a + self.b


# Each walker function takes one state (4,) or a batch (n, 4), indexing the
# state along the last axis.


def _cg_mass(x, p: CompassGaitParams):
    """Entries (h11, h12, h22) of the symmetric mass matrix H at the angles
    (theta_sw, theta_st) = (x[..., 0], x[..., 1]); h11 and h22 are constant."""
    h12 = -(p.m * p.l * p.b) * np.cos(x[..., 1] - x[..., 0])
    return p.m * p.b * p.b, h12, (p.m_h + p.m) * p.l * p.l + p.m * p.a * p.a


def _cg_vector_field(x, p: CompassGaitParams):
    th_sw, th_st, w_sw, w_st = (x[..., i] for i in range(4))
    h11, h12, h22 = _cg_mass(x, p)
    sin_d = np.sin(th_st - th_sw)
    mlb = p.m * p.l * p.b
    # H qdd = -(C qd + G); 2x2 solve in closed form
    r1 = -mlb * sin_d * w_st * w_st - p.m * p.g * p.b * np.sin(th_sw)
    r2 = mlb * sin_d * w_sw * w_sw + (p.m_h * p.l + p.m * (p.a + p.l)) * p.g * np.sin(th_st)
    det = h11 * h22 - h12 * h12
    out = np.empty_like(x)
    out[..., 0] = w_sw
    out[..., 1] = w_st
    out[..., 2] = (h22 * r1 - h12 * r2) / det
    out[..., 3] = (h11 * r2 - h12 * r1) / det
    return out


def _cg_guard(x, p: CompassGaitParams):
    """Swing-foot height above the slope plane (zero on the strike manifold
    theta_sw + theta_st = -2*slope and at leg crossing theta_sw = theta_st)."""
    return p.l * (np.cos(x[..., 1] + p.slope) - np.cos(x[..., 0] + p.slope))


def _cg_guard_velocity(x, p: CompassGaitParams):
    return p.l * (
        np.sin(x[..., 0] + p.slope) * x[..., 2] - np.sin(x[..., 1] + p.slope) * x[..., 3]
    )


def _cg_event_filter(x, p: CompassGaitParams):
    # Accept heel strikes only with the swing leg ahead and legs separated;
    # rejects the mid-stance scuffing crossings near theta_sw = theta_st.
    return (x[..., 0] - x[..., 1]) > p.min_leg_separation


def _cg_escape(x, p: CompassGaitParams):
    return (
        (np.abs(x[..., 0]) > 1.5)
        | (np.abs(x[..., 1]) > 1.5)
        | (np.abs(x[..., 2]) > 25.0)
        | (np.abs(x[..., 3]) > 25.0)
    )


def _cg_reset(x, p: CompassGaitParams):
    """Heel-strike reset: swap leg roles and map angular velocities through
    conservation of angular momentum (whole body about the new contact point,
    trailing leg about the hip)."""
    th_sw, th_st, w_sw, w_st = (x[..., i] for i in range(4))
    c2a = np.cos(th_sw - th_st)
    m, mh, a, b, l = p.m, p.m_h, p.a, p.b, p.l
    qm11 = -m * a * b
    qm12 = -m * a * b + (mh * l * l + 2.0 * m * a * l) * c2a
    qm22 = -m * a * b
    r1 = qm11 * w_sw + qm12 * w_st
    r2 = qm22 * w_st
    qp11 = m * b * (b - l * c2a)
    qp12 = m * l * (l - b * c2a) + m * a * a + mh * l * l
    qp21 = m * b * b
    qp22 = -m * b * l * c2a
    det = qp11 * qp22 - qp12 * qp21
    out = np.empty_like(x)
    out[..., 0] = th_st
    out[..., 1] = th_sw
    out[..., 2] = (qp22 * r1 - qp12 * r2) / det
    out[..., 3] = (qp11 * r2 - qp21 * r1) / det
    return out


def _cg_chart(x, p: CompassGaitParams):
    return x[..., [0, 2, 3]]


def _cg_chart_inverse(y, p: CompassGaitParams):
    out = np.empty(y.shape[:-1] + (4,))
    out[..., 0] = y[..., 0]
    out[..., 1] = -2.0 * p.slope - y[..., 0]
    out[..., 2] = y[..., 1]
    out[..., 3] = y[..., 2]
    return out


def compass_mass_matrix(q, p: CompassGaitParams) -> np.ndarray:
    """H at the angles q (..., 2), or at the angles of states (..., 4): (..., 2, 2)."""
    h11, h12, h22 = np.broadcast_arrays(*_cg_mass(np.asarray(q, dtype=float), p))
    return np.stack([np.stack([h11, h12], -1), np.stack([h12, h22], -1)], -2)


def compass_kinetic_energy(x, p: CompassGaitParams):
    x = np.asarray(x, dtype=float)
    h11, h12, h22 = _cg_mass(x, p)
    w_sw, w_st = x[..., 2], x[..., 3]
    return 0.5 * ((h11 * w_sw + h12 * w_st) * w_sw + (h12 * w_sw + h22 * w_st) * w_st)


def compass_potential_energy(x, p: CompassGaitParams):
    x = np.asarray(x, dtype=float)
    return p.g * (
        (p.m * p.a + p.m_h * p.l + p.m * p.l) * np.cos(x[..., 1]) - p.m * p.b * np.cos(x[..., 0])
    )


def compass_total_energy(x, p: CompassGaitParams):
    return compass_kinetic_energy(x, p) + compass_potential_energy(x, p)


def compass_gait_batch_callbacks(p: CompassGaitParams = None) -> BatchHybridCallbacks:
    """The walker with a 3-dimensional guard chart (theta_sw, omega_sw,
    omega_st); the stance angle on the strike manifold is recovered as
    -2*slope - theta_sw."""
    p = CompassGaitParams() if p is None else p
    return BatchHybridCallbacks(
        state_dim=4,
        reduced_dim=3,
        vector_field=partial(_cg_vector_field, p=p),
        guard=partial(_cg_guard, p=p),
        guard_velocity=partial(_cg_guard_velocity, p=p),
        reset=partial(_cg_reset, p=p),
        chart=partial(_cg_chart, p=p),
        chart_inverse=partial(_cg_chart_inverse, p=p),
        event_filter=partial(_cg_event_filter, p=p),
        escape_condition=partial(_cg_escape, p=p),
    )


def compass_gait_poincare_map(
    p: CompassGaitParams = None, options: IntegrationOptions = DEFAULT_INTEGRATION
) -> PoincareMap:
    """Walker return map on the batched RK5(4) path (single calls and batches
    evaluate identically; see batchflow)."""
    return vectorized_poincare_map(compass_gait_batch_callbacks(p), options)


# Pre-impact section state of the settled gait for the default parameters,
# found by walking the system to convergence and polishing the fixed point;
# used to seed fixed-point searches.
COMPASS_GAIT_SECTION_SEED = np.array([0.2186688, -1.8056789, -1.4942049])


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class SystemBundle:
    """A benchmark system wired up for the identification pipeline."""

    poincare_map: PoincareMap
    params: object
    fixed_point_seed: np.ndarray = None

    @property
    def reduced_dim(self) -> int:
        return self.poincare_map.reduced_dim


# name -> (params class, map factory of (params, integration), fixed-point seed of params)
_REGISTRY = {
    "cec": (CecParams, lambda p, _: cec_poincare_map(p), lambda p: np.array(p.c, dtype=float)),
    "nec": (NecParams, lambda p, _: nec_poincare_map(p), lambda p: np.array(p.c1, dtype=float)),
    "compass_gait": (
        CompassGaitParams,
        compass_gait_poincare_map,
        lambda p: COMPASS_GAIT_SECTION_SEED.copy(),
    ),
}

SYSTEM_NAMES = tuple(_REGISTRY)


def build_system(
    name: str,
    overrides: dict = None,
    integration: IntegrationOptions = DEFAULT_INTEGRATION,
) -> SystemBundle:
    """Construct a benchmark by name ("cec", "nec", "compass_gait"); the
    `overrides` are keyword arguments of its params class."""
    if name not in _REGISTRY:
        raise ValueError(f"unknown system {name!r}; known: {', '.join(SYSTEM_NAMES)}")
    params_cls, make_map, seed_of = _REGISTRY[name]
    try:
        params = params_cls(**(overrides or {}))
    except TypeError as exc:  # an unknown key or a value of the wrong type
        raise ValueError(f"{name} parameters: {exc}") from exc
    return SystemBundle(
        poincare_map=make_map(params, integration),
        params=params,
        fixed_point_seed=seed_of(params),
    )
