"""Finite-step invariant sets for return maps, with holdout PAC certificates."""

from .algorithm import (
    CollapseError,
    KStepRecord,
    RbfOptions,
    RunHistory,
    RunResult,
    SampleBatch,
    partition,
    run,
    verify_k_step,
)
from .batchflow import BatchHybridCallbacks, integrate_to_guard, vectorized_poincare_map
from .ellipsoid import (
    DegenerateCloudWarning,
    Ellipsoid,
    MveeConvergenceWarning,
    mvee,
    unit_ball_volume,
)
from .hybrid import (
    DEFAULT_INTEGRATION,
    FiniteDifferenceWarning,
    GuardNotReached,
    ImmediateReimpact,
    IntegrationOptions,
    InvalidSectionPoint,
    NoConvergence,
    PoincareEvaluationError,
    PoincareMap,
    UnstableLinearization,
    contraction_init,
    fd_jacobian,
    find_fixed_point,
    spectral_radius,
)
from .pac import PacCertificate, binomial_cdf, binomial_tail_inversion
from .rbf import GAMMA_BALL, RbfSamplingError, RBFSet, fit_rbf

__all__ = [
    "BatchHybridCallbacks",
    "CollapseError",
    "DEFAULT_INTEGRATION",
    "DegenerateCloudWarning",
    "Ellipsoid",
    "FiniteDifferenceWarning",
    "GAMMA_BALL",
    "GuardNotReached",
    "ImmediateReimpact",
    "IntegrationOptions",
    "InvalidSectionPoint",
    "KStepRecord",
    "MveeConvergenceWarning",
    "NoConvergence",
    "PacCertificate",
    "PoincareEvaluationError",
    "PoincareMap",
    "RBFSet",
    "RbfOptions",
    "RbfSamplingError",
    "RunHistory",
    "RunResult",
    "SampleBatch",
    "UnstableLinearization",
    "binomial_cdf",
    "binomial_tail_inversion",
    "contraction_init",
    "fd_jacobian",
    "find_fixed_point",
    "fit_rbf",
    "integrate_to_guard",
    "mvee",
    "partition",
    "run",
    "spectral_radius",
    "unit_ball_volume",
    "vectorized_poincare_map",
    "verify_k_step",
]

__version__ = "0.1.0"
