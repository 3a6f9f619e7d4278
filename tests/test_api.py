import dataclasses
import importlib

import pytest

import invset
import invset.batchflow


PUBLIC_NAMES = [
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
    "unit_ball_volume",
    "vectorized_poincare_map",
    "verify_k_step",
]


def test_public_surface_is_pinned():
    # the exported names change only by a deliberate edit of this list
    assert sorted(invset.__all__) == PUBLIC_NAMES


def test_every_exported_name_resolves():
    for name in invset.__all__:
        assert getattr(invset, name) is not None, name


def test_one_system_interface_is_exported():
    assert invset.BatchHybridCallbacks is invset.batchflow.BatchHybridCallbacks
    assert invset.integrate_to_guard is invset.batchflow.integrate_to_guard
    assert invset.vectorized_poincare_map is invset.batchflow.vectorized_poincare_map


@pytest.mark.parametrize(
    "module, name",
    [
        ("invset", "HybridSystemDefinition"),
        ("invset", "poincare_step"),
        ("invset.hybrid", "HybridSystemDefinition"),
        ("invset.hybrid", "poincare_step"),
        ("invset.systems", "compass_gait_system"),
        ("invset.batchflow", "hybrid_callbacks"),
        ("invset.batchflow", "flow_to_guard"),
        ("invset", "certify"),
        ("invset.pac", "certify"),
        ("invset", "sample_uniform_rbf"),
        ("invset.rbf", "sample_uniform_rbf"),
        ("invset", "spectral_radius"),
        ("invset.hybrid", "spectral_radius"),
    ],
)
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert name not in getattr(importlib.import_module(module), "__all__", ())


@pytest.mark.parametrize(
    "owner, name",
    [
        (invset.Ellipsoid, "contains"),
        (invset.Ellipsoid, "boundary_distance"),
        (invset.RBFSet, "contains"),
        (invset.PacCertificate, "from_dict"),
        (invset.SampleBatch, "ok"),
        (invset.SampleBatch, "n"),
        (invset.SampleBatch, "retained_outputs"),
        (invset.SampleBatch, "escaped_inputs"),
        (invset.SampleBatch, "escaped_outputs"),
        (invset.RunHistory, "certificate"),
    ],
)
def test_removed_members_are_gone(owner, name):
    assert not hasattr(owner, name)
    assert name not in {field.name for field in dataclasses.fields(owner)}


def test_poincare_map_has_no_hybrid_system_constructor():
    assert not hasattr(invset.PoincareMap, "from_hybrid_system")
