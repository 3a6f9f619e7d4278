import importlib

import pytest

import invset
import invset.batchflow


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
    ],
)
def test_removed_names_are_gone(module, name):
    assert not hasattr(importlib.import_module(module), name)
    assert name not in getattr(importlib.import_module(module), "__all__", ())


def test_poincare_map_has_no_hybrid_system_constructor():
    assert not hasattr(invset.PoincareMap, "from_hybrid_system")
