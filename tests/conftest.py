from pathlib import Path

import pytest

from invset.cli import load_config, prepare
from invset.hybrid import IntegrationOptions
from invset.systems import compass_gait_batch_callbacks, compass_gait_poincare_map


def prepare_shipped(name, **pins):
    """(config, *`cli.prepare`) of `configs/<name>.json`; it must hold the settings `pins`."""
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / f"{name}.json")
    assert {key: cfg[key] for key in pins} == pins, f"configs/{name}.json moved a pinned setting"
    return (cfg, *prepare(cfg))


@pytest.fixture(scope="session")
def compass_prepared():
    return prepare_shipped(
        "compass_gait", N=1000, eps_target=0.03, beta=1e-9, max_iters=200, seed=0,
        init={"mode": "contraction", "r": 5.2}, representation="ellipsoid",
    )


@pytest.fixture(scope="session")
def compass_params(compass_prepared):
    return compass_prepared[1].params


@pytest.fixture(scope="session")
def compass_system(compass_params):
    return compass_gait_batch_callbacks(compass_params)


@pytest.fixture(scope="session")
def compass_map(compass_prepared):
    return compass_prepared[1].poincare_map


@pytest.fixture(scope="session")
def compass_map_tight(compass_prepared, compass_params):
    options = IntegrationOptions(**compass_prepared[0]["integration"]).tightened()
    return compass_gait_poincare_map(compass_params, options)


@pytest.fixture(scope="session")
def compass_initial_ellipsoid(compass_prepared):
    return compass_prepared[2]


@pytest.fixture(scope="session")
def compass_fixed_point(compass_prepared):
    return compass_prepared[3]


@pytest.fixture(scope="session")
def compass_jacobian(compass_prepared):
    return compass_prepared[4]
