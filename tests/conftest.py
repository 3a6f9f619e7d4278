import pytest

from invset.hybrid import IntegrationOptions, contraction_init, fd_jacobian, find_fixed_point
from invset.systems import (
    COMPASS_GAIT_SECTION_SEED,
    CompassGaitParams,
    compass_gait_batch_callbacks,
    compass_gait_poincare_map,
)

COMPASS_RUN_OPTIONS = IntegrationOptions(
    rel_tol=1e-8, abs_tol=1e-10, max_flow_time=5.0, method="rk45"
)


@pytest.fixture(scope="session")
def compass_params():
    return CompassGaitParams()


@pytest.fixture(scope="session")
def compass_system(compass_params):
    return compass_gait_batch_callbacks(compass_params)


@pytest.fixture(scope="session")
def compass_map(compass_params):
    return compass_gait_poincare_map(compass_params, COMPASS_RUN_OPTIONS)


@pytest.fixture(scope="session")
def compass_map_tight(compass_params):
    return compass_gait_poincare_map(compass_params, COMPASS_RUN_OPTIONS.tightened())


@pytest.fixture(scope="session")
def compass_fixed_point(compass_map_tight):
    return find_fixed_point(compass_map_tight, COMPASS_GAIT_SECTION_SEED, tol=1e-10)


@pytest.fixture(scope="session")
def compass_jacobian(compass_map_tight, compass_fixed_point):
    return fd_jacobian(compass_map_tight, compass_fixed_point)


@pytest.fixture(scope="session")
def compass_initial_ellipsoid(compass_jacobian, compass_fixed_point):
    return contraction_init(compass_jacobian, 5.2, center=compass_fixed_point)
