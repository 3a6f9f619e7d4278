"""The benchmark's checks accept the program's answers and reject wrong ones.

Run with `PYTHONPATH=src python -m pytest perfbench -q` from the repo root.
Each wrong answer is a small corruption of a real answer: a cec ellipse
inflated by 5% about its centre, an RBF set missing the bump of one disc, and
walker return-map images moved by 1e-4.
"""

import math

import numpy as np
import pytest

import checks
from invset import (
    Ellipsoid,
    RBFSet,
    RbfOptions,
    contraction_init,
    fd_jacobian,
    find_fixed_point,
    run,
)
from invset.systems import (
    COMPASS_GAIT_SECTION_SEED,
    CecParams,
    CompassGaitParams,
    NecParams,
    cec_poincare_map,
    compass_gait_poincare_map,
    nec_poincare_map,
)
from workloads import WALKER_OPTIONS, WALKER_SCALE

E0 = Ellipsoid.ball(math.sqrt(10), [0.0, 0.0])


def rng():
    return np.random.default_rng(5)


@pytest.fixture(scope="module")
def cec_result():
    return run(cec_poincare_map(), E0, 1000, 0.03, 1e-9, 60, seed=0, store_samples=False)


@pytest.fixture(scope="module")
def nec_result():
    return run(
        nec_poincare_map(), E0, 1000, 0.05, 1e-9, 100, seed=0,
        representation="rbf", rbf_options=RbfOptions(m=2, gamma=0.25), store_samples=False,
    )


@pytest.fixture(scope="module")
def walker():
    p = CompassGaitParams()
    pmap = compass_gait_poincare_map(p, WALKER_OPTIONS)
    tight = compass_gait_poincare_map(p, WALKER_OPTIONS.tightened())
    fixed_point = find_fixed_point(tight, COMPASS_GAIT_SECTION_SEED, tol=1e-10)
    jacobian = fd_jacobian(tight, fixed_point)
    initial = contraction_init(jacobian, WALKER_SCALE, center=fixed_point)
    return p, pmap, fixed_point, initial


def test_cec_check_accepts_certified_set_and_rejects_inflated_one(cec_result):
    s, eps, p = cec_result.invariant_set, cec_result.certificate.epsilon_star, CecParams()
    assert checks.check_cec_set(s.A, s.b, eps, p.c, p.M, rng()) == []
    inflated_A = s.A / 1.05
    inflated_b = inflated_A @ s.center
    errors = checks.check_cec_set(inflated_A, inflated_b, eps, p.c, p.M, rng())
    assert any("area" in e for e in errors)
    assert any("holdout" in e for e in errors)


def test_holdout_alone_rejects_inflated_cec_set(cec_result):
    s, p = cec_result.invariant_set, CecParams()
    A = s.A / 1.05
    b = A @ s.center
    errors = checks.check_holdout(
        lambda x: checks.ellipsoid_members(A, b, x),
        lambda x: checks.cec_map(x, p.c, p.M),
        lambda n, g: checks.sample_ellipsoid(A, b, n, g),
        cec_result.certificate.epsilon_star,
        rng(),
    )
    assert errors


def test_cec_mean_candidates_bound():
    bound = checks.cec_expected_candidates(1000, 0.03, 1e-9, 10.0, 60)
    assert 9.7 < bound < 9.8  # the exact-refit expectation from E0
    assert checks.check_cec_mean_candidates([8, 9, 9, 10, 9, 9, 8, 8, 9, 8], bound) == []
    assert checks.check_cec_mean_candidates([10] * 10, bound)


def test_certificate_check_rejects_a_loosened_bound(cec_result):
    cert = cec_result.certificate
    assert checks.check_certificate(cert) == []
    wrong = type(cert)(cert.violations, cert.samples, cert.beta, cert.epsilon_star + 1e-3)
    assert checks.check_certificate(wrong)


def test_nec_check_rejects_set_missing_a_disc_centre(nec_result):
    s, eps, p = nec_result.invariant_set, nec_result.certificate.epsilon_star, NecParams()
    assert checks.check_nec_set(s.centers, s.widths, s.gamma, eps, p, rng()) == []
    keep = int(np.argmin(np.linalg.norm(s.centers - p.c1, axis=1)))
    one_disc = RBFSet(s.centers[[keep]], s.widths[[keep]], s.gamma)
    errors = checks.check_nec_set(one_disc.centers, one_disc.widths, one_disc.gamma, eps, p, rng())
    assert any("centres" in e for e in errors)


def test_walker_map_check_rejects_perturbed_images(walker):
    p, pmap, fixed_point, initial = walker
    small = Ellipsoid(A=initial.A * 4, b=initial.b * 4)
    points = checks.sample_ellipsoid(small.A, small.b, 4, rng())
    out, ok = pmap.batch_evaluator(points)
    reference = checks.ReferenceWalker(p)
    assert checks.check_walker_map(reference, points, out, ok) == []
    assert checks.check_walker_map(reference, points, out + 1e-4, ok)


def test_walker_fixed_point_check_rejects_a_displaced_point(walker):
    p, _, fixed_point, _ = walker
    reference = checks.ReferenceWalker(p)
    assert checks.check_walker_fixed_point(reference, fixed_point) == []
    errors = checks.check_walker_fixed_point(reference, fixed_point + 1e-7)
    assert any("residual" in e for e in errors)


def test_containment_check_rejects_a_set_larger_than_the_initial_one(walker):
    _, _, _, initial = walker
    A, b = initial.A, initial.b
    assert checks.check_ellipsoid_inside(A * 1.05, b * 1.05, A, b, rng()) == []
    assert checks.check_ellipsoid_inside(A / 1.05, b / 1.05, A, b, rng())
