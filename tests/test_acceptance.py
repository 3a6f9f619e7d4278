"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The expensive runs are
shared through session-scoped fixtures; everything is seeded and
deterministic on a given platform.
"""

import json
import math

import numpy as np
import pytest

from invset.algorithm import RbfOptions, run, verify_k_step
from invset.ellipsoid import Ellipsoid, mvee
from invset.batchflow import integrate_to_guard
from invset.hybrid import PoincareMap
from invset.pac import binomial_cdf, binomial_tail_inversion
from invset.systems import (
    COMPASS_GAIT_SECTION_SEED,
    CecParams,
    NecParams,
    cec_poincare_map,
    cec_true_invariant_set,
    compass_kinetic_energy,
    compass_total_energy,
    nec_poincare_map,
    nec_true_volume,
)
from tests.test_cli import run_cli_with_blas_threads
from tests.test_pac import direct_sum_cdf

E0_DISK = Ellipsoid.ball(math.sqrt(10), [0.0, 0.0])
CEC_SAMPLES = 1000
CEC_EPS = 0.03
CEC_BETA = 1e-9
CEC_MAX_ITERS = 60
NEC_SAMPLES = 2000  # holdout size of the shipped NEC profile
COMPASS_SAMPLES = 1000
COMPASS_SCALE = 5.2  # contraction inflation of the shipped walker profile


def report(number, name, ok, detail):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="session")
def cec_runs():
    pmap = cec_poincare_map()
    return [
        run(pmap, E0_DISK, CEC_SAMPLES, CEC_EPS, CEC_BETA, CEC_MAX_ITERS, seed=s)
        for s in range(10)
    ]


@pytest.fixture(scope="session")
def nec_runs():
    pmap = nec_poincare_map()
    return [run(pmap, E0_DISK, NEC_SAMPLES, 0.07, 1e-9, 400, seed=s) for s in range(10)]


@pytest.fixture(scope="session")
def compass_run(compass_map, compass_initial_ellipsoid):
    return run(
        compass_map,
        compass_initial_ellipsoid,
        COMPASS_SAMPLES,
        0.03,
        1e-9,
        200,
        seed=0,
        store_samples=False,
    )


def cec_expected_iterations(n, eps_target, beta, area_ratio, max_iters):
    """Expected number of scored candidates of the CEC loop under exact refit.

    The CEC map squares the M-norm of the offset from c: |f(x) - c|_M =
    |x - c|_M^2.  An M-ball candidate of area ratio a to the invariant unit
    M-ball has M-radius sqrt(a), so the inputs whose images stay inside are
    the M-ball of radius a^(1/4), of area ratio sqrt(a), and a uniform sample
    violates with probability p = 1 - a^(-1/2).  An exact minimum-volume
    refit of that region is the ball itself, so candidate k has area ratio
    a_k = a_1^(2^(1-k)).  Candidate k certifies iff its violation count is at
    most v_max, the largest v whose binomial tail inversion meets eps_target,
    and it is scored only if every earlier candidate failed, hence
    E[iterations] = sum_k prod_{j<k} P[Binomial(n, p_j) > v_max].
    """
    v_max = -1
    while v_max < n and binomial_tail_inversion(v_max + 1, n, beta) <= eps_target:
        v_max += 1
    expected, reach = 0.0, 1.0
    for k in range(1, max_iters + 1):
        expected += reach
        p = 1.0 - area_ratio ** (-(0.5 ** k))
        reach *= 1.0 - binomial_cdf(v_max, n, p)
    return expected


def test_criterion_1_cec_end_to_end(cec_runs):
    iters = [r.history.iterations for r in cec_runs]
    final_violations = [r.certificate.violations for r in cec_runs]
    volumes = [r.invariant_set.volume() for r in cec_runs]
    mean_iters = float(np.mean(iters))
    # The loop must certify at least as fast as the method allows: no slower
    # than the exact-refit expectation, starting from the M-ball with E0's
    # area ratio (about 9.75).  An MVEE of the retained inputs never has more
    # area than the exact cover of the region they are drawn from, so the
    # real loop shrinks at least as fast.  `iterations` counts scored
    # candidates, one more than the refits.
    area_ratio = E0_DISK.volume() / cec_true_invariant_set(CecParams()).volume()
    bound = cec_expected_iterations(CEC_SAMPLES, CEC_EPS, CEC_BETA, area_ratio, CEC_MAX_ITERS)
    vol_ok = all(0.90 * math.pi <= v <= 1.02 * math.pi for v in volumes)
    certified = all(r.history.termination == "certified" for r in cec_runs)
    detail = (
        f"iterations per seed {iters}, mean {mean_iters:.2f} (<= {bound:.2f}, the "
        f"exact-refit expectation); final violations per seed {final_violations}; "
        f"volumes/pi in [{min(volumes) / math.pi:.4f}, {max(volumes) / math.pi:.4f}] "
        f"(within [0.90, 1.02]), all certified: {certified}"
    )
    report(1, "CEC end-to-end", certified and vol_ok and mean_iters <= bound, detail)


def test_criterion_2_nec_end_to_end(nec_runs):
    true_volume = nec_true_volume(NecParams())
    certified = all(
        r.history.termination == "certified" and r.certificate.epsilon_star <= 0.07
        for r in nec_runs
    )
    ratios = [r.invariant_set.volume() / true_volume for r in nec_runs]
    mean_iters = float(np.mean([r.history.iterations for r in nec_runs]))
    ratio_ok = all(0.6 <= q <= 1.0 for q in ratios)
    detail = (
        f"all certified at eps* <= 0.07: {certified}; volume ratios in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] (within [0.6, 1.0]); "
        f"mean iterations {mean_iters:.1f} (<= 170)"
    )
    report(2, "NEC end-to-end", certified and ratio_ok and mean_iters <= 170.0, detail)


def test_criterion_3_nec_rbf():
    pmap = nec_poincare_map()
    result = run(
        pmap,
        E0_DISK,
        1000,
        0.05,
        1e-9,
        100,
        seed=0,
        representation="rbf",
        rbf_options=RbfOptions(m=2, gamma=0.25),
    )
    fitted = result.invariant_set
    centers_in = bool(fitted.contains_batch(np.array([[-0.6, 0.0], [0.6, 0.0]])).all())
    ok = (
        result.history.termination == "certified"
        and result.certificate.epsilon_star <= 0.05
        and result.history.iterations <= 30
        and centers_in
    )
    detail = (
        f"{result.history.termination} in {result.history.iterations} iterations "
        f"(<= 30), eps* = {result.certificate.epsilon_star:.4f} (<= 0.05), "
        f"true centers members: {centers_in}"
    )
    report(3, "NEC with RBF refit", ok, detail)


def test_criterion_4_compass_gait(
    compass_map, compass_map_tight, compass_fixed_point, compass_jacobian,
    compass_initial_ellipsoid, compass_run,
):
    residual = float(
        np.linalg.norm(compass_map_tight(compass_fixed_point) - compass_fixed_point)
    )
    multipliers = np.abs(np.linalg.eigvals(compass_jacobian))
    certified = (
        compass_run.history.termination == "certified"
        and compass_run.certificate.epsilon_star <= 0.03
        and compass_run.history.iterations <= 200
    )
    final_volume = compass_run.invariant_set.volume()
    ratio = compass_initial_ellipsoid.volume() / final_volume
    curve = verify_k_step(
        compass_map, compass_run.invariant_set, 400, 20, 1e-9, seed=123
    )
    worst_accuracy = min(1.0 - rec.epsilon_star for rec in curve)
    ok = (
        residual < 1e-10
        and bool(np.all(multipliers < 1.0))
        and certified
        and final_volume > 0
        and ratio >= 10.0
        and worst_accuracy >= 0.9
    )
    detail = (
        f"(a) residual {residual:.2e} (< 1e-10); "
        f"(b) |floquet| max {multipliers.max():.3f} (< 1); "
        f"(c) {compass_run.history.termination} in {compass_run.history.iterations} "
        f"iterations at eps* = {compass_run.certificate.epsilon_star:.4f}; "
        f"(d) initial/final volume = {ratio:.1f} (>= 10); "
        f"(e) min 1-eps*(k) = {worst_accuracy:.4f} (>= 0.9)"
    )
    report(4, "compass gait", ok, detail)


def test_initial_ellipsoid_contains_converged_set(compass_initial_ellipsoid, compass_run):
    # the conservatively inflated linearization ellipsoid must fully contain
    # the converged set (the loop only ever shrinks the candidate)
    final = compass_run.invariant_set
    rng = np.random.default_rng(31)
    directions = rng.standard_normal((2000, final.dim))
    directions /= np.linalg.norm(directions, axis=1)[:, None]
    boundary = np.linalg.solve(final.A, (directions + final.b).T).T
    assert compass_initial_ellipsoid.contains_batch(boundary).all()


def test_criterion_5_binomial_inversion_suite():
    grid_ok = True
    for v, n, beta in [
        (0, 100, 0.05), (5, 100, 0.05), (99, 100, 0.05),
        (0, 1000, 1e-9), (3, 1000, 1e-9), (30, 1000, 1e-9), (500, 1000, 0.5),
        (1, 10, 0.2), (7, 640, 1e-6),
    ]:
        eps = binomial_tail_inversion(v, n, beta)
        grid_ok &= direct_sum_cdf(v, n, eps) >= beta * (1 - 1e-7)
        grid_ok &= direct_sum_cdf(v, n, min(eps + 1e-9, 1.0)) < beta or eps == 1.0
    closed_ok = all(
        abs(binomial_tail_inversion(0, n, beta) - (1 - beta ** (1.0 / n))) < 1e-9
        for n, beta in [(10, 0.5), (100, 0.05), (1000, 1e-9)]
    )
    mono_v = [binomial_tail_inversion(v, 400, 1e-6) for v in range(0, 401, 25)]
    mono_n = [binomial_tail_inversion(5, n, 1e-6) for n in (10, 50, 250, 1000)]
    mono_b = [binomial_tail_inversion(5, 100, b) for b in (1e-9, 1e-4, 0.05, 0.5)]
    mono_ok = (
        all(a <= b + 1e-12 for a, b in zip(mono_v, mono_v[1:]))
        and all(a >= b - 1e-12 for a, b in zip(mono_n, mono_n[1:]))
        and all(a >= b - 1e-12 for a, b in zip(mono_b, mono_b[1:]))
    )
    detail = f"tightness grid: {grid_ok}, closed form: {closed_ok}, monotonicity: {mono_ok}"
    report(5, "binomial inversion suite", grid_ok and closed_ok and mono_ok, detail)


def test_criterion_6_mvee_suite():
    square = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    square_vol = mvee(square).volume()
    square_ok = abs(square_vol - 2 * math.pi) < 1e-4

    rng = np.random.default_rng(17)
    contain_ok = True
    inactive_ok = True
    affine_ok = True
    for dim in (2, 3):
        for _ in range(3):
            pts = rng.standard_normal((120, dim)) @ (
                rng.standard_normal((dim, dim)) + 2 * np.eye(dim)
            )
            cover = mvee(pts)
            contain_ok &= bool(
                np.all(np.linalg.norm(pts @ cover.A.T - cover.b, axis=1) <= 1.0 + 1e-12)
            )
            interior = 0.5 * (pts[:10] + cover.center)
            augmented = mvee(np.vstack([pts, interior]))
            inactive_ok &= abs(augmented.volume() - cover.volume()) <= 1e-5 * cover.volume()
            T = rng.standard_normal((dim, dim)) + 3 * np.eye(dim)
            shift = rng.standard_normal(dim)
            mapped = mvee(pts @ T.T + shift).volume()
            expected = abs(np.linalg.det(T)) * cover.volume()
            affine_ok &= abs(mapped - expected) / expected < 1e-5
    detail = (
        f"square volume {square_vol:.6f} (2pi +/- 1e-4): {square_ok}; containment: "
        f"{contain_ok}; interior inactivity: {inactive_ok}; affine equivariance: {affine_ok}"
    )
    report(6, "MVEE suite", square_ok and contain_ok and inactive_ok and affine_ok, detail)


def test_criterion_7_hybrid_integration_suite(compass_params, compass_system):
    from tests.test_hybrid import harmonic_oscillator

    _, quarter = integrate_to_guard(harmonic_oscillator(), np.array([1.0, 0.0]))
    harmonic_ok = abs(quarter - math.pi / 2) < 1e-8

    # walk a few steps at the default (tight) options, checking flow energy,
    # impact dissipation, and the guard residual at every accepted event
    x = compass_system.reset(compass_system.chart_inverse(COMPASS_GAIT_SECTION_SEED))
    energy_ok = True
    impact_ok = True
    residual_ok = True
    for _ in range(5):
        e0 = compass_total_energy(x, compass_params)
        x_minus, _ = integrate_to_guard(compass_system, x)
        energy_ok &= abs(compass_total_energy(x_minus, compass_params) - e0) / abs(e0) < 1e-8
        residual_ok &= abs(compass_system.guard(x_minus)) < 1e-10
        x_plus = compass_system.reset(x_minus)
        impact_ok &= (
            compass_kinetic_energy(x_plus, compass_params)
            <= compass_kinetic_energy(x_minus, compass_params) + 1e-12
        )
        x = x_plus
    detail = (
        f"harmonic quarter-period {quarter:.10f} (pi/2 +/- 1e-8): {harmonic_ok}; "
        f"energy drift < 1e-8: {energy_ok}; impact KE non-increase: {impact_ok}; "
        f"guard residual < 1e-10: {residual_ok}"
    )
    report(
        7, "hybrid integration suite",
        harmonic_ok and energy_ok and impact_ok and residual_ok, detail,
    )


def test_criterion_8_k_step_stability(cec_runs, nec_runs):
    cec_curve = verify_k_step(
        cec_poincare_map(), cec_runs[0].invariant_set, 1000, 20, 1e-9, seed=21
    )
    cec_acc = [1.0 - rec.epsilon_star for rec in cec_curve]
    cec_flat = max(cec_acc) - min(cec_acc) < 0.03

    nec_curve = verify_k_step(
        nec_poincare_map(), nec_runs[0].invariant_set, NEC_SAMPLES, 20, 1e-9, seed=22
    )
    nec_acc = [1.0 - rec.epsilon_star for rec in nec_curve]
    nec_dips = int(np.argmin(nec_acc)) + 1 >= 2 and min(nec_acc[1:]) < nec_acc[0]

    identity = PoincareMap.from_function(lambda y: y, 2)
    id_curve = verify_k_step(identity, Ellipsoid.ball(1.0, [0, 0]), 500, 10, 1e-9, seed=23)
    id_constant = len({rec.epsilon_star for rec in id_curve}) == 1

    detail = (
        f"CEC flat (range {max(cec_acc) - min(cec_acc):.4f} < 0.03): {cec_flat}; "
        f"NEC dips at k = {int(np.argmin(nec_acc)) + 1} (>= 2): {nec_dips}; "
        f"identity constant: {id_constant}"
    )
    report(8, "k-step stability", cec_flat and nec_dips and id_constant, detail)


def test_criterion_9_determinism(tmp_path):
    base = {
        "system": "cec",
        "N": 600,
        "eps_target": 0.05,
        "beta": 1e-6,
        "max_iters": 40,
        "seed": 3,
        "init": {
            "mode": "explicit",
            "ellipsoid": {
                "dim": 2,
                "A": [1 / math.sqrt(10), 0.0, 0.0, 1 / math.sqrt(10)],
                "b": [0.0, 0.0],
            },
        },
    }
    compass_mini = {
        "system": "compass_gait",
        "N": 64,
        "eps_target": 0.9,
        "beta": 1e-3,
        "max_iters": 2,
        "seed": 1,
        "init": {"mode": "contraction", "r": COMPASS_SCALE},
        "integration": {"rel_tol": 1e-8, "abs_tol": 1e-10, "max_flow_time": 5.0},
    }
    all_ok = True
    details = []
    for label, cfg in (("cec", base), ("compass", compass_mini)):
        outputs = {}
        for threads in (1, 2):
            outdir = tmp_path / f"{label}-t{threads}"
            cfg_file = tmp_path / f"{label}-t{threads}.json"
            cfg_file.write_text(json.dumps({**cfg, "output_dir": str(outdir)}))
            code = run_cli_with_blas_threads(["run", cfg_file], threads)
            assert code in (0, 2)
            blobs = {}
            for name in ("result.json", "history.csv"):
                blob = (outdir / name).read_bytes()
                if name == "result.json":
                    blob = blob.replace(str(outdir).encode(), b"OUT")
                blobs[name] = blob
            for sample in sorted((outdir / "samples").glob("*.csv")):
                blobs[f"samples/{sample.name}"] = sample.read_bytes()
            assert len(blobs) > 2, "the run wrote no samples"
            outputs[threads] = blobs
        same = outputs[1] == outputs[2]
        all_ok &= same
        details.append(f"{label}: BLAS threads 1 vs 2 byte-identical = {same}")
    report(9, "determinism across thread counts", all_ok, "; ".join(details))
