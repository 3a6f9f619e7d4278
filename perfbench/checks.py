"""Checks of the program's outputs, computed apart from the program.

Nothing here calls the program's samplers, maps, set-membership tests or
binomial inversion: the holdout points come from `numpy.random.default_rng`,
the `cec`, `nec` and compass-gait maps are written out again below in closed
form (the walker by scipy's DOP853 with a terminal guard event), membership is
evaluated from the certified set's parameters, and tail probabilities come from
`scipy.stats`.  Each check returns a list of failure messages; an empty list
means the output passed.  The last section applies them to a run's rounds.

The benchmark imports this module only after its rounds, so that the
checker's imports do not count in the workload's peak memory.
"""

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.stats import beta as beta_dist
from scipy.stats import binom

from invset import RBFSet
from workloads import E0_RADIUS

# One-sided binomial test level of the fresh-holdout check.  A correct
# certificate is refuted with probability at most this per certified set.
HOLDOUT_LEVEL = 1e-6
HOLDOUT_SIZE = 20_000

CEC_AREA_WINDOW = (0.90, 1.02)

# Largest distance allowed between the engine's walker return map and the
# DOP853 reference on certified-set points.  The engine runs at rel_tol 1e-8,
# abs_tol 1e-10 and agrees with the reference (1e-12 / 1e-14) to about 2e-8.
WALKER_MAP_TOL = 1e-6
# Fixed-point residual under the reference map.  The engine's tightened map
# (1e-10 / 1e-12), on which the fixed point is found, itself differs from the
# reference by about 2e-10 at the fixed point, so a residual taken under the
# reference cannot go below that; 1e-9 leaves a factor of five.
WALKER_RESIDUAL_TOL = 1e-9
WALKER_REFERENCE_POINTS = 24


# ---------------------------------------------------------------------------
# Closed-form maps and set membership
# ---------------------------------------------------------------------------


def cec_map(x, c, M):
    d = x - c
    rho = np.einsum("ij,jk,ik->i", d, M, d)
    return c + d * np.sqrt(rho)[:, None]


def nec_map(x, c1, c2, r, kappa):
    out = kappa * x
    in1 = np.hypot(*(x - c1).T) < r
    in2 = ~in1 & (np.hypot(*(x - c2).T) < r)
    out[in1] = 0.5 * (x[in1] + c1)
    out[in2] = 0.5 * (x[in2] + c2)
    return out


def ellipsoid_members(A, b, x):
    with np.errstate(invalid="ignore", over="ignore"):
        return np.sqrt(((x @ np.asarray(A).T - b) ** 2).sum(axis=1)) <= 1.0


def rbf_members(centers, widths, gamma, x):
    d2 = ((x[:, None, :] - np.asarray(centers)[None, :, :]) ** 2).sum(axis=2)
    with np.errstate(invalid="ignore"):
        return np.exp(-0.5 * d2 / np.asarray(widths) ** 2).sum(axis=1) >= gamma


def sample_ellipsoid(A, b, n, rng):
    """Uniform points of {x : |A x - b| <= 1}: uniform ball points through A^-1."""
    d = len(b)
    g = rng.standard_normal((n, d))
    u = g / np.linalg.norm(g, axis=1)[:, None] * rng.random(n)[:, None] ** (1.0 / d)
    return np.linalg.solve(A, (u + b).T).T


def sample_rbf(centers, widths, gamma, n, rng, coverage=4.0):
    """Uniform points of a summed-Gaussian set by rejection from its box."""
    centers, widths = np.asarray(centers), np.asarray(widths)
    lo = (centers - coverage * widths[:, None]).min(axis=0)
    hi = (centers + coverage * widths[:, None]).max(axis=0)
    kept = []
    while sum(len(k) for k in kept) < n:
        trial = lo + rng.random((4 * n, len(lo))) * (hi - lo)
        kept.append(trial[rbf_members(centers, widths, gamma, trial)])
    return np.concatenate(kept)[:n]


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


def clopper_pearson_upper(v, n, beta):
    """Largest e with P[Bin(n, e) <= v] >= beta."""
    return 1.0 if v >= n else float(beta_dist.ppf(1.0 - beta, v + 1, n - v))


def check_inversion(v, n, beta, epsilon_star, tol=1e-8):
    """A reported epsilon_star is the binomial tail inversion of (v, n, beta)."""
    ref = clopper_pearson_upper(v, n, beta)
    if abs(epsilon_star - ref) > tol:
        return [f"epsilon_star {epsilon_star:.10f} != inversion {ref:.10f}"]
    return []


def check_certificate(cert):
    return check_inversion(cert.violations, cert.samples, cert.beta, cert.epsilon_star)


def check_holdout(members, fmap, sample, epsilon_star, rng, size=HOLDOUT_SIZE):
    """Fresh holdout: one map step leaves the set no more often than the
    certificate allows, by a one-sided binomial test at HOLDOUT_LEVEL."""
    x = sample(size, rng)
    with np.errstate(invalid="ignore", over="ignore"):
        violations = int((~members(fmap(x))).sum())
    p_value = float(binom.sf(violations - 1, size, epsilon_star))
    if p_value < HOLDOUT_LEVEL:
        return [
            f"holdout: {violations}/{size} violations refute epsilon_star "
            f"{epsilon_star:.4f} (p = {p_value:.2e})"
        ]
    return []


# ---------------------------------------------------------------------------
# cec and nec
# ---------------------------------------------------------------------------


def check_cec_set(A, b, epsilon_star, c, M, rng):
    A, b, c, M = (np.asarray(v, dtype=float) for v in (A, b, c, M))
    errors = []
    ratio = (math.pi / np.linalg.det(A)) / (math.pi / math.sqrt(np.linalg.det(M)))
    if not CEC_AREA_WINDOW[0] <= ratio <= CEC_AREA_WINDOW[1]:
        errors.append(f"cec area {ratio:.4f} of pi/sqrt(det M) outside {CEC_AREA_WINDOW}")
    errors += check_holdout(
        lambda x: ellipsoid_members(A, b, x),
        lambda x: cec_map(x, c, M),
        lambda n, g: sample_ellipsoid(A, b, n, g),
        epsilon_star,
        rng,
    )
    return errors


def cec_expected_candidates(n, eps_target, beta, area_ratio, max_iters):
    """Expected scored candidates of the cec loop under exact refits.

    The map squares the M-norm of the offset from c, so an M-ball candidate
    of area ratio a keeps the M-ball of ratio sqrt(a): a sample violates with
    p = 1 - a^(-1/2), and the exact refit has ratio sqrt(a).  Candidate k is
    scored iff every earlier one had more than v_max violations, where v_max
    is the largest count whose Clopper-Pearson bound meets eps_target.
    """
    v_max = -1
    while clopper_pearson_upper(v_max + 1, n, beta) <= eps_target:
        v_max += 1
    expected, reach = 0.0, 1.0
    for k in range(1, max_iters + 1):
        expected += reach
        p = 1.0 - area_ratio ** (-(0.5**k))
        reach *= float(binom.sf(v_max, n, p))
    return expected


def check_cec_mean_candidates(candidates, bound):
    mean = float(np.mean(candidates))
    if mean > bound:
        return [f"cec mean scored candidates {mean:.2f} > exact-refit expectation {bound:.2f}"]
    return []


def check_nec_set(centers, widths, gamma, epsilon_star, p, rng):
    centers, widths = np.asarray(centers), np.asarray(widths)
    c1, c2 = np.asarray(p.c1, dtype=float), np.asarray(p.c2, dtype=float)
    errors = []
    inside = rbf_members(centers, widths, gamma, np.stack([c1, c2]))
    if not inside.all():
        errors.append(f"nec disc centres members: {inside.tolist()}")
    errors += check_holdout(
        lambda x: rbf_members(centers, widths, gamma, x),
        lambda x: nec_map(x, c1, c2, p.r, p.kappa),
        lambda n, g: sample_rbf(centers, widths, gamma, n, g),
        epsilon_star,
        rng,
    )
    return errors


# ---------------------------------------------------------------------------
# Compass-gait walker
# ---------------------------------------------------------------------------


class ReferenceWalker:
    """Compass-gait return map by scipy DOP853 with a terminal guard event.

    State [theta_sw, theta_st, omega_sw, omega_st]; chart (theta_sw, omega_sw,
    omega_st) on the strike manifold theta_sw + theta_st = -2 slope.  A heel
    strike is a downward zero of the swing-foot height with the swing leg
    ahead by more than the minimum separation; other zeros are stepped over.
    """

    def __init__(self, p, rtol=1e-12, atol=1e-14, max_time=5.0):
        self.p = p
        self.rtol, self.atol, self.max_time = rtol, atol, max_time

        def strike(_t, x):
            return self.height(x)

        strike.terminal = True
        strike.direction = -1
        self.strike = strike

    def mass(self, q):
        p = self.p
        coupling = -p.m * p.l * p.b * math.cos(q[1] - q[0])
        return np.array(
            [[p.m * p.b**2, coupling], [coupling, (p.m_h + p.m) * p.l**2 + p.m * p.a**2]]
        )

    def field(self, _t, x):
        p = self.p
        s = math.sin(x[1] - x[0])
        forces = np.array(
            [
                -p.m * p.l * p.b * s * x[3] ** 2 - p.m * p.g * p.b * math.sin(x[0]),
                p.m * p.l * p.b * s * x[2] ** 2
                + (p.m_h * p.l + p.m * (p.a + p.l)) * p.g * math.sin(x[1]),
            ]
        )
        return np.concatenate([x[2:], np.linalg.solve(self.mass(x[:2]), forces)])

    def height(self, x):
        p = self.p
        return p.l * (math.cos(x[1] + p.slope) - math.cos(x[0] + p.slope))

    def reset(self, x):
        """Angular momentum about the new contact (whole body) and about the
        hip (new swing leg) is conserved through the strike."""
        p = self.p
        m, mh, a, b, l = p.m, p.m_h, p.a, p.b, p.l
        c = math.cos(x[0] - x[1])
        before = np.array(
            [[-m * a * b, -m * a * b + (mh * l**2 + 2 * m * a * l) * c], [0.0, -m * a * b]]
        )
        after = np.array(
            [[m * b * (b - l * c), m * l * (l - b * c) + m * a**2 + mh * l**2],
             [m * b**2, -m * b * l * c]]
        )
        w = np.linalg.solve(after, before @ x[2:])
        return np.array([x[1], x[0], w[0], w[1]])

    def __call__(self, y):
        p = self.p
        x = self.reset(np.array([y[0], -2 * p.slope - y[0], y[1], y[2]]))
        t = 0.0
        while t < self.max_time:
            sol = solve_ivp(
                self.field, (t, self.max_time), x, method="DOP853",
                events=self.strike, rtol=self.rtol, atol=self.atol,
            )
            if sol.status != 1:
                raise RuntimeError("reference walker: no heel strike within the flow budget")
            t, x = float(sol.t_events[0][0]), sol.y_events[0][0]
            if x[0] - x[1] > p.min_leg_separation:
                return np.array([x[0], x[2], x[3]])
            # step past the rejected zero so the event does not fire again
            nudge = solve_ivp(self.field, (t, t + 1e-6), x, method="DOP853",
                              rtol=self.rtol, atol=self.atol)
            t, x = float(nudge.t[-1]), nudge.y[:, -1]
        raise RuntimeError("reference walker: no heel strike within the flow budget")


def check_walker_fixed_point(reference, y_star, eps=1e-6):
    """Residual of y* under the reference map, and the Floquet multipliers
    of its central-difference Jacobian."""
    y_star = np.asarray(y_star, dtype=float)
    errors = []
    residual = float(np.linalg.norm(reference(y_star) - y_star))
    if not residual < WALKER_RESIDUAL_TOL:
        errors.append(f"walker fixed-point residual {residual:.2e} >= {WALKER_RESIDUAL_TOL}")
    jac = np.empty((3, 3))
    for j in range(3):
        step = np.zeros(3)
        step[j] = eps
        jac[:, j] = (reference(y_star + step) - reference(y_star - step)) / (2 * eps)
    magnitudes = np.abs(np.linalg.eigvals(jac))
    if not np.all(magnitudes < 1.0):
        errors.append(f"walker Floquet magnitudes {np.round(magnitudes, 4).tolist()} not < 1")
    return errors


def check_ellipsoid_inside(inner_A, inner_b, outer_A, outer_b, rng, directions=4000):
    """Boundary points of the inner ellipsoid all lie in the outer one."""
    u = rng.standard_normal((directions, len(inner_b)))
    u /= np.linalg.norm(u, axis=1)[:, None]
    boundary = np.linalg.solve(inner_A, (u + inner_b).T).T
    outside = int((~ellipsoid_members(outer_A, outer_b, boundary)).sum())
    if outside:
        return [f"certified set leaves the initial set at {outside}/{directions} boundary points"]
    return []


def check_walker_map(reference, points, engine_out, engine_ok):
    """The engine's images agree with the reference within WALKER_MAP_TOL."""
    errors = []
    worst = 0.0
    for y, out, ok in zip(points, engine_out, engine_ok):
        try:
            ref = reference(y)
        except RuntimeError:
            if ok:
                errors.append(f"engine maps {y.tolist()} but the reference finds no strike")
            continue
        if not ok:
            errors.append(f"engine fails on {y.tolist()}, the reference maps it")
            continue
        worst = max(worst, float(np.abs(out - ref).max()))
    if worst > WALKER_MAP_TOL:
        errors.append(f"walker map differs from the reference by {worst:.2e} > {WALKER_MAP_TOL}")
    return errors


# ---------------------------------------------------------------------------
# A run's operations: which checks apply to each workload's outputs
# ---------------------------------------------------------------------------


def _fingerprint(result):
    if isinstance(result, Exception):
        return repr(result)
    if isinstance(result, list):
        return [(r.steps, r.violations, r.epsilon_star) for r in result]
    return (
        result.history.termination,
        result.history.iterations,
        result.certificate.to_dict(),
        result.invariant_set.to_dict(),
    )


def _check_cec(workload, state, result, rng):
    s, p = result.invariant_set, workload.params
    return check_cec_set(s.A, s.b, result.certificate.epsilon_star, p.c, p.M, rng)


def _check_cec_study(workload, results):
    """Mean scored candidates against the exact-refit expectation from E0."""
    p, spec = workload.params, workload.certifications[0]
    area_ratio = E0_RADIUS**2 * np.sqrt(np.linalg.det(p.M))  # E0 over pi / sqrt(det M)
    bound = cec_expected_candidates(
        spec.n_samples, spec.eps_target, spec.beta, area_ratio, spec.max_iters
    )
    return check_cec_mean_candidates([r.history.iterations for r in results], bound)


def _check_nec(workload, state, result, rng):
    s = result.invariant_set
    if not isinstance(s, RBFSet):
        return ["certified set is not an RBF set"]
    return check_nec_set(
        s.centers, s.widths, s.gamma, result.certificate.epsilon_star, workload.params, rng
    )


def _check_walker(workload, state, result, rng):
    s, e0 = result.invariant_set, state["initial"]
    reference = ReferenceWalker(workload.params)
    errors = check_walker_fixed_point(reference, state["fixed_point"])
    errors += check_ellipsoid_inside(s.A, s.b, e0.A, e0.b, rng)
    points = sample_ellipsoid(s.A, s.b, WALKER_REFERENCE_POINTS, rng)
    out, ok = state["map"].batch_evaluator(points)
    return errors + check_walker_map(reference, points, out, ok)


SET_CHECKS = {"cec-study": _check_cec, "nec-rbf": _check_nec, "walker": _check_walker}
STUDY_CHECKS = {"cec-study": _check_cec_study}


def check_certification(workload, state, spec, result, rng):
    errors = []
    if result.history.termination != "certified":
        errors.append(f"ended on {result.history.termination}")
    if result.certificate.epsilon_star > spec.eps_target:
        errors.append("epsilon_star above the target")
    errors += check_certificate(result.certificate)
    errors += SET_CHECKS[workload.name](workload, state, result, rng)
    return [f"seed {spec.seed}: {e}" for e in errors]


def check_verify(spec, records):
    errors = []
    if [r.steps for r in records] != list(range(1, spec.verify_k + 1)):
        errors.append(f"verify returned steps {[r.steps for r in records]}")
    for r in records:
        errors += [
            f"verify k={r.steps}: {e}"
            for e in check_inversion(r.violations, spec.verify_samples, spec.beta, r.epsilon_star)
        ]
    return [f"seed {spec.seed}: {e}" for e in errors]


def check_rounds(workload, state, rounds, seed):
    """Errors per operation (runs, then verify sweeps) of each round.

    The first round's outputs are checked; a later round passes iff it
    reproduces them exactly."""
    first = rounds[0]
    rng = np.random.default_rng(seed)
    op_errors = []
    for spec, result in zip(workload.certifications, first.results):
        if isinstance(result, Exception):
            op_errors.append([f"seed {spec.seed}: run raised {result!r}"])
        else:
            op_errors.append(check_certification(workload, state, spec, result, rng))
    for (_, spec), records in zip(workload.sweeps, first.verifies):
        if isinstance(records, Exception):
            op_errors.append([f"seed {spec.seed}: verify raised {records!r}"])
        else:
            op_errors.append(check_verify(spec, records))
    study_check = STUDY_CHECKS.get(workload.name)
    if study_check and not any(isinstance(r, Exception) for r in first.results):
        study_errors = study_check(workload, first.results)
        for errors in op_errors[: len(first.results)]:
            errors += study_errors
    reference = [_fingerprint(op) for op in first.results + first.verifies]
    per_round = []
    for rnd in rounds:
        ops = [_fingerprint(op) for op in rnd.results + rnd.verifies]
        per_round.append(
            [
                errors if got == want else errors + ["output differs from the first round"]
                for errors, got, want in zip(op_errors, ops, reference)
            ]
        )
    return per_round
