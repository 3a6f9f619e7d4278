import math

import numpy as np
import pytest

from invset.pac import PacCertificate, binomial_cdf, binomial_tail_inversion


def direct_sum_cdf(v, n, e):
    """Independent oracle: lower binomial tail as a log-space term sum."""
    if e == 0.0:
        return 1.0
    if e == 1.0:
        return 1.0 if v == n else 0.0
    total = 0.0
    for j in range(v + 1):
        log_term = (
            math.lgamma(n + 1)
            - math.lgamma(j + 1)
            - math.lgamma(n - j + 1)
            + j * math.log(e)
            + (n - j) * math.log1p(-e)
        )
        total += math.exp(log_term)
    return min(total, 1.0)


# (v, n) pairs that are no counts: non-integral, or a bool read as 0 or 1
NON_COUNTS = [
    (1.5, 10), (1.0, 10), (2, 10.0), (True, 10), (0, True), (np.True_, 10), (np.float64(3.0), 10)
]


class TestBinomialCdf:
    def test_zero_rate_never_violates(self):
        for v, n in [(0, 10), (3, 10), (0, 1)]:
            assert binomial_cdf(v, n, 0.0) == 1.0

    def test_full_support(self):
        for e in (0.0, 0.3, 1.0):
            assert binomial_cdf(5, 5, e) == 1.0

    def test_direct_value(self):
        assert binomial_cdf(1, 2, 0.5) == pytest.approx(0.75, abs=1e-14)

    def test_matches_direct_sum_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 1000))
            v = int(rng.integers(0, n + 1))
            e = float(rng.random())
            assert binomial_cdf(v, n, e) == pytest.approx(
                direct_sum_cdf(v, n, e), rel=1e-10, abs=1e-13
            )

    def test_large_n_stability(self):
        value = binomial_cdf(100, 10_000_000, 2e-5)
        assert 0.0 <= value <= 1.0 and np.isfinite(value)

    def test_monotone_decreasing_in_rate(self):
        es = np.linspace(0.0, 1.0, 40)
        vals = [binomial_cdf(5, 50, e) for e in es]
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_cdf(5, 3, 0.5)
        with pytest.raises(ValueError):
            binomial_cdf(1, 3, 1.5)
        for v, n in NON_COUNTS:
            with pytest.raises(ValueError, match="integer count"):
                binomial_cdf(v, n, 0.5)

    def test_accepts_numpy_integers(self):
        assert binomial_cdf(np.int64(1), np.int32(2), 0.5) == binomial_cdf(1, 2, 0.5)


class TestTailInversion:
    def test_all_violations_gives_one(self):
        assert binomial_tail_inversion(7, 7, 0.5) == 1.0

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_tail_inversion(5, 3, 0.5)
        with pytest.raises(ValueError):
            binomial_tail_inversion(1, 3, 0.0)
        for v, n in NON_COUNTS:
            with pytest.raises(ValueError, match="integer count"):
                binomial_tail_inversion(v, n, 0.1)

    def test_accepts_numpy_integers(self):
        expected = binomial_tail_inversion(3, 100, 1e-6)
        assert binomial_tail_inversion(np.int64(3), np.int64(100), 1e-6) == expected

    def test_zero_violation_closed_form(self):
        for n, beta in [(1000, 1e-9), (100, 0.05), (500, 1e-6), (10, 0.2)]:
            closed = 1.0 - beta ** (1.0 / n)
            assert abs(binomial_tail_inversion(0, n, beta) - closed) < 1e-9

    def test_tightness_on_grid(self):
        for v, n, beta in [(5, 100, 0.05), (30, 1000, 1e-9), (1, 50, 0.01), (250, 900, 0.2)]:
            eps = binomial_tail_inversion(v, n, beta)
            assert direct_sum_cdf(v, n, eps) >= beta * (1.0 - 1e-7)
            assert direct_sum_cdf(v, n, eps + 1e-9) < beta

    def test_dominates_empirical_rate(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 800))
            v = int(rng.integers(0, n + 1))
            beta = float(rng.uniform(1e-9, 0.5))
            assert binomial_tail_inversion(v, n, beta) >= v / n

    def test_monotone_in_violations(self):
        values = [binomial_tail_inversion(v, 200, 1e-6) for v in range(0, 201, 10)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_in_samples(self):
        values = [binomial_tail_inversion(3, n, 1e-6) for n in (10, 30, 100, 300, 1000)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_monotone_in_confidence(self):
        values = [binomial_tail_inversion(5, 100, b) for b in (1e-9, 1e-6, 1e-3, 0.1, 0.9)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))

    def test_fixed_ratio_limit(self):
        # for v/n fixed the bound approaches the empirical rate as n grows
        eps = binomial_tail_inversion(10_000, 100_000, 1e-9)
        assert abs(eps - 0.1) < 0.01


class TestPacCertificate:
    def test_to_dict(self):
        cert = PacCertificate(violations=1, samples=3, beta=0.2, epsilon_star=0.9, steps=7)
        assert cert.to_dict() == {"v": 1, "N": 3, "beta": 0.2, "epsilon_star": 0.9, "k": 7}

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            PacCertificate(violations=5, samples=3, beta=0.1, epsilon_star=0.5)
        with pytest.raises(ValueError):
            PacCertificate(violations=1, samples=3, beta=1.5, epsilon_star=0.5)
        with pytest.raises(ValueError, match="steps"):
            PacCertificate(violations=1, samples=3, beta=0.1, epsilon_star=0.5, steps=0)
