"""Binomial tail bounds and holdout certificates.

The certificate attached to a candidate invariant set is a Clopper-Pearson
style upper confidence bound: out of N fresh test samples, v violated
containment, and `epsilon_star` is the largest violation probability whose
lower binomial tail at (v, N) still reaches the confidence level beta.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc, betaincinv


def _check_counts(v, n):
    """Raise ValueError unless 0 <= v <= n are Python or numpy integers; a
    bool is no count.  A type test, because `isinstance(v, numbers.Integral)`
    costs about a third of the incomplete beta function it guards."""
    for name, count in (("v", v), ("n", n)):
        if type(count) is not int and not isinstance(count, np.integer):
            raise ValueError(f"{name} must be an integer count, got {count!r}")
    if not 0 <= v <= n:
        raise ValueError(f"need 0 <= v <= n, got v={v}, n={n}")


def binomial_cdf(v: int, n: int, e: float) -> float:
    """Lower binomial tail P[X <= v] for X ~ Binomial(n, e).

    Evaluated through the regularized incomplete beta identity, which stays
    accurate for n up to 1e7 where the naive sum over binomial terms
    overflows.
    """
    _check_counts(v, n)
    if not 0.0 <= e <= 1.0:
        raise ValueError(f"violation probability must be in [0, 1], got {e}")
    if v == n or e == 0.0:
        return 1.0
    if e == 1.0:
        return 0.0
    return float(betainc(n - v, v + 1, 1.0 - e))


def binomial_tail_inversion(v: int, n: int, beta: float) -> float:
    """Largest e with binomial_cdf(v, n, e) >= beta.

    Closed form through the inverse regularized incomplete beta function,
    e = 1 - I^{-1}(n - v, v + 1; beta), stepped down one ulp (of e or of
    1 - e, whichever is larger) at a time while rounding leaves it
    infeasible.  The returned value is feasible while any e larger by 1e-9
    is not, so the bound is tight.
    """
    _check_counts(v, n)
    if not 0.0 < beta <= 1.0:
        raise ValueError(f"confidence level must be in (0, 1], got {beta}")
    if v == n:
        return 1.0
    e = 1.0 - float(betaincinv(n - v, v + 1, beta))
    while binomial_cdf(v, n, e) < beta:
        # binomial_cdf sees e through 1 - e, so step whichever moves further
        e = min(math.nextafter(e, 0.0), 1.0 - math.nextafter(1.0 - e, 1.0))
    return e


@dataclass(frozen=True)
class PacCertificate:
    """Holdout certificate: with confidence 1 - beta over the N test draws,
    the probability that one application of the map (k map steps in general)
    leaves the certified set is at most epsilon_star."""

    violations: int
    samples: int
    beta: float
    epsilon_star: float
    steps: int = 1

    def __post_init__(self):
        if not 0 <= self.violations <= self.samples:
            raise ValueError("violations must lie in [0, samples]")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must be in (0, 1]")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")

    def to_dict(self) -> dict:
        return {
            "v": int(self.violations),
            "N": int(self.samples),
            "beta": float(self.beta),
            "epsilon_star": float(self.epsilon_star),
            "k": int(self.steps),
        }
