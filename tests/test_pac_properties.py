"""Property test of `binomial_tail_inversion` over n < 5000 and every beta.

The bound must be feasible with no slack, binomial_cdf(v, n, eps) >= beta,
and tight: eps + 1e-9 must be infeasible.  The tightness side is decided on
the smaller tail.  For beta near 1 the lower tail sits within one ulp of 1
over a band of e about 1e-6 wide, so there the check asks whether the upper
tail P[X > v] exceeds 1 - beta, which is exact in floating point for
beta >= 1/2.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import betainc

from invset.pac import binomial_cdf, binomial_tail_inversion


@st.composite
def tail_cases(draw):
    n = draw(st.integers(1, 4999))
    v = draw(st.integers(0, n))
    beta = draw(st.floats(1e-12, 1.0, exclude_max=True))
    return v, n, beta


def infeasible(v, n, e, beta):
    """binomial_cdf(v, n, e) < beta, evaluated on the smaller tail."""
    if beta <= 0.5:
        return binomial_cdf(v, n, e) < beta
    return float(betainc(v + 1, n - v, e)) > 1.0 - beta


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(tail_cases())
def test_inversion_is_feasible_and_tight(case):
    v, n, beta = case
    eps = binomial_tail_inversion(v, n, beta)
    assert binomial_cdf(v, n, eps) >= beta
    if eps + 1e-9 <= 1.0:
        assert infeasible(v, n, eps + 1e-9, beta)
