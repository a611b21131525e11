"""K(k) and Watson's G against mpmath at 30 digits.

mpmath is a test-only dependency.  Each tolerance is a first-order rounding
bound for the float evaluation, derived in the comments below; U = 2^-53 is
the unit roundoff.  mpmath's own error at 30 digits (about 1e-30) is far
below every bound.
"""

import math
import random

import mpmath
import pytest
from mpmath import mpf

from hadwalk import classical, specfun

U = 2.0**-53


@pytest.fixture(autouse=True)
def thirty_digits():
    with mpmath.workdps(30):
        yield


class CountingMath:
    """Stands in for specfun's `math` module and counts sqrt calls: one for
    sqrt(1 - k^2), then one per AGM iteration."""

    def __init__(self):
        self.sqrts = 0

    def __getattr__(self, name):
        return getattr(math, name)

    def sqrt(self, x):
        self.sqrts += 1
        return math.sqrt(x)


def agm_value_and_bound(monkeypatch, k):
    """elliptic_k_agm(k) and a bound on its relative error.

    s = fl(1 - fl(k k)) is the AGM's input; its relative error eps_s against
    1 - k^2 is measured exactly in mpmath.  After it:
    - b0 = sqrt(s) is off by eps_s / 2 + U.  M(a, b) is homogeneous of degree
      1 and increasing in both arguments, so a relative change of at most e
      in a or b changes M by at most e.
    - Each iteration rounds a' = (a + b) / 2 once (U) and b' = sqrt(a b)
      twice (U / 2 + U), so it moves M by at most 1.5 U; 2 U per iteration
      also covers the second-order terms.
    - The loop stops when |a - b| <= 4 ulp(1) a = 8 U a, and b <= M <= a, so
      the returned a is within 8 U of M.
    - fl(pi) / (2 a) adds 2 U: pi's rounding and the division's.
    """
    counter = CountingMath()
    with monkeypatch.context() as patch:
        patch.setattr(specfun, "math", counter)
        value = specfun.elliptic_k_agm(k)
    iterations = counter.sqrts - 1
    assert iterations < specfun._AGM_MAX_ITER  # converged, so the 8 U step holds
    m_comp = 1 - mpf(k) ** 2
    eps_s = float(abs(mpf(1.0 - k * k) - m_comp) / m_comp)
    return value, eps_s / 2 + U + 2 * U * iterations + 8 * U + 2 * U


def k_values():
    rng = random.Random(1729)
    ks = [0.0, 2.0**-30, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999, 0.9999]
    ks += [1 - 2.0**-j for j in range(2, 21)]
    ks += [rng.random() for _ in range(20)]
    return ks


@pytest.mark.parametrize("k", k_values())
def test_elliptic_k_agm_against_mpmath(monkeypatch, k):
    value, bound = agm_value_and_bound(monkeypatch, k)
    exact = mpmath.ellipk(mpf(k) ** 2)  # mpmath takes the parameter m = k^2
    assert abs(mpf(value) - exact) <= bound * exact


def test_watson_g_closed_against_mpmath_surd_form(monkeypatch):
    sqrt = mpmath.sqrt
    k0 = 2 * sqrt(3) + sqrt(6) - 2 * sqrt(2) - 3
    exact = (3 * (18 + 12 * sqrt(2) - 10 * sqrt(3) - 7 * sqrt(6))
             * mpmath.ellipk(k0**2) ** 2 * (2 / mpmath.pi) ** 2)

    s2, s3, s6 = classical.SQRT2, classical.SQRT3, classical.SQRT6
    # Each math.sqrt is correctly rounded (U relative), doubling is exact and
    # every other multiplication or addition rounds once (U relative).
    # Prefactor 3 (18 + 12 s2 - 10 s3 - 7 s6), summed left to right: each
    # c * s is off by 2 U c s, each partial sum by U |partial|.  The sum is
    # about 0.5 from terms near 17, so this cancellation dominates the bound.
    inner = 18.0 + 12.0 * s2 - 10.0 * s3 - 7.0 * s6
    partials = (18.0 + 12.0 * s2, 18.0 + 12.0 * s2 - 10.0 * s3, inner)
    inner_err = 2 * U * (12 * s2 + 10 * s3 + 7 * s6) + U * sum(map(abs, partials))
    prefactor_rel = inner_err / inner + U
    # Modulus 2 s3 + s6 - 2 s2 - 3: U per square root term and per partial
    # sum.  It moves K by |dK/dk| times that.
    k_float = classical.WATSON_MODULUS
    k_partials = (2 * s3 + s6, 2 * s3 + s6 - 2 * s2, k_float)
    k_err = U * (2 * s3 + s6 + 2 * s2) + U * sum(map(abs, k_partials))
    k_exact = mpf(k_float)
    dk = mpmath.diff(lambda k: mpmath.ellipk(k**2), k_exact)
    modulus_rel = float(abs(dk) * k_err / mpmath.ellipk(k_exact**2))
    _, agm_rel = agm_value_and_bound(monkeypatch, k_float)
    k_rel = modulus_rel + agm_rel
    # (2 / fl(pi))^2: pi, the division and the square give 2 (2 U) + U; then
    # three products, prefactor * K * K * (2/pi)^2, round once each.
    bound = prefactor_rel + 2 * k_rel + 5 * U + 3 * U

    value = classical.watson_g_closed()
    assert abs(mpf(value) - exact) <= bound * exact
