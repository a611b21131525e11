"""K(k), Watson's G, the generating function's closed form and the classical
walks' generating functions against mpmath at 30 digits, and the path-sum floats against mpmath at 200 bits.

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

from hadwalk import classical, genfun, pathsum, specfun

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


def with_agm_bound(monkeypatch, call):
    """call() and a bound on the relative error of the one K it computes,
    against K at the complement s = 1 - k^2 that reached the AGM, exactly:

    - b0 = sqrt(s) is off by U.  M(a, b) is homogeneous of degree 1 and
      increasing in both arguments, so a relative change of at most e in a
      or b changes M by at most e.
    - Each iteration rounds a' = (a + b) / 2 once (U) and b' = sqrt(a b)
      twice (U / 2 + U), so it moves M by at most 1.5 U; 2 U per iteration
      also covers the second-order terms.
    - The loop stops when |a - b| <= 4 ulp(1) a = 8 U a, and b <= M <= a, so
      the returned a is within 8 U of M.
    - fl(pi) / (2 a) adds 2 U: pi's rounding and the division's.

    A relative error eps_s of s itself moves b0, and so K, by eps_s / 2 more.
    """
    counter = CountingMath()
    with monkeypatch.context() as patch:
        patch.setattr(specfun, "math", counter)
        value = call()
    iterations = counter.sqrts - 1
    assert iterations < specfun._AGM_MAX_ITER  # converged, so the 8 U step holds
    return value, U + 2 * U * iterations + 8 * U + 2 * U


def agm_value_and_bound(monkeypatch, k):
    """elliptic_k_agm(k) and a bound on its relative error.  The AGM's input
    is s = fl(1 - fl(k k)) for k^2 <= 1/2 and fl(fl(1 - k) fl(1 + k)) above;
    its relative error eps_s against 1 - k^2 is measured exactly in mpmath."""
    value, agm_rel = with_agm_bound(monkeypatch, lambda: specfun.elliptic_k_agm(k))
    m_comp = 1 - mpf(k) ** 2
    s = 1.0 - k * k if k * k <= 0.5 else (1.0 - k) * (1.0 + k)
    eps_s = float(abs(mpf(s) - m_comp) / m_comp)
    return value, eps_s / 2 + agm_rel


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


def rw_gf_z_values():
    """z = 1 - 10^-e for e = 3..12, where 1 - z z by subtraction lost up to
    |log2(1 - z^2)| bits, and seeded z in [0, 1) and in [0.99, 1)."""
    rng = random.Random(1729)
    zs = [1 - 10.0**-e for e in range(3, 13)]
    return zs + [rng.random() for _ in range(10)] + [rng.uniform(0.99, 1.0) for _ in range(10)]


@pytest.mark.parametrize("z", rw_gf_z_values())
def test_rw_gf_1d_against_mpmath(z):
    """s = fl(fl(1 - z) fl(1 + z)) for z^2 > 1/2: 1 - z is exact there, and
    1 + z and the product round once each.  s = fl(1 - fl(z z)) below is off
    by U z^2 / (1 - z^2) + U = U / (1 - z^2).  So s is off by at most 2 U
    either way.  The square root halves that and rounds once,
    and so does the division: 3 U in all, to first order; 4 U is taken."""
    exact = 1 / mpmath.sqrt(1 - mpf(z) ** 2)
    assert abs(mpf(classical.rw_gf(1, z)) - exact) <= 4 * U * exact


@pytest.mark.parametrize("z", rw_gf_z_values())
def test_rw_gf_2d_against_mpmath(monkeypatch, z):
    """(2 / fl(pi)) K(z): K within agm_value_and_bound's bound; pi, the
    division and the product round once each, 3 U more."""
    _, k_rel = agm_value_and_bound(monkeypatch, z)
    exact = 2 / mpmath.pi * mpmath.ellipk(mpf(z) ** 2)
    assert abs(mpf(classical.rw_gf(2, z)) - exact) <= (k_rel + 3 * U) * exact


def test_watson_g_closed_against_mpmath_surd_form(monkeypatch):
    sqrt = mpmath.sqrt
    k0 = 2 * sqrt(3) + sqrt(6) - 2 * sqrt(2) - 3
    exact = (3 * (18 + 12 * sqrt(2) - 10 * sqrt(3) - 7 * sqrt(6))
             * mpmath.ellipk(k0**2) ** 2 * (2 / mpmath.pi) ** 2)

    s2, s3, s6 = classical.SQRT2, classical.SQRT3, classical.SQRT6
    # Each math.sqrt is correctly rounded (U relative), doubling is exact and
    # every other operation rounds once (U relative).  Both surds are taken
    # as reciprocals of sums of positive terms, so no sum cancels.
    # Prefactor 3 / (1 + s3/3 + s6/6), summed left to right: each s / c is
    # off by 2 U, each partial sum adds U of itself, the division U more.
    denom = 1.0 + s3 / 3.0 + s6 / 6.0
    denom_err = 2 * U * (s3 / 3 + s6 / 6) + U * (1.0 + s3 / 3.0 + denom)
    prefactor_rel = denom_err / denom + U
    # Modulus 1 / (3 + 2 s2 + 2 s3 + s6): U per square root term and per
    # partial sum, then U for the division.  It moves K by |dK/dk| times that.
    k_float = classical.WATSON_MODULUS
    k_partials = (3.0 + 2 * s2, 3.0 + 2 * s2 + 2 * s3, 3.0 + 2 * s2 + 2 * s3 + s6)
    k_denom_err = U * (2 * s2 + 2 * s3 + s6) + U * sum(k_partials)
    k_err = k_float * (k_denom_err / k_partials[-1] + U)
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


def unclamped_complement(z):
    return (1.0 - z) * (1.0 + z) * (1.0 + z * z)


def small_z_values():
    """Seeded z in [1e-8, 1e-4], where z^2 > U > z^4: there the roundings of
    1 - z, 1 + z, 1 + z z and the products can add up to 2 U, and the
    product rounds to 1 + 2^-52 for about 1 z in 16.  2.8367682571105613e-08
    is one such z."""
    rng = random.Random(1729)
    return [2.8367682571105613e-08] + [10 ** rng.uniform(-8, -4) for _ in range(24)]


def test_small_z_values_reach_a_complement_above_one():
    # so the clamp in gf_closed_form is exercised by the mpmath test below
    above = [z for z in small_z_values() if unclamped_complement(z) > 1.0]
    assert len(above) >= 2
    assert all(unclamped_complement(z) == 1 + 2 * U for z in above)


@pytest.mark.parametrize("z", [0.0, 0.1, 0.5, 0.7, 0.9, 0.98, 0.99, 0.999, 0.9999, 0.99999,
                               0.999999, 1 - 2.0**-30, 1 - 2.0**-52] + small_z_values())
def test_gf_closed_form_against_mpmath(monkeypatch, z):
    """(1 + z^2)/pi K(z^2) + 1/2, K at the modulus z^2, so at the complement
    1 - z^4.

    The complement s = fl(fl(fl(1 - z) fl(1 + z)) fl(1 + fl(z z))): 1 - z,
    1 + z, z z, 1 + z z and the two products each round once, and z z's
    error reaches 1 + z z scaled by z^2 / (1 + z^2) <= 1/2.  So s is off by
    at most 5.5 U relative, to first order; 6 U is taken, and K moves by half
    of it (with_agm_bound).  Where s rounds above 1, it is clamped to 1; the
    true 1 - z^4 is at most 1, so the clamp only shrinks s's error.  Subtracting z^4 from 1 instead would lose
    |log2(1 - z^4)| bits near z = 1: 2.6e-13 relative at z = 0.999999.
    The prefactor fl(1 + z z) / fl(pi) is off by 1.5 U + 2 U and its product
    with K by U more.  That product lies below the result, so its error is
    at most its relative error times the result; the + 1/2 adds U of it.
    """
    value, agm_rel = with_agm_bound(monkeypatch, lambda: genfun.gf_closed_form(z))
    bound = 6 * U / 2 + agm_rel + 1.5 * U + 2 * U + U + U
    zz = mpf(z)
    exact = (1 + zz**2) / mpmath.pi * mpmath.ellipk(zz**4) + mpf(1) / 2
    assert abs(mpf(value) - exact) <= bound * exact


@pytest.mark.parametrize("l,m", [(200, 1900), (120, 1950), (99, 1946), (100, 1946), (100, 1947)])
def test_path_sum_floats_against_mpmath(l, m):
    """Each float of to_complex within 2 ulp of core * 2^(-e/2), e = l + m - 1,
    wherever that value is a normal float.  The shapes put e past 2044, where
    2^(-e/2) is subnormal, and at 2044 to 2046 around that edge.  Past 2044
    the core is divided by 2^(e // 2) as an int, and for an odd e the
    quotient is multiplied by fl(2^-0.5); up to 2044 float(core) is
    multiplied by fl(2^(-e/2)).  Either way the quotient or float(core) is
    off by at most 1/sqrt2 ulp of the value once scaled, the factor
    (within 2^-54 of 2^-0.5, times a power of two) by at most 1/sqrt2 ulp,
    and the product rounds by 1/2 ulp: under 1.92 ulp in all."""
    vec = pathsum.path_sum_dp(pathsum.StepPair(l, m))
    normal = 0
    with mpmath.workprec(200):
        for core, got in zip(vec[:4], vec.to_complex()):
            exact = mpf(core) * mpmath.power(2, mpf(-vec.scale_exp) / 2)
            assert got.imag == 0
            if abs(exact) >= 2.0**-1022:
                normal += 1
                assert abs(mpf(got.real) - exact) <= 2 * math.ulp(float(exact)), core
    assert normal > 0
