"""Special-function kernel: central binomials, Legendre/Jacobi values at the
origin, the terminating Gauss hypergeometric sum, and the complete elliptic
integral K(k) by AGM iteration and by power series.

Polynomial values are exact (Legendre as ints 2^n P_n(0)); K(k) is a float.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction
from itertools import count, islice

_AGM_MAX_ITER = 64

# Largest term count of the K(k) power series.  The series loop is linear
# in the count; the cap keeps a typo in --terms from running for minutes.
MAX_SERIES_TERMS = 1_000_000


def central_binomial(n: int) -> int:
    """C(2n, n) exactly."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return math.comb(2 * n, n)


def legendre_p0(n: int) -> int:
    """The int 2^n P_n(0) (standard P_n): 0 for odd n, (-1)^m C(2m,m) for n = 2m."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n % 2 == 1:
        return 0
    m = n // 2
    return -math.comb(n, m) if m % 2 else math.comb(n, m)


def hyp2f1_terminating(a: int, b: Fraction, c: Fraction, z: Fraction) -> Fraction:
    """2F1(a,b;c;z) for a a nonpositive integer: the exact finite sum
    sum_{j=0}^{-a} (a)_j (b)_j / ((c)_j j!) z^j.

    Horner's rule over the term ratios (a+j)(b+j)z / ((c+j)(j+1)), from
    j = -a-1 down to 0, on one unreduced int numerator and denominator.
    Each term multiplies its small factors together first, then the
    denominator once by its product, and reuses that new denominator in the
    numerator: two big-int products per term.  The only gcd is in the
    Fraction built at the end.
    """
    if a > 0:
        raise ValueError("first parameter must be a nonpositive integer")
    b, c, z = Fraction(b), Fraction(c), Fraction(z)
    if c.denominator == 1 and c <= 0 and c >= a:
        raise ValueError(f"c={c} is a forbidden nonpositive integer for a={a}")
    bn, bd = b.numerator, b.denominator
    cn, cd = c.numerator, c.denominator
    # ratio_j = (a+j)(bn + j bd) zn cd / ((cn + j cd)(j+1) bd zd)
    top_const = z.numerator * cd
    bottom_const = bd * z.denominator
    num = den = 1
    for j in range(-a - 1, -1, -1):
        den *= (cn + j * cd) * (j + 1) * bottom_const
        num = num * ((a + j) * (bn + j * bd) * top_const) + den
    return Fraction(num, den)


def jacobi_p0(alpha: int, n: int) -> Fraction:
    """P_n^(alpha,0)(0) for alpha in {0, 1}, via the terminating 2F1 at 1/2
    with the gamma-ratio prefactor reduced to a binomial coefficient.
    """
    if alpha not in (0, 1):
        raise ValueError("alpha must be 0 or 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    prefactor = math.comb(n + alpha, n)
    return prefactor * hyp2f1_terminating(
        -n, Fraction(n + alpha + 1), Fraction(alpha + 1), Fraction(1, 2)
    )


def _check_modulus(k: float) -> None:
    if math.isnan(k):
        raise ValueError(f"modulus k must lie in [0, 1), got k={k}")
    if k < 0.0:
        raise ValueError(f"modulus k={k} is negative")
    if k >= 1.0:
        raise ValueError(f"K(k) diverges for k >= 1 (got k={k})")


def _check_terms(terms: int) -> None:
    if terms < 1:
        raise ValueError("terms must be at least 1")
    if terms > MAX_SERIES_TERMS:
        raise ValueError(f"terms {terms} is above the limit MAX_SERIES_TERMS = {MAX_SERIES_TERMS}")


def elliptic_k_agm(k: float) -> float:
    """K(k) = pi / (2 AGM(1, sqrt(1-k^2))) for 0 <= k < 1.

    Convention: K(k) = integral over [0, pi/2] of (1 - k^2 sin^2 t)^(-1/2) dt.

    The complement 1 - k^2 is taken by subtraction for k^2 <= 1/2, off by at
    most U / (1 - k^2) <= 2 U (U = 2^-53).  Above, it is taken as
    (1 - k)(1 + k): 1 - k is exact there and the product is off by at most
    2 U, where subtraction would lose |log2(1 - k^2)| bits near k = 1.
    """
    _check_modulus(k)
    return elliptic_k_from_complement(one_minus_square(k))


def one_minus_square(x: float) -> float:
    """1 - x^2 for 0 <= x < 1, within 2 U as elliptic_k_agm derives."""
    return 1.0 - x * x if x * x <= 0.5 else (1.0 - x) * (1.0 + x)


def elliptic_k_from_complement(one_minus_k_sq: float) -> float:
    """K(k) given 1-k^2 directly; avoids cancellation near k = 1."""
    if not 0.0 < one_minus_k_sq <= 1.0:  # NaN included
        raise ValueError(f"1-k^2 must lie in (0, 1], got {one_minus_k_sq}")
    a = 1.0
    b = math.sqrt(one_minus_k_sq)
    eps = math.ulp(1.0)
    for _ in range(_AGM_MAX_ITER):
        if abs(a - b) <= 4.0 * eps * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (2.0 * a)


def _series_terms(k: float) -> Iterator[float]:
    """The terms C(2n,n)^2 (k/4)^(2n), n = 0, 1, ..., of the series for K(k),
    each from the last by the ratio k^2 ((2n+1)/(2n+2))^2."""
    term = 1.0
    ksq = k * k
    for n in count():
        yield term
        term *= ksq * (2 * n + 1) ** 2 / (2 * n + 2) ** 2


def elliptic_k_series(k: float, terms: int) -> float:
    """Truncated series (pi/2) sum_{n<terms} C(2n,n)^2 (k/4)^(2n).

    Monotone increasing partial sums; the tail is bounded by the next term
    over 1-k^2 (see elliptic_k_series_tail).
    """
    _check_modulus(k)
    _check_terms(terms)
    return 0.5 * math.pi * math.fsum(islice(_series_terms(k), terms))


def elliptic_k_series_tail(k: float, terms: int) -> float:
    """Upper bound for K(k) minus the 'terms'-term partial sum.

    Term ratio is k^2 ((2n+1)/(2n+2))^2 < k^2, so the tail is dominated by a
    geometric series starting at term number 'terms'.
    """
    _check_modulus(k)
    _check_terms(terms)
    return 0.5 * math.pi * next(islice(_series_terms(k), terms, None)) / (1.0 - k * k)
