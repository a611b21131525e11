"""Closed forms for the return probability and the elliptic-integral
generating-function identity.

p_{2n}(0) equals half the sum of two squared Legendre values at the origin,
which collapses the generating function sum p_n(0) z^n to
(1+z^2)/pi * K(z^2) + 1/2.  The truncated series carries a rigorous tail
bound so the identity can be checked to a stated tolerance.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from collections import namedtuple
from collections.abc import Iterator

from .exactnum import DyadicRational
from .specfun import central_binomial, elliptic_k_from_complement, legendre_p0

# Largest truncation of the generating-function series.  The sum streams, so
# its time grows linearly with the truncation and one point's memory stays
# flat (a sweep buffers more; see gf_points):
# one point's sum took 0.006 / 0.04 / 0.25 / 0.9 s at N = 24 655 / 10^5 /
# 10^6 / 3*10^6 on one core of a 2-vCPU x86-64 host, and genfun --z 0.99999
# (N = 2 466 699) took 1.5 s, interpreter start included.
MAX_TRUNCATION = 3_000_000

#: Fraction bits P of the fixed-point carry c_m = floor(2^P C(2m,m) / 4^m) in
#: _even_return_probabilities.  At 160 bits no term up to MAX_TRUNCATION takes
#: the exact fallback; at 40 bits every term does.
_CARRY_BITS = 160

#: Largest time of p0_legendre and p0_closed, the same as classical.MAX_RW_TIME.
#: Building and printing the exact value takes time growing as about T^2:
#: return-prob --method prop1 or closed --format json took 1.1 s at
#: T = 5*10^5 and 3.8-4.1 s at 10^6 (301 144 bytes), and --format plain, which
#: adds the exact decimal expansion, 21 s at 10^6 (2.6 MB), on one core of a
#: 2-vCPU x86-64 host, interpreter start included.
MAX_P0_TIME = 1_000_000


def _check_p0_time(time: int) -> None:
    if time > MAX_P0_TIME:
        raise ValueError(f"time {time} is above the limit MAX_P0_TIME = {MAX_P0_TIME}")


def p0_legendre(n: int) -> DyadicRational:
    """Exact p_{2n}(0) = (1/2) [P_{n-1}(0)^2 + P_n(0)^2] = (4a^2 + b^2) / 2^(2n+1),
    with p_0(0) = 1, from the ints a = 2^(n-1) P_{n-1}(0) and b = 2^n P_n(0)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    _check_p0_time(2 * n)
    if n == 0:
        return DyadicRational(1)
    a, b = legendre_p0(n - 1), legendre_p0(n)
    return DyadicRational(4 * a * a + b * b, 2 * n + 1)


def p0_closed(m: int) -> DyadicRational:
    """Exact p_{4m}(0) = p_{4m+2}(0) = C(2m,m)^2 / 2^(4m+1), for m >= 1."""
    if m < 1:
        raise ValueError("the pairing closed form starts at m = 1")
    _check_p0_time(4 * m)
    return DyadicRational(central_binomial(m) ** 2, 4 * m + 1)


def _series(z: float, truncation: int, probabilities: Iterator[float]) -> float:
    """math.fsum of z^n p_n(0) over even n <= truncation, each p_n(0) the
    next float of `probabilities`; it reads none past the last even n.

    The powers z^n are the sequential products 1, z, z*z, ..., one rounding
    each, and math.fsum keeps the accumulation compensated.
    """
    powers = itertools.accumulate(itertools.repeat(z, truncation), operator.mul, initial=1.0)
    even_powers = itertools.islice(powers, 0, None, 2)
    return math.fsum(map(operator.mul, even_powers, probabilities))


def _even_return_probabilities() -> Iterator[float]:
    """p_0(0), p_2(0), p_4(0), ... without end, each exact probability
    rounded once to a float: float(p0_legendre(n // 2)), the float nearest
    the exact value; verify checks the Legendre route itself.

    The probabilities come from the pairing p_{4m} = p_{4m+2} =
    C(2m,m)^2 / 2^(4m+1) = x_m^2 / 2^(2P+1), with x_m = 2^P C(2m,m) / 4^m
    and P = _CARRY_BITS.

    x_m is carried in fixed point: c_0 = x_0 = 2^P and c_m = floor(c_{m-1}
    (2m-1) / (2m)).  Then c_m <= x_m < c_m + m for m >= 1, by induction from
    c_{m-1} <= x_{m-1} <= c_{m-1} + m - 1: with f = (2m-1)/(2m) < 1,
    x_m = x_{m-1} f, so c_m <= c_{m-1} f <= x_m <= c_{m-1} f + (m-1) f, and
    c_{m-1} f < c_m + 1 gives x_m < c_m + m.  So the exact p_{4m}(0) lies in
    [c^2, (c + m)^2) / 2^(2P+1), and (c + m)^2 = c^2 + (2c + m) m.

    Ziv's rounding test: if float(c^2) == float(c^2 + (2c + m) m), that float
    scaled by 2^-(2P+1) is the exact value rounded to nearest.  int-to-float
    conversion rounds correctly, rounding to nearest is monotone, so every
    real number between the two ends rounds to the same float, and scaling by
    a power of two is exact while the result stays normal (p >= 1/(8m) here).
    Otherwise the term falls back to the exact C(2m,m)^2 / 2^(4m+1), which
    int true division rounds once.  Either way the term, and so the sum, is
    bit-identical to the exact carry of C(2m,m)^2 (Ziv, ACM TOMS 17 (1991)
    410; Muller et al., Handbook of Floating-Point Arithmetic, 2nd ed. 2018).
    """
    yield 1.0
    yield 0.5
    bits = _CARRY_BITS
    c = 1 << bits
    for m in itertools.count(1):
        c = c * (2 * m - 1) // (2 * m)
        p = _rounded_pair_probability(c, m, bits)
        yield p  # p_{4m}(0)
        yield p  # p_{4m+2}(0)


def _rounded_pair_probability(c: int, m: int, bits: int) -> float:
    """p_{4m}(0) rounded to nearest, from the carry c = c_m at `bits` bits:
    Ziv's rounding test on [c^2, (c + m)^2) / 2^(2 bits + 1), else exact."""
    low = c * c
    p = float(low)
    if p == float(low + (2 * c + m) * m):
        return math.ldexp(p, -2 * bits - 1)
    return central_binomial(m) ** 2 / (1 << (4 * m + 1))


def gf_closed_form(z: float) -> float:
    """Closed form (1+z^2)/pi * K(z^2) + 1/2 of the generating function.

    K's complement 1 - z^4 is taken as the product (1 - z)(1 + z)(1 + z^2),
    which has no cancellation near z = 1, where 1 - z^4 by subtraction does.
    For small z its four roundings can lift the product to 1 + 2^-52; the
    true complement is at most 1, so clamping to 1 only moves it closer.
    """
    _check_z(z)
    one_minus_z4 = min(1.0, (1.0 - z) * (1.0 + z) * (1.0 + z * z))
    return (1.0 + z * z) / math.pi * elliptic_k_from_complement(one_minus_z4) + 0.5


def tail_bound(z: float, truncation: int) -> float:
    """Upper bound on sum_{n>N} p_n(0) z^n.

    Every omitted probability is at most 1/(pi floor(N/4)) (from
    C(2m,m)^2 <= 16^m/(pi m)), and the remaining powers of z sum
    geometrically.
    """
    _check_z(z)
    if truncation < 4:
        raise ValueError("tail bound needs truncation >= 4")
    if z == 0.0:
        return 0.0
    return z ** (truncation + 1) / ((1.0 - z) * max(1.0, math.pi * (truncation // 4)))


def truncation_for(z: float, target: float = 1e-12) -> int:
    """Smallest truncation (>= 4) whose tail bound is at or below target.

    tail_bound does not increase with the truncation, so bisection over
    [4, MAX_TRUNCATION] finds the same truncation as a scan from 4.
    """
    _check_z(z)
    if tail_bound(z, MAX_TRUNCATION) > target:
        raise ValueError(f"tail bound does not reach {target} at z={z}")
    return bisect.bisect_left(
        range(MAX_TRUNCATION + 1), True, lo=4, key=lambda n: tail_bound(z, n) <= target
    )


#: One comparison of the truncated series against the closed form: the int
#: truncation and five floats.  The field order is genfun --z's JSON key and
#: column order.
GfPoint = namedtuple("GfPoint", "z lhs_partial rhs_closed truncation tail_bound abs_diff")


def gf_point(z: float, truncation: int | None = None) -> GfPoint:
    """Evaluate both sides at z; default truncation pushes the tail below 1e-12."""
    if truncation is None:
        truncation = truncation_for(z)
    return gf_points([z], [truncation])[0]


def gf_points(zs: list[float], truncations: list[int]) -> list[GfPoint]:
    """Both sides at each z and its truncation N, the series summed from one
    stream of return probabilities run once to the largest N.

    Every point is checked before any sum is taken.  Every point reads a
    shared list of the stream's first terms, the second-largest point's
    N // 2 + 1 floats, then the stream past it, which only the largest point
    reaches.  So every point sums the same floats in the same order, in any
    order of points, and one point, whose list is empty, runs in flat memory.
    """
    if len(zs) != len(truncations):
        raise ValueError(f"len(zs) = {len(zs)} but len(truncations) = {len(truncations)}")
    for z, truncation in zip(zs, truncations):
        if truncation < 4:
            raise ValueError("truncation must be at least 4 for a valid tail bound")
        _check_z(z)
        if truncation > MAX_TRUNCATION:
            raise ValueError(f"truncation {truncation} is above the limit "
                             f"MAX_TRUNCATION = {MAX_TRUNCATION}")
    stream = _even_return_probabilities()
    shared_terms = sorted(truncations)[-2] // 2 + 1 if len(zs) > 1 else 0
    shared = list(itertools.islice(stream, shared_terms))
    sums = [_series(z, n, itertools.chain(shared, stream)) for z, n in zip(zs, truncations)]
    return list(map(_gf_point, zs, truncations, sums))


def _gf_point(z: float, truncation: int, lhs: float) -> GfPoint:
    rhs = gf_closed_form(z)
    return GfPoint(z, lhs, rhs, truncation, tail_bound(z, truncation), abs(lhs - rhs))


def _check_z(z: float) -> None:
    if not 0.0 <= z < 1.0:
        raise ValueError(f"z must lie in [0, 1), got {z}")
