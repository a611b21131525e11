"""Exact arithmetic substrate: dyadic rationals and Gaussian integers.

Every probability produced by the Hadamard walk is an exact DyadicRational,
built from one (numerator, exponent) pair of ints, and every amplitude is a
Gaussian integer times a power of 1/sqrt(2).  The walk engines hold those
amplitudes as plain ints; GaussianInteger is left only for the products of
pathsum._symmetric_probability with G_ONE and G_I.
"""

from __future__ import annotations

from decimal import Decimal


def _digits(n: int) -> str:
    """Decimal digits of n, also past the interpreter's int-to-str limit
    (4300 digits by default), which exact values reach near time 4300."""
    return str(Decimal(n))


class DyadicRational:
    """numerator / 2^denom_exp, kept with the smallest possible exponent.
    It has no arithmetic: callers sum and compare (numerator, denom_exp)."""

    __slots__ = ("_num", "_exp")

    def __init__(self, numerator: int, denom_exp: int = 0) -> None:
        if denom_exp < 0:
            raise ValueError("denom_exp must be nonnegative")
        if numerator == 0:
            denom_exp = 0
        else:
            # strip every factor of two the exponent allows in one shift
            shift = min((numerator & -numerator).bit_length() - 1, denom_exp)
            numerator >>= shift
            denom_exp -= shift
        self._num = numerator
        self._exp = denom_exp

    @property
    def numerator(self) -> int:
        return self._num

    @property
    def denom_exp(self) -> int:
        return self._exp

    def to_decimal_string(self) -> str:
        """Exact terminating decimal expansion (n/2^k = n*5^k / 10^k)."""
        if self._exp == 0:
            return _digits(self._num)
        digits = self._num * 5**self._exp
        sign = "-" if digits < 0 else ""
        s = _digits(abs(digits)).rjust(self._exp + 1, "0")
        return f"{sign}{s[:-self._exp]}.{s[-self._exp:]}"

    def __str__(self) -> str:
        return f"{_digits(self._num)}/2^{self._exp}"

    def __repr__(self) -> str:
        return f"DyadicRational({self._num}, {self._exp})"

    # no command compares through ==; it stays for the tests, and for the
    # fault table in tests/test_faults.py, which patches it to show that no
    # verify row trusts it
    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            other = DyadicRational(other)
        if isinstance(other, DyadicRational):
            return self._num == other._num and self._exp == other._exp
        return NotImplemented

    def __float__(self) -> float:
        # int true division rounds once, correctly, also past 2^1024
        return self._num / (1 << self._exp)


class GaussianInteger:
    """Element of Z[i] with arbitrary-precision components; callers compare
    cores as (re, im)."""

    __slots__ = ("re", "im")

    def __init__(self, re: int, im: int = 0) -> None:
        self.re = re
        self.im = im

    def __repr__(self) -> str:
        return f"GaussianInteger({self.re}, {self.im})"

    # The five operators __add__, __radd__, __sub__, __mul__ and __rmul__
    # stay because perfbench's tracer counts them as exactnum.gauss_ops;
    # pathsum._symmetric_probability is their one caller.
    def __add__(self, other: GaussianInteger | int) -> GaussianInteger:
        if isinstance(other, int):
            other = GaussianInteger(other)
        if not isinstance(other, GaussianInteger):
            return NotImplemented
        return GaussianInteger(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other: GaussianInteger | int) -> GaussianInteger:
        if isinstance(other, int):
            other = GaussianInteger(other)
        return GaussianInteger(self.re - other.re, self.im - other.im)

    def __mul__(self, other: GaussianInteger | int) -> GaussianInteger:
        if isinstance(other, int):
            return GaussianInteger(self.re * other, self.im * other)
        if not isinstance(other, GaussianInteger):
            return NotImplemented
        return GaussianInteger(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def norm_sq(self) -> int:
        return self.re * self.re + self.im * self.im


G_ONE = GaussianInteger(1, 0)
G_I = GaussianInteger(0, 1)
