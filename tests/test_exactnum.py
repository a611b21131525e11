import math
import random
from fractions import Fraction

import pytest

from hadwalk.exactnum import DyadicRational, GaussianInteger


def dr(num, exp=0):
    return DyadicRational(num, exp)


def core(g):
    """A Gaussian integer as the ints (re, im)."""
    return g.re, g.im


class TestDyadicRational:
    def test_canonical_strips_twos(self):
        assert dr(4, 3) == dr(1, 1)
        assert dr(6, 1) == dr(3)
        assert dr(0, 9) == dr(0)

    def test_canonicalization_idempotent(self):
        rng = random.Random(11)
        for _ in range(300):
            num = rng.randrange(-(2**64), 2**64)
            exp = rng.randrange(0, 70)
            x = dr(num, exp)
            assert dr(x.numerator, x.denom_exp) == x

    def test_float_is_the_nearest_double(self):
        # exponents past 1023 too: subnormal results, results that underflow
        # to zero (2^-1075 is a tie, which goes to the even 0.0), negatives
        assert float(dr(1, 1074)) == 5e-324
        assert float(dr(3, 1076)) == 5e-324
        assert float(dr(-3, 1075)) == -1e-323
        assert repr(float(dr(1, 1075))) == "0.0"
        assert repr(float(dr(-1, 1076))) == "-0.0"
        rng = random.Random(17)
        values = [dr(rng.randrange(-(2**80), 2**80), rng.randrange(0, 1300)) for _ in range(500)]
        values += [dr(3**700, 1200), dr(-(3**700), 2150), dr(-(3**700), 2300)]
        for x in values:
            f, exact = float(x), Fraction(x.numerator, 1 << x.denom_exp)
            err = abs(Fraction(f) - exact)
            for neighbour in (math.nextafter(f, math.inf), math.nextafter(f, -math.inf)):
                assert err <= abs(Fraction(neighbour) - exact), x

    def test_string_round_trip(self):
        for x in (dr(9, 7), dr(-61, 9), dr(0), dr(1), dr(1225, 15)):
            assert DyadicRational.parse(str(x)) == x

    def test_decimal_string(self):
        assert dr(9, 7).to_decimal_string() == "0.0703125"
        assert dr(1225, 15).to_decimal_string() == "0.037384033203125"
        assert dr(-3, 1).to_decimal_string() == "-1.5"
        assert dr(5).to_decimal_string() == "5"

    def test_formatting_past_int_str_digit_limit(self):
        # 3^10001 has 4772 digits, past Python's default 4300-digit limit
        x = dr(-(3**10001), 9)
        assert DyadicRational.parse(str(x)) == x
        assert dr(10**5000 + 1).to_decimal_string() == "1" + "0" * 4999 + "1"

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            DyadicRational(1, -1)

    def test_from_fraction(self):
        assert DyadicRational.from_fraction(Fraction(9, 128)) == dr(9, 7)
        with pytest.raises(ValueError):
            DyadicRational.from_fraction(Fraction(1, 3))


class TestGaussianInteger:
    def test_i_squared(self):
        i = GaussianInteger(0, 1)
        assert core(i * i) == (-1, 0)

    def test_one_is_identity(self):
        x = GaussianInteger(-7, 12)
        assert core(GaussianInteger(1, 0) * x) == core(x)

    def test_hand_product(self):
        assert core(GaussianInteger(1, 1) * GaussianInteger(1, -1)) == (2, 0)

    def test_int_on_either_side(self):
        x = GaussianInteger(-7, 12)
        assert core(3 * x) == core(x * 3) == (-21, 36)
        assert core(2 + x) == core(x + 2) == (-5, 12)
        assert core(x - 2) == (-9, 12)

    def test_difference_subtracts_each_component(self):
        assert core(GaussianInteger(5, -3) - GaussianInteger(-2, 4)) == (7, -7)

    def test_ring_axioms_random(self):
        rng = random.Random(5)
        for _ in range(200):
            a, b, c = (
                GaussianInteger(rng.randrange(-50, 51), rng.randrange(-50, 51))
                for _ in range(3)
            )
            assert core(a * b) == core(b * a)
            assert core((a * b) * c) == core(a * (b * c))
            assert core(a * (b + c)) == core(a * b + a * c)
            assert core((a - b) + b) == core(a)

    def test_norm_multiplicative(self):
        rng = random.Random(3)
        for _ in range(200):
            a = GaussianInteger(rng.randrange(-99, 100), rng.randrange(-99, 100))
            b = GaussianInteger(rng.randrange(-99, 100), rng.randrange(-99, 100))
            assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()
            assert a.norm_sq() >= 0

