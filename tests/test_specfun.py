import math
import random
from fractions import Fraction

import pytest
import scipy.special

from hadwalk.specfun import (
    MAX_SERIES_TERMS,
    central_binomial,
    elliptic_k_agm,
    elliptic_k_from_complement,
    elliptic_k_series,
    elliptic_k_series_tail,
    hyp2f1_terminating,
    jacobi_p0,
    legendre_p0,
)


def legendre_p0_recurrence(n_max):
    """Oracle: (n+1) P_{n+1}(x) = (2n+1) x P_n(x) - n P_{n-1}(x) at x = 0."""
    values = [Fraction(1), Fraction(0)]
    for n in range(1, n_max):
        values.append(-Fraction(n, n + 1) * values[n - 1])
    return values[: n_max + 1]


def hyp2f1_fraction_loop(a, b, c, z):
    """Oracle: the term-by-term Fraction loop that the Horner form replaced."""
    if a > 0:
        raise ValueError("first parameter must be a nonpositive integer")
    b, c, z = Fraction(b), Fraction(c), Fraction(z)
    if c.denominator == 1 and c <= 0 and c >= a:
        raise ValueError(f"c={c} is a forbidden nonpositive integer for a={a}")
    m = -a
    total = Fraction(0)
    term = Fraction(1)
    for j in range(m + 1):
        total += term
        if j == m:
            break
        term *= Fraction(a + j) * (b + j) * z / ((c + j) * (j + 1))
    return total


class TestCentralBinomial:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 2), (10, 184756)])
    def test_values(self, n, expected):
        assert central_binomial(n) == expected

    def test_factorial_ratio_oracle(self):
        for n in range(40):
            oracle = math.factorial(2 * n) // math.factorial(n) ** 2
            assert central_binomial(n) == oracle

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            central_binomial(-1)


class TestLegendreAtZero:
    # legendre_p0(n) is the int 2^n P_n(0)
    def test_small_values(self):
        assert Fraction(legendre_p0(0), 2**0) == 1
        assert Fraction(legendre_p0(1), 2**1) == 0
        assert Fraction(legendre_p0(2), 2**2) == Fraction(-1, 2)

    def test_against_recurrence(self):
        oracle = legendre_p0_recurrence(200)
        for n in range(201):
            assert Fraction(legendre_p0(n), 2**n) == oracle[n]

    def test_unsigned_square_identity(self):
        # squared values are central binomials over powers of two
        for m in range(60):
            assert abs(Fraction(legendre_p0(2 * m), 2 ** (2 * m))) == Fraction(
                central_binomial(m), 4**m)
            assert Fraction(legendre_p0(2 * m + 1), 2 ** (2 * m + 1)) == 0


class TestHyp2F1:
    def test_a_zero_is_one(self):
        assert hyp2f1_terminating(0, Fraction(7, 3), Fraction(-9, 2), Fraction(5)) == 1

    def test_alternating_sum_identity(self):
        # sum_g (-1)^(g-1)/g C(n-1,g-1)^2 equals 2F1(-(n-1), -(n-1); 2; -1)
        for n in range(1, 51):
            direct = sum(
                Fraction((-1) ** (g - 1) * math.comb(n - 1, g - 1) ** 2, g)
                for g in range(1, n + 1)
            )
            assert hyp2f1_terminating(
                -(n - 1), Fraction(-(n - 1)), Fraction(2), Fraction(-1)
            ) == direct

    def test_pfaff_transformation(self):
        rng = random.Random(2024)
        count = 0
        while count < 100:
            m = rng.randrange(0, 8)
            b = Fraction(rng.randrange(-12, 13), rng.randrange(1, 7))
            c = Fraction(rng.randrange(1, 13), rng.randrange(1, 7))
            z = Fraction(rng.randrange(-8, 9), rng.randrange(2, 9))
            if z == 1 or (c.denominator == 1 and c <= 0):
                continue
            lhs = hyp2f1_terminating(-m, b, c, z)
            rhs = (1 - z) ** m * hyp2f1_terminating(-m, c - b, c, z / (z - 1))
            assert lhs == rhs, (m, b, c, z)
            count += 1

    def test_forbidden_c(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(-4, Fraction(1), Fraction(-2), Fraction(1, 2))

    def test_positive_a_rejected(self):
        with pytest.raises(ValueError):
            hyp2f1_terminating(1, Fraction(1), Fraction(2), Fraction(1, 2))


    def test_horner_equals_fraction_loop(self):
        rng = random.Random(7101)
        kinds = dict.fromkeys(("early_end", "negative_z", "non_integer_c"), 0)
        count = 0
        while count < 2000:
            m = rng.randrange(0, 31)
            if rng.random() < 0.2:
                b = Fraction(-rng.randrange(0, m + 1))  # the series ends at j = -b
            else:
                b = Fraction(rng.randrange(-60, 61), rng.randrange(1, 8))
            c = Fraction(rng.randrange(-60, 61), rng.randrange(1, 8))
            z = Fraction(rng.randrange(-30, 31), rng.randrange(1, 8))
            if c.denominator == 1 and -m <= c <= 0:
                continue
            assert hyp2f1_terminating(-m, b, c, z) == hyp2f1_fraction_loop(-m, b, c, z), (
                m, b, c, z)
            kinds["early_end"] += b.denominator == 1 and -m < b <= 0
            kinds["negative_z"] += z < 0
            kinds["non_integer_c"] += c.denominator != 1
            count += 1
        assert min(kinds.values()) >= 200, kinds

    @pytest.mark.parametrize("a,b,c,z", [
        # jacobi_p0(alpha, n), as verify's recurrence row reaches it (n <= 201)
        *(pytest.param(-n, Fraction(n + alpha + 1), Fraction(alpha + 1), Fraction(1, 2),
                       id=f"jacobi-alpha{alpha}-n{n}")
          for alpha in (0, 1) for n in (31, 64, 100, 200, 201)),
        # the two 2F1 forms of verify's hypergeometric chain (n <= 50)
        *(pytest.param(-(n - 1), Fraction(-(n - 1)), Fraction(2), Fraction(-1),
                       id=f"chain-z-minus-1-n{n}") for n in (1, 2, 25, 50)),
        *(pytest.param(-(n - 1), Fraction(n + 1), Fraction(2), Fraction(1, 2),
                       id=f"chain-z-half-n{n}") for n in (1, 2, 25, 50)),
    ])
    def test_horner_equals_fraction_loop_at_verify_sizes(self, a, b, c, z):
        assert hyp2f1_terminating(a, b, c, z) == hyp2f1_fraction_loop(a, b, c, z)

    def test_result_is_reduced_fraction(self):
        got = hyp2f1_terminating(-6, Fraction(5, 3), Fraction(7, 2), Fraction(-4, 5))
        assert isinstance(got, Fraction)
        assert math.gcd(got.numerator, got.denominator) == 1 and got.denominator > 0

    @pytest.mark.parametrize("a,b,c,z", [
        (-4, Fraction(1), Fraction(-2), Fraction(1, 2)),
        (-4, Fraction(1), Fraction(0), Fraction(1, 2)),
        (-4, Fraction(3, 2), Fraction(-4), Fraction(-3)),
        (1, Fraction(1), Fraction(2), Fraction(1, 2)),
        (3, Fraction(-1), Fraction(5, 2), Fraction(2)),
    ])
    def test_same_errors_as_fraction_loop(self, a, b, c, z):
        with pytest.raises(ValueError) as reference:
            hyp2f1_fraction_loop(a, b, c, z)
        with pytest.raises(type(reference.value)):
            hyp2f1_terminating(a, b, c, z)


class TestJacobiAtZero:
    def test_degree_zero(self):
        assert jacobi_p0(0, 0) == 1
        assert jacobi_p0(1, 0) == 1

    def test_alpha_zero_is_legendre(self):
        for n in range(401):
            assert jacobi_p0(0, n) == Fraction(legendre_p0(n), 2**n)

    def test_downward_recurrence(self):
        # P^(0,0)_n(0) - P^(0,0)_{n+1}(0) = P^(1,0)_n(0)
        for n in range(200):
            assert jacobi_p0(0, n) - jacobi_p0(0, n + 1) == jacobi_p0(1, n)

    def test_alpha_rejected(self):
        with pytest.raises(ValueError):
            jacobi_p0(2, 3)


class TestEllipticK:
    def test_k_zero(self):
        assert elliptic_k_agm(0.0) == pytest.approx(math.pi / 2, abs=1e-15)
        assert elliptic_k_series(0.0, 1) == pytest.approx(math.pi / 2, abs=1e-15)

    def test_agm_vs_series_mid(self):
        k = 0.5
        n = 60
        tail = elliptic_k_series_tail(k, n)
        assert abs(elliptic_k_agm(k) - elliptic_k_series(k, n)) <= tail + 1e-13

    def test_agm_vs_series_high_modulus(self):
        assert abs(elliptic_k_agm(0.9) - elliptic_k_series(0.9, 2000)) < 1e-10

    def test_series_monotone_in_terms(self):
        vals = [elliptic_k_series(0.7, n) for n in range(1, 40)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_tail_bound_is_a_bound(self):
        for k in (0.3, 0.6, 0.9):
            for n in (5, 20, 80):
                short = elliptic_k_series(k, n)
                long = elliptic_k_series(k, n + 400)
                assert long - short <= elliptic_k_series_tail(k, n)

    @pytest.mark.parametrize("bad", [-0.1, 1.0, 1.5, math.nan, math.inf, -math.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(ValueError):
            elliptic_k_agm(bad)
        with pytest.raises(ValueError):
            elliptic_k_series(bad, 10)

    def test_against_scipy(self):
        for k in (0.0, 0.1, 0.5, 0.85, 0.99):
            assert elliptic_k_agm(k) == pytest.approx(
                scipy.special.ellipk(k * k), rel=1e-14
            )

    @pytest.mark.parametrize("bad", [0.0, -0.5, 1.5, math.nan])
    def test_complement_domain_errors(self, bad):
        with pytest.raises(ValueError):
            elliptic_k_from_complement(bad)

    def test_series_terms_cap(self):
        for fn in (elliptic_k_series, elliptic_k_series_tail):
            with pytest.raises(ValueError, match=f"MAX_SERIES_TERMS = {MAX_SERIES_TERMS}$"):
                fn(0.5, MAX_SERIES_TERMS + 1)

    def test_complement_form_matches(self):
        for k in (0.2, 0.6, 0.95):
            assert elliptic_k_from_complement(1 - k * k) == pytest.approx(
                elliptic_k_agm(k), rel=1e-15
            )
