import math

import pytest

from hadwalk.exactnum import DyadicRational
from hadwalk.genfun import (
    MAX_TRUNCATION,
    gf_partial_sum,
    gf_point,
    gf_closed_form,
    p0_closed,
    p0_legendre,
    tail_bound,
    truncation_for,
)
from hadwalk.pathsum import return_probability_paths
from hadwalk.walk import return_probability_direct


class TestLegendrePair:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, DyadicRational(1)),
            (1, DyadicRational(1, 1)),
            (2, DyadicRational(1, 3)),
            (4, DyadicRational(9, 7)),
        ],
    )
    def test_values(self, n, expected):
        assert p0_legendre(n) == expected

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            p0_legendre(-1)


class TestClosedForm:
    @pytest.mark.parametrize(
        "m,expected",
        [
            (1, DyadicRational(1, 3)),
            (2, DyadicRational(9, 7)),
            (4, DyadicRational(1225, 15)),
        ],
    )
    def test_values(self, m, expected):
        assert p0_closed(m) == expected

    def test_below_hypothesis(self):
        with pytest.raises(ValueError):
            p0_closed(0)

    def test_pairing(self):
        for m in range(1, 51):
            assert p0_legendre(2 * m) == p0_legendre(2 * m + 1) == p0_closed(m)


class TestCrossRoutes:
    def test_three_way_equality(self):
        for n in range(1, 31):
            prop1 = p0_legendre(n)
            assert return_probability_direct(2 * n) == prop1
            assert return_probability_paths(n) == prop1


class TestPartialSum:
    def test_z_zero(self):
        assert gf_partial_sum(0.0, 0) == 1.0
        assert gf_partial_sum(0.0, 300) == 1.0

    def test_truncation_zero(self):
        assert gf_partial_sum(0.5, 0) == 1.0

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.7):
            with pytest.raises(ValueError):
                gf_partial_sum(bad, 10)


class TestGfIdentity:
    def test_z_zero_is_one(self):
        assert gf_closed_form(0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("z,n", [(0.5, 400), (0.7, 2000)])
    def test_matches_partial_sum(self, z, n):
        assert abs(gf_partial_sum(z, n) - gf_closed_form(z)) <= tail_bound(z, n) + 1e-10

    def test_domain(self):
        with pytest.raises(ValueError):
            gf_closed_form(1.0)


class TestTailBound:
    def test_z_zero(self):
        assert tail_bound(0.0, 10) == 0.0

    def test_monotone_in_truncation(self):
        for z in (0.3, 0.8):
            bounds = [tail_bound(z, n) for n in range(4, 120)]
            assert all(b <= a for a, b in zip(bounds, bounds[1:]))

    def test_tight_case(self):
        assert tail_bound(0.5, 100) < 1e-25

    def test_actually_bounds_the_tail(self):
        # compare against a much longer partial sum
        for z in (0.2, 0.5, 0.7):
            for n in (8, 20, 60):
                far = gf_partial_sum(z, n + 600)
                assert far - gf_partial_sum(z, n) <= tail_bound(z, n) + 1e-15

    def test_small_truncation_rejected(self):
        with pytest.raises(ValueError):
            tail_bound(0.5, 3)


class TestGfPoint:
    @pytest.mark.parametrize("z", [0.1, 0.3, 0.5, 0.7])
    def test_identity_holds_at_default_truncation(self, z):
        point = gf_point(z)
        assert point.tail_bound <= 1e-12
        assert point.abs_diff <= point.tail_bound + 1e-10

    def test_truncation_for_target(self):
        n = truncation_for(0.7, 1e-12)
        assert tail_bound(0.7, n) <= 1e-12
        assert n == 4 or tail_bound(0.7, n - 1) > 1e-12

    def test_explicit_truncation_below_bound_hypothesis(self):
        with pytest.raises(ValueError):
            gf_point(0.5, 2)


def legendre_partial_sum(z, truncation, probabilities):
    """The Legendre-route sum gf_partial_sum replaced: float(p_n(0)) z^n, fsum."""
    terms = []
    zn = 1.0
    for n in range(truncation + 1):
        if n % 2 == 0:
            terms.append(probabilities[n] * zn)
        zn *= z
    return math.fsum(terms)


def scanned_truncation(z, target):
    """The one-step scan truncation_for replaced."""
    n = 4
    while tail_bound(z, n) > target:
        n += 1
        if n > 100_000:
            raise ValueError(f"tail bound does not reach {target} at z={z}")
    return n


class TestPairingRecurrence:
    def test_partial_sum_equals_legendre_route(self):
        # float(p0_legendre(n // 2)) for every even n, built once and shared
        # by every z so the Legendre route's quadratic cost is paid once
        top = 4921
        probabilities = {n: float(p0_legendre(n // 2)) for n in range(0, top + 1, 2)}
        for z in (0.0, 0.3, 0.77, 0.98, 0.995):
            for n in [*range(61), 1221, top]:
                assert gf_partial_sum(z, n) == legendre_partial_sum(z, n, probabilities), (z, n)

    def test_exact_recurrence_matches_legendre(self):
        square = 1
        for m in range(1, 601):
            square = square * (4 * m - 2) ** 2 // m // m
            value = DyadicRational(square, 4 * m + 1)
            assert value == p0_legendre(2 * m) == p0_legendre(2 * m + 1), m

    def test_truncation_above_cap_rejected(self):
        with pytest.raises(ValueError, match="at most"):
            gf_partial_sum(0.5, MAX_TRUNCATION + 1)


class TestTruncationSolve:
    @pytest.mark.parametrize("z", [0.0, 0.1, 0.5, 0.7, 0.9, 0.98, 0.995, 0.999, 0.9999])
    def test_bisection_equals_scan(self, z):
        for target in (1e-3, 1e-8, 1e-12, 1e-15, 1e-20, 1e-40):
            try:
                want = scanned_truncation(z, target)
            except ValueError:
                with pytest.raises(ValueError, match="does not reach"):
                    truncation_for(z, target)
            else:
                assert truncation_for(z, target) == want, (z, target)

    def test_unreachable_target_raises(self):
        # the scan gives up past 100 000 here, so both must raise
        with pytest.raises(ValueError):
            scanned_truncation(0.9999, 1e-12)
        with pytest.raises(ValueError, match="does not reach"):
            truncation_for(0.9999, 1e-12)
