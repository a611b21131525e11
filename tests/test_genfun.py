import json
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadwalk import genfun
from hadwalk.exactnum import DyadicRational
from hadwalk.genfun import (
    MAX_SWEEP_WORK,
    MAX_TRUNCATION,
    gf_point,
    gf_closed_form,
    p0_closed,
    p0_legendre,
    tail_bound,
    truncation_for,
)
from hadwalk.pathsum import return_probability_paths
from hadwalk.walk import return_probability_direct

from test_cli import child_env


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

    @pytest.mark.parametrize("n", [9999, 10000])
    def test_half_sum_of_squared_legendre_values(self, n):
        # P_k(0) = (-1)^(k/2) C(k, k/2) / 2^k for even k and 0 for odd k, as a
        # reduced Fraction; odd n makes P_n(0) the zero, even n P_{n-1}(0)
        def legendre(k):
            return Fraction((-1) ** (k // 2) * math.comb(k, k // 2), 2**k) if k % 2 == 0 else 0

        value = p0_legendre(n)
        assert Fraction(value.numerator, 2**value.denom_exp) == (
            legendre(n - 1) ** 2 + legendre(n) ** 2) / 2


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


def partial_sum(z, truncation):
    """The series genfun sums, at any truncation: gf_point's lhs_partial from
    N = 4, where gf_point's tail bound starts, and the same stream summed
    directly below it."""
    if truncation >= 4:
        return gf_point(z, truncation).lhs_partial
    return genfun._series(z, truncation, genfun._even_return_probabilities())


class TestPartialSum:
    def test_z_zero(self):
        assert partial_sum(0.0, 0) == 1.0
        assert partial_sum(0.0, 300) == 1.0

    def test_truncation_zero(self):
        assert partial_sum(0.5, 0) == 1.0

    def test_domain(self):
        for bad in (-0.1, 1.0, 1.7):
            with pytest.raises(ValueError, match="z must lie"):
                gf_point(bad, 10)


class TestGfIdentity:
    def test_z_zero_is_one(self):
        assert gf_closed_form(0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("z,n", [(0.5, 400), (0.7, 2000)])
    def test_matches_partial_sum(self, z, n):
        assert abs(gf_point(z, n).lhs_partial - gf_closed_form(z)) <= tail_bound(z, n) + 1e-10

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
                far = gf_point(z, n + 600).lhs_partial
                assert far - gf_point(z, n).lhs_partial <= tail_bound(z, n) + 1e-15

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
    """The Legendre-route sum the carried stream replaced: float(p_n(0)) z^n, fsum."""
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
        if n > MAX_TRUNCATION:
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
                assert partial_sum(z, n) == legendre_partial_sum(z, n, probabilities), (z, n)

    def test_exact_recurrence_matches_legendre(self):
        square = 1
        for m in range(1, 601):
            square = square * (4 * m - 2) ** 2 // m // m
            value = DyadicRational(square, 4 * m + 1)
            assert value == p0_legendre(2 * m) == p0_legendre(2 * m + 1), m

    def test_truncation_above_cap_rejected(self):
        with pytest.raises(ValueError, match=f"MAX_TRUNCATION = {MAX_TRUNCATION}$"):
            gf_point(0.5, MAX_TRUNCATION + 1)


def exact_carry_partial_sum(z, truncation):
    """The sum the fixed-point carry replaced: C(2m,m)^2 carried as an exact int,
    each probability rounded once by int true division."""
    terms = []
    zn = 1.0
    square = 1  # C(2m, m)^2 for m = n // 4
    prob = 1.0  # p_n(0) rounded once, for the current even n
    for n in range(truncation + 1):
        if n == 2:
            prob = 0.5
        elif n % 4 == 0 and n:
            m = n // 4
            # C(2m,m)^2 = C(2m-2,m-1)^2 (4m-2)^2 / m^2, and m^2 divides exactly
            square = square * (4 * m - 2) ** 2 // m // m
            prob = square / (1 << (4 * m + 1))  # int true division rounds once
        if n % 2 == 0:
            terms.append(prob * zn)
        zn *= z
    return math.fsum(terms)


GRID_TRUNCATIONS = [*range(61), *(n + k for n in (1221, 4921, 24_655) for k in range(4))]


def count_fallbacks(monkeypatch):
    """Count the exact fallbacks of the series' rounding test."""
    calls = []
    exact = genfun.central_binomial
    monkeypatch.setattr(genfun, "central_binomial", lambda m: calls.append(m) or exact(m))
    return calls


class TestZivCarry:
    @pytest.mark.parametrize("z", [0.0, 0.3, 0.77, 0.98, 0.995, 0.999, 0.9997])
    def test_bitwise_equal_to_exact_carry(self, monkeypatch, z):
        fallbacks = count_fallbacks(monkeypatch)
        for n in GRID_TRUNCATIONS:
            assert partial_sum(z, n).hex() == exact_carry_partial_sum(z, n).hex(), (z, n)
        assert fallbacks == []  # 160 carry bits: every term passes the rounding test

    @pytest.mark.parametrize("z", [0.3, 0.995])
    def test_forced_fallback_is_bitwise_equal(self, monkeypatch, z):
        # at 40 carry bits the interval [c^2, (c + m)^2) is at least 2^-39 of
        # c^2 wide, thousands of ulps, so its ends never round alike and every
        # term takes the exact value
        monkeypatch.setattr(genfun, "_CARRY_BITS", 40)
        fallbacks = count_fallbacks(monkeypatch)
        for n in [*range(61), 1221, 4921]:
            fallbacks.clear()
            assert partial_sum(z, n).hex() == exact_carry_partial_sum(z, n).hex(), (z, n)
            assert fallbacks == list(range(1, n // 4 + 1)), (z, n)

    @pytest.mark.parametrize("bits", [40, 160])
    def test_carry_brackets_the_true_value(self, monkeypatch, bits):
        # the rounding test's premise: c_m <= 2^P C(2m,m) / 4^m < c_m + m
        monkeypatch.setattr(genfun, "_CARRY_BITS", bits)
        seen = []
        rounded = genfun._rounded_pair_probability
        monkeypatch.setattr(genfun, "_rounded_pair_probability",
                            lambda c, m, b: seen.append((c, m)) or rounded(c, m, b))
        gf_point(0.5, 4003)
        assert [m for _, m in seen] == list(range(1, 1001))
        for c, m in seen:
            assert c << 2 * m <= math.comb(2 * m, m) << bits < (c + m) << 2 * m, m

    @settings(deadline=None, database=None, derandomize=True)
    @given(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 5000))
    def test_random_points_bitwise_equal(self, z, n):
        assert partial_sum(z, n).hex() == exact_carry_partial_sum(z, n).hex()

    def test_cap_runs_in_a_subprocess(self):
        # the cap's stated time is about 1 s; the timeout catches a slow host
        result = subprocess.run(
            [sys.executable, "-m", "hadwalk.cli", "--format", "json", "genfun", "--z", "0.5",
             "--truncate", str(MAX_TRUNCATION)],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["truncation"] == MAX_TRUNCATION
        assert doc["abs_diff"] <= doc["tail_bound"] + 1e-10


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
        # the scan gives up past MAX_TRUNCATION here, so both must raise
        with pytest.raises(ValueError):
            scanned_truncation(0.999999, 1e-12)
        with pytest.raises(ValueError, match="does not reach"):
            truncation_for(0.999999, 1e-12)


def default_truncations(zs):
    return [truncation_for(z) for z in zs]


#: (zs, truncations) for gf_points, each named by what it exercises.
SHARED_STREAM_CASES = {
    "one point": ([0.995], default_truncations([0.995])),
    "two equal N": ([0.3, 0.7], [400, 400]),
    "every N mod 4": ([0.6, 0.7, 0.8, 0.9, 0.2, 0.4, 0.5, 0.1],
                      [1001, 1002, 1003, 1004, 5, 6, 7, 8]),
    "increasing N": ([0.5, 0.9, 0.99, 0.995], default_truncations([0.5, 0.9, 0.99, 0.995])),
    "decreasing N": ([0.995, 0.99, 0.9, 0.5], default_truncations([0.995, 0.99, 0.9, 0.5])),
    "unsorted N": ([0.99, 0.5, 0.995, 0.0, 0.9], default_truncations([0.99, 0.5, 0.995, 0.0, 0.9])),
    "repeated z": ([0.98, 0.7, 0.98, 0.98], [*default_truncations([0.98, 0.7]), 1221, 4921]),
    "N = 4": ([0.5, 0.7, 0.9], [4, 4, 1221]),
    "explicit N": ([0.3, 0.995, 0.77, 0.999], [61, 24_655, 4921, 60]),
}


class TestSharedStream:
    @pytest.mark.parametrize("zs,truncations", SHARED_STREAM_CASES.values(),
                             ids=SHARED_STREAM_CASES.keys())
    def test_each_point_equals_gf_point(self, zs, truncations):
        points = genfun.gf_points(zs, truncations)
        assert len(points) == len(zs)
        for point, z, n in zip(points, zs, truncations):
            want = gf_point(z, n)
            assert type(point) is type(want)
            for field, got, expected in zip(want._fields, point, want):
                if field == "lhs_partial":
                    assert got.hex() == expected.hex(), (z, n)
                else:
                    assert (type(got), got) == (type(expected), expected), (field, z, n)

    def test_no_points(self):
        assert genfun.gf_points([], []) == []

    def test_none_is_the_default_truncation(self, monkeypatch):
        zs = [0.99, 0.5, 0.0, 0.9]
        explicit = genfun.gf_points(zs, default_truncations(zs))
        solved = []
        solve = genfun.truncation_for
        monkeypatch.setattr(genfun, "truncation_for", lambda z: solved.append(z) or solve(z))
        assert genfun.gf_points(zs, [None] * len(zs)) == explicit
        assert solved == zs  # each point's truncation is solved once
        solved.clear()
        points = genfun.gf_points(zs, [None, 40, None, None])
        assert solved == [0.99, 0.0, 0.9]
        assert [p.truncation for p in points] == [2454, 40, 4, 234]
        assert points == [gf_point(0.99), gf_point(0.5, 40), gf_point(0.0), gf_point(0.9)]

    @pytest.mark.parametrize("zs,truncations", [
        ([0.5, 0.7, 0.9], [1221, 4921, 24_655]),
        ([0.9, 0.7, 0.5], [24_655, 4921, 1221]),
        ([0.7, 0.9, 0.5, 0.7], [4921, 24_654, 1221, 4921]),
    ], ids=["increasing", "decreasing", "unsorted"])
    def test_stream_runs_once_to_the_largest_truncation(self, monkeypatch, zs, truncations):
        seen = []
        rounded = genfun._rounded_pair_probability
        monkeypatch.setattr(genfun, "_rounded_pair_probability",
                            lambda c, m, b: seen.append(m) or rounded(c, m, b))
        genfun.gf_points(zs, truncations)
        shared = list(seen)
        seen.clear()
        gf_point(zs[0], max(truncations))
        assert shared == seen == list(range(1, max(truncations) // 4 + 1))

    def test_one_point_buffers_nothing(self):
        # a single point, so genfun --z and gf_point, shares no terms: held
        # in a list, its 200 001 terms would take megabytes
        tracemalloc.start()
        try:
            genfun.gf_points([0.5], [400_000])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200_000, peak

    def test_buffer_holds_the_second_largest_point_only(self):
        # the largest point reads past the others without buffering: held in
        # the shared list, its 200 001 terms would take megabytes
        tracemalloc.start()
        try:
            genfun.gf_points([0.5, 0.6, 0.7], [400_000, 40, 400])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 200_000, peak

    @pytest.mark.parametrize("zs,truncations,message", [
        ([0.5, 0.6], [40, 3], "at least 4"),
        ([0.5, 1.0], [40, 40], "z must lie"),
        ([0.5, 0.6], [40, MAX_TRUNCATION + 1], "MAX_TRUNCATION"),
        ([0.5, 0.6], [40], r"len\(zs\) = 2 but len\(truncations\) = 1"),
        ([0.5], [40, 60], r"len\(zs\) = 1 but len\(truncations\) = 2"),
        # 34 points at N = 2 999 999 sum 1.02e8 terms, each point under its cap
        ([0.5] * 34, [MAX_TRUNCATION - 1] * 34,
         rf"sweep work sum N\+1 = 102000000 is above the limit MAX_SWEEP_WORK = {MAX_SWEEP_WORK}"),
        # above both caps, the per-point refusal comes first, as for one point
        ([0.5] * 17, [5_882_352] * 17, "truncation 5882352 is above the limit MAX_TRUNCATION"),
        # a None is solved before any check, so the bad z is named first
        ([0.5, 1.0], [3, None], "z must lie"),
    ])
    def test_bad_point_raises_before_any_sum(self, monkeypatch, zs, truncations, message):
        monkeypatch.setattr(genfun, "_series", None)  # any sum would raise TypeError
        with pytest.raises(ValueError, match=message):
            genfun.gf_points(zs, truncations)
