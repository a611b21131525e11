import itertools
import math
import random

import numpy as np
import pytest

from hadwalk import pathsum
from hadwalk.exactnum import DyadicRational
from hadwalk.pathsum import (
    PQRSVector,
    StepPair,
    path_sum_closed,
    path_sum_dp,
    path_sum_grid,
    return_probability_paths,
)
from hadwalk.walk import HADAMARD_CORES, CoinMatrix, QubitState, WaveFunction, distribution

#: the Hadamard coin in floats
HADAMARD = CoinMatrix(*(core * 2**-0.5 for core in HADAMARD_CORES))


# -- exact 2x2 matrices, used as the literal-product oracle.  A value is an
# integer matrix (a, b, c, d) = [[a, b], [c, d]] with one exponent e, standing
# for (1/sqrt2)^e times it.  The Hadamard P, Q, R, S below are (1/sqrt2) times
# these integer matrices, so a product of n of them has exponent n.

HP = (1, 1, 0, 0)
HQ = (0, 0, 1, -1)
HR = (1, -1, 0, 0)
HS = (0, 0, 1, 1)


def matmul(x, y):
    xa, xb, xc, xd = x
    ya, yb, yc, yd = y
    return (
        xa * ya + xb * yc,
        xa * yb + xb * yd,
        xc * ya + xd * yc,
        xc * yb + xd * yd,
    )


def matadd(x, y):
    return tuple(u + v for u, v in zip(x, y))


def equal_values(x, y):
    """Whether two (integer matrix, exponent) values are equal.  The one with
    the smaller exponent is lifted by whole powers of 2; across an odd gap the
    values differ by a factor sqrt2 times a rational, so they are equal only
    when both are zero."""
    (mx, ex), (my, ey) = sorted((x, y), key=lambda value: value[1])
    gap = ey - ex
    if gap % 2:
        return not any(mx) and not any(my)
    return all((u << (gap // 2)) == v for u, v in zip(mx, my))


def exact_vec_matrix(vec: PQRSVector):
    """p P + q Q + r R + s S for an exact vector: its int cores times the
    integer matrices, at exponent scale_exp + 1."""
    out = (0, 0, 0, 0)
    for core, base in zip((vec.p, vec.q, vec.r, vec.s), (HP, HQ, HR, HS)):
        out = matadd(out, tuple(core * e for e in base))
    return out, vec.scale_exp + 1


def literal_ordering_sum_exact(l, m):
    """Sum of all ordered products of l copies of P and m copies of Q."""
    n = l + m
    total = None
    for p_slots in itertools.combinations(range(n), l):
        prod = None
        for slot in range(n):
            factor = HP if slot in p_slots else HQ
            prod = factor if prod is None else matmul(prod, factor)
        total = prod if total is None else matadd(total, prod)
    return total, n


def float_basis(coin):
    """P, Q, R, S of a coin as float matrices, built from its entries."""
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    return (
        np.array([[a, b], [0, 0]], complex),
        np.array([[0, 0], [c, d]], complex),
        np.array([[c, d], [0, 0]], complex),
        np.array([[0, 0], [a, b]], complex),
    )


def literal_ordering_sum_float(l, m, coin):
    pm, qm, _, _ = float_basis(coin)
    n = l + m
    total = np.zeros((2, 2), complex)
    for p_slots in itertools.combinations(range(n), l):
        prod = np.eye(2, dtype=complex)
        for slot in range(n):
            prod = prod @ (pm if slot in p_slots else qm)
        total += prod
    return total


class TestPathSumDp:
    def test_two_step_crossing(self):
        # two crossing steps: QP + PQ
        got = exact_vec_matrix(path_sum_dp(StepPair(1, 1)))
        literal = matadd(matmul(HQ, HP), matmul(HP, HQ)), 2
        assert equal_values(got, literal)

    def test_all_left_boundary(self):
        # all-left path: a^2 P, with a = 1/sqrt2
        vec = path_sum_dp(StepPair(3, 0))
        assert vec == PQRSVector(1, 0, 0, 0, 2)
        assert vec.to_complex()[0] == pytest.approx(HADAMARD.a**2)

    def test_no_paths_of_length_zero(self):
        with pytest.raises(ValueError):
            path_sum_dp(StepPair(0, 0))

    @pytest.mark.parametrize("l,m", [(0, 3), (1, 2), (2, 2), (3, 3), (4, 2), (5, 0)])
    def test_exhaustive_ordering_sum_exact(self, l, m):
        got = exact_vec_matrix(path_sum_dp(StepPair(l, m)))
        assert equal_values(got, literal_ordering_sum_exact(l, m))

    def test_exhaustive_ordering_sum_all_pairs(self):
        for n in range(1, 13):
            for l in range(n + 1):
                got = exact_vec_matrix(path_sum_dp(StepPair(l, n - l)))
                assert equal_values(got, literal_ordering_sum_exact(l, n - l)), (l, n - l)

    def test_exhaustive_ordering_sum_float_n12(self):
        # the exact cores, read out as floats, against float matrix products
        bases = float_basis(HADAMARD)
        for l in range(13):
            m = 12 - l
            coeffs = path_sum_dp(StepPair(l, m)).to_complex()
            got = sum(c * base for c, base in zip(coeffs, bases))
            literal = literal_ordering_sum_float(l, m, HADAMARD)
            assert np.abs(got - literal).max() < 1e-11, (l, m)

    def test_append_step_recursion_agrees(self):
        # independent recursion S(l,m) = S(l-1,m) P + S(l,m-1) Q on literal
        # integer matrices, each for l + m steps at exponent l + m
        n_max = 40
        grid = {(1, 0): HP, (0, 1): HQ}
        for n in range(2, n_max + 1):
            for l in range(n + 1):
                m = n - l
                total = (0, 0, 0, 0)
                if l >= 1:
                    total = matadd(total, matmul(grid[(l - 1, m)], HP))
                if m >= 1:
                    total = matadd(total, matmul(grid[(l, m - 1)], HQ))
                grid[(l, m)] = total
        for l in range(0, n_max + 1, 5):
            for m in range(0, n_max + 1 - l, 7):
                if l + m < 1:
                    continue
                got = exact_vec_matrix(path_sum_dp(StepPair(l, m)))
                assert got == (grid[(l, m)], l + m), (l, m)

    def test_r_equals_s_for_hadamard(self):
        for l in range(1, 13):
            for m in range(1, 13):
                vec = path_sum_dp(StepPair(l, m))
                assert vec.r == vec.s


class TestPathSumClosed:
    @pytest.mark.parametrize("l,m", [(1, 1), (2, 2), (5, 5), (3, 7), (9, 4)])
    def test_matches_dp(self, l, m):
        assert path_sum_closed(StepPair(l, m)) == path_sum_dp(StepPair(l, m))

    def test_four_step_closed_form(self):
        # Eq-style coefficients at a=b=c=-d=1/sqrt2: (-1, 1, 0, 0)/sqrt2^3
        assert path_sum_closed(StepPair(2, 2)) == PQRSVector(-1, 1, 0, 0, 3)

    def test_out_of_hypothesis(self):
        with pytest.raises(ValueError):
            path_sum_closed(StepPair(3, 0))
        with pytest.raises(ValueError):
            path_sum_closed(StepPair(0, 5))

    def test_grid_against_dp(self):
        for l in range(1, 11):
            for m in range(1, 11):
                assert path_sum_closed(StepPair(l, m)) == path_sum_dp(StepPair(l, m))


def closed_by_comb(l, m):
    """Oracle: the three alternating binomial sums with math.comb per term."""
    p = sum(
        (-1) ** (m - g) * math.comb(l - 1, g) * math.comb(m - 1, g - 1)
        for g in range(1, min(l - 1, m) + 1)
    )
    q = sum(
        (-1) ** (m - g - 1) * math.comb(l - 1, g - 1) * math.comb(m - 1, g)
        for g in range(1, min(l, m - 1) + 1)
    )
    r = sum(
        (-1) ** (m - g) * math.comb(l - 1, g - 1) * math.comb(m - 1, g - 1)
        for g in range(1, min(l, m) + 1)
    )
    return p, q, r, r


class TestClosedFormRecurrence:
    def test_matches_comb_sums_on_grid(self):
        pairs = [(l, m) for l in range(1, 21) for m in range(1, 21)]
        pairs += [(1, 64), (64, 1), (2, 63), (63, 2), (40, 97), (97, 40), (304, 304)]
        for l, m in pairs:
            vec = path_sum_closed(StepPair(l, m))
            cores = (vec.p, vec.q, vec.r, vec.s)
            assert cores == closed_by_comb(l, m), (l, m)
            assert all(type(x) is int for x in cores), (l, m)
            assert vec.scale_exp == l + m - 1, (l, m)


class TestReturnProbability:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (1, DyadicRational(1, 1)),
            (6, DyadicRational(25, 9)),
            (9, DyadicRational(1225, 15)),
        ],
    )
    def test_values(self, n, expected):
        assert return_probability_paths(n) == expected

    def test_consistency_with_evolution(self):
        # the DP's probability at every endpoint -l + m against the exact walk
        psi = WaveFunction.point_mass(QubitState.symmetric())
        for n in range(1, 13):
            psi = psi.step()
            want = [(x, p.numerator, p.denom_exp) for x, p in distribution(psi).probs.items()]
            got = []
            for l in range(n, -1, -1):
                p = pathsum._symmetric_probability(path_sum_dp(StepPair(l, n - l)))
                got.append((n - 2 * l, p.numerator, p.denom_exp))
            assert got == want, n
            top = max(e for _, _, e in got)
            assert sum(num << (top - e) for _, num, e in got) == 1 << top, n


class TestStepPair:
    def test_derived_quantities(self):
        steps = StepPair(3, 5)
        assert steps.time == 8
        assert repr(steps) == "StepPair(l=3, m=5)"
        assert steps._replace(m=1) == StepPair(3, 1) == StepPair._make((3, 1))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StepPair(-1, 2)

    @pytest.mark.parametrize("build", [
        lambda: StepPair(2, -1),
        lambda: StepPair(l=0, m=-1),
        lambda: StepPair._make((-1, 2)),
        lambda: StepPair._make([2, -1]),
        lambda: StepPair(3, 5)._replace(l=-1),
        lambda: StepPair(3, 5)._replace(m=-1),
    ], ids=["positional-m", "keyword-m", "make-l", "make-m", "replace-l", "replace-m"])
    def test_every_construction_path_refuses_a_negative_count(self, build):
        with pytest.raises(ValueError, match="step counts must be nonnegative"):
            build()


class TestPQRSVector:
    def test_scale_exponent_defaults_to_zero(self):
        vec = PQRSVector(1, 2, 3, 4)
        assert vec.scale_exp == 0
        assert vec == PQRSVector(1, 2, 3, 4, 0) != PQRSVector(1, 2, 3, 4, 2)
        assert repr(vec) == "PQRSVector(p=1, q=2, r=3, s=4, scale_exp=0)"
        assert vec.to_complex() == (1, 2, 3, 4)


class TestLargeArguments:
    def test_deep_return_probability_agreement(self):
        from hadwalk import genfun
        from hadwalk.walk import return_probability_direct

        for n in (150, 200):
            direct = return_probability_direct(2 * n)
            assert return_probability_paths(n) == direct
            assert genfun.p0_legendre(n) == direct
            assert genfun.p0_closed(n // 2) == direct

    def test_closed_form_far_from_diagonal(self):
        grid = path_sum_grid(StepPair(60, 45))
        for lm in ((60, 45), (37, 41), (60, 1), (1, 45)):
            assert path_sum_closed(StepPair(*lm)) == grid[lm], lm


def dict_grid_reference(steps):
    """Oracle: the (i, j) dict grid S(i, j) = P S(i-1, j) + Q S(i, j-1) of
    literal integer matrices, each for i + j steps at exponent i + j.  At
    equal exponents equal matrices pin equal cores, as P, Q, R, S are a
    basis."""
    grid = {(1, 0): HP, (0, 1): HQ}
    for i in range(steps.l + 1):
        for j in range(steps.m + 1):
            if i + j < 2:
                continue
            total = (0, 0, 0, 0)
            if i >= 1:
                total = matadd(total, matmul(HP, grid[(i - 1, j)]))
            if j >= 1:
                total = matadd(total, matmul(HQ, grid[(i, j - 1)]))
            grid[(i, j)] = total
    return grid


class TestRollingRowDp:
    def test_hadamard_cores_identical_to_dict_grid(self):
        reference = dict_grid_reference(StepPair(25, 25))
        grid = path_sum_grid(StepPair(25, 25))
        assert grid.keys() == reference.keys()
        for (l, m), matrix in reference.items():
            # identical cores and exponent, not merely the same value
            assert exact_vec_matrix(grid[(l, m)]) == (matrix, l + m), (l, m)
            assert exact_vec_matrix(path_sum_dp(StepPair(l, m))) == (matrix, l + m), (l, m)

    def test_prepend_matches_literal_products(self):
        # _prepend(u, v) is P U + Q V one exponent up: both sides of the
        # comparison are integer matrices at exponent 2
        rng = random.Random(505)
        for _ in range(50):
            u, v = (tuple(rng.randrange(-10**6, 10**6) for _ in range(4)) for _ in range(2))
            for up, left in ((u, (0,) * 4), ((0,) * 4, v), (u, v)):
                got, _ = exact_vec_matrix(PQRSVector(*pathsum._prepend(up, left, HADAMARD_CORES)))
                want = matadd(matmul(HP, exact_vec_matrix(PQRSVector(*up))[0]),
                              matmul(HQ, exact_vec_matrix(PQRSVector(*left))[0]))
                assert got == want

    def test_dp_independent_of_closed_form(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the DP route called the closed-form route")

        want = path_sum_closed(StepPair(11, 13))
        monkeypatch.setattr(pathsum, "path_sum_closed", forbidden)
        assert path_sum_dp(StepPair(11, 13)) == want
        assert path_sum_grid(StepPair(11, 13))[(11, 13)] == want


class TestDpSizeCap:
    def test_refused_above_the_cap(self):
        cap = pathsum.MAX_DP_CELLS
        side = math.isqrt(cap)
        for steps in (StepPair(side, side), StepPair(cap, 0), StepPair(0, cap)):
            for fn in (path_sum_dp, path_sum_grid):
                with pytest.raises(ValueError, match=f"MAX_DP_CELLS = {cap}"):
                    fn(steps)

    def test_boundary(self, monkeypatch):
        monkeypatch.setattr(pathsum, "MAX_DP_CELLS", 12)
        want = dict_grid_reference(StepPair(2, 3))[(2, 3)], 5
        assert exact_vec_matrix(path_sum_dp(StepPair(2, 3))) == want
        assert len(path_sum_grid(StepPair(3, 2))) == 11
        for fn in (path_sum_dp, path_sum_grid):
            with pytest.raises(ValueError, match="13 cells"):
                fn(StepPair(12, 0))

    def test_largest_square_runs(self):
        side = math.isqrt(pathsum.MAX_DP_CELLS) - 1
        vec = path_sum_dp(StepPair(side, side))
        assert vec.scale_exp == 2 * side - 1
        assert vec == path_sum_closed(StepPair(side, side))
