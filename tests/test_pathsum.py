import itertools
import math
import random

import numpy as np
import pytest

from hadwalk import pathsum
from hadwalk.exactnum import DyadicRational, GaussianInteger
from hadwalk.pathsum import (
    PQRSVector,
    StepPair,
    basis_matrices,
    path_sum_closed,
    path_sum_dp,
    path_sum_grid,
    path_sum_probability,
    pqrs_compose,
    pqrs_to_matrix,
    return_probability_paths,
)
from hadwalk.walk import HADAMARD_CORES, CoinMatrix, QubitState, distribution, evolve

HADAMARD = CoinMatrix.hadamard()
GENERIC = CoinMatrix(0.6, 0.8j, 0.8j, 0.6)


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


def literal_ordering_sum_float(l, m, coin):
    pm, qm, _, _ = basis_matrices(coin)
    n = l + m
    total = np.zeros((2, 2), complex)
    for p_slots in itertools.combinations(range(n), l):
        prod = np.eye(2, dtype=complex)
        for slot in range(n):
            prod = prod @ (pm if slot in p_slots else qm)
        total += prod
    return total


class TestCompose:
    def test_p_times_q_is_b_r(self):
        for coin in (HADAMARD, GENERIC):
            exact = coin.is_exact
            if exact:
                pure_p = PQRSVector(
                    GaussianInteger(1), GaussianInteger(0), GaussianInteger(0),
                    GaussianInteger(0), 0,
                )
                pure_q = PQRSVector(
                    GaussianInteger(0), GaussianInteger(1), GaussianInteger(0),
                    GaussianInteger(0), 0,
                )
            else:
                pure_p = PQRSVector(1, 0, 0, 0)
                pure_q = PQRSVector(0, 1, 0, 0)
            got = pqrs_to_matrix(pqrs_compose(pure_p, pure_q, coin), coin)
            expected = coin.b * basis_matrices(coin)[2]
            assert np.abs(got - expected).max() < 1e-15

    def test_all_sixteen_products_match_literal(self):
        for coin in (HADAMARD, GENERIC):
            mats = basis_matrices(coin)
            units = [
                PQRSVector(*(1 if i == j else 0 for j in range(4)))
                for i in range(4)
            ]
            for i, j in itertools.product(range(4), repeat=2):
                got = pqrs_to_matrix(pqrs_compose(units[i], units[j], coin), coin)
                assert np.abs(got - mats[i] @ mats[j]).max() < 1e-15, (i, j)

    def test_sixteen_products_exact(self):
        bases_vec = [
            PQRSVector(*(1 if i == j else 0 for j in range(4)), 0)
            for i in range(4)
        ]
        bases_mat = (HP, HQ, HR, HS)
        for i, j in itertools.product(range(4), repeat=2):
            got = exact_vec_matrix(pqrs_compose(bases_vec[i], bases_vec[j], HADAMARD))
            literal = matmul(bases_mat[i], bases_mat[j]), 2
            assert equal_values(got, literal), (i, j)

    def test_identity_decomposition(self):
        # I = (1/sqrt2)(P - Q + R + S) for the Hadamard entries; the product
        # carries two more factors 1/sqrt2, so the cores come back doubled
        identity = PQRSVector(1, -1, 1, 1, 1)
        assert equal_values(exact_vec_matrix(identity), ((1, 0, 0, 1), 0))
        rng = random.Random(31)
        for _ in range(20):
            p, q, r, s = (rng.randrange(-9, 10) for _ in range(4))
            vec = PQRSVector(p, q, r, s, rng.randrange(0, 5))
            doubled = PQRSVector(2 * p, 2 * q, 2 * r, 2 * s, vec.scale_exp + 2)
            assert pqrs_compose(identity, vec, HADAMARD) == doubled
            assert pqrs_compose(vec, identity, HADAMARD) == doubled

    def test_float_coin_refuses_scaled_operands(self):
        # a float coin multiplies on its entries, which would drop the factor
        # (1/sqrt2)^scale_exp of an exact vector
        exact = path_sum_dp(StepPair(1, 1))
        assert exact.scale_exp == 1
        for left, right in ((exact, PQRSVector(1, 0, 0, 0)), (PQRSVector(1, 0, 0, 0), exact)):
            with pytest.raises(TypeError, match="scale_exp 0"):
                pqrs_compose(left, right, GENERIC)

    def test_coefficients_unique_via_trace_projection(self):
        rng = random.Random(8)
        mats = basis_matrices(GENERIC)
        for _ in range(20):
            coeffs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]
            matrix = sum(c * m for c, m in zip(coeffs, mats))
            recovered = [complex(np.trace(m.conj().T @ matrix)) for m in mats]
            assert np.allclose(recovered, coeffs, atol=1e-14)


class TestPathSumDp:
    def test_two_step_crossing(self):
        # two crossing steps: QP + PQ
        got = exact_vec_matrix(path_sum_dp(StepPair(1, 1)))
        literal = matadd(matmul(HQ, HP), matmul(HP, HQ)), 2
        assert equal_values(got, literal)

    def test_four_step_coefficients_general_coin(self):
        # (2,2) path sum over the six orderings of PPQQ, composed on the
        # coin's entries: bcd P + abc Q + b(ad+bc) R + c(ad+bc) S
        a, b, c, d = GENERIC.a, GENERIC.b, GENERIC.c, GENERIC.d
        pure = {"P": PQRSVector(1, 0, 0, 0), "Q": PQRSVector(0, 1, 0, 0)}
        total = np.zeros(4, complex)
        for ordering in set(itertools.permutations("PPQQ")):
            prod = pure[ordering[0]]
            for name in ordering[1:]:
                prod = pqrs_compose(prod, pure[name], GENERIC)
            total += cells(prod)
        assert total == pytest.approx(
            [b * c * d, a * b * c, b * (a * d + b * c), c * (a * d + b * c)]
        )

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
        for n in range(1, 9):
            for l in range(n + 1):
                got = exact_vec_matrix(path_sum_dp(StepPair(l, n - l)))
                assert equal_values(got, literal_ordering_sum_exact(l, n - l)), (l, n - l)

    def test_exhaustive_ordering_sum_float_n12(self):
        for l in range(13):
            m = 12 - l
            got = pqrs_to_matrix(path_sum_dp(StepPair(l, m)), HADAMARD)
            literal = literal_ordering_sum_float(l, m, HADAMARD)
            assert np.abs(got - literal).max() < 1e-11, (l, m)

    def test_append_step_recursion_agrees(self):
        # independent recursion S(l,m) = S(l-1,m) P + S(l,m-1) Q
        n_max = 40
        pure_p = PQRSVector(1, 0, 0, 0, 0)
        pure_q = PQRSVector(0, 1, 0, 0, 0)
        grid = {(1, 0): pure_p, (0, 1): pure_q}
        for n in range(2, n_max + 1):
            for l in range(n + 1):
                m = n - l
                parts = []
                if l >= 1:
                    parts.append(pqrs_compose(grid[(l - 1, m)], pure_p, HADAMARD))
                if m >= 1:
                    parts.append(pqrs_compose(grid[(l, m - 1)], pure_q, HADAMARD))
                total = parts[0]
                for extra in parts[1:]:
                    assert extra.scale_exp == total.scale_exp
                    total = PQRSVector(
                        total.p + extra.p, total.q + extra.q,
                        total.r + extra.r, total.s + extra.s, total.scale_exp,
                    )
                grid[(l, m)] = total
        for l in range(0, n_max + 1, 5):
            for m in range(0, n_max + 1 - l, 7):
                if l + m < 1:
                    continue
                assert path_sum_dp(StepPair(l, m)) == grid[(l, m)]

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
        for n in range(1, 13):
            dist = distribution(evolve(QubitState.symmetric(), HADAMARD, n))
            total = DyadicRational(0)
            for l in range(n + 1):
                m = n - l
                p = path_sum_probability(StepPair(l, m))
                assert p == dist.at(m - l), (l, m)
                total = total + p
            assert total == DyadicRational(1)


class TestStepPair:
    def test_derived_quantities(self):
        steps = StepPair(3, 5)
        assert steps.time == 8

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            StepPair(-1, 2)


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
    """Oracle: the (i, j) dict grid of exact pqrs_compose calls that the
    rolling-row DP replaced, S(i, j) = P S(i-1, j) + Q S(i, j-1) on
    coefficient vectors."""
    pure_p, pure_q = PQRSVector(1, 0, 0, 0, 0), PQRSVector(0, 1, 0, 0, 0)
    grid = {(1, 0): pure_p, (0, 1): pure_q}
    for i in range(steps.l + 1):
        for j in range(steps.m + 1):
            if i + j < 2 or (i, j) in grid:
                continue
            parts = []
            if i >= 1:
                parts.append(pqrs_compose(pure_p, grid[(i - 1, j)], HADAMARD))
            if j >= 1:
                parts.append(pqrs_compose(pure_q, grid[(i, j - 1)], HADAMARD))
            total = parts[0]
            for vec in parts[1:]:
                assert vec.scale_exp == total.scale_exp
                total = PQRSVector(total.p + vec.p, total.q + vec.q, total.r + vec.r,
                                   total.s + vec.s, total.scale_exp)
            grid[(i, j)] = total
    return grid


def cells(vec):
    return (vec.p, vec.q, vec.r, vec.s)


class TestRollingRowDp:
    def test_hadamard_cores_identical_to_dict_grid(self):
        reference = dict_grid_reference(StepPair(25, 25))
        grid = path_sum_grid(StepPair(25, 25))
        assert grid.keys() == reference.keys()
        for (l, m), want in reference.items():
            # identical cores and exponent, not merely the same value
            assert grid[(l, m)] == want, (l, m)
            assert path_sum_dp(StepPair(l, m)) == want, (l, m)

    def test_prepend_rows_match_product_table(self):
        rng = random.Random(505)
        one, zero = GaussianInteger(1), GaussianInteger(0)
        pure = (PQRSVector(one, zero, zero, zero, 0), PQRSVector(zero, one, zero, zero, 0))
        entries = HADAMARD_CORES
        for _ in range(50):
            v = tuple(rng.randrange(-10**6, 10**6) for _ in range(4))
            exp = rng.randrange(0, 9)
            vec = PQRSVector(*(GaussianInteger(x) for x in v), exp)
            for k, got in enumerate((pathsum._prepend(v, (0,) * 4, entries),
                                     pathsum._prepend((0,) * 4, v, entries))):
                want = pqrs_compose(pure[k], vec, HADAMARD)
                assert tuple(GaussianInteger(x) for x in got) == cells(want)
                assert want.scale_exp == exp + 1
        pure_f = (PQRSVector(1.0, 0.0, 0.0, 0.0), PQRSVector(0.0, 1.0, 0.0, 0.0))
        entries_f = (GENERIC.a, GENERIC.b, GENERIC.c, GENERIC.d)
        for _ in range(50):
            v = tuple(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(4))
            for k, got in enumerate((pathsum._prepend(v, (0.0,) * 4, entries_f),
                                     pathsum._prepend((0.0,) * 4, v, entries_f))):
                assert got == cells(pqrs_compose(pure_f[k], PQRSVector(*v), GENERIC))

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
        assert path_sum_dp(StepPair(2, 3)) == dict_grid_reference(StepPair(2, 3))[(2, 3)]
        assert len(path_sum_grid(StepPair(3, 2))) == 11
        for fn in (path_sum_dp, path_sum_grid):
            with pytest.raises(ValueError, match="13 cells"):
                fn(StepPair(12, 0))

    def test_largest_square_runs(self):
        side = math.isqrt(pathsum.MAX_DP_CELLS) - 1
        vec = path_sum_dp(StepPair(side, side))
        assert vec.scale_exp == 2 * side - 1
        assert vec == path_sum_closed(StepPair(side, side))
