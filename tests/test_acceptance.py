"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime (pytest -s shows them live)."""

import json
import math
import random
import time
from fractions import Fraction

from hadwalk import classical, genfun, pathsum, specfun, walk
from hadwalk.cli import main
from hadwalk.exactnum import DyadicRational

from test_pathsum import dp_grid


class Timer:
    def __init__(self, name, limit_s):
        self.name = name
        self.limit_s = limit_s

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"{status}  {self.name}  [{elapsed:.2f}s / limit {self.limit_s}s]")
        if exc_type is None:
            assert elapsed < self.limit_s, f"{self.name} exceeded {self.limit_s}s"


EXPECTED_TABLE = {
    0: "1/2^0",
    2: "1/2^1",
    4: "1/2^3",
    6: "1/2^3",
    8: "9/2^7",
    10: "9/2^7",
    12: "25/2^9",
    14: "25/2^9",
    16: "1225/2^15",
    18: "1225/2^15",
}


def test_criterion_1_exact_value_table(capsys):
    with Timer("criterion 1: exact value table via return-prob --method all", 1.0):
        for n, expected in EXPECTED_TABLE.items():
            code = main(["--format", "json", "return-prob", "-n", str(n),
                         "--method", "all"])
            out = capsys.readouterr().out
            assert code == 0
            doc = json.loads(out)
            assert doc["all_equal"] is True
            for entry in doc["values"]:
                assert entry["exact"] == expected, (n, entry)
            if n >= 4:
                assert {v["method"] for v in doc["values"]} == {
                    "direct", "xi", "prop1", "closed"
                }


def test_criterion_2_four_oracle_equivalence():
    with Timer("criterion 2: four-oracle equality for n <= 100", 30.0):
        psi = walk.WaveFunction.point_mass()
        for n in range(1, 101):
            psi = psi.step().step()
            # the origin is slot n of each of the four parts at time 2n
            direct = DyadicRational(sum(part[n] ** 2 for part in psi.parts), psi.scale_exp)
            assert pathsum.return_probability_paths(n) == direct, n
            assert genfun.p0_legendre(n) == direct, n
            if n >= 2:
                assert genfun.p0_closed(n // 2) == direct, n


def test_criterion_3_generating_function_identity():
    with Timer("criterion 3: elliptic generating function at four z values", 10.0):
        for z in (0.1, 0.3, 0.5, 0.7):
            point = genfun.gf_point(z)
            assert point.tail_bound <= 1e-12, z
            assert point.abs_diff <= point.tail_bound + 1e-10, (z, point)


def test_criterion_4_polya_identity():
    with Timer("criterion 4: 2d random-walk generating function", 10.0):
        for z in (0.3, 0.6):
            n = 4
            while classical.rw_gf_tail_bound(2, z, n) > 1e-12:
                n += 2
            partial = math.fsum(
                float(classical.rw_return_prob(2, t)) * z**t for t in range(n + 1)
            )
            bound = classical.rw_gf_tail_bound(2, z, n)
            assert abs(partial - classical.rw_gf(2, z)) <= bound + 1e-10, z


def test_criterion_5_watson_constants():
    with Timer("criterion 5: watson G by quadrature and closed form", 5.0):
        result = classical.watson_return_prob(rel_tol=1e-8)
        assert abs(result.g_quadrature - result.g_closed) <= 1e-6

        def prefix5(x):
            scaled = math.floor(x * 10**5)
            return f"{scaled // 10**5}.{scaled % 10**5:05d}"

        assert prefix5(result.g_quadrature) == "1.51638"
        assert prefix5(result.g_closed) == "1.51638"
        assert prefix5(result.f_return) == "0.34053"
        assert prefix5(1.0 - 1.0 / result.g_quadrature) == "0.34053"


def test_criterion_6_identity_suite():
    with Timer("criterion 6: polynomial and path-algebra identities", 60.0):
        # Jacobi downward recurrence, exact, n <= 200
        plain = [specfun.jacobi_p0(0, n) for n in range(202)]
        for n in range(201):
            assert plain[n] - plain[n + 1] == specfun.jacobi_p0(1, n), n

        # hypergeometric chains, exact, n <= 50
        for n in range(1, 51):
            direct = sum(
                Fraction((-1) ** (g - 1) * math.comb(n - 1, g - 1) ** 2, g)
                for g in range(1, n + 1)
            )
            f1 = specfun.hyp2f1_terminating(
                -(n - 1), Fraction(-(n - 1)), Fraction(2), Fraction(-1)
            )
            f2 = 2 ** (n - 1) * specfun.hyp2f1_terminating(
                -(n - 1), Fraction(n + 1), Fraction(2), Fraction(1, 2)
            )
            f3 = Fraction(2 ** (n - 1), n) * specfun.jacobi_p0(1, n - 1)
            assert direct == f1 == f2 == f3, n
            plain_sum = sum(
                Fraction((-1) ** (g - 1) * math.comb(n - 1, g - 1) ** 2)
                for g in range(1, n + 1)
            )
            assert plain_sum == 2 ** (n - 1) * specfun.jacobi_p0(0, n - 1), n

        # Pfaff transformation on 100 random terminating instances
        rng = random.Random(97)
        count = 0
        while count < 100:
            m = rng.randrange(0, 9)
            b = Fraction(rng.randrange(-10, 11), rng.randrange(1, 6))
            c = Fraction(rng.randrange(1, 11), rng.randrange(1, 6))
            z = Fraction(rng.randrange(-9, 10), rng.randrange(2, 8))
            if z == 1 or (c.denominator == 1 and c <= 0):
                continue
            lhs = specfun.hyp2f1_terminating(-m, b, c, z)
            rhs = (1 - z) ** m * specfun.hyp2f1_terminating(-m, c - b, c, z / (z - 1))
            assert lhs == rhs, (m, b, c, z)
            count += 1

        # the DP's step against literal products: P.B and Q.B for each
        # Hadamard basis matrix B, as integer matrices at the common factor 1/2
        basis = ([[1, 1], [0, 0]], [[0, 0], [1, -1]], [[1, -1], [0, 0]], [[0, 0], [1, 1]])
        zero = (0, 0, 0, 0)
        for k in range(4):
            unit = tuple(int(j == k) for j in range(4))
            for left, cores in ((0, pathsum._prepend(unit, zero)), (1, pathsum._prepend(zero, unit))):
                got = [[sum(c * b[i][j] for c, b in zip(cores, basis)) for j in range(2)]
                       for i in range(2)]
                product = [[sum(basis[left][i][t] * basis[k][t][j] for t in range(2))
                            for j in range(2)] for i in range(2)]
                assert got == product, (left, k)

        # closed-form coefficients equal the DP for 1 <= l, m <= 30
        grid = dp_grid(pathsum.StepPair(30, 30))
        for l in range(1, 31):
            for m in range(1, 31):
                assert pathsum.path_sum_closed(pathsum.StepPair(l, m)) == grid[(l, m)], (l, m)


def test_criterion_7_conservation_and_symmetry():
    with Timer("criterion 7: exact conservation, symmetry, odd-time zeros", 60.0):
        psi = walk.WaveFunction.point_mass()
        for t in range(1, 202):
            psi = psi.step()
            if t % 2 == 1:
                # the parts store only the t + 1 positions of t's parity,
                # and at an odd time the origin is not one of them
                assert [len(part) for part in psi.parts] == [t + 1] * 4, t
                assert 0 not in psi.support(), t
            if t <= 200:
                dist = walk.distribution(psi)
                assert dist.total() == DyadicRational(1), t
                assert all(dist.probs[x] == dist.probs[-x] for x in dist.probs), t
