"""One-shot cross-oracle verification: every closed form against every other
route, plus the numeric identities, assembled as a deterministic report.
"""

from __future__ import annotations

import bisect
import math
from collections import namedtuple

from . import classical, genfun, pathsum, specfun, walk
from .exactnum import DyadicRational

#: the directly computed value table: time -> exact p_n(0) as the pair
#: (numerator, denom_exp) of numerator / 2^denom_exp
VALUE_TABLE = {
    0: (1, 0),
    2: (1, 1),
    4: (1, 3),
    6: (1, 3),
    8: (9, 7),
    10: (9, 7),
    12: (25, 9),
    14: (25, 9),
    16: (1225, 15),
    18: (1225, 15),
}


#: One route to the exact return probability p_n(0) at time n: its name, the
#: times it covers in words, needs() -> str, and as a predicate,
#: covers(n) -> bool, and its value, value(n) -> DyadicRational.
Route = namedtuple("Route", "name needs covers value")


#: The four independent routes, in report order.  Each value and each cap is
#: looked up when called, also for the wording of a limit, so a patched or
#: traced function is the one that runs and a message names the cap in force.
#: Each row covers only the times up to its route's cap, except that the
#: direct row covers every odd time: those need no evolution.
ROUTES = (
    Route("direct", lambda: f"odd n, or n <= MAX_EXACT_TIME = {walk.MAX_EXACT_TIME}",
          lambda n: n % 2 == 1 or n <= walk.MAX_EXACT_TIME,
          lambda n: walk.return_probability_direct(n)),
    Route("xi", lambda: f"even n with 2 <= n <= MAX_PATHS_TIME = {pathsum.MAX_PATHS_TIME}",
          lambda n: 2 <= n <= pathsum.MAX_PATHS_TIME and n % 2 == 0,
          lambda n: pathsum.return_probability_paths(n // 2)),
    Route("prop1", lambda: f"even n <= MAX_P0_TIME = {genfun.MAX_P0_TIME}",
          lambda n: n <= genfun.MAX_P0_TIME and n % 2 == 0,
          lambda n: genfun.p0_legendre(n // 2)),
    Route("closed", lambda: f"even n with 4 <= n <= MAX_P0_TIME = {genfun.MAX_P0_TIME}",
          lambda n: 4 <= n <= genfun.MAX_P0_TIME and n % 2 == 0,
          lambda n: genfun.p0_closed(n // 4)),
)


#: One report row: its name, whether it passed, and the expected value,
#: actual value and tolerance as strings.
VerifyCheck = namedtuple("VerifyCheck", "name passed expected actual tolerance",
                         defaults=("exact",))


class VerifyReport:
    """The VerifyCheck rows of one verify run under its scope, in report
    order; it passed when every row did."""

    __slots__ = ("scope", "checks")

    def __init__(self, scope: str) -> None:
        self.scope = scope
        self.checks: list[VerifyCheck] = []

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _add(report: VerifyReport, name: str, passed: bool, expected, actual, tolerance="exact"):
    report.checks.append(
        VerifyCheck(name, bool(passed), str(expected), str(actual), str(tolerance))
    )


def _pair(value: DyadicRational) -> tuple[int, int]:
    """A route's value as the ints (numerator, denom_exp).  verify compares
    these pairs, so no check trusts DyadicRational.__eq__."""
    return value.numerator, value.denom_exp


def _check_value_table(report: VerifyReport) -> None:
    """The direct row against the table of exact values."""
    bad = []
    for n, expected in sorted(VALUE_TABLE.items()):
        got = ROUTES[0].value(n)
        if _pair(got) != expected:
            bad.append((n, got))
    _add(
        report,
        "value table p_0..p_18",
        not bad,
        "table of 10 exact dyadics",
        "all match" if not bad else f"mismatches at {bad}",
    )


#: Times past the value table's p_18 at which the four-oracle check also
#: compares the direct row, besides its top time.
DIRECT_TIMES = (20, 30, 46, 100, 150)

#: Every time up to this one, besides the top two, at which the walk check
#: compares walk.symmetric_distribution with the walk's own distribution.
#: Each comparison steps the real half from scratch, at a cost growing as
#: t^3, so the times above it are left to the top two.
REAL_HALF_TIMES = 30


def _check_walk(report: VerifyReport, n_max: int) -> None:
    """One incremental exact walk from the symmetric qubit to time 2 n_max:
    every route but the first against it at each even time, the mirror
    identity at the origin, the closed-row anchor, normalization and
    symmetry of its distribution at each time up to n_max, and that
    distribution against walk.symmetric_distribution, which simulate runs,
    at every position at the times up to REAL_HALF_TIMES and at n_max - 1
    and n_max.

    The incremental walk steps all four parts of every position as plain
    lists of ints, and shares no packing helper with the real-half engines.
    The direct row steps only the real parts, to n/2 and then in the
    origin's backward light cone, so where both are compared, two code paths
    meet.  The direct row starts from scratch, at a cost growing as n^3, so
    it is compared only at the top time 2 n_max and at the DIRECT_TIMES
    below it; the value table and the odd-time check test it at the other
    small times.
    Those times start at 20, the first time the table does not cover, and
    spread over both scopes (n_max 30 and 100), each of which reaches both
    residues mod 4 below its top: p_4m and p_4m+2 are the two branches of the
    closed route, so the direct row is compared on both.

    The direct row rebuilds the imaginary parts from the real ones by the
    mirror identity (proved in walk._real_half).  At the origin at
    an even time it reads Lim = -Rre and Rim = Lre, and the second row checks
    that on the walk's own four parts, which do not assume it.
    walk.symmetric_distribution steps only the real parts too, and rebuilds
    every position from the identity, so its row checks the identity at
    every position, both parities of t and both residues of t mod 4.
    """
    bad, mirror_bad, half_bad = [], [], []
    bad_norm = bad_sym = 0
    psi = walk.WaveFunction.point_mass(walk.QubitState.symmetric())
    for t in range(1, 2 * n_max + 1):
        psi = psi.step()
        if t <= n_max:
            # the probabilities at positions -t..t as int pairs
            dist = walk.distribution(psi)
            pairs = [_pair(p) for p in dist.probs.values()]
            bad_norm += _pair(dist.total()) != (1, 0)
            bad_sym += pairs != pairs[::-1]
            if t <= REAL_HALF_TIMES or t >= n_max - 1:
                half = walk.symmetric_distribution(t).probs
                if list(half) != list(dist.probs) or [_pair(p) for p in half.values()] != pairs:
                    half_bad.append(t)
        if t % 2 == 0:
            # the origin is slot t // 2 of each part
            lre, lim, rre, rim = (part[t // 2] for part in psi.parts)
            if lim != -rre or rim != lre:
                mirror_bad.append(t)
            direct = _pair(DyadicRational(lre * lre + lim * lim + rre * rre + rim * rim,
                                          psi.scale_exp))
            rows = ROUTES if t in DIRECT_TIMES or t == 2 * n_max else ROUTES[1:]
            bad += [(t, r.name) for r in rows if r.covers(t) and _pair(r.value(t)) != direct]
    _add(report, f"four-oracle equality p_2n, n<={n_max}", not bad, "all routes identical",
         "all match" if not bad else f"mismatches: {bad[:5]}")
    _add(report, f"mirror identity at the origin, n<={2 * n_max}", not mirror_bad,
         "Lim = -Rre and Rim = Lre",
         "holds" if not mirror_bad else f"{len(mirror_bad)} failures, first at n={mirror_bad[0]}")
    _check_closed_anchor(report, 2 * n_max)
    _add(report, f"normalization n<={n_max}", bad_norm == 0, "sum = 1 exactly",
         "holds" if not bad_norm else f"{bad_norm} failures")
    _add(report, f"symmetry n<={n_max}", bad_sym == 0, "p(x) = p(-x) exactly",
         "holds" if not bad_sym else f"{bad_sym} failures")
    top_times = f" and t={n_max - 1},{n_max}" if n_max - 1 > REAL_HALF_TIMES else ""
    _add(report, f"real-half distribution = walk's, t<={REAL_HALF_TIMES}{top_times}",
         not half_bad, "equal pairs at every position",
         "holds" if not half_bad else f"{len(half_bad)} failures, first at t={half_bad[0]}")


def _check_closed_anchor(report: VerifyReport, top: int) -> None:
    """The closed row at a few times 4m, m <= top, against C(2m, m)^2
    computed here, as ints: p_4m(0) = C(2m, m)^2 / 2^(4m+1).

    Every route ends in the DyadicRational constructor, so a fault there
    makes all of them agree on the same wrong value.  This anchor builds no
    DyadicRational: numerator / 2^e = C^2 / 2^(4m+1) exactly when
    numerator * 2^(4m+1) = C^2 * 2^e.
    """
    bad = []
    for m in (1, 2, top // 2, top):
        num, exp = _pair(ROUTES[3].value(4 * m))
        if num << (4 * m + 1) != math.comb(2 * m, m) ** 2 << exp:
            bad.append(m)
    _add(report, f"closed row anchor C(2m,m)^2/2^(4m+1), m<={top}", not bad,
         "equal as ints", "holds" if not bad else f"mismatches at m={bad}")


def _check_odd_times(report: VerifyReport, n_max: int) -> None:
    bad = [n for n in range(1, n_max + 1, 2) if _pair(ROUTES[0].value(n)) != (0, 0)]
    _add(report, f"odd-time return zero n<={n_max}", not bad, "0", "holds" if not bad else f"{bad}")


def _check_pairing(report: VerifyReport, m_max: int) -> None:
    bad = [
        m
        for m in range(1, m_max + 1)
        if _pair(genfun.p0_legendre(2 * m)) != _pair(genfun.p0_legendre(2 * m + 1))
    ]
    _add(report, f"pairing p_4m = p_4m+2, m<={m_max}", not bad, "equal pairs",
         "holds" if not bad else f"{bad}")


def _check_closed_vs_dp(report: VerifyReport, lm_max: int) -> None:
    grid = pathsum.path_sum_grid(pathsum.StepPair(lm_max, lm_max))
    bad = []
    for l in range(1, lm_max + 1):
        for m in range(1, lm_max + 1):
            if pathsum.path_sum_closed(pathsum.StepPair(l, m)) != grid[(l, m)]:
                bad.append((l, m))
    _add(report, f"closed-form coefficients = DP, l,m<={lm_max}", not bad,
         "identical vectors", "holds" if not bad else f"{bad[:5]}")


#: The Hadamard P, Q, R, S, each 1/sqrt2 times the integer matrix
#: (a, b, c, d) = [[a, b], [c, d]] here.  Written out rather than read from
#: HADAMARD_CORES, so that wrong cores fail the DP-step check.
PQRS_INT = ((1, 1, 0, 0), (0, 0, 1, -1), (1, -1, 0, 0), (0, 0, 1, 1))


def _matmul(x: tuple, y: tuple) -> tuple:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def _check_dp_step(report: VerifyReport) -> None:
    """The DP's step, pathsum._prepend, against literal integer products.

    For each basis matrix B it gives the cores of P.B and Q.B one exponent
    up.  Those cores summed over PQRS_INT, and the product of the two
    PQRS_INT matrices, are both the value times 2, so they must be equal.
    """
    zero = (0, 0, 0, 0)
    bad = []
    for k, name in enumerate("PQRS"):
        unit = tuple(int(i == k) for i in range(4))
        for left, cores in enumerate((pathsum._prepend(unit, zero, pathsum.HADAMARD_CORES),
                                      pathsum._prepend(zero, unit, pathsum.HADAMARD_CORES))):
            got = tuple(sum(c * m[i] for c, m in zip(cores, PQRS_INT)) for i in range(4))
            if got != _matmul(PQRS_INT[left], PQRS_INT[k]):
                bad.append("PQ"[left] + name)
    _add(report, "DP step P.v and Q.v vs literal 2x2 products (8 pairs)", not bad,
         "equal integer matrices", "all 8 match" if not bad else f"mismatches: {bad}")


def _check_jacobi_recurrence(report: VerifyReport, n_max: int) -> None:
    plain = [specfun.jacobi_p0(0, n) for n in range(n_max + 2)]
    bad = [
        n
        for n in range(n_max + 1)
        if plain[n] - plain[n + 1] != specfun.jacobi_p0(1, n)
    ]
    _add(report, f"jacobi downward recurrence n<={n_max}", not bad,
         "exact rational identity", "holds" if not bad else f"{bad[:5]}")


def _check_hyp_chain(report: VerifyReport, n_max: int) -> None:
    """Four rationals that must be equal for each n <= n_max: the literal
    sum S = sum_{g=1}^{n} (-1)^(g-1) C(n-1, g-1)^2 / g, the two 2F1 forms
    2F1(1-n, 1-n; 2; -1) and 2^(n-1) 2F1(1-n, n+1; 2; 1/2), and the Jacobi
    form 2^(n-1)/n P_(n-1)^(1,0)(0).

    S is taken in ints over L = lcm(1..n), as the sum of the terms times
    L // g, and built as one Fraction; it shares no code with specfun.
    """
    from fractions import Fraction

    bad = []
    lcm = 1
    for n in range(1, n_max + 1):
        lcm = math.lcm(lcm, n)
        direct = Fraction(sum((-1) ** (g - 1) * math.comb(n - 1, g - 1) ** 2 * (lcm // g)
                              for g in range(1, n + 1)), lcm)
        f1 = specfun.hyp2f1_terminating(-(n - 1), Fraction(-(n - 1)), Fraction(2), Fraction(-1))
        f2 = 2 ** (n - 1) * specfun.hyp2f1_terminating(
            -(n - 1), Fraction(n + 1), Fraction(2), Fraction(1, 2)
        )
        f3 = Fraction(2 ** (n - 1), n) * specfun.jacobi_p0(1, n - 1)
        if not direct == f1 == f2 == f3:
            bad.append(n)
    _add(report, f"hypergeometric chain n<={n_max}", not bad,
         "four equal rationals", "holds" if not bad else f"{bad[:5]}")


def _series_row(report: VerifyReport, name: str, lhs: float, rhs: float, tail: float,
                n: int) -> None:
    """A series truncated after term n against its closed form: they may
    differ by the tail bound plus 1e-10 of rounding slack."""
    diff = abs(lhs - rhs)
    tol = tail + 1e-10
    _add(report, name, diff <= tol, f"|lhs-rhs| <= {tol:.3e}", f"{diff:.3e} (N={n})",
         f"{tol:.3e}")


def _check_gf_identity(report: VerifyReport, zs: tuple[float, ...]) -> None:
    for z in zs:
        point = genfun.gf_point(z)
        _series_row(report, f"generating function identity z={z}", point.lhs_partial,
                    point.rhs_closed, point.tail_bound, point.truncation)


def _check_polya(report: VerifyReport, zs: tuple[float, ...]) -> None:
    evens = range(4, classical.MAX_RW_TIME + 1, 2)
    for z in zs:
        # the tail bound does not increase with N, so bisection finds the first even N
        i = bisect.bisect_left(
            evens, True, key=lambda n: classical.rw_gf_tail_bound(2, z, n) <= 1e-12
        )
        if i == len(evens):
            raise ValueError(f"2d tail bound does not reach 1e-12 at z={z}")
        n_trunc = evens[i]
        partial = math.fsum(
            float(classical.rw_return_prob(2, n)) * z**n for n in range(n_trunc + 1)
        )
        _series_row(report, f"2d random-walk generating function z={z}", partial,
                    classical.rw_gf(2, z), classical.rw_gf_tail_bound(2, z, n_trunc), n_trunc)


def _check_watson(report: VerifyReport, with_quadrature: bool) -> None:
    closed = classical.watson_g_closed()
    _add(report, "watson G closed form, 5-decimal prefix",
         _prefix5(closed) == "1.51638", "1.51638", _prefix5(closed), "prefix")
    f_return = 1.0 - 1.0 / closed
    _add(report, "3d return probability F, 5-decimal prefix",
         _prefix5(f_return) == "0.34053", "0.34053", _prefix5(f_return), "prefix")
    if with_quadrature:
        quad = classical.watson_g_quadrature(1e-8)
        diff = abs(quad.value - closed)
        _add(report, "watson G quadrature vs closed", diff <= 1e-6,
             "<= 1e-6", f"{diff:.3e}", "1e-6")


def _prefix5(x: float) -> str:
    """First five decimals without rounding, matching printed-table digits."""
    scaled = math.floor(x * 10**5)
    return f"{scaled // 10**5}.{scaled % 10**5:05d}"


#: (check, fast size, full size) in report order; a size of None means the
#: check takes none.
CHECKS = (
    (_check_value_table, None, None),
    (_check_walk, 30, 100),
    (_check_odd_times, 29, 99),
    (_check_pairing, 15, 50),
    (_check_closed_vs_dp, 12, 30),
    (_check_dp_step, None, None),
    (_check_jacobi_recurrence, 50, 200),
    (_check_hyp_chain, 20, 50),
    (_check_gf_identity, (0.5,), (0.1, 0.3, 0.5, 0.7, 0.999)),
    (_check_polya, (0.3,), (0.3, 0.6)),
    (_check_watson, False, True),
)


def run_verify(scope: str = "fast") -> VerifyReport:
    """Run the cross-oracle suite; scope "fast" (n<=30) or "full" (n<=100
    plus the Watson quadrature).  A check that raises adds one failed row
    named after it, and the checks after it still run."""
    if scope not in ("fast", "full"):
        raise ValueError("scope must be 'fast' or 'full'")
    report = VerifyReport(scope)
    for check, fast, full in CHECKS:
        size = full if scope == "full" else fast
        try:
            if size is None:
                check(report)
            else:
                check(report, size)
        except Exception as exc:
            _add(report, check.__name__, False, "no exception", f"{type(exc).__name__}: {exc}")
    return report
