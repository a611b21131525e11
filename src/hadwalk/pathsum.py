"""Path-counting calculus for the coined walk.

The four rank-one matrices P, Q, R, S (top/bottom rows of the coin and of its
row-swapped copy) are closed under multiplication up to a single coin entry,
so the sum over all l-left/m-right step orderings is a 4-vector recursion
instead of a 2^n enumeration.  For the Hadamard coin the coefficients also
have closed-form alternating binomial sums, evaluated here exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exactnum import G_ZERO, DyadicRational, GaussianInteger, ScaledAmplitude
from .walk import CoinMatrix, QubitState


@dataclass(frozen=True)
class StepPair:
    """l steps left and m steps right: time l+m, endpoint -l+m."""

    l: int
    m: int

    def __post_init__(self) -> None:
        if self.l < 0 or self.m < 0:
            raise ValueError("step counts must be nonnegative")

    @property
    def time(self) -> int:
        return self.l + self.m

    @property
    def position(self) -> int:
        return self.m - self.l


@dataclass(frozen=True)
class PQRSVector:
    """Exact coefficient vector w.r.t. (P, Q, R, S), Hadamard scalars:
    each coefficient is core * (1/sqrt2)^scale_exp."""

    p: GaussianInteger
    q: GaussianInteger
    r: GaussianInteger
    s: GaussianInteger
    scale_exp: int

    def canonical(self) -> PQRSVector:
        p, q, r, s, e = self.p, self.q, self.r, self.s, self.scale_exp
        if all(g.is_zero() for g in (p, q, r, s)):
            return PQRSVector(p, q, r, s, 0)
        while e >= 2 and all(
            g.re % 2 == 0 and g.im % 2 == 0 for g in (p, q, r, s)
        ):
            p, q, r, s = (
                GaussianInteger(g.re // 2, g.im // 2) for g in (p, q, r, s)
            )
            e -= 2
        return PQRSVector(p, q, r, s, e)

    def coefficients(self) -> tuple[ScaledAmplitude, ...]:
        e = self.scale_exp
        return tuple(ScaledAmplitude(g, e) for g in (self.p, self.q, self.r, self.s))

    def to_complex(self) -> tuple[complex, complex, complex, complex]:
        scale = 2.0 ** (-self.scale_exp / 2.0)
        return tuple(complex(g) * scale for g in (self.p, self.q, self.r, self.s))

    def same_value(self, other: PQRSVector) -> bool:
        return self.canonical() == other.canonical()


@dataclass(frozen=True)
class PQRSVectorFloat:
    """Float coefficient vector for arbitrary unitary coins."""

    p: complex
    q: complex
    r: complex
    s: complex


def basis_matrices(coin: CoinMatrix):
    """P, Q, R, S as complex 2x2 arrays for the given coin."""
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    p = np.array([[a, b], [0, 0]], complex)
    q = np.array([[0, 0], [c, d]], complex)
    r = np.array([[c, d], [0, 0]], complex)
    s = np.array([[0, 0], [a, b]], complex)
    return p, q, r, s


def pqrs_to_matrix(vec: PQRSVector | PQRSVectorFloat, coin: CoinMatrix):
    """Reconstruct the 2x2 matrix p P + q Q + r R + s S."""
    pm, qm, rm, sm = basis_matrices(coin)
    if isinstance(vec, PQRSVector):
        p, q, r, s = vec.to_complex()
    else:
        p, q, r, s = vec.p, vec.q, vec.r, vec.s
    return p * pm + q * qm + r * rm + s * sm


# Product table, left factor indexing rows: each (row, col) pair maps to
# (coin entry, resulting basis element).  Written out as the four bilinear
# coefficient forms it reads:
#   p' = a p1 p2 + b p1 s2 + c r1 p2 + d r1 s2
#   q' = d q1 q2 + c q1 r2 + b s1 q2 + a s1 r2
#   r' = b p1 q2 + a p1 r2 + d r1 q2 + c r1 r2
#   s' = c q1 p2 + d q1 s2 + a s1 p2 + b s1 s2


def pqrs_compose(
    left: PQRSVector | PQRSVectorFloat,
    right: PQRSVector | PQRSVectorFloat,
    coin: CoinMatrix,
) -> PQRSVector | PQRSVectorFloat:
    """Coefficient vector of the matrix product (left applied after right)."""
    if isinstance(left, PQRSVector) and isinstance(right, PQRSVector):
        if not coin.is_exact:
            raise TypeError("exact composition needs the exact coin")
        return _compose_exact(left, right, coin)
    if isinstance(left, PQRSVectorFloat) and isinstance(right, PQRSVectorFloat):
        return _compose_float(left, right, coin)
    raise TypeError("cannot compose exact with float coefficient vectors")


def _compose_exact(left: PQRSVector, right: PQRSVector, coin: CoinMatrix) -> PQRSVector:
    a, b, c, d = coin.exact_cores
    p1, q1, r1, s1 = left.p, left.q, left.r, left.s
    p2, q2, r2, s2 = right.p, right.q, right.r, right.s
    return PQRSVector(
        a * p1 * p2 + b * p1 * s2 + c * r1 * p2 + d * r1 * s2,
        d * q1 * q2 + c * q1 * r2 + b * s1 * q2 + a * s1 * r2,
        b * p1 * q2 + a * p1 * r2 + d * r1 * q2 + c * r1 * r2,
        c * q1 * p2 + d * q1 * s2 + a * s1 * p2 + b * s1 * s2,
        left.scale_exp + right.scale_exp + 1,
    )


def _compose_float(
    left: PQRSVectorFloat, right: PQRSVectorFloat, coin: CoinMatrix
) -> PQRSVectorFloat:
    a, b, c, d = coin.a, coin.b, coin.c, coin.d
    p1, q1, r1, s1 = left.p, left.q, left.r, left.s
    p2, q2, r2, s2 = right.p, right.q, right.r, right.s
    return PQRSVectorFloat(
        a * p1 * p2 + b * p1 * s2 + c * r1 * p2 + d * r1 * s2,
        d * q1 * q2 + c * q1 * r2 + b * s1 * q2 + a * s1 * r2,
        b * p1 * q2 + a * p1 * r2 + d * r1 * q2 + c * r1 * r2,
        c * q1 * p2 + d * q1 * s2 + a * s1 * p2 + b * s1 * s2,
    )


def _pure_p(exact: bool) -> PQRSVector | PQRSVectorFloat:
    if exact:
        one, zero = GaussianInteger(1), G_ZERO
        return PQRSVector(one, zero, zero, zero, 0)
    return PQRSVectorFloat(1.0, 0.0, 0.0, 0.0)


def _pure_q(exact: bool) -> PQRSVector | PQRSVectorFloat:
    if exact:
        one, zero = GaussianInteger(1), G_ZERO
        return PQRSVector(zero, one, zero, zero, 0)
    return PQRSVectorFloat(0.0, 1.0, 0.0, 0.0)


def path_sum_grid(
    steps: StepPair, coin: CoinMatrix
) -> dict[tuple[int, int], PQRSVector | PQRSVectorFloat]:
    """Coefficient vectors for every (i, j) with i <= l, j <= m, i+j >= 1,
    filled by the prepend-a-step recursion S(l, m) = P S(l-1, m) + Q S(l, m-1).
    """
    l, m = steps.l, steps.m
    if l + m < 1:
        raise ValueError("no paths of length zero")
    exact = coin.is_exact
    grid: dict[tuple[int, int], PQRSVector | PQRSVectorFloat] = {
        (1, 0): _pure_p(exact),
        (0, 1): _pure_q(exact),
    }
    for i in range(l + 1):
        for j in range(m + 1):
            if i + j < 2 or (i, j) in grid:
                continue
            parts = []
            if i >= 1:
                parts.append(pqrs_compose(_pure_p(exact), grid[(i - 1, j)], coin))
            if j >= 1:
                parts.append(pqrs_compose(_pure_q(exact), grid[(i, j - 1)], coin))
            grid[(i, j)] = _vec_sum(parts)
    return grid


def path_sum_dp(steps: StepPair, coin: CoinMatrix) -> PQRSVector | PQRSVectorFloat:
    """Sum over all step orderings, via the memoized grid recursion."""
    return path_sum_grid(steps, coin)[(steps.l, steps.m)]


def _vec_sum(parts):
    total = parts[0]
    for vec in parts[1:]:
        if isinstance(total, PQRSVector):
            if total.scale_exp != vec.scale_exp:
                raise AssertionError("mismatched scale exponents in path sum")
            total = PQRSVector(
                total.p + vec.p,
                total.q + vec.q,
                total.r + vec.r,
                total.s + vec.s,
                total.scale_exp,
            )
        else:
            total = PQRSVectorFloat(
                total.p + vec.p, total.q + vec.q, total.r + vec.r, total.s + vec.s
            )
    return total


def path_sum_closed(steps: StepPair) -> PQRSVector:
    """Hadamard-coin closed forms for the four coefficients: three alternating
    binomial sums sharing the prefactor (1/sqrt2)^(n-1); valid for l, m >= 1.

        p = sum_g (-1)^(m-g)   C(l-1, g)   C(m-1, g-1)
        q = sum_g (-1)^(m-g-1) C(l-1, g-1) C(m-1, g)
        r = sum_g (-1)^(m-g)   C(l-1, g-1) C(m-1, g-1)

    The binomials advance by term ratios, C(k, g) = C(k, g-1) (k-g+1) / g,
    with exact integer division; a term past the top of C(l-1, .) or
    C(m-1, .) comes out zero.
    """
    l, m = steps.l, steps.m
    if min(l, m) < 1:
        raise ValueError("closed forms require at least one step each way")
    n = l + m
    p = q = r = 0
    a = b = 1  # C(l-1, g-1) and C(m-1, g-1)
    sign = -1 if (m - 1) % 2 else 1  # (-1)^(m-g)
    for g in range(1, min(l, m) + 1):
        a_next = a * (l - g) // g  # C(l-1, g)
        b_next = b * (m - g) // g  # C(m-1, g)
        p += sign * a_next * b
        q -= sign * a * b_next
        r += sign * a * b
        a, b, sign = a_next, b_next, -sign
    return PQRSVector(
        GaussianInteger(p),
        GaussianInteger(q),
        GaussianInteger(r),
        GaussianInteger(r),
        n - 1,
    )


def apply_to_qubit(vec: PQRSVector, qubit: QubitState) -> tuple[ScaledAmplitude, ScaledAmplitude]:
    """Amplitude pair (path-sum matrix) * qubit, Hadamard basis matrices."""
    gl, gr, e = qubit.common_scale()
    # matrix rows: ((p+r), (p-r)) and ((q+s), (s-q)), all times (1/sqrt2)
    top = (vec.p + vec.r) * gl + (vec.p - vec.r) * gr
    bottom = (vec.q + vec.s) * gl + (vec.s - vec.q) * gr
    scale = vec.scale_exp + 1 + e
    return ScaledAmplitude(top, scale), ScaledAmplitude(bottom, scale)


def path_sum_probability(steps: StepPair) -> DyadicRational:
    """Squared norm of the path-sum applied to the symmetric qubit (DP route)."""
    vec = path_sum_dp(steps, CoinMatrix.hadamard())
    assert isinstance(vec, PQRSVector)
    top, bottom = apply_to_qubit(vec, QubitState.symmetric())
    return top.probability() + bottom.probability()


def return_probability_paths(n: int) -> DyadicRational:
    """Exact p_{2n}(0) from the closed-form coefficients at l = m = n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    vec = path_sum_closed(StepPair(n, n))
    top, bottom = apply_to_qubit(vec, QubitState.symmetric())
    return top.probability() + bottom.probability()
