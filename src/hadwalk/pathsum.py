"""Path-counting calculus for the Hadamard walk.

The four rank-one matrices P, Q, R, S (top/bottom rows of the coin and of its
row-swapped copy) are closed under multiplication up to a single coin entry,
so the sum over all l-left/m-right step orderings is a 4-vector recursion
instead of a 2^n enumeration.  That recursion and the closed-form alternating
binomial sums each write the Hadamard coin out in their own exact int sums.
"""

from __future__ import annotations

from collections import namedtuple

from .exactnum import G_I, G_ONE, DyadicRational

#: Largest grid (l+1)(m+1) the path-sum DP runs through.  The DP keeps one
#: row of m + 1 cells, so its memory grows with m and its time with the
#: cells; the two set the cap.  Under it path_sum_dp took 0.35-0.42 s and a
#: peak RSS of 15 MiB at the largest square, l = m = 999, and 0.33-0.38 s
#: and 98 MiB at the thin shape l = 0, m = 999 999 (122 MiB at l = 3, the
#: worst thin shape; 14 MiB at start), on one core of a 2-vCPU x86-64 host.
MAX_DP_CELLS = 1_000_000

#: Largest time 2n of return_probability_paths.  Its big-int work grows as
#: about T^2.6: return-prob --method xi took 1.8 / 9.4 / 16 / 121 s at
#: T = 20 000 / 40 000 / 50 000 / 100 000 on one core of a 2-vCPU x86-64 host.
MAX_PATHS_TIME = 50_000


class StepPair(namedtuple("StepPair", "l m")):
    """l steps left and m steps right: time l+m, endpoint -l+m.  Every
    construction path, _make and _replace too, refuses a negative count."""

    __slots__ = ()

    def __new__(cls, l: int, m: int) -> StepPair:
        if l < 0 or m < 0:
            raise ValueError("step counts must be nonnegative")
        return super().__new__(cls, l, m)

    @classmethod
    def _make(cls, iterable) -> StepPair:
        return cls(*iterable)

    @property
    def time(self) -> int:
        return self.l + self.m


class PQRSVector(namedtuple("PQRSVector", "p q r s scale_exp", defaults=(0,))):
    """Coefficient vector w.r.t. the Hadamard (P, Q, R, S): each coefficient
    is an int core times (1/sqrt2)^scale_exp.

    A vector for l + m steps carries scale_exp = l + m - 1: so do
    path_sum_closed and path_sum_dp.  Two vectors for the same time are
    therefore equal in value exactly when they compare ==.
    """

    __slots__ = ()

    def to_complex(self) -> tuple[complex, complex, complex, complex]:
        # Each core g times 2^(-e/2), e = scale_exp: g is divided by 2^(e // 2)
        # as an int, which rounds once and works for a core past float range
        # (|g| >= 2^1024, met above time 2000 or so), then scaled by 2^-0.5
        # when e is odd.  Up to e = 2044 this equals the plain product
        # complex(g) * 2.0 ** (-e / 2) bit for bit; past it that float scale
        # is subnormal and holds fewer than 53 bits.
        e = self.scale_exp
        return tuple(complex(g / (1 << e // 2)) * 2.0 ** -(e % 2 / 2) for g in self[:4])


def _prepend(up: tuple, left: tuple) -> tuple:
    """P up + Q left as a 4-tuple of int cores, one exponent of 1/sqrt2 up.

    Each product of two basis matrices is one coin entry times one basis
    matrix: PP = aP, PS = bP, PQ = bR, PR = aR, QQ = dQ, QR = cQ, QP = cS,
    QS = dS.  So a pure P on the left gives (a p + b s, 0, b q + a r, 0), a
    pure Q gives (0, d q + c r, 0, c p + d s); the sum takes p, r from 'up'
    and q, s from 'left'.  The Hadamard entries (a, b, c, d) = (1, 1, 1, -1)
    are written out, so each core is one sum or difference of two ints.
    verify checks these eight products.
    """
    return (up[0] + up[3], left[2] - left[1], up[1] + up[2], left[0] - left[3])


def _dp_rows(steps: StepPair):
    """Rows i = 0..l of the prepend-a-step recursion
    S(i, j) = P S(i-1, j) + Q S(i, j-1), each a list of S(i, j) for j = 0..m
    (S(0, 0) is None).  A cell is the int cores of the Hadamard PQRSVector
    with scale exponent i+j-1, made by _prepend from its two neighbours.
    """
    l, m = steps.l, steps.m
    if l + m < 1:
        raise ValueError("no paths of length zero")
    cells = (l + 1) * (m + 1)
    if cells > MAX_DP_CELLS:
        raise ValueError(
            f"path-sum DP needs (l+1)(m+1) = {cells} cells, above the limit "
            f"MAX_DP_CELLS = {MAX_DP_CELLS}"
        )
    nothing = (0, 0, 0, 0)
    row = [None]
    for j in range(1, m + 1):
        row.append((0, 1, 0, 0) if j == 1 else _prepend(nothing, row[-1]))
    yield row
    for i in range(1, l + 1):
        cell = (1, 0, 0, 0) if i == 1 else _prepend(row[0], nothing)
        above, row = row, [cell]
        for up in above[1:]:
            cell = _prepend(up, cell)
            row.append(cell)
        yield row


def path_sum_dp(steps: StepPair) -> PQRSVector:
    """Sum over all step orderings, keeping one row of the recursion at a time."""
    for row in _dp_rows(steps):
        pass
    return PQRSVector(*row[steps.m], steps.time - 1)


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
    return PQRSVector(p, q, r, r, n - 1)


def _symmetric_probability(vec: PQRSVector) -> DyadicRational:
    """Squared norm of (path-sum matrix) * (symmetric qubit), for an exact vector.

    The matrix rows are (p + r, p - r) and (q + s, s - q), times
    (1/sqrt2)^(scale_exp + 1), and the qubit is (G_ONE, G_I) / sqrt2, so the
    squared norm is (|top|^2 + |bottom|^2) / 2^(scale_exp + 2).
    """
    top = (vec.p + vec.r) * G_ONE + (vec.p - vec.r) * G_I
    bottom = (vec.q + vec.s) * G_ONE + (vec.s - vec.q) * G_I
    return DyadicRational(top.norm_sq() + bottom.norm_sq(), vec.scale_exp + 2)


def return_probability_paths(n: int) -> DyadicRational:
    """Exact p_{2n}(0) from the closed-form coefficients at l = m = n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if 2 * n > MAX_PATHS_TIME:
        raise ValueError(f"time {2 * n} is above the limit MAX_PATHS_TIME = {MAX_PATHS_TIME}")
    return _symmetric_probability(path_sum_closed(StepPair(n, n)))
