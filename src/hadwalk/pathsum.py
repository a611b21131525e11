"""Path-counting calculus for the Hadamard walk.

The four rank-one matrices P, Q, R, S (top/bottom rows of the coin and of its
row-swapped copy) are closed under multiplication up to a single coin entry,
so the sum over all l-left/m-right step orderings is a 4-vector recursion
instead of a 2^n enumeration.  Both that recursion and the closed-form
alternating binomial sums run on the int cores of the Hadamard coin, exactly.
"""

from __future__ import annotations

from collections import namedtuple

from .exactnum import DyadicRational
from .walk import HADAMARD_CORES, QubitState

#: Largest grid (l+1)(m+1) the path-sum DP fills.  At the largest square
#: under it, l = m = 499, path_sum_dp took 0.2 s and path_sum_grid 1.1 s and
#: 129 MiB on one core of a 2-vCPU x86-64 host.
MAX_DP_CELLS = 250_000

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
    path_sum_closed, path_sum_dp and every path_sum_grid cell.  Two vectors
    for the same time are therefore equal in value exactly when they
    compare ==.
    """

    __slots__ = ()

    def to_complex(self) -> tuple[complex, complex, complex, complex]:
        scale = 2.0 ** (-self.scale_exp / 2.0)
        return tuple(complex(g) * scale for g in (self.p, self.q, self.r, self.s))


def _prepend(up: tuple, left: tuple, entries: tuple) -> tuple:
    """P up + Q left as a 4-tuple of int cores, one exponent of 1/sqrt2 up;
    entries are the Hadamard cores (a, b, c, d).

    Each product of two basis matrices is one coin entry times one basis
    matrix: PP = aP, PS = bP, PQ = bR, PR = aR, QQ = dQ, QR = cQ, QP = cS,
    QS = dS.  So a pure P on the left gives (a p + b s, 0, b q + a r, 0), a
    pure Q gives (0, d q + c r, 0, c p + d s); the sum takes p, r from 'up'
    and q, s from 'left'.  verify checks these eight products.
    """
    a, b, c, d = entries
    return (
        a * up[0] + b * up[3],
        d * left[1] + c * left[2],
        b * up[1] + a * up[2],
        c * left[0] + d * left[3],
    )


def _dp_rows(steps: StepPair):
    """Rows i = 0..l of the prepend-a-step recursion
    S(i, j) = P S(i-1, j) + Q S(i, j-1), each a list of S(i, j) for j = 0..m
    (S(0, 0) is None).  A cell is the int cores of the Hadamard PQRSVector
    with scale exponent i+j-1.
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
    entries = HADAMARD_CORES  # a local is cheaper per cell than the global
    nothing = (0, 0, 0, 0)
    row = [None]
    for j in range(1, m + 1):
        row.append((0, 1, 0, 0) if j == 1 else _prepend(nothing, row[-1], entries))
    yield row
    for i in range(1, l + 1):
        cell = (1, 0, 0, 0) if i == 1 else _prepend(row[0], nothing, entries)
        above, row = row, [cell]
        for up in above[1:]:
            cell = _prepend(up, cell, entries)
            row.append(cell)
        yield row


def path_sum_grid(steps: StepPair) -> dict[tuple[int, int], PQRSVector]:
    """Coefficient vectors for every (i, j) with i <= l, j <= m, i+j >= 1,
    filled by the prepend-a-step recursion S(l, m) = P S(l-1, m) + Q S(l, m-1).
    """
    return {
        (i, j): PQRSVector(*cell, i + j - 1)
        for i, row in enumerate(_dp_rows(steps))
        for j, cell in enumerate(row)
        if i + j >= 1
    }


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
    (1/sqrt2)^(scale_exp + 1).
    """
    qubit = QubitState.symmetric()
    gl, gr = qubit.left, qubit.right
    top = (vec.p + vec.r) * gl + (vec.p - vec.r) * gr
    bottom = (vec.q + vec.s) * gl + (vec.s - vec.q) * gr
    return DyadicRational(top.norm_sq() + bottom.norm_sq(), vec.scale_exp + 1 + qubit.scale_exp)


def return_probability_paths(n: int) -> DyadicRational:
    """Exact p_{2n}(0) from the closed-form coefficients at l = m = n."""
    if n < 1:
        raise ValueError("n must be at least 1")
    if 2 * n > MAX_PATHS_TIME:
        raise ValueError(f"time {2 * n} is above the limit MAX_PATHS_TIME = {MAX_PATHS_TIME}")
    return _symmetric_probability(path_sum_closed(StepPair(n, n)))
