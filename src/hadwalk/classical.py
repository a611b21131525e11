"""Classical simple-random-walk comparanda: exact 1D/2D return probabilities,
their generating functions (the 2D one is an elliptic integral), and the 3D
lattice Green value G with return probability F = 1 - 1/G.

G is computed two independent ways: numerically, by integrating out the last
lattice angle against the 2D resolvent kernel 3 K(2/(3-cos t)) / (3-cos t),
and through the surd closed form.  The integrand blows up logarithmically
where the modulus reaches 1 (t = 0), so the quadrature substitutes
t = exp(-u) on a sliver next to the singularity and integrates a decaying
smooth function instead.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .exactnum import DyadicRational
from .specfun import elliptic_k_agm, elliptic_k_from_complement, one_minus_square

#: Largest time of the exact classical return probability.  Its cost, with
#: the numerator printed in full, grows as T^2: classical --time took
#: 1.6 / 14 s in 1D and 2.3 / 18 s in 2D at T = 300 000 / 1 000 000 on one
#: core of a 2-vCPU x86-64 host, interpreter start included.
MAX_RW_TIME = 1_000_000

_SPLIT_THETA = 1e-2
_MAX_DEPTH = 48

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)
SQRT6 = math.sqrt(6.0)

#: modulus k0 = 2√3 + √6 - 2√2 - 3 of the closed form for G, taken as
#: 1/(3 + 2√2 + 2√3 + √6): a sum of positive terms, with no cancellation
WATSON_MODULUS = 1.0 / (3.0 + 2.0 * SQRT2 + 2.0 * SQRT3 + SQRT6)


class QuadratureConvergenceError(RuntimeError):
    """Raised when the subdivision budget is exhausted; carries the best value."""

    def __init__(self, message: str, best_estimate: float):
        super().__init__(message)
        self.best_estimate = best_estimate


#: G by quadrature and the quadrature's error estimate, both floats.
QuadratureValue = namedtuple("QuadratureValue", "value error_estimate")

#: G by quadrature and by the closed form, F = 1 - 1/G and the quadrature's
#: error estimate, all floats.  The field order is watson's JSON key and
#: column order.
WatsonResult = namedtuple("WatsonResult",
                          "g_quadrature g_closed f_return quadrature_error_estimate")


def rw_return_prob(dim: int, n: int) -> DyadicRational:
    """Exact return probability at time n: C(n, n/2)/2^n in 1D, its square in 2D."""
    if dim not in (1, 2):
        raise ValueError("only dimensions 1 and 2 have exact values here")
    if n < 0:
        raise ValueError("time must be nonnegative")
    if n > MAX_RW_TIME:
        raise ValueError(f"time {n} is above the limit MAX_RW_TIME = {MAX_RW_TIME}")
    if n % 2 == 1:
        return DyadicRational(0)
    c = math.comb(n, n // 2)
    return DyadicRational(c, n) if dim == 1 else DyadicRational(c * c, 2 * n)


def _check_gf_args(dim: int, z: float) -> None:
    if dim not in (1, 2):
        raise ValueError("only dimensions 1 and 2 have closed-form generating functions")
    if not 0.0 <= z < 1.0:
        raise ValueError(f"z must lie in [0, 1), got {z}")


def rw_gf(dim: int, z: float) -> float:
    """Return-probability generating function: 1/sqrt(1-z^2) in 1D,
    (2/pi) K(z) in 2D.  1 - z^2 is one_minus_square(z), with no
    cancellation near z = 1."""
    _check_gf_args(dim, z)
    if dim == 1:
        return 1.0 / math.sqrt(one_minus_square(z))
    return 2.0 / math.pi * elliptic_k_agm(z)


def rw_gf_tail_bound(dim: int, z: float, truncation: int) -> float:
    """Tail of the generating-function series past N, from
    C(2k,k)/4^k <= 1/sqrt(pi k), for the z and dims rw_gf takes."""
    _check_gf_args(dim, z)
    if truncation < 4:
        raise ValueError("tail bound needs truncation >= 4")
    if z == 0.0:
        return 0.0
    peak = 1.0 / math.sqrt(math.pi * (truncation // 2))
    if dim == 2:
        peak *= peak
    return peak * z ** (truncation + 1) / (1.0 - z)


def _green_integrand(theta: float) -> float:
    # 3 K(2/(3-cos t)) / (3-cos t): integrating the 2D lattice resolvent
    # (1/(2pi))^2 iint dx dy / (a - cos x - cos y) = 2 K(2/a) / (pi a) over
    # the third angle with a = 3 - cos t.  The complement 1-k^2 is fed to
    # the AGM directly to dodge cancellation as t -> 0.
    denom = 3.0 - math.cos(theta)
    k = 2.0 / denom
    half = math.sin(0.5 * theta)
    one_minus_k = 2.0 * half * half / denom
    return 3.0 / denom * elliptic_k_from_complement(one_minus_k * (1.0 + k))


def _simpson(f, a, fa, b, fb):
    mid = 0.5 * (a + b)
    fm = f(mid)
    return mid, fm, (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adaptive(f, a, fa, m, fm, b, fb, whole, tol, depth, state):
    """Adaptive Simpson on [a, b], whose midpoint m and Simpson value `whole`
    the caller has already computed; each abscissa is evaluated once."""
    lm, flm, left = _simpson(f, a, fa, m, fm)
    rm, frm, right = _simpson(f, m, fm, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol or depth >= _MAX_DEPTH:
        if depth >= _MAX_DEPTH and abs(delta) > 15.0 * tol:
            state["budget_ok"] = False
        state["err"] += abs(delta) / 15.0
        return left + right + delta / 15.0
    return _adaptive(f, a, fa, lm, flm, m, fm, left, 0.5 * tol, depth + 1, state) + _adaptive(
        f, m, fm, rm, frm, b, fb, right, 0.5 * tol, depth + 1, state
    )


def _integrate(f, a, b, tol, state) -> float:
    fa, fb = f(a), f(b)
    m, fm, whole = _simpson(f, a, fa, b, fb)
    return _adaptive(f, a, fa, m, fm, b, fb, whole, tol, 0, state)


def watson_g_quadrature(rel_tol: float = 1e-8) -> QuadratureValue:
    """G = (1/pi^2) integral over [-pi, pi] of the elliptic-integral kernel
    3 K(2/(3-cos t)) / (3-cos t), numerically.

    Even symmetry halves the range; [0, theta_c] is mapped by t = exp(-u)
    onto a finite smooth interval plus an analytically bounded tail.
    """
    # NaN compares false everywhere, so without this check it would drive the
    # subdivision to full depth (2^48 leaves); inf would accept one panel, and
    # so would a tolerance near 1e308, for which abs_tol below overflows to
    # inf.  A relative tolerance of 1 or more asks for no correct digit.
    if not (math.isfinite(rel_tol) and rel_tol > 0.0):
        raise ValueError(f"rel_tol must be a finite positive number, got {rel_tol!r}")
    if rel_tol >= 1.0:
        raise ValueError(f"rel_tol must be below 1, got {rel_tol!r}")
    if rel_tol < 1e-10:
        raise ValueError("rel_tol below 1e-10 exceeds double-precision headroom")
    state = {"err": 0.0, "budget_ok": True}
    # raw target for the half-range integral, whose value is about 7.5
    abs_tol = 0.5 * rel_tol * 7.0

    smooth = _integrate(_green_integrand, _SPLIT_THETA, math.pi, 0.5 * abs_tol, state)

    u_lo = -math.log(_SPLIT_THETA)
    u_hi = max(40.0, -math.log(rel_tol) + 15.0)
    mapped = _integrate(
        lambda u: _green_integrand(math.exp(-u)) * math.exp(-u),
        u_lo,
        u_hi,
        0.5 * abs_tol,
        state,
    )
    # integrand beyond u_hi is below 2 (u + 4) e^-u
    tail = 2.0 * (u_hi + 5.0) * math.exp(-u_hi)

    half = smooth + mapped
    g = 2.0 / (math.pi * math.pi) * half
    err = 2.0 / (math.pi * math.pi) * (state["err"] + tail)
    if not state["budget_ok"]:
        raise QuadratureConvergenceError(
            f"subdivision budget exhausted before reaching rel_tol={rel_tol}", best_estimate=g
        )
    return QuadratureValue(g, max(err, 1e-15))


def watson_g_closed() -> float:
    """Surd closed form 3(18+12√2-10√3-7√6) {K(k0)}^2 (2/pi)^2."""
    # 18+12√2-10√3-7√6 = 1/(1 + √3/3 + √6/6), taken as the latter: summing
    # four terms near 17 to about 0.504 would lose some 7 bits
    prefactor = 3.0 / (1.0 + SQRT3 / 3.0 + SQRT6 / 6.0)
    k = elliptic_k_agm(WATSON_MODULUS)
    return prefactor * k * k * (2.0 / math.pi) ** 2


def watson_return_prob(rel_tol: float = 1e-8) -> WatsonResult:
    """Assemble both G values and the 3D return probability F = 1 - 1/G."""
    quad = watson_g_quadrature(rel_tol)
    closed = watson_g_closed()
    return WatsonResult(
        g_quadrature=quad.value,
        g_closed=closed,
        f_return=1.0 - 1.0 / closed,
        quadrature_error_estimate=quad.error_estimate,
    )
