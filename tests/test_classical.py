import math
import random
from fractions import Fraction

import pytest

from hadwalk import classical
from hadwalk.classical import (
    WATSON_MODULUS,
    QuadratureValue,
    _green_integrand,
    rw_gf,
    rw_gf_tail_bound,
    rw_return_prob,
    watson_g_closed,
    watson_g_quadrature,
    watson_return_prob,
)
from hadwalk.exactnum import DyadicRational


def truncated5(x):
    return math.floor(x * 1e5) / 1e5


def pair(value):
    """A DyadicRational as the ints (numerator, denom_exp)."""
    return value.numerator, value.denom_exp


class TestReturnProb:
    def test_values(self):
        for dim, n, want in [(1, 2, Fraction(1, 2)), (2, 2, Fraction(1, 4)),
                             (2, 4, Fraction(36, 256))]:
            value = rw_return_prob(dim, n)
            assert isinstance(value, DyadicRational)
            assert Fraction(value.numerator, 1 << value.denom_exp) == want
        assert pair(rw_return_prob(2, 4)) == (9, 6)

    def test_odd_times(self):
        assert rw_return_prob(1, 7) == 0
        assert rw_return_prob(2, 11) == 0

    def test_square_relation(self):
        # the 2D numerator is the 1D one squared, over twice the exponent
        for n in range(101):
            num, exp = pair(rw_return_prob(1, 2 * n))
            assert pair(rw_return_prob(2, 2 * n)) == (num * num, 2 * exp)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            rw_return_prob(3, 4)


class TestGeneratingFunctions:
    def test_z_zero(self):
        assert rw_gf(1, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert rw_gf(2, 0.0) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("z", [0.3, 0.6])
    def test_one_d_series(self, z):
        n = 4
        while rw_gf_tail_bound(1, z, n) > 1e-12:
            n += 2
        partial = math.fsum(float(rw_return_prob(1, t)) * z**t for t in range(n + 1))
        assert abs(partial - rw_gf(1, z)) <= rw_gf_tail_bound(1, z, n) + 1e-10

    def test_two_d_series_polya(self):
        z = 0.5
        partial = math.fsum(float(rw_return_prob(2, t)) * z**t for t in range(200))
        assert rw_gf(2, z) == pytest.approx(partial, abs=1e-10)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            rw_gf(1, 1.0)
        with pytest.raises(ValueError):
            rw_gf(3, 0.5)

    @pytest.mark.parametrize("dim,z,message", [
        (3, 0.5, "only dimensions 1 and 2"),
        (0, 0.5, "only dimensions 1 and 2"),
        (1, -0.5, r"z must lie in \[0, 1\), got -0.5"),
        (2, 1.5, r"z must lie in \[0, 1\), got 1.5"),
        (1, 1.0, r"z must lie in \[0, 1\), got 1.0"),
        (2, float("nan"), r"z must lie in \[0, 1\), got nan"),
    ])
    def test_tail_bound_refuses_what_rw_gf_refuses(self, dim, z, message):
        # before, dim 3 gave the 1-D bound, z = -0.5 and 1.5 negative
        # bounds, z = 1 a ZeroDivisionError and NaN a NaN
        for call in (lambda: rw_gf(dim, z), lambda: rw_gf_tail_bound(dim, z, 10)):
            with pytest.raises(ValueError, match=message):
                call()

    def test_tail_bound_actually_bounds(self):
        for dim in (1, 2):
            for z in (0.3, 0.6):
                for n in (8, 30):
                    far = math.fsum(
                        float(rw_return_prob(dim, t)) * z**t for t in range(n + 800)
                    )
                    short = math.fsum(
                        float(rw_return_prob(dim, t)) * z**t for t in range(n + 1)
                    )
                    assert far - short <= rw_gf_tail_bound(dim, z, n) + 1e-15


class TestWatson:
    def test_modulus_and_prefactor(self):
        assert 0.0 < WATSON_MODULUS < 1.0
        assert WATSON_MODULUS == pytest.approx(0.0852, abs=2e-4)
        prefactor = 3 * (18 + 12 * math.sqrt(2) - 10 * math.sqrt(3) - 7 * math.sqrt(6))
        assert prefactor > 0

    def test_closed_form_digits(self):
        assert truncated5(watson_g_closed()) == 1.51638

    def test_integrand_finite_at_pi(self):
        # modulus there is 2/(3+1) = 1/2
        value = _green_integrand(math.pi)
        assert math.isfinite(value)
        assert value > 0

    def test_quadrature_matches_closed(self):
        quad = watson_g_quadrature(1e-8)
        assert isinstance(quad, QuadratureValue)
        closed = watson_g_closed()
        assert abs(quad.value - closed) <= max(1e-6, quad.error_estimate)
        assert truncated5(quad.value) == 1.51638

    def test_error_estimate_honest(self):
        quad = watson_g_quadrature(1e-9)
        assert abs(quad.value - watson_g_closed()) <= 10 * quad.error_estimate + 1e-12

    def test_rel_tol_floor(self):
        with pytest.raises(ValueError):
            watson_g_quadrature(1e-12)

    def test_return_probability(self):
        result = watson_return_prob()
        assert truncated5(result.f_return) == 0.34053
        assert 0.0 < result.f_return < 1.0
        assert abs(result.g_quadrature - result.g_closed) <= max(
            1e-6, result.quadrature_error_estimate
        )
        assert result.f_return == 1.0 - 1.0 / result.g_closed


def reference_adaptive(f, a, fa, b, fb, whole, tol, depth, state):
    """Oracle: the adaptive Simpson recursion that evaluates each panel's
    midpoint again, although its caller's Simpson rule already did."""

    def simpson(a, fa, b, fb):
        fm = f(0.5 * (a + b))
        return (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    m = 0.5 * (a + b)
    fmid = f(m)
    left = simpson(a, fa, m, fmid)
    right = simpson(m, fmid, b, fb)
    delta = left + right - whole
    if abs(delta) <= 15.0 * tol or depth >= classical._MAX_DEPTH:
        if depth >= classical._MAX_DEPTH and abs(delta) > 15.0 * tol:
            state["budget_ok"] = False
        state["err"] += abs(delta) / 15.0
        return left + right + delta / 15.0
    return reference_adaptive(f, a, fa, m, fmid, left, 0.5 * tol, depth + 1, state) + (
        reference_adaptive(f, m, fmid, b, fb, right, 0.5 * tol, depth + 1, state)
    )


def reference_integrate(f, a, b, tol, state):
    fa, fb = f(a), f(b)
    whole = (b - a) / 6.0 * (fa + 4.0 * f(0.5 * (a + b)) + fb)
    return reference_adaptive(f, a, fa, b, fb, whole, tol, 0, state)


def integrate_recording(monkeypatch, integrate):
    """Route watson_g_quadrature's integrals through `integrate`, recording
    the abscissas of each integral in a list of its own."""
    seen = []

    def recording(f, a, b, tol, state):
        xs = []
        seen.append(xs)

        def counted(x):
            xs.append(x)
            return f(x)

        return integrate(counted, a, b, tol, state)

    monkeypatch.setattr(classical, "_integrate", recording)
    return seen


class TestQuadratureNodes:
    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10])
    def test_bit_identical_to_reference_recursion(self, monkeypatch, rel_tol):
        got = watson_g_quadrature(rel_tol)
        monkeypatch.setattr(classical, "_integrate", reference_integrate)
        want = watson_g_quadrature(rel_tol)
        assert got.value.hex() == want.value.hex()
        assert got.error_estimate.hex() == want.error_estimate.hex()

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10])
    def test_each_abscissa_evaluated_once(self, monkeypatch, rel_tol):
        seen = integrate_recording(monkeypatch, classical._integrate)
        watson_g_quadrature(rel_tol)
        reference = integrate_recording(monkeypatch, reference_integrate)
        watson_g_quadrature(rel_tol)
        assert len(seen) == len(reference) == 2
        for xs, ref in zip(seen, reference):
            assert len(xs) == len(set(xs))
            # the same nodes as the reference, which visits some twice
            assert set(xs) == set(ref) and len(xs) < len(ref)


class TestMonteCarloSanity:
    def test_one_d_return_frequency(self):
        rng = random.Random(2718)
        trials = 40_000
        hits = 0
        for _ in range(trials):
            pos = 0
            for _ in range(10):
                pos += 1 if rng.random() < 0.5 else -1
            if pos == 0:
                hits += 1
        p = float(Fraction(63, 256))
        se = math.sqrt(p * (1 - p) / trials)
        assert abs(hits / trials - p) <= 3 * se
