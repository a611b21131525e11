import cmath
import itertools
import json
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadwalk import genfun, verify, walk
from hadwalk.cli import main
from hadwalk.exactnum import DyadicRational, GaussianInteger
from hadwalk.walk import (
    MAX_EXACT_TIME,
    CoinMatrix,
    FloatWaveFunction,
    WaveFunction,
    distribution,
    evolve,
    return_probability_direct,
    symmetric_distribution,
)

from test_verify import plus


def brute_force_distribution(n):
    """Oracle: enumerate all 2^n left/right step sequences with literal
    2x2 complex matrices, summing amplitudes per endpoint before squaring."""
    r = 2.0**-0.5
    p = np.array([[r, r], [0, 0]])
    q = np.array([[0, 0], [r, -r]])
    phi = np.array([r, 1j * r])
    amps = {}
    for seq in itertools.product("LR", repeat=n):
        vec = phi
        pos = 0
        for move in seq:
            vec = (p if move == "L" else q) @ vec
            pos += -1 if move == "L" else 1
        amps[pos] = amps.get(pos, np.zeros(2, complex)) + vec
    return {pos: float(np.vdot(vec, vec).real) for pos, vec in amps.items()}


#: The qubit (1, 0) at the origin: a start that is not the symmetric qubit.
LEFT_ONLY = WaveFunction(0, 0, ([1], [0], [0], [0]))

#: Zero core of the dense Gaussian-integer oracles.
G_ZERO = GaussianInteger(0, 0)


def exact_walk(n, start=None):
    """The four-part exact walk n steps from `start`, the symmetric qubit by
    default, as verify steps it."""
    psi = WaveFunction.point_mass() if start is None else start
    for _ in range(n):
        psi = psi.step()
    return psi


def float_start():
    """The float engine's start amplitudes (left, right) as complex numbers."""
    psi = FloatWaveFunction.point_mass()
    return complex(psi.left[0]), complex(psi.right[0])


def int_cores(pairs):
    """(left, right) Gaussian-integer core pairs as (Lre, Lim, Rre, Rim) ints."""
    return [(gl.re, gl.im, gr.re, gr.im) for gl, gr in pairs]


def origin_ints(psi):
    """(Lre, Lim, Rre, Rim) at the origin, slot time // 2, of an exact state
    at an even time."""
    return [part[psi.time // 2] for part in psi.parts]


def spread(psi):
    """A float state's left and right amplitudes over all time + 1 slots,
    0 outside its window."""
    full = np.zeros((2, psi.time + 1), complex)
    full[:, psi.lo : psi.hi + 1] = psi.left, psi.right
    return full


class TestCoinMatrix:
    def test_unitarity_violations_named(self):
        with pytest.raises(ValueError, match=r"\|a\|\^2\+\|c\|\^2"):
            CoinMatrix(1.0, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError, match=r"\|b\|\^2\+\|d\|\^2"):
            CoinMatrix(1.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError, match=r"conj"):
            CoinMatrix(2**-0.5, 2**-0.5, 2**-0.5, 2**-0.5)

    @pytest.mark.parametrize("entries,name", [
        ((float("nan"),) * 4, "a"),
        ((1, 0, 0, float("nan")), "d"),
        ((1, complex(0, float("nan")), 0, 1), "b"),
        ((1, 0, float("-inf"), 1), "c"),
    ])
    def test_non_finite_entry_named(self, entries, name):
        with pytest.raises(ValueError, match=f"coin entry {name} = .* is not finite"):
            CoinMatrix(*entries)

    @pytest.mark.parametrize("entries,name", [
        ((1e308, 0, 0, 1), "a"),
        ((1e200, 0, 0, 1), "a"),
        ((1e155, 1e155, 0, 1), "a"),
        ((1, 0, 0, complex(1e300, 1e300)), "d"),
    ])
    def test_entry_too_large_to_square_named(self, entries, name):
        # abs(entry) ** 2 overflows: the coin is refused, naming the entry
        message = rf"coin not unitary: \|{name}\|\^2 of .* overflows"
        with pytest.raises(ValueError, match=message):
            CoinMatrix(*entries)


class TestQubitState:
    """The fixed start of both walk states, the symmetric qubit (1, i)/sqrt2."""

    def test_symmetric_is_normalized(self):
        psi = WaveFunction.point_mass()
        assert sum(v * v for v in origin_ints(psi)) == 2**psi.scale_exp

    def test_symmetric_cores(self):
        psi = WaveFunction.point_mass()
        assert (psi.time, psi.scale_exp, psi.parts) == (0, 1, ([1], [0], [0], [1]))

    def test_float_start_is_the_rounded_symmetric_qubit(self):
        # the floats (1/sqrt2) (1, i) rounded once, with +0.0 zero parts
        psi = FloatWaveFunction.point_mass()
        assert (psi.time, psi.lo, psi.left.size, psi.right.size) == (0, 0, 1, 1)
        left, right = float_start()
        amp = 2**-0.5
        assert (left.real.hex(), right.imag.hex()) == (amp.hex(), amp.hex())
        assert math.copysign(1.0, left.imag) == math.copysign(1.0, right.real) == 1.0
        assert left.imag == right.real == 0.0

    def test_left_only_qubit_evolves_like_the_reference(self):
        t = 40
        pairs = dense_pairs(LEFT_ONLY)
        for _ in range(t):
            pairs = reference_step(pairs)
        want = {
            x: DyadicRational(gl.norm_sq() + gr.norm_sq(), t)
            for x, (gl, gr) in zip(range(-t, t + 1), pairs)
            if (x + t) % 2 == 0
        }
        assert distribution(exact_walk(t, LEFT_ONLY)).probs == want


class TestExactEngine:
    def test_single_step_amplitudes(self):
        psi = exact_walk(1)
        # (1/2)(1+i) |L> at x=-1 and (1/2)(1-i) |R> at x=+1
        assert psi.scale_exp == 2
        assert list(zip(*psi.parts)) == [(1, 1, 0, 0), (0, 0, 1, -1)]
        assert distribution(psi).probs == {-1: DyadicRational(1, 1), 1: DyadicRational(1, 1)}

    def test_zero_state_stays_zero(self):
        zero = WaveFunction(0, 0, ([0], [0], [0], [0]))
        stepped = zero.step()
        assert stepped.parts == ([0, 0],) * 4

    @pytest.mark.parametrize(
        "start",
        [
            WaveFunction.point_mass(),
            LEFT_ONLY,
            # not normalized, with negative components
            WaveFunction(0, 0, ([3], [4], [-7], [0])),
            # one component equal to sqrt(norm), the largest it can be
            WaveFunction(0, 0, ([-255], [0], [0], [0])),
        ],
        ids=["symmetric", "left-only", "unnormalized", "at-bound"],
    )
    def test_matches_reference_stepper(self, start):
        psi, pairs = start, dense_pairs(start)
        for t in range(1, 151):
            psi = psi.step()
            pairs = reference_step(pairs)
            assert (psi.time, psi.scale_exp) == (t, start.scale_exp + t)
            assert int_cores(dense_pairs(psi)) == int_cores(pairs), t

    def test_steps_without_the_packing_helpers(self, monkeypatch):
        # verify's reference must not share a fault with the real-half
        # engines it checks, so it calls none of their helpers
        def refuse(*args):
            raise AssertionError("the four-part walk called a packing helper")

        for name in ("_bias", "_unpack", "_widen", "_read_slot", "_slot_width", "_refit",
                     "_real_half"):
            monkeypatch.setattr(walk, name, refuse)
        psi = exact_walk(200)
        assert distribution(psi).total() == DyadicRational(1)
        p0 = DyadicRational(sum(v * v for v in origin_ints(psi)), psi.scale_exp)
        assert p0 == distribution(psi).probs[0] == genfun.p0_legendre(100)

    def test_time_zero_is_point_mass(self):
        psi = WaveFunction.point_mass()
        assert distribution(psi).probs == {0: DyadicRational(1)}

    def test_two_step_distribution(self):
        dist = distribution(exact_walk(2))
        assert dist.probs == {
            -2: DyadicRational(1, 2),
            0: DyadicRational(1, 1),
            2: DyadicRational(1, 2),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 10])
    def test_against_brute_force(self, n):
        oracle = brute_force_distribution(n)
        dist = distribution(exact_walk(n))
        for x, p in dist.probs.items():
            assert float(p) == pytest.approx(oracle.get(x, 0.0), abs=1e-12)

    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, DyadicRational(1)),
            (2, DyadicRational(1, 1)),
            (4, DyadicRational(1, 3)),
            (6, DyadicRational(1, 3)),
            (8, DyadicRational(9, 7)),
            (16, DyadicRational(1225, 15)),
        ],
    )
    def test_return_probability_values(self, n, expected):
        assert return_probability_direct(n) == expected

    @pytest.mark.parametrize("n", [1, 3, 7, 99])
    def test_odd_time_returns_zero(self, n):
        assert return_probability_direct(n) == DyadicRational(0)

    def test_conservation_symmetry_parity(self):
        psi = WaveFunction.point_mass()
        for _ in range(60):
            psi = psi.step()
            dist = distribution(psi)
            assert dist.total() == DyadicRational(1)
            assert all(dist.probs[x] == dist.probs[-x] for x in dist.probs)
            # only the positions of the time's parity are stored
            assert [len(part) for part in psi.parts] == [psi.time + 1] * 4
            assert list(dist.probs) == list(range(-psi.time, psi.time + 1, 2))

    def test_asymmetric_initial_qubit(self):
        dist = distribution(exact_walk(6, LEFT_ONLY))
        assert dist.total() == DyadicRational(1)
        assert dist.probs[-2] != dist.probs[2]

    def test_total_is_one_only_for_a_normalized_distribution(self):
        # one probability raised by 2^-40: its int sum is 1 + 2^-40
        dist = symmetric_distribution(10)
        assert (dist.total().numerator, dist.total().denom_exp) == (1, 0)
        probs = dict(dist.probs)
        probs[10] = plus(probs[10], DyadicRational(1, 40))
        total = walk.Distribution(10, probs).total()
        assert (total.numerator, total.denom_exp) == ((1 << 40) + 1, 40)


def dense_pairs(psi):
    """(left, right) cores on [-time, time] from the four parts, zero at the
    positions off the time's parity."""
    pairs = [(G_ZERO, G_ZERO)] * (2 * psi.time + 1)
    pairs[::2] = [(GaussianInteger(a, b), GaussianInteger(c, d)) for a, b, c, d in zip(*psi.parts)]
    return pairs


def reference_step(pairs):
    """Oracle: one Hadamard step over dense Gaussian-integer pairs on
    [-n, n], position by position, the off-parity positions included."""
    n = len(pairs)
    new_l = [G_ZERO] * (n + 2)
    new_r = [G_ZERO] * (n + 2)
    for i in range(0, n, 2):
        gl, gr = pairs[i]
        new_l[i] = gl + gr
        new_r[i + 2] = gl - gr
    return list(zip(new_l, new_r))


def packed(values, width):
    """Oracle: the literal sum_k values[k] 2^(width k), summed by halves so
    that thousands of wide slots cost O(n log n) big-int work."""
    if len(values) < 2:
        return sum(values)
    mid = len(values) // 2
    return packed(values[:mid], width) + (packed(values[mid:], width) << (width * mid))


class TestPackedEngine:
    @pytest.mark.parametrize("margin", [walk._WIDTH_MARGIN, 0])
    @pytest.mark.parametrize(
        "start",
        [
            WaveFunction.point_mass(),
            LEFT_ONLY,
        ],
        ids=["symmetric", "left-only"],
    )
    def test_matches_reference_stepper(self, monkeypatch, start, margin):
        # the Hadamard coin is real, so the real pair and the imaginary pair
        # of each start step on their own; each is stepped as _real_half
        # steps its pair, _refit and then L' = L + R, R' = (L - R) << w.
        # Each pair's summed squares are at most 1 at time 0, so at most 2^t
        # at time t, the bound the slots are sized for
        monkeypatch.setattr(walk, "_WIDTH_MARGIN", margin)
        pairs = dense_pairs(start)
        (lre, lim, rre, rim), = int_cores(pairs)
        halves = [(l, r, walk._slot_width(0)) for l, r in ((lre, rre), (lim, rim))]
        widths = {width for *_, width in halves}
        for t in range(1, 151):
            pairs = reference_step(pairs)
            stepped = []
            for l, r, width in halves:
                l, r, width = walk._refit(l, r, t, width, t)
                stepped.append((l + r, (l - r) << width, width))
                widths.add(width)
            halves = stepped
            want = list(zip(*int_cores(pairs[::2])))
            for (l, r, width), (want_l, want_r) in zip(halves, (want[::2], want[1::2])):
                assert walk._unpack(l, width, t + 1) == list(want_l), t
                assert walk._unpack(r, width, t + 1) == list(want_r), t
        assert len(widths) >= (2 if margin == walk._WIDTH_MARGIN else 8)

    @pytest.mark.parametrize("n", [1002, 1600])
    def test_deep_return_probability_matches_legendre(self, n):
        assert return_probability_direct(n) == genfun.p0_legendre(n // 2)

    @pytest.mark.parametrize("width", [8, 40, 72])
    def test_pack_round_trip_at_slot_extremes(self, width):
        top = (1 << (width - 1)) - 1
        values = [top, -top, 0, -1, 1, top, top, -top, -top, 0]
        state = packed(values, width)
        assert walk._unpack(state, width, len(values)) == values
        assert [walk._read_slot(state, width, k) for k in range(len(values))] == values

    @pytest.mark.parametrize("width,new_width", [(8, 16), (40, 72), (536, 576)])
    def test_widen_equals_packing_at_the_new_width(self, width, new_width):
        top = (1 << (width - 1)) - 1
        values = [top, -top, 0, -1, 1, -top, top, 0, -1]
        state = packed(values, width)
        for count in range(1, len(values) + 1):
            # the slots above `count` are nonzero, and dropped
            want = packed(values[:count], new_width)
            assert walk._widen(state, width, new_width, count) == want, count

    def test_widen_equals_packing_at_the_direct_route_sizes(self):
        # 4001 slots at 2048 -> 2080 bits, about what the direct route
        # widens near T = 8000: seeded random values with the extremes mixed
        # in, and 100 nonzero slots above `count`
        rng = random.Random(21)
        width, new_width, count = 2048, 2080, 4001
        top = (1 << (width - 1)) - 1
        values = [rng.randint(-top, top) for _ in range(count + 100)]
        values[::97] = [rng.choice((top, -top, 0, -1, 1)) for _ in values[::97]]
        want = packed(values[:count], new_width)
        assert walk._widen(packed(values, width), width, new_width, count) == want

    @pytest.mark.parametrize("width,count", [(8, 1), (8, 9), (40, 17), (536, 5)])
    def test_bias_is_the_closed_form(self, width, count):
        closed = (1 << (width - 1)) * ((1 << (width * count)) - 1) // ((1 << width) - 1)
        assert walk._bias(width, count) == closed

    # At time t the real half's slots need t // 2 + 2 bits: with the margin
    # set to 0 these tests see _slot_width or _refit size one bit short, or
    # widen one step early
    @pytest.mark.parametrize("t,width", [
        (0, 8), (1, 8), (12, 8), (13, 8), (14, 16), (15, 16), (28, 16), (29, 16),
        (30, 24), (31, 24),
    ])
    def test_slot_width_at_byte_boundaries(self, monkeypatch, t, width):
        monkeypatch.setattr(walk, "_WIDTH_MARGIN", 0)
        assert walk._slot_width(t) == width
        # the slots hold +-isqrt(2^t), the largest components at time t
        top = math.isqrt(1 << t)
        values = [top, -top, 0, -top, top]
        assert walk._unpack(packed(values, width), width, len(values)) == values
        if t in (14, 30):
            # the width grows here: isqrt(2^t) is past the largest slot of
            # the next narrower whole-byte width
            assert top > (1 << (width - 9)) - 1

    @pytest.mark.parametrize("lre,rre", [(64, 64), (64, -64)])
    def test_refit_widens_a_one_slot_pair_at_the_bound(self, monkeypatch, lre, rre):
        # summed squares 2^13: 8-bit slots hold the pair up to time 13, but
        # not its step at time 14, L = 128 or R = 128.  A repack to the same
        # width would also keep the values, so the test counts repacks
        monkeypatch.setattr(walk, "_WIDTH_MARGIN", 0)
        widths, widen = [], walk._widen

        def spy(state, width, new_width, count):
            widths.append((width, new_width))
            return widen(state, width, new_width, count)

        monkeypatch.setattr(walk, "_widen", spy)
        for t in range(14):
            assert walk._refit(lre, rre, t, 8, 1) == (lre, rre, 8), t
        assert widths == []
        new_lre, new_rre, width = walk._refit(lre, rre, 14, 8, 1)
        assert width == 16 and widths == [(8, 16), (8, 16)]
        assert walk._read_slot(new_lre + new_rre, width, 0) == lre + rre
        assert walk._read_slot(new_lre - new_rre, width, 0) == lre - rre

    def test_constructor_rejects_wrong_slot_count(self):
        with pytest.raises(ValueError, match=r"time 1 needs 2 slots per part, got \[2, 3, 2, 2\]"):
            WaveFunction(1, 0, ([0, 0], [0, 1, 0], [0, 0], [0, 0]))

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["return-prob", "-n", str(MAX_EXACT_TIME + 2), "--method", "direct"],
                id="argv1",
            ),
            pytest.param(["simulate", "-n", str(MAX_EXACT_TIME + 2)], id="argv2"),
        ],
    )
    def test_time_above_limit_refused(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"MAX_EXACT_TIME = {MAX_EXACT_TIME}" in err
        assert "--method prop1" in err and "--method closed" in err

    def test_return_prob_all_above_limit_uses_the_other_routes(self, capsys):
        direct = verify.ROUTES[0]
        assert [direct.covers(MAX_EXACT_TIME + d) for d in (0, 1, 2)] == [True, True, False]
        n = MAX_EXACT_TIME + 2
        assert main(["--format", "json", "return-prob", "-n", str(n)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [v["method"] for v in doc["values"]] == ["xi", "prop1", "closed"]
        assert doc["all_equal"] is True
        assert {v["exact"] for v in doc["values"]} == {str(genfun.p0_closed(n // 4))}

    def test_odd_time_above_limit_needs_no_evolution(self):
        assert return_probability_direct(MAX_EXACT_TIME + 1) == 0

    def test_direct_route_above_limit_names_the_limit(self):
        # the cone evolves only to n/2, so the route states the cap itself
        with pytest.raises(ValueError, match=f"MAX_EXACT_TIME = {MAX_EXACT_TIME};"):
            return_probability_direct(MAX_EXACT_TIME + 2)


class TestLightCone:
    @staticmethod
    def unpruned_returns(n_max):
        """p_n(0) at every even n <= n_max from one full-width exact walk."""
        psi = WaveFunction.point_mass()
        values = {0: DyadicRational(1)}
        for n in range(2, n_max + 1, 2):
            psi = psi.step().step()
            values[n] = DyadicRational(sum(v * v for v in origin_ints(psi)), psi.scale_exp)
        return values

    @pytest.mark.parametrize("margin", [walk._WIDTH_MARGIN, 0])
    def test_equals_the_unpruned_walk(self, monkeypatch, margin):
        monkeypatch.setattr(walk, "_WIDTH_MARGIN", margin)
        for n, want in self.unpruned_returns(400).items():
            assert return_probability_direct(n) == want, n

    def test_range_widens_in_both_phases(self, monkeypatch):
        # n = 400: the slots widen on the way to time 200 and in the cone after it
        counts = []
        widen = walk._widen

        def spy(packed, width, new_width, count):
            counts.append(count)
            return widen(packed, width, new_width, count)

        monkeypatch.setattr(walk, "_widen", spy)
        return_probability_direct(400)
        # the widenings come in time order; a forward one repacks all t + 1
        # slots, more than any earlier widening, and a cone one its n - t + 1
        # slots, more than any later one: so a rise between two consecutive
        # counts shows a forward widening, and a fall one in the cone
        pairs = list(zip(counts, counts[1:]))
        assert any(a < b for a, b in pairs) and any(a > b for a, b in pairs)
        # the cone repacks at most its n/2 + 1 slots
        assert max(counts) <= 201

    def test_calls_neither_evolve_nor_step(self, monkeypatch):
        # the route has its own two-int loop, so verify's four-part walk
        # stays a second code path (evolve runs only the float engine, so
        # WaveFunction.step is the one four-part entry left to refuse)
        def refuse(*args):
            raise AssertionError("the direct route called the four-part engine")

        monkeypatch.setattr(WaveFunction, "step", refuse)
        assert return_probability_direct(400) == genfun.p0_legendre(200)


def int_pairs(dist):
    """A distribution as (position, numerator, denom_exp) ints."""
    return [(x, p.numerator, p.denom_exp) for x, p in dist.probs.items()]


class TestRealHalfDistribution:
    def test_equals_the_four_part_walk_at_every_small_time(self):
        psi = WaveFunction.point_mass()
        for t in range(65):
            assert int_pairs(symmetric_distribution(t)) == int_pairs(distribution(psi)), t
            psi = psi.step()

    @pytest.mark.parametrize("n", [1001, 2000])
    def test_equals_the_four_part_walk_at_large_times(self, n):
        psi = exact_walk(n)
        assert int_pairs(symmetric_distribution(n)) == int_pairs(distribution(psi))

    def test_calls_neither_evolve_nor_step(self, monkeypatch):
        # verify compares it with the four-part walk, so it must not step one
        def refuse(*args):
            raise AssertionError("the real-half engine called the four-part engine")

        monkeypatch.setattr(WaveFunction, "step", refuse)
        assert symmetric_distribution(40).probs[0] == genfun.p0_legendre(20)

    def test_refuses_negative_and_too_large_times(self):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            symmetric_distribution(-1)
        with pytest.raises(ValueError, match=f"MAX_EXACT_TIME = {MAX_EXACT_TIME};"):
            symmetric_distribution(MAX_EXACT_TIME + 1)


class TestMirrorIdentity:
    def test_imaginary_cores_are_the_real_cores_mirrored(self):
        # at time t, slot k: Lim[k] = (-1)^(t+1) Rre[t-k], Rim[k] = (-1)^t Lre[t-k]
        psi = WaveFunction.point_mass()
        for t in range(301):
            lre, lim, rre, rim = psi.parts
            sign = -1 if t % 2 else 1
            assert lim == [-sign * v for v in reversed(rre)], t
            assert rim == [sign * v for v in reversed(lre)], t
            psi = psi.step()


def full_width_step(left, right, coin):
    """Oracle: one float step over all 2t + 1 positions of [-t, t], the
    zeros off the time's parity included, as the uncompressed engine did it."""
    n = left.size
    new_left = np.zeros(n + 2, complex)
    new_right = np.zeros(n + 2, complex)
    new_left[:-2] = coin.a * left + coin.b * right
    new_right[2:] = coin.c * left + coin.d * right
    return new_left, new_right


def untrimmed_step(left, right, coin):
    """Oracle: one float step over all t + 1 slots, dropping none."""
    new_left = np.zeros(left.size + 1, complex)
    new_right = np.zeros(left.size + 1, complex)
    new_left[:-1] = coin.a * left + coin.b * right
    new_right[1:] = coin.c * left + coin.d * right
    return new_left, new_right


def full_width_probabilities(t, left, right):
    probs = (np.abs(left) ** 2 + np.abs(right) ** 2).real
    return {x: float(probs[x + t]) for x in range(-t, t + 1, 2)}


def _general_phase_coin():
    """e^{i phi} [[cos th e^{i al}, sin th e^{i be}], [-sin th e^{-i be}, cos th e^{-i al}]]"""
    phi, th, al, be = 0.4, 0.3, 0.7, -1.1
    g = cmath.exp(1j * phi)
    return CoinMatrix(
        g * math.cos(th) * cmath.exp(1j * al),
        g * math.sin(th) * cmath.exp(1j * be),
        -g * math.sin(th) * cmath.exp(-1j * be),
        g * math.cos(th) * cmath.exp(-1j * al),
    )


R2 = 2**-0.5
FLOAT_COINS = {
    "hadamard": CoinMatrix(R2, R2, R2, -R2),
    "0.6,0.8j": CoinMatrix(0.6, 0.8j, 0.8j, 0.6),
    "real": CoinMatrix(0.6, 0.8, 0.8, -0.6),
    "phases": _general_phase_coin(),
}
#: |a| = 0.999 keeps the end amplitudes far above the cut for 10^5 steps
NEAR_IDENTITY = CoinMatrix(0.999, math.sqrt(1 - 0.999**2), math.sqrt(1 - 0.999**2), -0.999)
#: (t, coin name): every coin to t = 2000, and (0.6, 0.8i, 0.8i, 0.6), whose
#: window drops a fifth of the slots by t = 3980 and a third by 20 000
FOURIER_CASES = [(t, name) for t in (1, 2, 7, 100, 1001, 2000) for name in FLOAT_COINS]
FOURIER_CASES += [(3980, "0.6,0.8j"), (20_000, "0.6,0.8j")]

#: unit roundoff of IEEE binary64
U = 2.0**-53
#: |fl(x1 y1 + x2 y2) - (x1 y1 + x2 y2)| <= ETA (|x1||y1| + |x2||y2|) for
#: complex x, y, with or without fused multiply-adds: each product is off by
#: at most sqrt(2) gamma_2 |x||y| (Higham, Accuracy and Stability of
#: Numerical Algorithms, 2nd ed., Lemma 3.5) and the sum by u of its size;
#: sqrt(2) gamma_2 + u (1 + sqrt(2) gamma_2) = 3.83 u, rounded up.  A single
#: product obeys the same bound.
ETA = 4 * U
#: |fl(e^{i k~}) a - e^{i k} a| <= BETA |a| for k = 2 pi j / M computed as
#: 2 * np.pi * j / M: k~ = k (1 + theta_3) is off by at most 2 pi gamma_3,
#: cos and sin are within one ulp (2 sqrt(2) u for the pair), and the
#: product adds sqrt(2) gamma_2: 18.85 u + 2.83 u + 2.83 u, rounded up.
BETA = 26 * U
#: relative error of numpy's inverse FFT of length M is at most
#: FFT_C u log2 M.  Higham's Theorem 24.2 gives about 6.7 (eta = mu +
#: gamma_4 (sqrt(2) + mu), twiddle error mu ~ u) for radix-2 Cooley-Tukey
#: with accurate twiddles; pocketfft's mixed-radix and
#: Bluestein plans have the same form with a few more passes, and 64 covers
#: them with room.  This is the one constant of the bound taken from the
#: literature instead of derived line by line below.
FFT_C = 64


def coin_growth(t):
    """Upper bound on ||C||_2^t.  A coin that passed validation has
    ||C^H C - I||_F <= 2 UNITARITY_TOL up to the check's own rounding, so
    ||C||_2^2 <= 1 + 2 UNITARITY_TOL + O(u) and ||C||_2 <= 1 + 2 UNITARITY_TOL."""
    return math.exp(t * 2 * walk.UNITARITY_TOL)


def coin_array(coin):
    return np.array([[coin.a, coin.b], [coin.c, coin.d]])


def engine_error_bound(coin, qubit, t):
    """Bound on ||psi~_t - psi_t||_2, the stepped state against the exact
    walk with the same float coin C and float initial qubit.

    A step computes each slot of its window as fl(a L + b R) or
    fl(c L + d R), as a dense step would, so its local error is at most
    ETA |C| (|L|, |R|) slot by slot, of 2-norm at most ETA ||C||_F ||psi~_t||.
    It then drops the end slots whose two amplitudes both lie below the cut
    walk._FLOAT_CUT, each a change of norm below sqrt(2) cut.  The window
    starts with one slot, and a step adds one slot (lo..hi becomes
    lo..hi + 1) before it drops any, so over t steps at most t + 1 slots are
    dropped, and the drops of step s have norm delta_s with
    sum_s delta_s <= sqrt(2) cut (t + 1).  The exact step S has
    ||S||_2 = ||C||_2 <= c, so
    e_{s+1} <= c e_s + ETA ||C||_F (c^s nu_0 + e_s) + delta_s, which gives
    e_t <= nu_0 ((c + x)^t - c^t) + (c + x)^t sum_s delta_s
        <= c^t (nu_0 expm1(t x) + e^(t x) sqrt(2) cut (t + 1))
    for x = ETA ||C||_F and c >= 1 (coin_growth)."""
    nu0 = math.hypot(*map(abs, qubit)) * (1 + 2 * U)
    x = ETA * np.linalg.norm(coin_array(coin))
    window = math.exp(t * x) * math.sqrt(2) * walk._FLOAT_CUT * (t + 1)
    return coin_growth(t) * (nu0 * math.expm1(t * x) + window)


def fourier_walk(coin, qubit, t):
    """Independent float oracle for the walk, and a bound on its error.

    The walk is translation invariant (Ambainis, Bach, Nayak, Vishwanath and
    Watrous, "One-dimensional quantum walks", STOC 2001): with
    psi^(k) = sum_x psi(x) e^{-ikx}, one step psi'(x) = P psi(x+1) +
    Q psi(x-1) is psi^'(k) = U(k) psi^(k) with U(k) = diag(e^{ik}, e^{-ik}) C.
    So psi^_t(k) = U(k)^t psi^_0 with psi^_0 the initial qubit.  The state
    lives on |x| <= t, so M = 2t + 2 frequencies k_j = 2 pi j / M determine
    it without aliasing, and psi_t(x) = ifft(psi^_t)[x mod M].  U(k)^t comes
    from one batched eigendecomposition U~ V = V diag(w); each eigenvalue is
    normalised to w/|w| before its power, taken as exp(i t arg w).

    Returns (psi, bound): psi[x mod M] = (left, right) amplitude at x, and
    bound >= ||psi - psi_t||_2 against the exact walk with the float coin.

    Derivation, per frequency j (all norms 2-norms unless marked F):
    - U~ is the computed U(k_j): ||U~ - U(k_j)|| <= BETA ||C||_F.
    - sigma_1 <= F := ||V||_F and sigma_2 >= |det V| / F, both made
      one-sided for their own rounding; kappa = F / sigma_2 bounds the
      condition number of V.
    - A := V diag(w/|w|) V^{-1}, with the computed V and w, is the matrix
      whose power is taken.  From U~ V - V diag(w) = R,
      ||U~ - A|| <= ||R|| / sigma_2 + kappa max_l | |w_l| - 1 | =: rho, and
      ||R|| is at most the computed residual plus 2 ETA (||U~||_F + max|w|) F.
    - ||A^n|| <= kappa for every n and ||U(k_j)^n|| <= ||C||^n, so
      A^t - U^t = sum_n A^(t-1-n) (A - U) U^n has norm at most
      t kappa (rho + BETA ||C||_F) coin_growth: the dominant term.
    - What is computed is V (ph * c~) with c~ = solve(V, psi^_0) and
      ph = exp(i t arg w).  ||c~ - V^{-1} psi^_0|| <= ||V c~ - psi^_0|| /
      sigma_2, the residual again made one-sided.  arg w is within one ulp
      (4u, as |arg w| <= pi), t arg w adds u t pi and exp one ulp per part,
      so |ph - (w/|w|)^t| <= (4 + pi) u t + 3u.  Forming ph * c~ and the
      product with V rounds by at most 3 ETA F ||c~||.
    Summing: E_j = t kappa (rho + BETA ||C||_F) coin_growth ||psi^_0||
    + F ((ph error + 3 ETA) ||c~|| + ||c~ - c||).  By Parseval the inverse
    DFT maps an error E in 2-norm over the M frequencies to E / sqrt(M), and
    the FFT itself adds at most FFT_C u log2(M) ||psi||.  ETA and BETA,
    which carry the terms that grow with t, are rounded up by over 4 %; that
    also covers the relative O(u) rounding of the bound's own evaluation."""
    m = 2 * t + 2
    c_mat = coin_array(coin)
    z = np.exp(1j * (2 * np.pi * np.arange(m) / m))
    u_k = np.empty((m, 2, 2), complex)
    u_k[:, 0, :] = z[:, None] * c_mat[0]
    u_k[:, 1, :] = z.conj()[:, None] * c_mat[1]
    w, v = np.linalg.eig(u_k)
    psi0 = np.broadcast_to(np.array(qubit, complex), (m, 2))
    c = np.linalg.solve(v, psi0[..., None])[..., 0]
    ph = np.exp(1j * (t * np.angle(w)))
    psi_hat = (v @ (ph * c)[..., None])[..., 0]
    psi = np.fft.ifft(psi_hat, axis=0)

    def fro(a):
        return np.linalg.norm(a, axis=(-2, -1))

    f = fro(v) * (1 + 4 * U)
    prods = np.abs(v[:, 0, 0] * v[:, 1, 1]) + np.abs(v[:, 0, 1] * v[:, 1, 0])
    det = np.abs(v[:, 0, 0] * v[:, 1, 1] - v[:, 0, 1] * v[:, 1, 0])
    sigma2 = (det * (1 - 4 * U) - 2 * ETA * prods) / f
    assert (sigma2 > 0).all()
    kappa = f / sigma2
    resid = fro(u_k @ v - v * w[:, None, :])
    resid += 2 * ETA * (fro(u_k) + np.abs(w).max(axis=1)) * f
    rho = resid / sigma2 + kappa * (np.abs(np.abs(w) - 1).max(axis=1) + 2 * U)
    n0 = np.linalg.norm(psi0, axis=1) * (1 + 2 * U)
    c_norm = np.linalg.norm(c, axis=1) * (1 + 2 * U)
    resid_c = np.linalg.norm((v @ c[..., None])[..., 0] - psi0, axis=1)
    resid_c += 2 * ETA * (f * c_norm + n0)
    ph_err = (4 + math.pi) * U * t + 3 * U
    e_j = t * kappa * (rho + BETA * fro(c_mat)) * coin_growth(t) * n0
    e_j += f * ((ph_err + 3 * ETA) * c_norm + resid_c / sigma2)
    fft_err = FFT_C * U * math.log2(m)
    bound = math.sqrt((e_j**2).sum() / m) + fft_err * np.linalg.norm(psi) / (1 - fft_err)
    return psi, bound


class TestFloatEngine:
    def test_matches_exact_engine(self):
        r = 2**-0.5
        coin = CoinMatrix(r, r, r, -r)
        psi_f = FloatWaveFunction.point_mass()
        psi_e = WaveFunction.point_mass()
        for _ in range(60):
            psi_f = psi_f.step(coin)
            psi_e = psi_e.step()
        exact = distribution(psi_e)
        floats = psi_f.probabilities()
        assert set(floats) == set(exact.probs)
        for x, p in floats.items():
            assert p == pytest.approx(float(exact.probs[x]), abs=1e-12)

    def test_general_coin_normalization(self):
        coin = CoinMatrix(0.6, 0.8j, 0.8j, 0.6)
        psi = evolve(coin, 40)
        probs = psi.probabilities()
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("coin", FLOAT_COINS.values(), ids=FLOAT_COINS.keys())
    def test_bit_identical_to_full_width_stepper(self, coin):
        psi = FloatWaveFunction.point_mass()
        left, right = spread(psi)
        for t in range(1, 3981):
            psi = psi.step(coin)
            left, right = full_width_step(left, right, coin)
            if t <= 200 or t in (1001, 3000, 3980):
                want = full_width_probabilities(t, left, right)
                got = psi.probabilities()
                assert list(got) == list(want), t
                assert [p.hex() for p in got.values()] == [p.hex() for p in want.values()], t

    def test_step_leaves_its_source_unchanged(self):
        coin = FLOAT_COINS["phases"]
        psi = evolve(coin, 50)
        left, right = psi.left.copy(), psi.right.copy()
        first, second = psi.step(coin), psi.step(coin)
        assert np.array_equal(psi.left, left) and np.array_equal(psi.right, right)
        assert np.array_equal(first.left, second.left)
        assert np.array_equal(first.right, second.right)
        # left and right are the window's own arrays: a step allocates new ones
        assert not np.shares_memory(first.left, psi.left)
        assert not np.shares_memory(first.right, psi.right)
        assert first.left.size == first.right.size == 52

    @pytest.mark.parametrize("coin", [FLOAT_COINS["phases"], FLOAT_COINS["0.6,0.8j"]],
                             ids=["phases", "0.6,0.8j"])
    def test_many_steps_leave_their_source_unchanged(self, coin):
        """_float_steps writes c L over each step's source window; from the
        second step on that is one of its own buffers, never the caller's.
        At t = 1300 the coin with a = 0.6 has trimmed both ends."""
        psi = evolve(coin, 1300)
        left, right = psi.left.copy(), psi.right.copy()
        later = walk._float_steps(psi, coin, 200)
        assert np.array_equal(psi.left.view(np.uint64), left.view(np.uint64))
        assert np.array_equal(psi.right.view(np.uint64), right.view(np.uint64))
        for own in (later.left, later.right):
            assert not np.shares_memory(own, psi.left)
            assert not np.shares_memory(own, psi.right)
        chained = psi
        for _ in range(200):
            chained = chained.step(coin)
        assert (later.time, later.lo, later.hi) == (chained.time, chained.lo, chained.hi)
        assert np.array_equal(later.left.view(np.uint64), chained.left.view(np.uint64))
        assert np.array_equal(later.right.view(np.uint64), chained.right.view(np.uint64))

    @pytest.mark.parametrize(
        "coin",
        [*FLOAT_COINS.values(), CoinMatrix(0.6, 0.48 + 0.64j, -0.48 + 0.64j, 0.6),
         CoinMatrix(1, 0, 0, 1), CoinMatrix(0, 1, 1, 0)],
        ids=[*FLOAT_COINS, "0.6,0.48+0.64j", "identity", "swap"],
    )
    def test_window_holds_every_slot_at_or_above_the_cut(self, coin):
        """Step by step against the same step over every slot: the window
        is the span of the slots with an amplitude at or above the cut, and
        its arrays hold that step's values there bit for bit.
        The three coins with a = 0.6 start dropping slots at both ends near
        t = 1220; the window's arrays then start at another offset than the
        full ones, which the coin with complex b and c checks under fused
        multiply-adds.  The identity coin leaves zeros between its two live
        edges, and the swap coin keeps the walk on x = 0 and x = +-1."""
        psi = FloatWaveFunction.point_mass()
        for t in range(1, 1501):
            want_left, want_right = untrimmed_step(*spread(psi), coin)
            psi = psi.step(coin)
            lo, hi = psi.lo, psi.hi
            live = np.flatnonzero(np.maximum(abs(want_left), abs(want_right)) >= walk._FLOAT_CUT)
            assert (lo, hi) == (live[0], live[-1]), t
            assert np.array_equal(psi.left, want_left[lo : hi + 1]), t
            assert np.array_equal(psi.right, want_right[lo : hi + 1]), t
        if coin.a == 0.6:
            assert 0 < lo and hi < t

    @pytest.mark.parametrize(
        "coin",
        [*FLOAT_COINS.values(), NEAR_IDENTITY, CoinMatrix(0.6, 0.48 + 0.64j, -0.48 + 0.64j, 0.6),
         CoinMatrix(1, 0, 0, 1), CoinMatrix(0, 1, 1, 0)],
        ids=[*FLOAT_COINS, "0.999", "0.6,0.48+0.64j", "identity", "swap"],
    )
    def test_evolve_equals_chained_steps_bit_for_bit(self, coin):
        """evolve reuses its buffers from step to step and step allocates
        them afresh.  The coins with a = 0.6 trim both ends from near
        t = 1220, where a reused buffer holds an older step's values."""
        psi = FloatWaveFunction.point_mass()
        for t in (0, 1, 2, 1500, 3980):
            while psi.time < t:
                psi = psi.step(coin)
            got = evolve(coin, t)
            assert (got.time, got.lo, got.hi) == (psi.time, psi.lo, psi.hi), t
            assert np.array_equal(got.left.view(np.uint64), psi.left.view(np.uint64)), t
            assert np.array_equal(got.right.view(np.uint64), psi.right.view(np.uint64)), t

    @pytest.mark.parametrize("coin", [FLOAT_COINS["phases"], NEAR_IDENTITY], ids=["phases", "0.999"])
    def test_full_window_coin_keeps_every_slot(self, coin):
        psi = FloatWaveFunction.point_mass()
        for t in range(1, 3981):
            psi = psi.step(coin)
            assert (psi.lo, psi.hi) == (0, t), t

    def test_constructor_accepts_a_window_in_slots_0_to_time(self):
        coin = FLOAT_COINS["real"]
        full = FloatWaveFunction(3, 0, np.zeros(4, complex), np.array([0, 0.6, 0.8j, 0]))
        assert (full.lo, full.hi) == (0, 3)
        stepped = full.step(coin)
        assert (stepped.lo, stepped.hi) == (1, 3)
        # the same state as its proper sub-window of slots 1..2
        sub = FloatWaveFunction(3, 1, np.zeros(2, complex), np.array([0.6, 0.8j]))
        assert (sub.lo, sub.hi) == (1, 2)
        assert sub.probabilities() == full.probabilities()
        assert sub.step(coin).probabilities() == stepped.probabilities()
        # a step of an all-zero state leaves the empty window at lo = time + 1
        empty = FloatWaveFunction(2, 0, np.zeros(3, complex), np.zeros(3, complex)).step(coin)
        assert (empty.time, empty.lo, empty.hi) == (3, 4, 3)
        assert empty.probabilities() == {-3: 0.0, -1: 0.0, 1: 0.0, 3: 0.0}
        assert (empty.step(coin).lo, empty.step(coin).hi) == (5, 4)

    @pytest.mark.parametrize(
        "lo,sizes",
        [(0, (3, 2)), (-1, (2, 2)), (1, (3, 3)), (0, (5, 5)), (4, (0, 0))],
        ids=["sizes-differ", "negative-lo", "past-time", "too-many-slots", "empty-past-time"],
    )
    def test_constructor_refuses_a_window_outside_slots_0_to_time(self, lo, sizes):
        left, right = (np.zeros(size, complex) for size in sizes)
        with pytest.raises(ValueError, match=r"a float window at time 2 lies in slots 0\.\.2"):
            FloatWaveFunction(2, lo, left, right)

    @pytest.mark.parametrize("t,name", FOURIER_CASES, ids=[f"{t}-{name}" for t, name in FOURIER_CASES])
    def test_matches_fourier_oracle_within_roundoff_bound(self, t, name):
        coin = FLOAT_COINS[name]
        qubit = float_start()
        psi = evolve(coin, t)
        oracle, oracle_bound = fourier_walk(coin, qubit, t)
        bound = engine_error_bound(coin, qubit, t) + oracle_bound
        slots = (2 * np.arange(t + 1) - t) % (2 * t + 2)  # position x at x mod M
        stepped = np.zeros_like(oracle)
        stepped[slots, 0], stepped[slots, 1] = spread(psi)
        assert np.linalg.norm(stepped - oracle) <= bound
        # sum_x | |u_x|^2 - |v_x|^2 | <= (||u|| + ||v||) ||u - v||, plus the
        # rounding of each side's |L|^2 + |R|^2 (under 6u of it, 8u taken)
        probs = np.zeros(2 * t + 2)
        probs[slots] = list(psi.probabilities().values())
        oracle_probs = (np.abs(oracle) ** 2).sum(axis=1)
        norms = np.linalg.norm(stepped) + np.linalg.norm(oracle)
        slack = 8 * U * (probs.sum() + oracle_probs.sum())
        assert np.abs(probs - oracle_probs).sum() <= norms * bound + slack

    @settings(deadline=None, database=None, derandomize=True, max_examples=10)
    @given(st.integers(0, 1500))
    @example(1500)
    def test_rounded_hadamard_coin_matches_the_real_half_engine(self, t):
        """The float engine with the Hadamard coin rounded to floats against
        the exact distribution of symmetric_distribution, which shares no
        code with it, in L1 over positions.

        Let psi be the exact walk with the exact coin H and qubit
        phi = (1, i)/sqrt2, psi' the exact walk with the float coin C and
        float qubit phi~ = (r, i r), r = fl(1/sqrt2), and psi~ the stepped
        state.  Then ||psi~ - psi|| <= E with E the sum of
        - ||psi~ - psi'|| <= engine_error_bound(C, phi~, t);
        - ||psi' - psi|| <= t coin_growth(t) ||C - H|| ||phi~|| + ||phi~ - phi||,
          from W_C^t - W_H^t = sum_n W_C^(t-1-n) (W_C - W_H) W_H^n with
          ||W_H|| = 1 and ||W_C - W_H|| = ||C - H||.  Every entry of C and
          of phi~ is off by delta = |r - 1/sqrt2| = |r^2 - 1/2| / (r + 1/sqrt2),
          and r + 1/sqrt2 > 1.4, so ||C - H|| <= ||C - H||_F = 2 delta and
          ||phi~ - phi|| = sqrt2 delta.
        As in test_matches_fourier_oracle_within_roundoff_bound,
        sum_x | |u_x|^2 - |v_x|^2 | <= (||u|| + ||v||) ||u - v||, with
        ||psi|| = 1 and ||psi~|| <= 1 + E, plus the rounding of each side's
        probabilities: 8 u of the float sums, and float() of an exact value
        rounds it by at most u of itself.
        """
        r = 2**-0.5
        coin = CoinMatrix(r, r, r, -r)
        qubit = float_start()
        delta = float(abs(Fraction(r) ** 2 - Fraction(1, 2))) / 1.4 * (1 + 2 * U)
        qubit_norm = math.hypot(*map(abs, qubit)) * (1 + 2 * U)
        bound = (engine_error_bound(coin, qubit, t)
                 + t * coin_growth(t) * 2 * delta * qubit_norm + math.sqrt(2) * delta)
        floats = evolve(coin, t).probabilities()
        exact = {x: float(p) for x, p in symmetric_distribution(t).probs.items()}
        assert list(floats) == list(exact)
        l1 = math.fsum(abs(floats[x] - exact[x]) for x in exact)
        slack = 8 * U * (math.fsum(floats.values()) + math.fsum(exact.values()))
        assert l1 <= (2 + bound) * bound + slack, (t, l1, bound)

    def test_time_limit_boundary(self, monkeypatch):
        coin = CoinMatrix(0.6, 0.8j, 0.8j, 0.6)
        monkeypatch.setattr(walk, "MAX_FLOAT_TIME", 5)
        assert evolve(coin, 5).time == 5
        with pytest.raises(ValueError, match="MAX_FLOAT_TIME = 5"):
            evolve(coin, 6)
