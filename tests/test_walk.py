import itertools

import numpy as np
import pytest

from hadwalk import genfun, walk
from hadwalk.cli import main
from hadwalk.exactnum import DyadicRational, G_ONE, G_ZERO, GaussianInteger, ScaledAmplitude
from hadwalk.walk import (
    MAX_EXACT_TIME,
    CoinMatrix,
    FloatWaveFunction,
    QubitState,
    WaveFunction,
    distribution,
    evolve,
    return_probability_direct,
    step,
)


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


class TestCoinMatrix:
    def test_hadamard_is_exact(self):
        coin = CoinMatrix.hadamard()
        assert coin.is_exact
        assert coin.a == pytest.approx(2**-0.5)

    def test_unitarity_violations_named(self):
        with pytest.raises(ValueError, match=r"\|a\|\^2\+\|c\|\^2"):
            CoinMatrix.unitary(1.0, 0.0, 0.5, 1.0)
        with pytest.raises(ValueError, match=r"\|b\|\^2\+\|d\|\^2"):
            CoinMatrix.unitary(1.0, 0.0, 0.0, 0.5)
        with pytest.raises(ValueError, match=r"conj"):
            CoinMatrix.unitary(2**-0.5, 2**-0.5, 2**-0.5, 2**-0.5)

    @pytest.mark.parametrize("entries,name", [
        ((float("nan"),) * 4, "a"),
        ((1, 0, 0, float("nan")), "d"),
        ((1, complex(0, float("nan")), 0, 1), "b"),
        ((1, 0, float("-inf"), 1), "c"),
    ])
    def test_non_finite_entry_named(self, entries, name):
        with pytest.raises(ValueError, match=f"coin entry {name} = .* is not finite"):
            CoinMatrix.unitary(*entries)


class TestQubitState:
    def test_symmetric_is_normalized(self):
        q = QubitState.symmetric()
        assert q.left.probability() + q.right.probability() == DyadicRational(1)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError, match="not normalized"):
            QubitState(
                ScaledAmplitude(GaussianInteger(1), 0),
                ScaledAmplitude(GaussianInteger(1), 0),
            )

    def test_parity_mismatch_rejected(self):
        # |left|^2 = 1/2 at exponent 2, |right|^2 = 1/2 at exponent 1:
        # normalized, but the exponents cannot be reconciled in Z[i]
        q = QubitState(
            ScaledAmplitude(GaussianInteger(1, 1), 2),
            ScaledAmplitude(GaussianInteger(1), 1),
        )
        with pytest.raises(ValueError, match="parity"):
            q.common_scale()


class TestExactEngine:
    def test_single_step_amplitudes(self):
        psi = evolve(QubitState.symmetric(), CoinMatrix.hadamard(), 1)
        # (1/2)(1+i) |L> at x=-1 and (1/2)(1-i) |R> at x=+1
        left_l, left_r = psi.amplitude(-1)
        right_l, right_r = psi.amplitude(1)
        assert left_l == ScaledAmplitude(GaussianInteger(1, 1), 2)
        assert left_r == ScaledAmplitude(G_ZERO)
        assert right_l == ScaledAmplitude(G_ZERO)
        assert right_r == ScaledAmplitude(GaussianInteger(1, -1), 2)
        dist = distribution(psi)
        assert dist.at(-1) == DyadicRational(1, 1)
        assert dist.at(1) == DyadicRational(1, 1)

    def test_zero_state_stays_zero(self):
        zero = WaveFunction(0, 0, [(G_ZERO, G_ZERO)])
        stepped = zero.step(CoinMatrix.hadamard())
        assert all(gl.is_zero() and gr.is_zero() for gl, gr in stepped._pairs)

    def test_time_zero_is_point_mass(self):
        psi = evolve(QubitState.symmetric(), CoinMatrix.hadamard(), 0)
        assert distribution(psi).probs == {0: DyadicRational(1)}

    def test_two_step_distribution(self):
        dist = distribution(evolve(QubitState.symmetric(), CoinMatrix.hadamard(), 2))
        assert dist.probs == {
            -2: DyadicRational(1, 2),
            0: DyadicRational(1, 1),
            2: DyadicRational(1, 2),
        }

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 8, 10])
    def test_against_brute_force(self, n):
        oracle = brute_force_distribution(n)
        dist = distribution(evolve(QubitState.symmetric(), CoinMatrix.hadamard(), n))
        for x in dist.probs:
            assert float(dist.at(x)) == pytest.approx(oracle.get(x, 0.0), abs=1e-12)

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
        coin = CoinMatrix.hadamard()
        psi = WaveFunction.point_mass(QubitState.symmetric())
        for _ in range(60):
            psi = psi.step(coin)
            dist = distribution(psi)
            assert psi.norm_sq_total() == DyadicRational(1)
            assert dist.total() == DyadicRational(1)
            assert all(dist.at(x) == dist.at(-x) for x in dist.probs)
            # off-parity positions hold no amplitude
            for x in range(-psi.time, psi.time + 1):
                if (x - psi.time) % 2 != 0:
                    gl, gr = psi.cores(x)
                    assert gl.is_zero() and gr.is_zero()

    def test_asymmetric_initial_qubit(self):
        left_only = QubitState(
            ScaledAmplitude(GaussianInteger(1), 0), ScaledAmplitude(G_ZERO)
        )
        dist = distribution(evolve(left_only, CoinMatrix.hadamard(), 6))
        assert dist.total() == DyadicRational(1)
        assert dist.at(-2) != dist.at(2)

    def test_exact_state_rejects_float_coin(self):
        psi = WaveFunction.point_mass(QubitState.symmetric())
        float_coin = CoinMatrix.unitary(2**-0.5, 2**-0.5, 2**-0.5, -(2**-0.5))
        with pytest.raises(TypeError):
            step(psi, float_coin)


def reference_step(pairs):
    """Oracle: one Hadamard step over dense Gaussian-integer pairs on
    [-n, n], position by position, as the unpacked engine did it."""
    n = len(pairs)
    new_l = [G_ZERO] * (n + 2)
    new_r = [G_ZERO] * (n + 2)
    for i in range(0, n, 2):
        gl, gr = pairs[i]
        new_l[i] = gl + gr
        new_r[i + 2] = gl - gr
    return list(zip(new_l, new_r))


class TestPackedEngine:
    @pytest.mark.parametrize("margin", [walk._WIDTH_MARGIN, 0])
    @pytest.mark.parametrize(
        "start",
        [
            WaveFunction.point_mass(QubitState.symmetric()),
            WaveFunction.point_mass(
                QubitState(ScaledAmplitude(G_ONE, 0), ScaledAmplitude(G_ZERO))
            ),
            # not normalized, with negative components
            WaveFunction(0, 0, [(GaussianInteger(3, 4), GaussianInteger(-7))]),
            # one component equal to sqrt(norm) = 2^8 - 1: needs a ninth, sign bit
            WaveFunction(0, 0, [(GaussianInteger(-255), G_ZERO)]),
        ],
        ids=["symmetric", "left-only", "unnormalized", "at-bound"],
    )
    def test_matches_reference_stepper(self, monkeypatch, start, margin):
        monkeypatch.setattr(walk, "_WIDTH_MARGIN", margin)
        coin = CoinMatrix.hadamard()
        psi = WaveFunction(start.time, start.scale_exp, start._pairs)
        pairs = psi._pairs
        widths = {psi._width}
        for t in range(1, 151):
            psi = psi.step(coin)
            pairs = reference_step(pairs)
            widths.add(psi._width)
            assert (psi.time, psi.scale_exp) == (t, start.scale_exp + t)
            assert psi._pairs == pairs, t
        assert len(widths) >= (2 if margin == walk._WIDTH_MARGIN else 8)

    def test_single_slot_reads_match_unpacked_state(self):
        psi = evolve(QubitState.symmetric(), CoinMatrix.hadamard(), 41)
        fresh = [psi.cores(x) for x in range(-41, 42)]  # one slot per call
        assert psi._columns is None
        assert fresh == psi._pairs

    @pytest.mark.parametrize("n", [1002, 1600])
    def test_deep_return_probability_matches_legendre(self, n):
        assert return_probability_direct(n) == genfun.p0_legendre(n // 2)

    @pytest.mark.parametrize("width", [8, 40, 72])
    def test_pack_round_trip_at_slot_extremes(self, width):
        top = (1 << (width - 1)) - 1
        values = [top, -top, 0, -1, 1, top, top, -top, -top, 0]
        packed = walk._pack(values, width)
        assert walk._unpack(packed, width, len(values)) == values
        assert [walk._read_slot(packed, width, k) for k in range(len(values))] == values
        with pytest.raises(OverflowError):
            walk._pack([1 << (width - 1)], width)

    @pytest.mark.parametrize("width,count", [(8, 1), (8, 9), (40, 17), (536, 5)])
    def test_bias_is_the_closed_form(self, width, count):
        closed = (1 << (width - 1)) * ((1 << (width * count)) - 1) // ((1 << width) - 1)
        assert walk._bias(width, count) == closed

    def test_constructor_rejects_off_parity_amplitude(self):
        with pytest.raises(ValueError, match="parity"):
            WaveFunction(1, 0, [(G_ZERO, G_ZERO), (G_ONE, G_ZERO), (G_ZERO, G_ZERO)])

    def test_other_exact_cores_rejected(self):
        r = 2**-0.5
        flipped = CoinMatrix(r, r, -r, r, exact_cores=(G_ONE, G_ONE, -G_ONE, G_ONE))
        with pytest.raises(TypeError, match="Hadamard"):
            WaveFunction.point_mass(QubitState.symmetric()).step(flipped)

    @pytest.mark.parametrize(
        "argv",
        [
            ["return-prob", "-n", str(MAX_EXACT_TIME + 2)],
            ["return-prob", "-n", str(MAX_EXACT_TIME + 2), "--method", "direct"],
            ["simulate", "-n", str(MAX_EXACT_TIME + 2)],
        ],
    )
    def test_time_above_limit_refused(self, capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"MAX_EXACT_TIME = {MAX_EXACT_TIME}" in err
        assert "--method prop1" in err and "--method closed" in err

    def test_odd_time_above_limit_needs_no_evolution(self):
        assert return_probability_direct(MAX_EXACT_TIME + 1) == 0


class TestFloatEngine:
    def test_matches_exact_engine(self):
        r = 2**-0.5
        coin = CoinMatrix.unitary(r, r, r, -r)
        psi_f = FloatWaveFunction.point_mass(QubitState.symmetric())
        psi_e = WaveFunction.point_mass(QubitState.symmetric())
        hadamard = CoinMatrix.hadamard()
        for _ in range(60):
            psi_f = psi_f.step(coin)
            psi_e = psi_e.step(hadamard)
        exact = distribution(psi_e)
        floats = distribution(psi_f)
        assert set(floats) == set(exact.probs)
        for x, p in floats.items():
            assert p == pytest.approx(float(exact.at(x)), abs=1e-12)

    def test_general_coin_normalization(self):
        coin = CoinMatrix.unitary(0.6, 0.8j, 0.8j, 0.6)
        psi = evolve(QubitState.symmetric(), coin, 40)
        probs = distribution(psi)
        assert sum(probs.values()) == pytest.approx(1.0, abs=1e-12)

    def test_step_dispatch_demotes_exact_coin(self):
        psi = FloatWaveFunction.point_mass(QubitState.symmetric())
        out = step(psi, CoinMatrix.hadamard())
        assert isinstance(out, FloatWaveFunction)

    def test_time_limit_boundary(self, monkeypatch):
        coin = CoinMatrix.unitary(0.6, 0.8j, 0.8j, 0.6)
        monkeypatch.setattr(walk, "MAX_FLOAT_TIME", 5)
        assert evolve(QubitState.symmetric(), coin, 5).time == 5
        with pytest.raises(ValueError, match="MAX_FLOAT_TIME = 5"):
            evolve(QubitState.symmetric(), coin, 6)
