"""State-vector evolution of the coined walk on the integer line.

Two engines share one stepping rule psi'(x) = P psi(x+1) + Q psi(x-1):
an exact engine for the Hadamard coin (Gaussian-integer cores under a shared
power of 1/sqrt(2)) and a float engine for arbitrary unitary coins.  Every
engine starts from the symmetric qubit (1, i)/sqrt(2) at the origin.

The Hadamard coin is real, so the real and imaginary parts of the cores
evolve independently, and from the symmetric qubit the imaginary parts are
the real parts mirrored.  So the real-half engines, symmetric_distribution,
which simulate runs, and return_probability_direct, step only the real pair,
and only they pack: each part is one Python int (Kronecker substitution),
sum_k v_k 2^(w k) with one signed w-bit slot per position, and a step is
L' = L + R, R' = (L - R) << w, a few big-int operations.  WaveFunction,
verify's reference, keeps all four parts as plain lists of ints, so it
shares no packing code with the engines it checks.  evolve runs only the
float engine.

Both engines store only the time's parity.  The walk moves every amplitude
one position per step, so at time t only the t + 1 positions x = 2k - t
(slot k = 0..t) can hold amplitude.  The float engine's step over those
slots is L'[k] = a L[k] + b R[k] for k <= t with L'[t+1] = 0, and R'[0] = 0
with R'[k+1] = c L[k] + d R[k].  It stores and steps only a live window of
slots, one complex array per chirality, and drops each end slot whose
amplitudes fall below 2^-900, far under any printed probability.  One loop,
_float_steps, makes every float step: FloatWaveFunction.step runs it once and
evolve n times, in place on buffers it allocates once per call.  A
kept slot goes through the same floating-point operations as on a dense
array over [-t, t].  A dropped slot is 0 where a dense stepper keeps a tiny
value, so the last bits of nearby values can differ after many steps; with
the coins tested, no printed probability differed up to T = 10000.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .exactnum import DyadicRational

UNITARITY_TOL = 1e-12

#: Largest time the exact engine evolves to, and the direct route's largest
#: even time.  A state grows as T^2/2 bits and the work as T^3:
#: symmetric_distribution, which simulate runs, took 2.1 / 28-31 s at
#: T = 4000 / 9000, and simulate --format json 2.4-2.7 / 27-29 s, interpreter
#: start included, printing 4.7 / 23 MB; return-prob --method direct, which
#: steps only the real parts, to T/2 and then in the light cone, took
#: 0.14-0.20 / 0.79-0.88 / 9.5-11.2 s at T = 992 / 4000 / 9000, interpreter
#: start included, on one core of a 2-vCPU x86-64 host (fresh interpreters,
#: 2 runs each).
MAX_EXACT_TIME = 9000

#: Largest time the float engine evolves to, sized to keep the slowest coin
#: under 8 s.  Its time grows as T^2, and is longest for a coin whose live
#: window keeps every slot: simulate with the coin (0.999, s, s, -0.999),
#: s = sqrt(1 - 0.999^2), the slowest coin measured, took 2.4 / 5.4-6.1 /
#: 8.0-8.2 s at T = 35000 / 50000 / 55000 (the last with this cap lifted),
#: interpreter start included, with a peak RSS of 40 / 45 / 46 MiB (56 MiB
#: at 55000 with --format json), on one core of a 2-vCPU x86-64 host.  The
#: coin (0.6, 0.8i, 0.8i, 0.6) took 0.84-0.90 s at T = 20000, at 34 MiB.
MAX_FLOAT_TIME = 50_000

#: A float step drops an end slot of the window whose left and right
#: amplitudes both lie below this.  Any cut in [2^-1022, 2^-538] is safe.
#: At or above 2^-1022, the smallest normal float, it drops every end slot
#: whose amplitudes lie below the normal range, so the tails of subnormals
#: that make a dense step slow are gone.  Below 2^-538, a dropped slot's
#: probability |L|^2 + |R|^2 already rounds to 0.0 when kept: each square
#: is at most 2^-1076, under half the smallest subnormal.  The dropped
#: amplitudes' norms bound the change in the state (see engine_error_bound
#: in tests/test_walk.py); 2^-900 leaves room at both ends.
_FLOAT_CUT = 2.0**-900

#: Bits added beyond the bound whenever slots are (re)sized, so a widening
#: comes only about every 2 * _WIDTH_MARGIN steps.
_WIDTH_MARGIN = 32


def _slot_width(t: int) -> int:
    """Whole-byte slot width for the real half at time t, plus _WIDTH_MARGIN.
    Its summed squares are 2^t, as (a + b)^2 + (a - b)^2 = 2(a^2 + b^2), and
    at most 2^t in the light cone, which only drops slots.  So no slot
    exceeds isqrt(2^t), of t // 2 + 1 bits, or t // 2 + 2 with a sign bit."""
    return -(-(t // 2 + 2 + _WIDTH_MARGIN) // 8) * 8


def _bias(width: int, count: int) -> int:
    """2^(w-1) in each of `count` slots, i.e. the closed form
    2^(w-1) (2^(w count) - 1) / (2^w - 1), built as a repeated byte pattern."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little") * count, "little")


def _unpack(packed: int, width: int, count: int) -> list[int]:
    """The `count` signed slots of `packed`, lowest first."""
    half, size = 1 << (width - 1), width // 8
    data = (packed + _bias(width, count)).to_bytes(size * count, "little")
    return [int.from_bytes(data[i : i + size], "little") - half for i in range(0, len(data), size)]


def _widen(packed: int, width: int, new_width: int, count: int) -> int:
    """The lowest `count` slots of `packed`, repacked from width to new_width
    bits; slots above them are dropped.  Each biased slot's bytes get zero
    bytes on top, so no slot passes through a Python int of its own."""
    size, new_size = width // 8, new_width // 8
    biased = (packed + _bias(width, count)) & ((1 << (width * count)) - 1)
    slots = biased.to_bytes(size * count, "little")
    pad = bytes(new_size - size)
    padded = pad.join([slots[i : i + size] for i in range(0, size * count, size)]) + pad
    half = (1 << (width - 1)).to_bytes(new_size, "little")
    return int.from_bytes(padded, "little") - int.from_bytes(half * count, "little")


def _read_slot(packed: int, width: int, k: int) -> int:
    """Signed slot k of `packed`; the slots above it do not affect it."""
    biased = (packed + _bias(width, k + 1)) >> (width * k)
    return (biased & ((1 << width) - 1)) - (1 << (width - 1))


class CoinMatrix:
    """Unitary coin [[a, b], [c, d]] of the float engine (each exact engine
    writes the Hadamard step out itself); ValueError names any violated unitarity condition."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: complex, b: complex, c: complex, d: complex) -> None:
        self.a = complex(a)
        self.b = complex(b)
        self.c = complex(c)
        self.d = complex(d)
        self._validate_unitary()

    def _validate_unitary(self) -> None:
        entries = dict(zip("abcd", (self.a, self.b, self.c, self.d)))
        for name, entry in entries.items():
            if not (math.isfinite(entry.real) and math.isfinite(entry.imag)):
                raise ValueError(f"coin entry {name} = {entry!r} is not finite")
        squares = {}
        for name, entry in entries.items():
            try:
                squares[name] = abs(entry) ** 2
            except OverflowError:
                raise ValueError(f"coin not unitary: |{name}|^2 of {entry!r} overflows") from None
        col1 = squares["a"] + squares["c"]
        col2 = squares["b"] + squares["d"]
        cross = self.a * self.b.conjugate() + self.c * self.d.conjugate()
        if abs(col1 - 1.0) > UNITARITY_TOL:
            raise ValueError(f"coin not unitary: |a|^2+|c|^2 = {col1!r}, expected 1")
        if abs(col2 - 1.0) > UNITARITY_TOL:
            raise ValueError(f"coin not unitary: |b|^2+|d|^2 = {col2!r}, expected 1")
        if abs(cross) > UNITARITY_TOL:
            raise ValueError(
                f"coin not unitary: a*conj(b)+c*conj(d) = {cross!r}, expected 0"
            )

    def __repr__(self) -> str:
        return f"CoinMatrix({self.a}, {self.b}, {self.c}, {self.d})"


class WaveFunction:
    """Exact walk state on [-n, n] under one shared power of 1/sqrt(2).

    `parts` holds four plain lists of ints, (Lre, Lim, Rre, Rim): the real
    and imaginary parts of the left and of the right cores at the time + 1
    positions of the time's parity (slot k is position 2k - time); positions
    off that parity hold no amplitude.  Callers read position x as index
    (x + time) // 2 of each part; verify reads the origin at an even time.
    This is verify's reference, so it packs nothing and shares no helper
    with the real-half engines.
    """

    __slots__ = ("time", "scale_exp", "parts")

    def __init__(self, time: int, scale_exp: int, parts: tuple[list[int], ...]) -> None:
        if any(len(part) != time + 1 for part in parts):
            lengths = [len(part) for part in parts]
            raise ValueError(f"time {time} needs {time + 1} slots per part, got {lengths}")
        self.time = time
        self.scale_exp = scale_exp
        self.parts = parts

    @classmethod
    def point_mass(cls) -> WaveFunction:
        """The symmetric qubit (1, i)/sqrt(2) at the origin at time 0."""
        return cls(0, 1, ([1], [0], [0], [1]))

    def support(self) -> range:
        """Positions sharing the time's parity, from -n to n."""
        return range(-self.time, self.time + 1, 2)

    def step(self) -> WaveFunction:
        """One step of the Hadamard coin, written out: l + r and l - r on each pair."""
        # new x draws its left core from old x+1 and its right core from
        # old x-1: left slots keep their index, right slots move up by one
        lre, lim, rre, rim = self.parts
        return WaveFunction(self.time + 1, self.scale_exp + 1, (
            [l + r for l, r in zip(lre, rre)] + [0],
            [l + r for l, r in zip(lim, rim)] + [0],
            [0] + [l - r for l, r in zip(lre, rre)],
            [0] + [l - r for l, r in zip(lim, rim)],
        ))


class FloatWaveFunction:
    """Float walk state for arbitrary unitary coins.

    Slot k is position 2k - time, so the time + 1 positions of the time's
    parity are slots 0..time; positions off that parity hold no amplitude
    and are not stored.  The state stores only its live window of slots
    lo..hi: `left` and `right` hold one complex amplitude per window slot,
    and every slot outside the window is exactly 0.  The window may be
    empty, at lo = time + 1, as a step of an all-zero state leaves it.

    A step computes the window's slots and then drops each end slot whose
    left and right amplitudes both lie below _FLOAT_CUT.  A kept slot goes
    through the same floating-point operations as on a dense array over
    [-t, t]; a dropped one becomes 0 instead of a value below the cut, so
    near the window's ends later values can differ in their last bits from
    a dense stepper's.  Steps run in _float_steps, which writes only into
    buffers of its own, so a state a caller holds never changes.

    Only this engine uses numpy, and its methods import it, so the exact
    commands never load it.  The module imports annotations from
    __future__, so the numpy.ndarray annotations below need no import.
    """

    __slots__ = ("time", "lo", "left", "right")

    def __init__(self, time: int, lo: int, left: numpy.ndarray, right: numpy.ndarray) -> None:
        if left.size != right.size or not 0 <= lo <= time + 1 - left.size:
            raise ValueError(
                f"a float window at time {time} lies in slots 0..{time}, got "
                f"{left.size} left and {right.size} right slots from slot {lo}"
            )
        self.time = time
        self.lo = lo
        self.left = left
        self.right = right

    @classmethod
    def point_mass(cls) -> FloatWaveFunction:
        """The symmetric qubit at the origin at time 0, 1/sqrt(2) rounded
        once: 2**-0.5 + 0j on the left and 0.0 + 2**-0.5 j on the right."""
        import numpy as np

        amp = 2**-0.5
        return cls(0, 0, np.array([complex(amp, 0.0)]), np.array([complex(0.0, amp)]))

    @property
    def hi(self) -> int:
        """The window's last slot (lo - 1 if the window is empty)."""
        return self.lo + self.left.size - 1

    def step(self, coin: CoinMatrix) -> FloatWaveFunction:
        """The state one step of `coin` later, in arrays of its own."""
        return _float_steps(self, coin, 1)

    def probabilities(self) -> dict[int, float]:
        import numpy as np

        # a slot outside the window is 0.0, as a dropped slot's probability
        # would round to (see _FLOAT_CUT)
        probs = np.zeros(self.time + 1)
        probs[self.lo : self.hi + 1] = np.abs(self.left) ** 2 + np.abs(self.right) ** 2
        t = self.time
        return dict(zip(range(-t, t + 1, 2), probs.tolist()))


class Distribution(namedtuple("Distribution", "time probs")):
    """Exact position distribution at one time: probs maps each position to
    its DyadicRational probability."""

    __slots__ = ()

    def total(self) -> DyadicRational:
        # an int sum, each numerator brought to the largest exponent
        probs = self.probs.values()
        top = max(p.denom_exp for p in probs)
        return DyadicRational(sum(p.numerator << (top - p.denom_exp) for p in probs), top)


def _check_exact_time(n: int) -> None:
    """Refuse a time above MAX_EXACT_TIME, naming the routes that go further."""
    if n > MAX_EXACT_TIME:
        raise ValueError(
            f"time {n} is above the exact engine's limit MAX_EXACT_TIME = "
            f"{MAX_EXACT_TIME}; for larger even times use return-prob "
            "--method prop1 or --method closed"
        )


def evolve(coin: CoinMatrix, n: int) -> FloatWaveFunction:
    """n float steps of `coin` from the symmetric qubit at the origin."""
    if n < 0:
        raise ValueError("time must be nonnegative")
    if n > MAX_FLOAT_TIME:
        raise ValueError(
            f"time {n} is above the float engine's limit MAX_FLOAT_TIME = "
            f"{MAX_FLOAT_TIME}"
        )
    return _float_steps(FloatWaveFunction.point_mass(), coin, n)


def _float_steps(psi: FloatWaveFunction, coin: CoinMatrix, count: int) -> FloatWaveFunction:
    """`count` steps of `coin` from `psi`, the float engine's one stepping loop.

    Buffer index i holds slot psi.lo + i.  A step makes the window lo..hi
    into lo..hi + 1, and trimming only raises lo or lowers hi, so buffers of
    psi's size plus `count` slots hold every window, and the loop keeps lo
    and hi as offsets into them.  Two buffer pairs, four arrays, take turns
    as a step's source and target.  The coin entries are 0-d arrays, made
    once, so no multiply converts a scalar.  A step forms a L in the left
    target and b R in the right one, adds them in place, then d R in the
    right target and c L over the source's left window, which the step no
    longer reads, and adds those in place.
    """
    # new position 2k - (t+1) draws its left amplitude from old slot k
    # (position 2k - t, one step right) and its right amplitude from old
    # slot k - 1: left slots keep their index, right slots move up by one.
    # The coin entry stays the first factor: numpy's complex multiply may use
    # fused multiply-adds, whose rounding depends on the operand order.  IEEE
    # addition commutes, so a sum's two terms may come in either order.
    import numpy as np

    a, b, c, d = (np.array(e) for e in (coin.a, coin.b, coin.c, coin.d))
    n = psi.left.size
    left, right, new_left, new_right = (np.empty(n + count, complex) for _ in range(4))
    left[:n], right[:n] = psi.left, psi.right
    lo, hi = 0, n - 1
    for _ in range(count):
        src_left, src_right = left[lo : hi + 1], right[lo : hi + 1]
        to_left, to_right = new_left[lo : hi + 1], new_right[lo + 1 : hi + 2]
        np.multiply(a, src_left, to_left)
        np.multiply(b, src_right, to_right)
        to_left += to_right
        np.multiply(d, src_right, to_right)
        np.multiply(c, src_left, src_left)
        to_right += src_left
        # the new top slot has no left amplitude and the bottom slot no right
        # one; a reused target holds an older step's values there
        hi += 1
        new_left[hi] = new_right[lo] = 0
        left, right, new_left, new_right = new_left, new_right, left, right
        # a step adds one slot to the window and a slot leaves it only once,
        # so these checks cost O(1) a step, amortized
        while lo <= hi and abs(left[lo]) < _FLOAT_CUT and abs(right[lo]) < _FLOAT_CUT:
            lo += 1
        while lo <= hi and abs(right[hi]) < _FLOAT_CUT and abs(left[hi]) < _FLOAT_CUT:
            hi -= 1
    return FloatWaveFunction(psi.time + count, psi.lo + lo, left[lo : hi + 1], right[lo : hi + 1])


def distribution(psi: WaveFunction) -> Distribution:
    """The exact (dyadic) position distribution of an exact state."""
    probs = {
        x: DyadicRational(a * a + b * b + c * c + d * d, psi.scale_exp)
        for x, a, b, c, d in zip(psi.support(), *psi.parts)
    }
    return Distribution(psi.time, probs)


def _refit(lre: int, rre: int, t: int, width: int, count: int) -> tuple[int, int, int]:
    """(lre, rre, width) at time t, their lowest `count` slots repacked to
    _slot_width(t) first if `width` no longer holds t // 2 + 2 bits."""
    if t // 2 + 2 <= width:
        return lre, rre, width
    new_width = _slot_width(t)
    return _widen(lre, width, new_width, count), _widen(rre, width, new_width, count), new_width


def _real_half(n: int) -> tuple[int, int, int]:
    """The real parts (Lre, Rre) of the cores at time n from the symmetric
    qubit, each packed in n + 1 slots, and their slot width: (Lre, Rre, width).

    The Hadamard coin is real, so the real parts evolve on their own, from
    (1, 0) for the qubit (1, i)/sqrt(2); the imaginary parts are the real
    ones mirrored.  At time t, slot k (position 2k - t):

        Lim[k] = (-1)^(t+1) Rre[t - k],    Rim[k] = (-1)^t Lre[t - k].

    Proof by induction on t.  At t = 0, (Lre, Lim, Rre, Rim) = (1, 0, 0, 1).
    A step takes the left core from x + 1 and the right core from x - 1,
    L'[k] = L[k] + R[k] and R'[k] = L[k-1] - R[k-1], a slot outside 0..t
    being 0.  Then

        Lim'[k] = Lim[k] + Rim[k] = (-1)^t (Lre[t-k] - Rre[t-k])
                = (-1)^(t+2) Rre'[t+1-k],
        Rim'[k] = Lim[k-1] - Rim[k-1] = (-1)^(t+1) (Rre[t+1-k] + Lre[t+1-k])
                = (-1)^(t+1) Lre'[t+1-k].

    A step is L' = L + R and R' = (L - R) << w on the packed real pair.
    The summed squares double each step, from 1, so they are 2^t at time t
    and `_slot_width(t)` sizes the slots.  verify checks the identity on its
    own four-part walk, which does not assume it.
    """
    lre, rre, width = 1, 0, _slot_width(0)
    for t in range(n):
        lre, rre, width = _refit(lre, rre, t + 1, width, t + 1)
        lre, rre = lre + rre, (lre - rre) << width
    return lre, rre, width


def symmetric_distribution(n: int) -> Distribution:
    """The exact distribution at time n of the Hadamard walk from the
    symmetric qubit, from the real half alone.

    By the mirror identity (see `_real_half`), the imaginary parts at slot k
    are the real parts at slot n - k, so with sq[k] = Lre[k]^2 + Rre[k]^2
    and the shared exponent n + 1 of 1/sqrt(2),

        p(2k - n) = (sq[k] + sq[n - k]) / 2^(n+1)

    (Konno, Quantum Inf. Process. 1 (2002) 345).  A stepped `WaveFunction`
    gives the same values from all four parts, and verify compares the two.
    """
    if n < 0:
        raise ValueError("time must be nonnegative")
    _check_exact_time(n)
    lre, rre, width = _real_half(n)
    sq = [a * a + b * b for a, b in zip(_unpack(lre, width, n + 1), _unpack(rre, width, n + 1))]
    probs = {2 * k - n: DyadicRational(sq[k] + sq[n - k], n + 1) for k in range(n + 1)}
    return Distribution(n, probs)


def return_probability_direct(n: int) -> DyadicRational:
    """Exact p_n(0) for the Hadamard walk from the symmetric qubit.

    The route steps only the real parts of the cores, two packed ints where
    `WaveFunction` has four lists, and rebuilds the imaginary parts by the
    mirror identity (see `_real_half`).  At the origin k = t - k = n/2, so
    |L|^2 + |R|^2 there is 2(Lre^2 + Rre^2), and
    p_n(0) = 2(Lre[n/2]^2 + Rre[n/2]^2) 2^-(n+1).

    The first n/2 steps are `_real_half`'s, on every slot; the remaining n/2
    keep only the origin's backward light cone.  A step moves amplitude one
    position, so at time t only the positions |x| <= n - t can still reach
    0 by time n.  Slot j of the cone at time t is position 2j - (n - t), so
    the cone has n - t + 1 slots, and at t = n/2 it is the whole state.
    From the forward rule the next cone's slot j takes its left core from
    slot j + 1 and its right core from slot j:

        L' = (L + R) >> w,    R' = L - R.

    The shift drops the lowest slot, which lies below the next cone.  It
    floors, so a negative slot 0 would borrow 1 from slot 1; adding 2^(w-1)
    first puts slot 0 in [0, 2^w), which the shift drops whole.  The
    right cores no longer move up a slot, so the packed ints keep the slots
    above the cone; those slots hold positions beyond n - t, whose values
    reach only positions beyond n - t - 1 and so never flow back in.  They
    stay until the next widening, which repacks only the cone's slots.
    A step doubles the summed squares and dropping a slot only removes
    some, so at time t they are at most 2^t, the cone's slots or not, and
    the slots sized from t stay sound.
    """
    if n < 0:
        raise ValueError("time must be nonnegative")
    if n % 2 == 1:
        return DyadicRational(0)
    _check_exact_time(n)
    lre, rre, width = _real_half(n // 2)
    for t in range(n // 2, n):
        lre, rre, width = _refit(lre, rre, t + 1, width, n - t + 1)
        lre, rre = (lre + rre + (1 << (width - 1))) >> width, lre - rre
    lre, rre = _read_slot(lre, width, 0), _read_slot(rre, width, 0)
    return DyadicRational(2 * (lre * lre + rre * rre), n + 1)
