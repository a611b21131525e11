"""Property tests for the exact number types, the exact path-sum layer, the
dyadic wire format and the agreement of the return-probability routes.

hypothesis is a test-only dependency.  The runs are derandomized and keep no
example database, so every run checks the same examples.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadwalk import verify
from hadwalk.exactnum import DyadicRational, GaussianInteger
from hadwalk.pathsum import StepPair, path_sum_closed, path_sum_dp, path_sum_grid

PROPERTY = settings(deadline=None, database=None, derandomize=True)


@PROPERTY
@given(st.integers(1, 40), st.integers(1, 40))
def test_closed_form_equals_dp(l, m):
    # both carry scale exponent l + m - 1, so equal values need equal cores
    closed = path_sum_closed(StepPair(l, m))
    dp = path_sum_dp(StepPair(l, m))
    assert closed == dp
    assert all(type(x) is int for v in (closed, dp) for x in (v.p, v.q, v.r, v.s))


steps = st.builds(StepPair, st.integers(0, 40), st.integers(0, 40)).filter(lambda s: s.time >= 1)


@PROPERTY
@given(steps)
def test_exact_vectors_carry_time_minus_one(pair):
    # the invariant that lets == compare the values of two exact vectors
    dp = path_sum_dp(pair)
    assert dp.scale_exp == pair.time - 1
    grid = path_sum_grid(pair)
    assert all(vec.scale_exp == i + j - 1 for (i, j), vec in grid.items())
    if pair.l >= 1 and pair.m >= 1:
        assert path_sum_closed(pair).scale_exp == pair.time - 1


#: up to 3^20000, 9543 digits: past Python's default 4300-digit str limit
big_numerators = st.builds(lambda k, sign: sign * 3**k, st.integers(0, 20_000), st.sampled_from((1, -1)))


@PROPERTY
@given(st.one_of(st.integers(), big_numerators), st.integers(0, 20_000))
def test_dyadic_string_round_trip(numerator, denom_exp):
    x = DyadicRational(numerator, denom_exp)
    assert DyadicRational.parse(str(x)) == x


big = st.integers(-(10**40), 10**40)
gaussians = st.builds(GaussianInteger, big, big)


def core(g: GaussianInteger) -> tuple[int, int]:
    return g.re, g.im


@PROPERTY
@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_laws(a, b, c):
    assert core(a + b) == core(b + a)
    assert core(a * b) == core(b * a)
    assert core((a + b) + c) == core(a + (b + c))
    assert core((a * b) * c) == core(a * (b * c))
    assert core(a * (b + c)) == core(a * b + a * c)
    assert core(a * (b - c)) == core(a * b - a * c)
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


@settings(PROPERTY, max_examples=10)
@given(st.integers(0, 1000).map(lambda k: 2 * k))
def test_covering_routes_agree(n):
    # the direct row's engine grows as n^3: 0.9 s at n = 2000 on one x86-64 core
    values = {r.name: r.value(n) for r in verify.ROUTES if r.covers(n)}
    assert {"direct", "prop1"} <= values.keys()
    assert len({(v.numerator, v.denom_exp) for v in values.values()}) == 1, (n, values)


def strip_twos_by_bits(numerator: int, denom_exp: int) -> tuple[int, int]:
    """The one-bit-at-a-time loop DyadicRational used to reduce with."""
    if numerator == 0:
        return 0, 0
    while numerator % 2 == 0 and denom_exp > 0:
        numerator //= 2
        denom_exp -= 1
    return numerator, denom_exp


#: signed numerators with up to 5000 factors of two
twos_heavy = st.builds(lambda k, j: k << j, big, st.integers(0, 5000))


@PROPERTY
@given(twos_heavy, st.one_of(st.just(0), st.integers(0, 6000)))
@example(3**5000 << 3000, 4000)
@example(-(1 << 5000), 4999)
@example(-(1 << 5000), 6000)
def test_dyadic_shift_matches_the_bitwise_loop(numerator, denom_exp):
    x = DyadicRational(numerator, denom_exp)
    assert (x.numerator, x.denom_exp) == strip_twos_by_bits(numerator, denom_exp)
