"""Property tests for the exact number types, the exact path-sum layer, the
dyadic wire format and the agreement of the return-probability routes.

hypothesis is a test-only dependency.  The runs are derandomized and keep no
example database, so every run checks the same examples.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from hadwalk import verify
from hadwalk.exactnum import DyadicRational, GaussianInteger
from hadwalk.pathsum import PQRSVector, StepPair, path_sum_closed, path_sum_dp, pqrs_compose
from hadwalk.walk import CoinMatrix

HADAMARD = CoinMatrix.hadamard()
PROPERTY = settings(deadline=None, database=None, derandomize=True)

cores = st.integers(-(10**12), 10**12)
exact_vectors = st.builds(PQRSVector, cores, cores, cores, cores, st.integers(0, 12))

#: I = (1/sqrt2)(P - Q + R + S) for the Hadamard entries
IDENTITY = PQRSVector(1, -1, 1, 1, 1)


@PROPERTY
@given(st.integers(1, 40), st.integers(1, 40))
def test_closed_form_equals_dp(l, m):
    # both carry scale exponent l + m - 1, so equal values need equal cores
    closed = path_sum_closed(StepPair(l, m))
    dp = path_sum_dp(StepPair(l, m), HADAMARD)
    assert closed == dp
    assert all(type(x) is int for v in (closed, dp) for x in (v.p, v.q, v.r, v.s))


@PROPERTY
@given(exact_vectors, exact_vectors, exact_vectors)
def test_exact_compose_is_associative(x, y, z):
    # P, Q, R, S are a basis of the 2x2 matrices and both sides carry the
    # scale exponent sum + 2, so the cores must agree too
    left = pqrs_compose(pqrs_compose(x, y, HADAMARD), z, HADAMARD)
    right = pqrs_compose(x, pqrs_compose(y, z, HADAMARD), HADAMARD)
    assert left == right


@PROPERTY
@given(exact_vectors)
def test_exact_identity_gives_back_the_value(vec):
    assert pqrs_compose(IDENTITY, vec, HADAMARD).same_value(vec)
    assert pqrs_compose(vec, IDENTITY, HADAMARD).same_value(vec)


#: up to 3^20000, 9543 digits: past Python's default 4300-digit str limit
big_numerators = st.builds(lambda k, sign: sign * 3**k, st.integers(0, 20_000), st.sampled_from((1, -1)))


@PROPERTY
@given(st.one_of(st.integers(), big_numerators), st.integers(0, 20_000))
def test_dyadic_string_round_trip(numerator, denom_exp):
    x = DyadicRational(numerator, denom_exp)
    assert DyadicRational.parse(str(x)) == x


big = st.integers(-(10**40), 10**40)
gaussians = st.builds(GaussianInteger, big, big)


@PROPERTY
@given(gaussians, gaussians, gaussians)
def test_gaussian_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a * b).norm_sq() == a.norm_sq() * b.norm_sq()


#: numerators with up to 60 factors of 2, so that results must be reduced
dyadics = st.builds(
    lambda k, j, e: DyadicRational(k << j, e), big, st.integers(0, 60), st.integers(0, 200)
)


def is_canonical(x: DyadicRational) -> bool:
    return x.numerator % 2 == 1 or x.denom_exp == 0


@PROPERTY
@given(dyadics, dyadics)
def test_dyadic_arithmetic_matches_fraction(x, y):
    fx, fy = x.to_fraction(), y.to_fraction()
    assert (x + y).to_fraction() == fx + fy
    assert (x * y).to_fraction() == fx * fy
    assert (x < y) == (fx < fy)
    assert all(is_canonical(v) for v in (x, y, x + y, x * y))


@settings(PROPERTY, max_examples=10)
@given(st.integers(0, 1000).map(lambda k: 2 * k))
def test_covering_routes_agree(n):
    # the direct row's engine grows as n^3: 0.9 s at n = 2000 on one x86-64 core
    values = {r.name: r.value(n) for r in verify.ROUTES if r.covers(n)}
    assert {"direct", "prop1"} <= values.keys()
    assert len(set(values.values())) == 1, (n, values)


def strip_twos_by_bits(numerator: int, denom_exp: int) -> tuple[int, int]:
    """The one-bit-at-a-time loop DyadicRational used to reduce with."""
    if numerator == 0:
        return 0, 0
    while numerator % 2 == 0 and denom_exp > 0:
        numerator //= 2
        denom_exp -= 1
    return numerator, denom_exp


def canonical_by_bits(vec: PQRSVector) -> PQRSVector:
    """The one-bit-at-a-time loop PQRSVector.canonical used to reduce with."""
    p, q, r, s, e = vec.p, vec.q, vec.r, vec.s, vec.scale_exp
    if not (p or q or r or s):
        return PQRSVector(p, q, r, s, 0)
    while e >= 2 and all(x % 2 == 0 for x in (p, q, r, s)):
        p, q, r, s = (x // 2 for x in (p, q, r, s))
        e -= 2
    return PQRSVector(p, q, r, s, e)


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


#: cores that are 0 about half the time, each carrying its own factors of two
sparse_cores = st.one_of(st.just(0), st.builds(lambda k, j: k << j, big, st.integers(0, 40)))
shifted_vectors = st.builds(
    lambda cores, common, e: PQRSVector(*(x << common for x in cores), e),
    st.tuples(sparse_cores, sparse_cores, sparse_cores, sparse_cores),
    st.integers(0, 5000),
    st.integers(0, 10_001),
)


@PROPERTY
@given(shifted_vectors)
@example(PQRSVector(0, 0, 0, 0, 7))  # all zero
@example(PQRSVector(0, 0, 0, -12, 9))  # three zero cores, odd exponent
@example(PQRSVector(8, 0, 0, -24, 5))  # two zero cores, odd exponent
@example(PQRSVector(6, 0, 10, 14, 1))  # one zero core, exponent below 2
@example(PQRSVector(4, 8, 0, 0, 0))  # exponent 0
@example(PQRSVector(1 << 4000, -(3 << 4500), 0, 5 << 4100, 3001))  # capped: 3001 // 2 < 4000
def test_pqrs_shift_matches_the_bitwise_loop(vec):
    got, want = vec.canonical(), canonical_by_bits(vec)
    assert (got.p, got.q, got.r, got.s, got.scale_exp) == (want.p, want.q, want.r, want.s, want.scale_exp)
