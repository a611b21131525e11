"""Faults that a shared layer could carry into every route at once, each
injected by one monkeypatch, and the verify rows that must catch them.
genfun's rounding test dropped, with 40 carry bits, moves only the sum of
the generating-function row near z = 1, which runs in full scope only; in
fast scope tier-1 catches it, in test_genfun.py's bitwise comparisons with
the exact carry (test_ziv_test_dropped_fails_only_the_row_near_one).

Known faults that no verify row catches, listed so that nobody chases them:

- no route tells a start with the return probabilities p_n(0) of
  (1, i)/sqrt2 from that qubit, so the four-oracle row passes: the start
  (1, -i)/sqrt2 also has all of its distributions and fails only the
  mirror-identity row (test_conjugate_qubit_fails_only_the_mirror_identity),
  and the left-only start (1, 0) fails only the mirror-identity, symmetry
  and real-half rows
  (test_left_only_qubit_fails_the_mirror_symmetry_and_real_half_rows);
- walk._slot_width with t // 2 + 1 for its t // 2 + 2, and walk._refit
  comparing with < instead of <=, each pass verify in both scopes: the first
  sizes slots one bit short, which the margin bits of _WIDTH_MARGIN hide, and
  with that margin set to 0 the real half's slots stay below isqrt(2^t), so
  no value overflows; the second only widens one step early, or repacks at
  the same width when the margin is 0.  Tier-1 catches the first in
  test_walk.py's test_slot_width_at_byte_boundaries (t = 14, 15, 30, 31) and
  test_refit_widens_a_one_slot_pair_at_the_bound, and the second in
  test_refit_widens_a_one_slot_pair_at_the_bound, which counts repacks.
"""

import inspect
import math

import pytest

from hadwalk import genfun, pathsum, specfun, verify, walk
from hadwalk.cli import main
from hadwalk.exactnum import DyadicRational

from test_verify import plus, with_route_off


#: The row that compares walk.symmetric_distribution with the walk's own.
REAL_HALF_ROW = {"fast": "real-half distribution = walk's, t<=30",
                 "full": "real-half distribution = walk's, t<=30 and t=99,100"}


def failed_rows(scope):
    return [c.name for c in verify.run_verify(scope).checks if not c.passed]


def with_start(monkeypatch, *parts, scale_exp):
    """verify's four-part walk from the one-slot parts (Lre, Lim, Rre, Rim)
    under (1/sqrt2)^scale_exp instead of the symmetric qubit."""
    start = walk.WaveFunction(0, scale_exp, tuple([v] for v in parts))
    monkeypatch.setattr(walk.WaveFunction, "point_mass", classmethod(lambda cls: start))


def always_equal(monkeypatch):
    # every comparison through DyadicRational.__eq__ passes; verify compares
    # (numerator, denom_exp) pairs instead
    monkeypatch.setattr(DyadicRational, "__eq__", lambda self, other: True)


def with_function_edited(monkeypatch, module, name, old, new):
    """Replace the function module.<name> by its own source with the one
    occurrence of `old` replaced by `new`, run in the module's namespace."""
    source = inspect.getsource(getattr(module, name))
    assert source.count(old) == 1
    namespace = dict(vars(module))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(module, name, namespace[name])


@pytest.mark.parametrize("scope,n_max", [("fast", 30), ("full", 100)])
def test_equality_that_always_holds_does_not_hide_a_wrong_route(monkeypatch, scope, n_max):
    always_equal(monkeypatch)
    with_route_off(monkeypatch, verify.ROUTES[3], 20, DyadicRational(1, 40))
    assert failed_rows(scope) == [f"four-oracle equality p_2n, n<={n_max}"]


@pytest.mark.parametrize("scope,n_max", [("fast", 30), ("full", 100)])
def test_equality_that_always_holds_does_not_hide_a_wrong_distribution(
        monkeypatch, scope, n_max):
    # each distribution from time 3 on is off by 2^-40 at its top position,
    # so it neither sums to 1 nor is symmetric, nor equals the real half's
    always_equal(monkeypatch)
    right = walk.distribution

    def distribution(psi):
        dist = right(psi)
        if dist.time < 3:
            return dist
        probs = dict(dist.probs)
        probs[dist.time] = plus(probs[dist.time], DyadicRational(1, 40))
        return walk.Distribution(dist.time, probs)

    monkeypatch.setattr(walk, "distribution", distribution)
    assert failed_rows(scope) == [f"normalization n<={n_max}", f"symmetry n<={n_max}",
                                  REAL_HALF_ROW[scope]]


@pytest.mark.parametrize("scope,n_max,m_max", [("fast", 30, 15), ("full", 100, 50)])
def test_equality_that_always_holds_does_not_hide_a_broken_pairing(
        monkeypatch, scope, n_max, m_max):
    # prop1 off by 2^-60 at p_42 = p0_legendre(21), which the pairing row
    # compares with p_40
    always_equal(monkeypatch)
    right = genfun.p0_legendre
    monkeypatch.setattr(genfun, "p0_legendre",
                        lambda n: plus(right(n), DyadicRational(1, 60)) if n == 21 else right(n))
    assert failed_rows(scope) == [f"four-oracle equality p_2n, n<={n_max}",
                                  f"pairing p_4m = p_4m+2, m<={m_max}"]


@pytest.mark.parametrize("scope,n_max,m_max", [("fast", 30, 15), ("full", 100, 50)])
def test_unscaled_legendre_square_fails_the_four_oracle_and_pairing_rows(
        monkeypatch, scope, n_max, m_max):
    # a = 2^(n-1) P_{n-1}(0) squared without the 4 that brings it to 2^n: an
    # edit of prop1 alone, which moves p_2n(0) at odd n, so p_4m+2 leaves p_4m
    with_function_edited(monkeypatch, genfun, "p0_legendre", "4 * a * a", "a * a")
    assert failed_rows(scope) == [f"four-oracle equality p_2n, n<={n_max}",
                                  f"pairing p_4m = p_4m+2, m<={m_max}"]


@pytest.mark.parametrize("scope,n_max", [("fast", 30), ("full", 100)])
@pytest.mark.parametrize(
    "old,new",
    [("_read_slot(lre, width, 0), _read_slot(rre, width, 0)",
      "_read_slot(lre, width, 1), _read_slot(rre, width, 1)"),
     (" + (1 << (width - 1))", "")],
    ids=["final-read-at-slot-1", "cone-step-without-half-slot"],
)
def test_wrong_direct_route_fails_its_rows(monkeypatch, scope, n_max, old, new):
    # edits of return_probability_direct alone: no other route runs it
    with_function_edited(monkeypatch, walk, "return_probability_direct", old, new)
    assert failed_rows(scope) == ["value table p_0..p_18",
                                  f"four-oracle equality p_2n, n<={n_max}"]


@pytest.mark.parametrize("scope", ["fast", "full"])
def test_unpack_off_by_one_fails_only_the_real_half_row(monkeypatch, scope):
    # every unpacked slot read one too high: simulate's engine is the only
    # caller, and verify's four-part walk shares no packing helper with it
    with_function_edited(monkeypatch, walk, "_unpack", "- half", "- half + 1")
    assert failed_rows(scope) == [REAL_HALF_ROW[scope]]


@pytest.mark.parametrize("scope", ["fast", "full"])
def test_unmirrored_real_half_distribution_fails_its_row(monkeypatch, scope):
    # sq[k] read where the mirror identity puts sq[n - k]: an edit of
    # simulate's engine alone, which no route runs
    with_function_edited(monkeypatch, walk, "symmetric_distribution",
                         "DyadicRational(sq[k] + sq[n - k]", "DyadicRational(sq[k] + sq[k]")
    assert failed_rows(scope) == [REAL_HALF_ROW[scope]]


HYP2F1_DEN_LINE = "        den *= (cn + j * cd) * (j + 1) * bottom_const\n"
HYP2F1_NUM_LINE = "        num = num * ((a + j) * (bn + j * bd) * top_const) + den\n"


@pytest.mark.parametrize("scope,jacobi_max,chain_max", [("fast", 50, 20), ("full", 200, 50)])
@pytest.mark.parametrize(
    "old,new",
    [(HYP2F1_DEN_LINE + HYP2F1_NUM_LINE, HYP2F1_NUM_LINE + HYP2F1_DEN_LINE),
     ("(j + 1) * bottom_const", "(j + 2) * bottom_const"),
     ("range(-a - 1, -1, -1)", "range(-a - 1, 0, -1)")],
    ids=["shared-product-one-term-late", "wrong-factorial", "last-term-dropped"],
)
def test_wrong_hyp2f1_fails_the_jacobi_and_chain_rows(
        monkeypatch, scope, jacobi_max, chain_max, old, new):
    # edits of the terminating 2F1 alone: jacobi_p0 and the chain's two 2F1
    # forms run it, the chain's literal sum does not
    with_function_edited(monkeypatch, specfun, "hyp2f1_terminating", old, new)
    assert failed_rows(scope) == [f"jacobi downward recurrence n<={jacobi_max}",
                                  f"hypergeometric chain n<={chain_max}"]


@pytest.mark.parametrize("scope", ["fast", "full"])
def test_hyp2f1_zero_denominator_fails_the_jacobi_and_chain_rows(monkeypatch, scope):
    # (j + 1) -> j makes the j = 0 denominator 0, so the 2F1 raises
    # ZeroDivisionError inside both checks; each raise becomes one failed row
    # named after its check, and the checks after it still run
    rows = len(verify.run_verify(scope).checks)
    with_function_edited(monkeypatch, specfun, "hyp2f1_terminating",
                         "(j + 1) * bottom_const", "j * bottom_const")
    report = verify.run_verify(scope)
    assert len(report.checks) == rows
    failed = [(c.name, c.expected, c.actual.split("(")[0]) for c in report.checks
              if not c.passed]
    raised = ("no exception", "ZeroDivisionError: Fraction")
    assert failed == [("_check_jacobi_recurrence", *raised), ("_check_hyp_chain", *raised)]


@pytest.mark.parametrize("scope,jacobi_max,chain_max", [("fast", 50, 20), ("full", 200, 50)])
def test_unsigned_legendre_fails_the_jacobi_and_chain_rows(
        monkeypatch, scope, jacobi_max, chain_max):
    # 2^n P_n(0) without its sign (-1)^(n/2): prop1 squares it, so every route
    # agrees; only the Jacobi rows, which take P_n(0) - P_(n+1)(0), read it
    with_function_edited(monkeypatch, specfun, "legendre_p0",
                         "-math.comb(n, m) if m % 2 else math.comb(n, m)", "math.comb(n, m)")
    monkeypatch.setattr(genfun, "legendre_p0", specfun.legendre_p0)
    assert failed_rows(scope) == [f"jacobi downward recurrence n<={jacobi_max}",
                                  f"hypergeometric chain n<={chain_max}"]


def test_constructor_off_by_one_fails_the_anchor(monkeypatch):
    # all four routes end in the constructor, so they agree on its wrong
    # value; only the anchor, which builds no DyadicRational, sees it
    init = DyadicRational.__init__

    def wrong_init(self, numerator, denom_exp=0):
        init(self, numerator, denom_exp)
        if self._exp > 200:
            self._num += 1

    monkeypatch.setattr(DyadicRational, "__init__", wrong_init)
    assert failed_rows("full") == ["closed row anchor C(2m,m)^2/2^(4m+1), m<=200"]


@pytest.mark.parametrize("scope,top", [("fast", 60), ("full", 200)])
def test_conjugate_qubit_fails_only_the_mirror_identity(monkeypatch, scope, top):
    # (1, -i)/sqrt(2) has every distribution of (1, i)/sqrt(2), so no route
    # and no other check tells them apart; its imaginary cores are negated
    with_start(monkeypatch, 1, 0, 0, -1, scale_exp=1)
    report = verify.run_verify(scope)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [f"mirror identity at the origin, n<={top}"]
    assert failed[0].actual == f"{top // 2} failures, first at n=2"


@pytest.mark.parametrize("scope,n_max", [("fast", 30), ("full", 100)])
def test_left_only_qubit_fails_the_mirror_symmetry_and_real_half_rows(
        monkeypatch, scope, n_max):
    # (1, 0) has the return probabilities of (1, i)/sqrt(2), so every route
    # agrees with its origin; its distribution leans left and its imaginary
    # cores are all 0, which only these three rows see
    with_start(monkeypatch, 1, 0, 0, 0, scale_exp=0)
    assert failed_rows(scope) == [f"mirror identity at the origin, n<={2 * n_max}",
                                  f"symmetry n<={n_max}", REAL_HALF_ROW[scope]]


PREPEND_RETURN = "(up[0] + up[3], left[2] - left[1], up[1] + up[2], left[0] - left[3])"


@pytest.mark.parametrize("scope,lm_max", [("fast", 12), ("full", 30)])
@pytest.mark.parametrize(
    "step",
    [
        "(-up[0] + up[3], left[2] - left[1], up[1] - up[2], left[0] - left[3])",
        "(up[0] - up[3], left[2] - left[1], -up[1] + up[2], left[0] - left[3])",
        "(up[0] + up[3], -left[2] - left[1], up[1] + up[2], -left[0] - left[3])",
        "(up[0] + up[3], left[2] + left[1], up[1] + up[2], left[0] + left[3])",
    ],
    ids=["a", "b", "c", "d"],
)
def test_wrong_exact_cores_fail_the_dp_rows(monkeypatch, scope, lm_max, step):
    # the DP's written-out step with the sign of one coin entry flipped in
    # both cores that carry it: the integer DP and the check of its step run
    # pathsum._prepend, the closed forms and that check's literal matrices
    # do not
    with_function_edited(monkeypatch, pathsum, "_prepend", PREPEND_RETURN, step)
    assert failed_rows(scope) == [
        f"closed-form coefficients = DP, l,m<={lm_max}",
        "DP step P.v and Q.v vs literal 2x2 products (8 pairs)",
    ]


@pytest.mark.parametrize("scope,lm_max", [("fast", 12), ("full", 30)])
@pytest.mark.parametrize(
    "seed,flipped",
    [("(0, 1, 0, 0)", "(0, -1, 0, 0)"), ("(1, 0, 0, 0)", "(-1, 0, 0, 0)")],
    ids=["row-0", "column-0"],
)
def test_flipped_dp_seed_fails_the_closed_form_row(monkeypatch, scope, lm_max, seed, flipped):
    # the one-step cell Q (row 0) or P (column 0) that the DP starts from,
    # with its sign flipped: every cell with a step each way carries the
    # wrong sign, while the check of the DP's step never reads the seeds
    with_function_edited(monkeypatch, pathsum, "_dp_rows", seed, flipped)
    assert failed_rows(scope) == [f"closed-form coefficients = DP, l,m<={lm_max}"]


@pytest.mark.parametrize("scope,n_max", [("fast", 30), ("full", 100)])
def test_direct_row_off_by_2_to_the_minus_40_fails_the_four_oracle_row(monkeypatch, scope, n_max):
    with_route_off(monkeypatch, verify.ROUTES[0], 20, DyadicRational(1, 40))
    assert failed_rows(scope) == [f"four-oracle equality p_2n, n<={n_max}"]
    assert main(["verify", "--scope", scope]) == 1


@pytest.mark.parametrize(
    "scope,rows", [("fast", []), ("full", ["generating function identity z=0.999"])],
    ids=["fast", "full"])
def test_ziv_test_dropped_fails_only_the_row_near_one(monkeypatch, scope, rows):
    # genfun's rounding test dropped, every term the lower end of its
    # interval, at 40 carry bits.  The rows at z <= 0.7 sum at most 69
    # terms, where the 40-bit carry is still exact, so their sums do not
    # move; at z = 0.999, N = 24655, the sum moves by about 1e-9, far past
    # the row's tolerance of the tail bound plus 1e-10
    right = genfun.gf_point(0.999, 24655).lhs_partial
    monkeypatch.setattr(genfun, "_CARRY_BITS", 40)
    monkeypatch.setattr(genfun, "_rounded_pair_probability",
                        lambda c, m, bits: math.ldexp(float(c * c), -2 * bits - 1))
    wrong = genfun.gf_point(0.999, 24655).lhs_partial
    assert abs(wrong - right) > 5e-10
    assert failed_rows(scope) == rows


def test_equality_that_always_holds_does_not_admit_an_unnormalized_qubit(monkeypatch):
    # (1, i) under (1/sqrt2)^0 has norm 2, so every walk probability is twice
    # the true one; verify compares the (numerator, denom_exp) ints
    always_equal(monkeypatch)
    with_start(monkeypatch, 1, 0, 0, 1, scale_exp=0)
    for scope, n_max in (("fast", 30), ("full", 100)):
        assert failed_rows(scope) == [f"four-oracle equality p_2n, n<={n_max}",
                                      f"normalization n<={n_max}", REAL_HALF_ROW[scope]]
