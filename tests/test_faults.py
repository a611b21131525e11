"""Faults that a shared layer could carry into every route at once, each
injected by one monkeypatch, and the verify rows that must catch them.

Known faults that no verify row catches, listed so that nobody chases them:

- the qubit (1, -i)/sqrt2 has every distribution of (1, i)/sqrt2, so no route
  and no distribution check tells them apart; only the mirror-identity row
  does, as test_conjugate_qubit_fails_only_the_mirror_identity pins;
- walk._fits comparing with <= instead of <, and walk._slot_width without its
  + 1, each pass verify in both scopes: the margin bits of _WIDTH_MARGIN hide
  them.  Tier-1 catches both, in test_walk.py's
  test_matches_reference_stepper[at-bound-0], which sets that margin to 0;
- genfun's rounding test dropped, every term the lower end of its interval,
  at 40 carry bits: verify's generating-function rows sum at z <= 0.7 with
  N <= 69, where the 40-bit carry is still exact, so their sums do not move;
  where it moves a sum by less than 1e-10 (1.8e-12 at z = 0.98, N = 1221)
  the rows' tolerance would hide it too, as
  test_ziv_test_dropped_passes_every_row pins.
  Tier-1 catches it, in test_genfun.py's bitwise comparisons with the exact
  carry.
"""

import inspect
import math

import pytest

from hadwalk import genfun, pathsum, verify, walk
from hadwalk.cli import main
from hadwalk.exactnum import G_ONE, DyadicRational, GaussianInteger

from test_verify import plus, with_route_off


#: The row that compares walk.symmetric_distribution with the walk's own.
REAL_HALF_ROW = {"fast": "real-half distribution = walk's, t<=30",
                 "full": "real-half distribution = walk's, t<=30 and t=99,100"}


def failed_rows(scope):
    return [c.name for c in verify.run_verify(scope).checks if not c.passed]


def always_equal(monkeypatch):
    # every comparison through DyadicRational.__eq__ passes; verify compares
    # (numerator, denom_exp) pairs instead
    monkeypatch.setattr(DyadicRational, "__eq__", lambda self, other: True)


def with_walk_function_edited(monkeypatch, name, old, new):
    """Replace the function walk.<name> by its own source with the one
    occurrence of `old` replaced by `new`, run in walk's namespace."""
    source = inspect.getsource(getattr(walk, name))
    assert source.count(old) == 1
    namespace = dict(vars(walk))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(walk, name, namespace[name])


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
    with_walk_function_edited(monkeypatch, "return_probability_direct", old, new)
    assert failed_rows(scope) == ["value table p_0..p_18",
                                  f"four-oracle equality p_2n, n<={n_max}"]


@pytest.mark.parametrize("scope", ["fast", "full"])
def test_unmirrored_real_half_distribution_fails_its_row(monkeypatch, scope):
    # sq[k] read where the mirror identity puts sq[n - k]: an edit of
    # simulate's engine alone, which no route runs
    with_walk_function_edited(monkeypatch, "symmetric_distribution",
                              "DyadicRational(sq[k] + sq[n - k]", "DyadicRational(sq[k] + sq[k]")
    assert failed_rows(scope) == [REAL_HALF_ROW[scope]]


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
    conjugate = walk.QubitState(G_ONE, GaussianInteger(0, -1), 1)
    monkeypatch.setattr(walk.QubitState, "symmetric", classmethod(lambda cls: conjugate))
    report = verify.run_verify(scope)
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == [f"mirror identity at the origin, n<={top}"]
    assert failed[0].actual == f"{top // 2} failures, first at n=2"


@pytest.mark.parametrize("scope,lm_max", [("fast", 12), ("full", 30)])
@pytest.mark.parametrize(
    "cores", [(-1, 1, 1, -1), (1, -1, 1, -1), (1, 1, -1, -1), (1, 1, 1, 1)],
    ids=["a", "b", "c", "d"],
)
def test_wrong_exact_cores_fail_the_dp_rows(monkeypatch, scope, lm_max, cores):
    # HADAMARD_CORES with one sign flipped: the integer DP and the check of
    # its step read pathsum.HADAMARD_CORES, the closed forms and that check's
    # literal matrices do not
    monkeypatch.setattr(pathsum, "HADAMARD_CORES", cores)
    assert failed_rows(scope) == [
        f"closed-form coefficients = DP, l,m<={lm_max}",
        "DP step P.v and Q.v vs literal 2x2 products (8 pairs)",
    ]


@pytest.mark.parametrize("scope,n_max", [("fast", 30), ("full", 100)])
def test_direct_row_off_by_2_to_the_minus_40_fails_the_four_oracle_row(monkeypatch, scope, n_max):
    with_route_off(monkeypatch, verify.ROUTES[0], 20, DyadicRational(1, 40))
    assert failed_rows(scope) == [f"four-oracle equality p_2n, n<={n_max}"]
    assert main(["verify", "--scope", scope]) == 1


@pytest.mark.parametrize("scope", ["fast", "full"])
def test_ziv_test_dropped_passes_every_row(monkeypatch, scope):
    # a known fault no verify row catches: see the module docstring
    right = genfun.gf_partial_sum(0.98, 1221)
    monkeypatch.setattr(genfun, "_CARRY_BITS", 40)
    monkeypatch.setattr(genfun, "_rounded_pair_probability",
                        lambda c, m, bits: math.ldexp(float(c * c), -2 * bits - 1))
    wrong = genfun.gf_partial_sum(0.98, 1221)
    assert 0 < abs(wrong - right) < 1e-10
    assert failed_rows(scope) == []


def test_equality_that_always_holds_does_not_admit_an_unnormalized_qubit(monkeypatch):
    # |1|^2 + |1|^2 = 2 is not 2^0; the constructor compares the ints
    always_equal(monkeypatch)
    with pytest.raises(ValueError, match="not normalized"):
        walk.QubitState(G_ONE, G_ONE, 0)
