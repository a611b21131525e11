"""Faults that a shared layer could carry into every route at once, each
injected by one monkeypatch, and the verify rows that must catch them."""

import pytest

from hadwalk import verify, walk
from hadwalk.exactnum import G_ONE, DyadicRational, GaussianInteger

from test_verify import with_route_off


def failed_rows(scope):
    return [c.name for c in verify.run_verify(scope).checks if not c.passed]


@pytest.mark.parametrize("scope,n_max", [("fast", 30), ("full", 100)])
def test_equality_that_always_holds_does_not_hide_a_wrong_route(monkeypatch, scope, n_max):
    # every comparison through DyadicRational.__eq__ would pass; verify
    # compares (numerator, denom_exp) pairs instead
    monkeypatch.setattr(DyadicRational, "__eq__", lambda self, other: True)
    with_route_off(monkeypatch, verify.ROUTES[3], 20, DyadicRational(1, 40))
    assert failed_rows(scope) == [f"four-oracle equality p_2n, n<={n_max}"]


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
