import inspect
import itertools
import json
import math
import sys

import pytest

from hadwalk import classical, genfun, verify, walk
from hadwalk.cli import main
from hadwalk.exactnum import DyadicRational

FAST_CHECKS = [
    "value table p_0..p_18",
    "four-oracle equality p_2n, n<=30",
    "mirror identity at the origin, n<=60",
    "closed row anchor C(2m,m)^2/2^(4m+1), m<=60",
    "normalization n<=30",
    "symmetry n<=30",
    "real-half distribution = walk's, t<=30",
    "odd-time return zero n<=29",
    "pairing p_4m = p_4m+2, m<=15",
    "closed-form coefficients = DP, l,m<=12",
    "DP step P.v and Q.v vs literal 2x2 products (8 pairs)",
    "jacobi downward recurrence n<=50",
    "hypergeometric chain n<=20",
    "generating function identity z=0.5",
    "2d random-walk generating function z=0.3",
    "watson G closed form, 5-decimal prefix",
    "3d return probability F, 5-decimal prefix",
]

FULL_CHECKS = [
    "value table p_0..p_18",
    "four-oracle equality p_2n, n<=100",
    "mirror identity at the origin, n<=200",
    "closed row anchor C(2m,m)^2/2^(4m+1), m<=200",
    "normalization n<=100",
    "symmetry n<=100",
    "real-half distribution = walk's, t<=30 and t=99,100",
    "odd-time return zero n<=99",
    "pairing p_4m = p_4m+2, m<=50",
    "closed-form coefficients = DP, l,m<=30",
    "DP step P.v and Q.v vs literal 2x2 products (8 pairs)",
    "jacobi downward recurrence n<=200",
    "hypergeometric chain n<=50",
    "generating function identity z=0.1",
    "generating function identity z=0.3",
    "generating function identity z=0.5",
    "generating function identity z=0.7",
    "generating function identity z=0.999",
    "2d random-walk generating function z=0.3",
    "2d random-walk generating function z=0.6",
    "watson G closed form, 5-decimal prefix",
    "3d return probability F, 5-decimal prefix",
    "watson G quadrature vs closed",
]


def plus(x, y):
    """x + y for two DyadicRationals, summed as ints at the larger exponent."""
    e = max(x.denom_exp, y.denom_exp)
    num = (x.numerator << (e - x.denom_exp)) + (y.numerator << (e - y.denom_exp))
    return DyadicRational(num, e)


def with_route_off(monkeypatch, route, at, delta):
    """Replace one row of verify.ROUTES by one whose value is off by delta at
    the given time and right everywhere else."""

    def value(n, right=route.value):
        return plus(right(n), delta) if n == at else right(n)

    rows = tuple(r._replace(value=value) if r is route else r for r in verify.ROUTES)
    monkeypatch.setattr(verify, "ROUTES", rows)


@pytest.mark.parametrize("scope,names", [("fast", FAST_CHECKS), ("full", FULL_CHECKS)])
def test_check_names_in_report_order(scope, names):
    report = verify.run_verify(scope)
    assert [c.name for c in report.checks] == names
    assert report.passed


def test_route_rows_in_report_order():
    assert [r.name for r in verify.ROUTES] == ["direct", "xi", "prop1", "closed"]
    covered = {r.name: [n for n in range(-2, 9) if r.covers(n)] for r in verify.ROUTES}
    assert covered == {
        "direct": list(range(-2, 9)),
        "xi": [2, 4, 6, 8],
        "prop1": [-2, 0, 2, 4, 6, 8],
        "closed": [4, 6, 8],
    }


def traced_calls(route, times):
    """The hadwalk Python functions and math functions route.value runs at
    `times`, recorded by sys.setprofile: the code object of each Python
    function and each math builtin itself; other builtins and verify's own
    lambdas are left out."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            module, code = frame.f_globals.get("__name__", ""), frame.f_code
            if module.startswith("hadwalk.") and not (
                    module == "hadwalk.verify" and code.co_name == "<lambda>"):
                seen.add(code)
        elif event == "c_call" and getattr(arg, "__module__", None) == "math":
            seen.add(arg)

    sys.setprofile(profile)
    try:
        for n in times:
            route.value(n)
    finally:
        sys.setprofile(None)
    return seen


def test_routes_share_only_the_stated_functions():
    # a fault in shared code could make routes agree on a wrong value, so
    # each pair of routes may share only the DyadicRational constructor,
    # which the closed-row anchor checks, and the two genfun routes also
    # their time check and math.comb.  No route module imports another
    # (test_package.LAYER_IMPORTS), so the direct and xi routes share no
    # coin constant either: each writes the Hadamard coin into its own sums
    calls = {r.name: traced_calls(r, (40, 42)) for r in verify.ROUTES}
    assert all(len(names) > 1 for names in calls.values())
    for a, b in itertools.combinations(calls, 2):
        allowed = {DyadicRational.__init__.__code__}
        if {a, b} == {"prop1", "closed"}:
            allowed |= {genfun._check_p0_time.__code__, math.comb}
        assert calls[a] & calls[b] == allowed, (a, b)


@pytest.mark.parametrize("route", verify.ROUTES[1:], ids=lambda r: r.name)
def test_wrong_route_fails_only_the_four_oracle_check(monkeypatch, capsys, route):
    with_route_off(monkeypatch, route, 20, DyadicRational(1, 70))
    report = verify.run_verify("fast")
    failed = [c for c in report.checks if not c.passed]
    assert [c.name for c in failed] == ["four-oracle equality p_2n, n<=30"]
    assert failed[0].actual == f"mismatches: [(20, {route.name!r})]"
    assert main(["--format", "json", "verify", "--scope", "fast"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is False
    assert [c["name"] for c in doc["checks"] if c["status"] == "fail"] == [failed[0].name]


@pytest.mark.parametrize(
    "at,check",
    [
        (8, "value table p_0..p_18"),
        (3, "odd-time return zero n<=29"),
        (20, "four-oracle equality p_2n, n<=30"),
        (60, "four-oracle equality p_2n, n<=30"),
    ],
)
def test_wrong_direct_row_fails_its_own_check(monkeypatch, capsys, at, check):
    with_route_off(monkeypatch, verify.ROUTES[0], at, DyadicRational(1, 40))
    report = verify.run_verify("fast")
    assert [c.name for c in report.checks if not c.passed] == [check]
    assert main(["--format", "json", "verify", "--scope", "fast"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in doc["checks"] if c["status"] == "fail"] == [check]


@pytest.mark.parametrize("scope,n_max", [("fast", 30), ("full", 100)])
def test_direct_row_is_compared_at_spread_times(monkeypatch, scope, n_max):
    seen = []

    def value(n, right=verify.ROUTES[0].value):
        seen.append(n)
        return right(n)

    # the other rows stay: the walk check also runs the closed-row anchor
    rows = (verify.ROUTES[0]._replace(value=value),) + verify.ROUTES[1:]
    monkeypatch.setattr(verify, "ROUTES", rows)
    list(verify._check_walk(n_max))
    assert seen[0] == 20 and seen[-1] == 2 * n_max
    assert {n % 4 for n in seen[:-1]} == {0, 2}


@pytest.mark.parametrize("scope,steps", [("fast", 60), ("full", 200)])
def test_verify_steps_one_exact_walk(monkeypatch, scope, steps):
    # one walk to the top time feeds the route, mirror, normalization and
    # symmetry rows alike
    calls = []
    step = walk.WaveFunction.step

    def counted(psi):
        calls.append(psi.time)
        return step(psi)

    monkeypatch.setattr(walk.WaveFunction, "step", counted)
    assert verify.run_verify(scope).passed
    assert calls == list(range(steps))
    assert len(verify.CHECKS) == 11


def test_rows_before_a_raise_stay(monkeypatch):
    # the quadrature cannot converge in four levels, so _check_watson raises
    # after its two prefix rows; those stay, and one failed row follows
    monkeypatch.setattr(classical, "_MAX_DEPTH", 4)
    report = verify.run_verify("full")
    assert [c.name for c in report.checks[:-1]] == FULL_CHECKS[:-1]
    assert all(c.passed for c in report.checks[:-1])
    last = report.checks[-1]
    assert (last.name, last.passed, last.expected) == ("_check_watson", False, "no exception")
    assert last.actual.startswith("QuadratureConvergenceError: ")
    assert not report.passed


def test_check_tolerance_defaults_to_exact():
    assert verify.VerifyCheck("row", True, "1", "1").tolerance == "exact"


def test_report_passes_until_a_row_fails():
    report = verify.VerifyReport("fast", ())
    assert (report.scope, report.checks, report.passed) == ("fast", (), True)
    good = verify._row("good", True, 1, 1)
    assert verify.VerifyReport("fast", (good,)).passed
    report = verify.VerifyReport("fast", (good, verify._row("bad", False, 1, 2, 0.5)))
    assert not report.passed
    assert report.checks[-1] == verify.VerifyCheck("bad", False, "1", "2", "0.5")


def test_every_check_is_a_generator_of_its_rows():
    # a check yields its rows as run_verify consumes them, so the rows it
    # yielded before a raise stay in the report
    assert all(inspect.isgeneratorfunction(check) for check, _, _ in verify.CHECKS)
    assert inspect.isgeneratorfunction(verify._check_closed_anchor)


@pytest.mark.parametrize("route", verify.ROUTES, ids=lambda r: r.name)
def test_wrong_route_makes_return_prob_all_disagree(monkeypatch, capsys, route):
    with_route_off(monkeypatch, route, 8, DyadicRational(1, 40))
    code = main(["return-prob", "-n", "8", "--method", "all"])
    captured = capsys.readouterr()
    assert code == 1
    assert "method disagreement at time 8" in captured.err
    assert captured.out == ""
