import csv
import hashlib
import io
import json
import math
import os
import re
import signal
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli there
    import tomli as tomllib

import hadwalk
from hadwalk import classical, cli, genfun, pathsum, specfun, verify, walk
from hadwalk.cli import main
from hadwalk.exactnum import DyadicRational

from test_exactnum import parse_dyadic


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, "--format", "json", *argv)
    assert code == 0, err
    return json.loads(out)


class TestSimulate:
    def test_two_steps(self, capsys):
        doc = run_json(capsys, "simulate", "-n", "2")
        probs = {e["position"]: e["probability_exact"] for e in doc["probabilities"]}
        assert probs == {-2: "1/2^2", 0: "1/2^1", 2: "1/2^2"}

    def test_time_zero(self, capsys):
        doc = run_json(capsys, "simulate", "-n", "0")
        assert doc["probabilities"] == [
            {"position": 0, "probability_exact": "1/2^0", "probability_float": 1.0}
        ]

    def test_time_four_origin(self, capsys):
        doc = run_json(capsys, "simulate", "-n", "4")
        origin = next(e for e in doc["probabilities"] if e["position"] == 0)
        assert origin["probability_exact"] == "1/2^3"

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "simulate", "-n", "2")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["position", "probability_exact", "probability_float"]
        assert len(rows) == 4

    def test_exact_strings_round_trip(self, capsys):
        # every exact cell any command prints reads back through parse_dyadic
        # to the same string, and to the float printed beside it
        doc = run_json(capsys, "simulate", "-n", "12")
        total = Fraction(0)
        for entry in doc["probabilities"]:
            value = parse_dyadic(entry["probability_exact"])
            assert str(value) == entry["probability_exact"]
            assert float(value) == entry["probability_float"]
            total += Fraction(value.numerator, 1 << value.denom_exp)
        assert total == 1
        for dim in (1, 2):
            for time in (0, 7, 40):
                doc = run_json(capsys, "classical", "--dim", str(dim), "--time", str(time))
                value = parse_dyadic(doc["probability_exact"])
                assert str(value) == doc["probability_exact"]
                assert float(value) == doc["probability_float"]
                assert value == classical.rw_return_prob(dim, time)
        for entry in run_json(capsys, "return-prob", "-n", "40", "--method", "all")["values"]:
            value = parse_dyadic(entry["exact"])
            assert str(value) == entry["exact"]
            assert float(value) == entry["float"]

    def test_custom_coin(self, capsys):
        doc = run_json(
            capsys, "simulate", "-n", "6", "--coin", "custom",
            "--entries", "0.6,0.8j,0.8j,0.6",
        )
        assert all(e["probability_exact"] is None for e in doc["probabilities"])
        assert sum(e["probability_float"] for e in doc["probabilities"]) == pytest.approx(1.0)

    @pytest.mark.parametrize("coin", [["--coin", "hadamard"], []])
    def test_entries_without_custom_coin_exit_2(self, capsys, coin):
        code, out, err = run_cli(
            capsys, "simulate", "-n", "2", *coin, "--entries", "0.6,0.8j,0.8j,0.6"
        )
        assert code == 2
        assert out == ""
        assert "--entries" in err and "--coin custom" in err

    def test_non_unitary_coin_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "-n", "2", "--coin", "custom", "--entries", "1,0,0.5,1"
        )
        assert code == 2
        assert "|a|^2+|c|^2" in err

    @pytest.mark.parametrize("entries", ["nan,nan,nan,nan", "1,0,0,nan"])
    def test_non_finite_coin_exit_2(self, capsys, entries):
        code, out, err = run_cli(
            capsys, "simulate", "-n", "2", "--coin", "custom", "--entries", entries
        )
        assert code == 2
        assert out == ""
        assert "is not finite" in err

    @pytest.mark.parametrize("entries,message", [
        ("abc,0,0,1", "--entries: entry 1, 'abc', is not a complex number"),
        (",,,", "--entries: entry 1, '', is not a complex number"),
        ("1,0, 0,1+i", "--entries: entry 4, '1+i', is not a complex number"),
        ("1,0,0,1,x", "--entries: entry 5, 'x', is not a complex number"),
        ("1,0,0", "--entries needs exactly four complex numbers"),
        ("1,0,0,1,0", "--entries needs exactly four complex numbers"),
    ])
    def test_bad_entries_exit_2(self, capsys, entries, message):
        code, out, err = run_cli(
            capsys, "simulate", "-n", "2", "--coin", "custom", "--entries", entries
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_determinism(self, capsys):
        first = run_cli(capsys, "--format", "json", "simulate", "-n", "20")
        second = run_cli(capsys, "--format", "json", "simulate", "-n", "20")
        assert first == second

    def test_exactness_survives_at_scale(self, capsys):
        # 2^201 denominators pass through the CSV untouched
        code, out, _ = run_cli(capsys, "--format", "csv", "simulate", "-n", "200")
        rows = list(csv.reader(io.StringIO(out)))[1:]
        total = Fraction(0)
        for _, exact, _ in rows:
            value = parse_dyadic(exact)
            total += Fraction(value.numerator, 1 << value.denom_exp)
        assert total == 1
        assert len(rows) == 201


    # sha256 of the stdout the full-width float engine printed.  Each entry of
    # these coins has a zero real or imaginary part, so every product in a step
    # is rounded once, with or without fused multiply-adds.  At T = 3001 the
    # window has dropped slots at both ends since about t = 1220.
    FLOAT_STDOUT_SHA256 = {
        ("0.6,0.8j,0.8j,0.6", 249, "json"): "84c18ea69ade8cdbc415a9ae9ec31122593bb988640064014ea735e96b4b880d",
        ("0.6,0.8j,0.8j,0.6", 249, "csv"): "a60531019d042251917d9c0a38995e904dab9671f8f3da43b6fe504931b98027",
        ("0.6,0.8j,0.8j,0.6", 249, "plain"): "6c47559f57f210823072f07fc761121b5877857d73d4e8b625ba8e59a21a4e55",
        ("0.6,0.8j,0.8j,0.6", 250, "json"): "64098fa5289dd5a65be307be471451e13609a10f8da29ec2cf65bf248f0055ed",
        ("0.6,0.8j,0.8j,0.6", 250, "csv"): "78bc6839a87e0996e97d662d4d76fa89d200c28fd69502028aefc9503361b42b",
        ("0.6,0.8j,0.8j,0.6", 250, "plain"): "3d90b4c2980b10b46bf8082e22994d6c7447061e001d4e7189505454a78f1bf9",
        ("0.6,0.8,0.8,-0.6", 249, "json"): "faa36b57206591d722d54071ceb5ea349c97c83e71dc08ab7cb7383fa96388c0",
        ("0.6,0.8,0.8,-0.6", 249, "csv"): "0280f319cd7f253480255414c67a28515dedd405e437f4aba3ee7e3ea830bce6",
        ("0.6,0.8,0.8,-0.6", 249, "plain"): "e57d12e9f8f339b7fedcbde8e004f0b60841c8e369baf9919269ba61a8f2238d",
        ("0.6,0.8,0.8,-0.6", 250, "json"): "4d54cdb60dd4c5dae4c3772e2cce2daa1d6e5061dca1cef94792e3f2eb002edf",
        ("0.6,0.8,0.8,-0.6", 250, "csv"): "f8adb7d1f7d50b67be49226012ec7af6c193d1fb1751e71c04f266020ef0e1ca",
        ("0.6,0.8,0.8,-0.6", 250, "plain"): "c6be38819ceb379d0411edaa5bb507efa801cb8ddfd08efcd4b50f2dea8f16a8",
        ("0.6,0.8j,0.8j,0.6", 3001, "json"): "6ccd49d5ec300ccf5b29bc8684d0290296e628ac9360f5c88abcb02c7265041f",
        ("0.6,0.8j,0.8j,0.6", 3001, "csv"): "041580e8bea8da99f25e5ac3c9790f7201cfcb58992a89a00d5d658d3288d6cf",
        ("0.6,0.8j,0.8j,0.6", 3001, "plain"): "f8a11daf798b199560b7bb21edb6bac965578e47fa01de22a464f245ad42f3e8",
        ("0.6,0.8,0.8,-0.6", 3001, "json"): "db2ca5d3b919d11582b96da11fb68b48d9719cf8ba4b82b322ff53e4e0f7cb89",
        ("0.6,0.8,0.8,-0.6", 3001, "csv"): "ea14b1b181856da9aa46901a0ca3b125f59f478cfdac3c51a011edd92400d753",
        ("0.6,0.8,0.8,-0.6", 3001, "plain"): "575a182834c971763372afce807edf533fb4e3638056b798263c27b75e9eab41",
    }

    @pytest.mark.parametrize("entries,time,fmt", FLOAT_STDOUT_SHA256)
    def test_float_stdout_pinned(self, capsys, entries, time, fmt):
        code, out, err = run_cli(
            capsys, "--format", fmt, "simulate", "-n", str(time),
            "--coin", "custom", "--entries", entries,
        )
        assert code == 0, err
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == self.FLOAT_STDOUT_SHA256[entries, time, fmt]


# sha256 of the stdout of exact commands.  These bytes depend only on exact
# integers, float repr and correctly rounded int division, so they hold on
# every build; xi's float columns scale by 2^-35, exactly, at sqrt2_exponent 70.
EXACT_STDOUT_SHA256 = {
    ("simulate -n 300", "json"): "30a17de7e8a7815cb1002de1388cc99efadde09c15ba8cba86ff652fafe0e05c",
    ("simulate -n 300", "csv"): "8c322e0dc1ba0c8604fbffd744a4c8763f1ee2a14616b21ebda51be4ece3198d",
    ("simulate -n 300", "plain"): "a5e0600840de56cdfc44a87ba5da5d73245a56f70bf1c027adcd1332a5666931",
    # an odd time, and T = 2 (mod 4), which T = 300 does not reach
    ("simulate -n 301", "json"): "5e83339e7997f968505799392945fabae77b423f630a3beadeade8bc9743adce",
    ("simulate -n 301", "csv"): "3f45510832639c1ad6dbeeba62e13e6a09ecdc92d36bd628bb6e3320cf1e4ce4",
    ("simulate -n 302", "json"): "1c1182c48e4bb9e076f9ec03c73c4382fc84871d81df73012f19410b9f19a38a",
    ("simulate -n 302", "csv"): "d96386d13ed14c301eca8e840c4f04cdfca4a00dc487be24f322775b39f058d0",
    ("return-prob -n 1002 --method all", "json"): "0de1dbcbbd6eefba4fe01f01525f350096e88ea3287768c9544c608f9d718e90",
    ("return-prob -n 1002 --method all", "csv"): "342260e469a9528434ce0f5b36d24349b5056596e82410ba707c5a33c7b7112d",
    ("return-prob -n 1002 --method all", "plain"): "4e55acec16e279b422ad05379db4e2dc05603ca05a785b5ddb48cf956d2afa0c",
    ("return-prob -n 5", "json"): "a64344d60fca08b205a1d43ca51239ed96cd4dd5ac3f8d18435b58a657c03459",
    ("return-prob -n 5", "csv"): "e8038ce36d85072fc41cb8cf86e49d6fbcd46779479de5cee483071c91492d37",
    ("return-prob -n 5", "plain"): "76bafc4d4b4335e69c900a3f24bab11d406e7fd227d3930688617ebfaf4d76f2",
    ("xi --l 30 --m 41", "json"): "280f52e3610f8cc5e87b9b8a24d62caffabd53d2aa5e55679b573104b0039879",
}


@pytest.mark.parametrize("command,fmt", EXACT_STDOUT_SHA256)
def test_exact_stdout_pinned(capsys, command, fmt):
    code, out, err = run_cli(capsys, "--format", fmt, *command.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == EXACT_STDOUT_SHA256[command, fmt]


class TestReturnProb:
    def test_all_methods_agree_on_table_value(self, capsys):
        doc = run_json(capsys, "return-prob", "-n", "18", "--method", "all")
        assert doc["all_equal"] is True
        assert {v["method"] for v in doc["values"]} == {"direct", "xi", "prop1", "closed"}
        assert all(v["exact"] == "1225/2^15" for v in doc["values"])

    def test_odd_time_is_zero(self, capsys):
        doc = run_json(capsys, "return-prob", "-n", "5")
        assert doc["values"] == [{"method": "direct", "exact": "0/2^0", "float": 0.0}]

    def test_time_twelve(self, capsys):
        doc = run_json(capsys, "return-prob", "-n", "12", "--method", "closed")
        assert doc["values"][0]["exact"] == "25/2^9"

    @pytest.mark.parametrize("method", ["all", "direct", "xi", "prop1", "closed"])
    def test_negative_time_refused_for_every_method(self, capsys, method):
        code, out, err = run_cli(capsys, "return-prob", "-n", "-2", "--method", method)
        assert (code, out, err) == (2, "", "error: time must be nonnegative\n")

    def test_out_of_hypothesis_method(self, capsys):
        code, _, err = run_cli(capsys, "return-prob", "-n", "5", "--method", "closed")
        assert code == 2
        assert "closed" in err

    def test_exact_output_past_int_str_digit_limit(self, capsys):
        # p_4400(0) has a 4400-digit decimal expansion, past the default
        # 4300-digit limit of Python's int-to-str conversion
        code, out, err = run_cli(capsys, "return-prob", "-n", "4400", "--method", "closed")
        assert code == 0, err
        _, _, exact, decimal_text = out.splitlines()[1].split()
        value = parse_dyadic(exact)
        assert value == genfun.p0_closed(1100)
        whole, _, frac = decimal_text.partition(".")
        assert whole == "0" and len(frac) == value.denom_exp > 4300
        assert int(Decimal(frac)) == value.numerator * 5**value.denom_exp

    def test_plain_has_exact_decimal(self, capsys):
        code, out, _ = run_cli(capsys, "return-prob", "-n", "16", "--method", "direct")
        assert code == 0
        assert "1225/2^15" in out
        assert "0.037384033203125" in out

    @pytest.mark.parametrize("fmt,calls", [("json", 0), ("csv", 1), ("plain", 1)])
    def test_decimal_expansion_once_and_only_for_tables(self, capsys, monkeypatch, fmt, calls):
        # the four routes agree on one value, so its expansion is built once,
        # and only where a row prints it
        assert all(r.covers(1002) for r in verify.ROUTES)
        expand = DyadicRational.to_decimal_string
        seen = []
        monkeypatch.setattr(DyadicRational, "to_decimal_string",
                            lambda self: seen.append(self) or expand(self))
        code, out, _ = run_cli(capsys, "--format", fmt, "return-prob", "-n", "1002",
                               "--method", "all")
        assert code == 0
        assert out.count("closed") == 1
        assert len(seen) == calls


class TestRouteCaps:
    def test_each_route_refuses_far_above_its_cap_at_once(self):
        # any work at these sizes would not finish
        with pytest.raises(ValueError, match=f"MAX_PATHS_TIME = {pathsum.MAX_PATHS_TIME}"):
            pathsum.return_probability_paths(10**18)
        for fn in (genfun.p0_legendre, genfun.p0_closed):
            with pytest.raises(ValueError, match=f"MAX_P0_TIME = {genfun.MAX_P0_TIME}"):
                fn(10**18)

    def test_cap_boundaries(self, monkeypatch):
        monkeypatch.setattr(pathsum, "MAX_PATHS_TIME", 10)
        monkeypatch.setattr(genfun, "MAX_P0_TIME", 20)
        assert pathsum.return_probability_paths(5) == genfun.p0_legendre(5)
        assert genfun.p0_legendre(10) == genfun.p0_closed(5)
        with pytest.raises(ValueError, match="time 12 .* MAX_PATHS_TIME = 10"):
            pathsum.return_probability_paths(6)
        with pytest.raises(ValueError, match="time 22 .* MAX_P0_TIME = 20"):
            genfun.p0_legendre(11)
        with pytest.raises(ValueError, match="time 24 .* MAX_P0_TIME = 20"):
            genfun.p0_closed(6)

    def test_rows_read_the_caps_when_called(self, monkeypatch, capsys):
        monkeypatch.setattr(walk, "MAX_EXACT_TIME", 4)
        monkeypatch.setattr(pathsum, "MAX_PATHS_TIME", 10)
        monkeypatch.setattr(genfun, "MAX_P0_TIME", 20)
        covered = {r.name: [n for n in range(2, 25, 2) if r.covers(n)] for r in verify.ROUTES}
        assert covered == {
            "direct": [2, 4],
            "xi": [2, 4, 6, 8, 10],
            "prop1": list(range(2, 21, 2)),
            "closed": list(range(4, 21, 2)),
        }
        doc = run_json(capsys, "return-prob", "-n", "12")
        assert [v["method"] for v in doc["values"]] == ["prop1", "closed"]
        assert doc["all_equal"] is True
        code, out, err = run_cli(capsys, "return-prob", "-n", "22")
        assert (code, out) == (2, "")
        assert "no method covers time 22" in err
        for limit in ("MAX_EXACT_TIME = 4", "MAX_PATHS_TIME = 10", "MAX_P0_TIME = 20"):
            assert limit in err

    def test_all_above_the_path_sum_cap_uses_the_other_routes(self):
        n = pathsum.MAX_PATHS_TIME + 2
        result = subprocess.run(
            [sys.executable, "-m", "hadwalk.cli", "--format", "json", "return-prob", "-n", str(n)],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert [v["method"] for v in doc["values"]] == ["prop1", "closed"]
        assert doc["all_equal"] is True

    def test_no_route_above_every_cap_exit_2(self):
        n = genfun.MAX_P0_TIME + 2
        result = subprocess.run(
            [sys.executable, "-m", "hadwalk.cli", "return-prob", "-n", str(n)],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert (result.returncode, result.stdout) == (2, "")
        assert f"no method covers time {n}" in result.stderr
        for limit in (f"MAX_EXACT_TIME = {walk.MAX_EXACT_TIME}",
                      f"MAX_PATHS_TIME = {pathsum.MAX_PATHS_TIME}",
                      f"MAX_P0_TIME = {genfun.MAX_P0_TIME}"):
            assert limit in result.stderr

    def test_single_method_above_its_cap_names_the_others(self, capsys):
        n = pathsum.MAX_PATHS_TIME + 2
        code, out, err = run_cli(capsys, "return-prob", "-n", str(n), "--method", "xi")
        assert (code, out) == (2, "")
        assert f"MAX_PATHS_TIME = {pathsum.MAX_PATHS_TIME}" in err
        assert err.rstrip().endswith("use --method prop1 or --method closed")


class TestXiCommand:
    def test_exact_and_float_output(self, capsys):
        doc = run_json(capsys, "xi", "--l", "2", "--m", "2")
        assert doc["sqrt2_exponent"] == 3
        assert doc["coefficients"]["p"] == {"re": "-1", "im": "0"}
        assert doc["coefficients"]["q"] == {"re": "1", "im": "0"}
        assert doc["floats"]["p"][0] == pytest.approx(-(2.0**-1.5))

    def test_no_steps_rejected(self, capsys):
        code, _, err = run_cli(capsys, "xi", "--l", "0", "--m", "0")
        assert code == 2

    def test_cores_pinned_to_binomial_sums(self, capsys):
        # the JSON the DP prints at l = m = 58, core for core, against the
        # alternating binomial sums with math.comb per term
        n = 58
        doc = run_json(capsys, "xi", "--l", str(n), "--m", str(n))
        p = sum((-1) ** (n - g) * math.comb(n - 1, g) * math.comb(n - 1, g - 1)
                for g in range(1, n))
        r = sum((-1) ** (n - g) * math.comb(n - 1, g - 1) ** 2 for g in range(1, n + 1))
        assert doc["sqrt2_exponent"] == 2 * n - 1
        assert doc["coefficients"] == {
            "p": {"re": str(p), "im": "0"},
            "q": {"re": str(-p), "im": "0"},
            "r": {"re": str(r), "im": "0"},
            "s": {"re": str(r), "im": "0"},
        }


class TestEllipk:
    def test_agm_value_17_digits(self, capsys):
        code, out, _ = run_cli(capsys, "ellipk", "--k", "0")
        assert code == 0
        assert "1.5707963267948966" in out

    def test_series_method(self, capsys):
        doc = run_json(capsys, "ellipk", "--k", "0.5", "--method", "series",
                       "--terms", "80")
        agm = run_json(capsys, "ellipk", "--k", "0.5")
        assert doc["value"] == pytest.approx(agm["value"], abs=1e-12)
        assert doc["terms"] == 80
        assert run_json(capsys, "ellipk", "--k", "0.5", "--method", "series")["terms"] == 64

    def test_domain_error_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "ellipk", "--k", "1.0")
        assert code == 2
        assert "diverges" in err

    @pytest.mark.parametrize("k,message", [
        ("nan", "must lie in [0, 1)"),
        ("inf", "diverges"),
        ("-0.1", "negative"),
    ])
    def test_non_finite_or_negative_modulus_exit_2(self, capsys, k, message):
        code, out, err = run_cli(capsys, "ellipk", "--k", k)
        assert code == 2, out
        assert out == ""
        assert message in err


class TestGenfun:
    def test_fields(self, capsys):
        doc = run_json(capsys, "genfun", "--z", "0.5")
        # the key order is GfPoint's field order
        assert list(doc) == ["z", "lhs_partial", "rhs_closed", "truncation", "tail_bound",
                             "abs_diff"]
        assert doc["tail_bound"] <= 1e-12
        assert doc["abs_diff"] <= doc["tail_bound"] + 1e-10

    def test_small_z_whose_complement_rounds_above_one(self, capsys):
        # (1 - z)(1 + z)(1 + z^2) rounds to 1 + 2^-52 at this z
        doc = run_json(capsys, "genfun", "--z", "2.8367682571105613e-08")
        assert abs(doc["rhs_closed"] - 1.0) <= 1e-15  # p_0 = 1
        assert doc["abs_diff"] <= doc["tail_bound"] + 1e-10

    def test_explicit_truncation(self, capsys):
        doc = run_json(capsys, "genfun", "--z", "0.3", "--truncate", "60")
        assert doc["truncation"] == 60

    def test_sweep_csv(self, capsys):
        code, out, _ = run_cli(capsys, "--format", "csv", "genfun",
                               "--sweep", "0.0:0.8:5")
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["z", "lhs_partial", "rhs_closed"]
        assert len(rows) == 6

    def test_missing_argument(self, capsys):
        code, _, err = run_cli(capsys, "genfun")
        assert code == 2

    def test_sweep_count_limit_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_POINTS", 3)
        assert len(run_json(capsys, "genfun", "--sweep", "0:0.5:3")["sweep"]) == 3
        with pytest.raises(SystemExit) as exit_info:
            main(["genfun", "--sweep", "0:0.5:4"])
        assert exit_info.value.code == 2
        assert "MAX_SWEEP_POINTS = 3" in capsys.readouterr().err

    @pytest.mark.parametrize("sweep,name", [
        ("0.1:inf:3", "stop = inf"),
        ("nan:0.5:3", "start = nan"),
        ("-inf:0.5:1", "start = -inf"),
        ("-1e308:1e308:3", "stop - start = inf"),
        ("1e308:-1e308:3", "stop - start = -inf"),
    ])
    def test_sweep_bound_not_finite_is_refused(self, capsys, sweep, name):
        # no z is computed from them: inf * 0 would give a z of nan
        with pytest.raises(SystemExit) as exit_info:
            main(["genfun", f"--sweep={sweep}"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --sweep: sweep {name} is not finite\n")

    @pytest.mark.parametrize("sweep,message", [
        ("0:0.5:3.5", "sweep count must be an integer, got '3.5'"),
        ("0:x:3", "sweep stop must be a number, got 'x'"),
        ("y:0.5:3", "sweep start must be a number, got 'y'"),
    ])
    def test_malformed_sweep_field_is_named(self, capsys, sweep, message):
        with pytest.raises(SystemExit) as exit_info:
            main(["genfun", f"--sweep={sweep}"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument --sweep: {message}\n")

    def test_sweep_work_limit_boundary(self, capsys, monkeypatch):
        zs = (0.0, 0.25, 0.5)
        work = sum(genfun.truncation_for(z) + 1 for z in zs)
        solved = []
        solve = genfun.truncation_for
        monkeypatch.setattr(genfun, "truncation_for", lambda z: solved.append(z) or solve(z))
        monkeypatch.setattr(cli, "MAX_SWEEP_WORK", work)
        assert len(run_json(capsys, "genfun", "--sweep", "0:0.5:3")["sweep"]) == 3
        assert solved == list(zs)  # each point's truncation is solved once
        monkeypatch.setattr(cli, "MAX_SWEEP_WORK", work - 1)
        code, out, err = run_cli(capsys, "genfun", "--sweep", "0:0.5:3")
        assert (code, out) == (2, "")
        assert f"= {work} is above the limit MAX_SWEEP_WORK = {work - 1}" in err

    def test_near_one_runs_in_linear_time(self, capsys):
        # N = 24 655: a per-n Legendre loop takes over 30 s, the linear pass 0.01 s
        start = time.perf_counter()
        doc = run_json(capsys, "genfun", "--z", "0.999")
        elapsed = time.perf_counter() - start
        assert doc["truncation"] == 24655
        assert doc["tail_bound"] <= 1e-12
        assert doc["abs_diff"] <= doc["tail_bound"] + 1e-10
        assert elapsed < 10.0, f"genfun --z 0.999 took {elapsed:.1f} s"


@pytest.mark.parametrize("argv,message", [
    (["genfun", "--z", "0.5", "--sweep", "0.1:0.2:2"], "genfun requires exactly one of --z or --sweep"),
    (["genfun"], "genfun requires exactly one of --z or --sweep"),
    (["ellipk", "--k", "0.5", "--terms", "5"], "--terms requires --method series"),
    (["ellipk", "--k", "0.5", "--method", "agm", "--terms", "64"], "--terms requires --method series"),
])
def test_option_the_mode_would_ignore_is_refused(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


class TestClassical:
    def test_exact_probability(self, capsys):
        doc = run_json(capsys, "classical", "--dim", "2", "--time", "4")
        assert doc["probability_exact"] == "9/2^6"

    def test_generating_function(self, capsys):
        doc = run_json(capsys, "classical", "--dim", "1", "--gf", "0.6")
        assert doc["value"] == pytest.approx(1.0 / (1 - 0.36) ** 0.5)

    @pytest.mark.parametrize("dim,time", [(1, 15000), (2, 8000)])
    def test_exact_output_past_int_str_digit_limit(self, capsys, dim, time):
        # the reduced numerator runs past Python's default 4300-digit limit
        # of int-to-str conversion
        doc = run_json(capsys, "classical", "--dim", str(dim), "--time", str(time))
        k = time // 2
        want = Fraction(math.comb(2 * k, k), 4**k) ** dim
        num, _, den = doc["probability_exact"].partition("/2^")
        assert len(num) > 4300
        assert num[0] != "0" and den[0] != "0"
        assert int(Decimal(num)) == want.numerator
        assert 1 << int(den) == want.denominator

    def test_time_limit_boundary(self, capsys, monkeypatch):
        monkeypatch.setattr(classical, "MAX_RW_TIME", 10)
        assert run_json(capsys, "classical", "--dim", "2", "--time", "10")["time"] == 10
        code, out, err = run_cli(capsys, "classical", "--dim", "2", "--time", "11")
        assert code == 2 and out == ""
        assert "MAX_RW_TIME = 10" in err

    def test_requires_exactly_one_mode(self, capsys):
        code, _, _ = run_cli(capsys, "classical", "--dim", "1")
        assert code == 2
        code, _, _ = run_cli(capsys, "classical", "--dim", "1", "--time", "2",
                             "--gf", "0.5")
        assert code == 2


class TestWatson:
    def test_result_fields(self, capsys):
        doc = run_json(capsys, "watson", "--tol", "1e-8")
        # the key order is WatsonResult's field order
        assert list(doc) == ["g_quadrature", "g_closed", "f_return", "quadrature_error_estimate"]
        assert abs(doc["g_quadrature"] - doc["g_closed"]) < 1e-6
        assert doc["f_return"] == pytest.approx(0.3405373295, abs=1e-9)

    def test_exhausted_budget_exits_1_with_the_best_estimate(self, capsys, monkeypatch):
        # four levels of subdivision cannot reach 1e-10
        monkeypatch.setattr(classical, "_MAX_DEPTH", 4)
        code, out, err = run_cli(capsys, "watson", "--tol", "1e-10")
        assert (code, out) == (1, "")
        match = re.fullmatch(r"error: subdivision budget exhausted before reaching "
                             r"rel_tol=1e-10 \(best estimate (\S+)\)\n", err)
        assert match, err
        assert float(match[1]) == pytest.approx(1.5163860592, abs=0.01)


def test_a_type_error_leaves_main(monkeypatch, capsys):
    # only ValueError is bad input, exit 2; a TypeError is a fault in
    # hadwalk, so it propagates with its traceback instead of an exit code
    def broken(args, em):
        raise TypeError("a fault in the handler")

    monkeypatch.setattr(cli, "_cmd_watson", broken)
    with pytest.raises(TypeError, match="a fault in the handler"):
        main(["watson"])
    assert capsys.readouterr().err == ""


#: Every subcommand, both positions of --format and --precision, a call
#: without --precision right after one with it, and usage errors.
PARSER_REUSE_COMMANDS = [
    ["simulate", "-n", "6", "--format", "csv"],
    ["--format", "json", "return-prob", "-n", "20"],
    ["xi", "--l", "3", "--m", "4"],
    ["--precision", "5", "ellipk", "--k", "0.9"],
    ["ellipk", "--k", "0.9"],
    ["genfun", "--z", "0.5", "--precision", "5"],
    ["genfun", "--z", "0.5"],
    ["genfun", "--sweep", "0.1:0.6:3", "--format", "plain"],
    ["--format", "csv", "classical", "--dim", "2", "--gf", "0.3"],
    ["classical", "--dim", "1", "--time", "10"],
    ["watson", "--format", "json", "--precision", "6"],
    ["watson"],
    ["verify", "--format", "csv"],
    ["bogus"],
    ["return-prob"],
    ["return-prob", "-n", "20", "--method", "nope"],
    ["genfun", "--sweep", "0:1:x"],
    ["--precision", "-1", "watson"],
    ["watson", "--precision", "800"],
]


def run_or_exit(capsys, argv):
    """(exit code, stdout, stderr) of one command, a usage error's too."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestOneParserPerProcess:
    def test_a_warm_parser_behaves_like_a_fresh_one(self, capsys):
        fresh = []
        for argv in PARSER_REUSE_COMMANDS:
            cli.build_parser.cache_clear()
            fresh.append(run_or_exit(capsys, argv))
        parser = cli.build_parser()
        assert cli.build_parser() is parser
        warm = [run_or_exit(capsys, argv) for argv in PARSER_REUSE_COMMANDS]
        assert cli.build_parser() is parser
        assert warm == fresh
        codes = [code for code, _, _ in warm]
        assert codes == [0] * 13 + [2] * 6

    def test_a_handler_patched_after_the_build_runs(self, monkeypatch):
        def broken(args, em):
            raise TypeError("patched after the build")

        cli.build_parser()
        monkeypatch.setattr(cli, "_cmd_watson", broken)
        with pytest.raises(TypeError, match="patched after the build"):
            main(["watson"])


def display_cell(value, precision):
    """The csv and plain cell of one JSON field: floats at --precision."""
    if value is None:
        return ""
    return f"{value:.{precision}g}" if isinstance(value, float) else str(value)


def plain_cells(text):
    """Cells of a plain table, cut at the offsets of its header's columns."""
    header, *lines = text.splitlines()
    starts = [m.start() for m in re.finditer(r"\S+", header)]
    bounds = list(zip(starts, [*starts[1:], None]))
    return [[line[a:b].strip() for a, b in bounds] for line in (header, *lines)]


class TestDisplayMatchesJson:
    """csv and plain print the JSON records' fields, one row per record."""

    def assert_tables_match(self, capsys, argv, records, precision):
        want = [list(records[0]), *([display_cell(v, precision) for v in r.values()]
                                    for r in records)]
        for fmt in ("csv", "plain"):
            code, out, err = run_cli(capsys, "--format", fmt, "--precision",
                                     str(precision), *argv)
            assert code == 0, err
            got = list(csv.reader(io.StringIO(out))) if fmt == "csv" else plain_cells(out)
            assert got == want, fmt

    @pytest.mark.parametrize("precision", [15, 6])
    @pytest.mark.parametrize("argv", [
        ["genfun", "--z", "0.5"],
        ["genfun", "--sweep", "0.1:0.9:5"],
        ["classical", "--dim", "2", "--time", "40"],
        ["classical", "--dim", "2", "--gf", "0.123456789"],
        ["watson"],
    ], ids=["genfun-z", "genfun-sweep", "classical-time", "classical-gf", "watson"])
    def test_single_record_commands(self, capsys, argv, precision):
        doc = run_json(capsys, "--precision", str(precision), *argv)
        records = doc["sweep"] if "sweep" in doc else [doc]
        self.assert_tables_match(capsys, argv, records, precision)

    @pytest.mark.parametrize("precision", [15, 6])
    @pytest.mark.parametrize("coin", [[], ["--coin", "custom", "--entries", "0.6,0.8j,0.8j,0.6"]],
                             ids=["exact", "float"])
    def test_simulate(self, capsys, coin, precision):
        argv = ["simulate", "-n", "13", *coin]
        doc = run_json(capsys, "--precision", str(precision), *argv)
        self.assert_tables_match(capsys, argv, doc["probabilities"], precision)

    @pytest.mark.parametrize("precision", [15, 6])
    @pytest.mark.parametrize("argv,key", [
        (["classical", "--dim", "2", "--gf", "0.123456789012345678"], "z"),
        (["ellipk", "--k", "0.123456789012345678"], "k"),
    ], ids=["classical-gf", "ellipk"])
    def test_echoed_input_prints_at_precision(self, capsys, argv, key, precision):
        doc = run_json(capsys, *argv)
        assert doc[key] == float(argv[-1])
        for fmt in ("csv", "plain"):
            code, out, err = run_cli(capsys, "--format", fmt, "--precision",
                                     str(precision), *argv)
            assert code == 0, err
            header, row = list(csv.reader(io.StringIO(out))) if fmt == "csv" else plain_cells(out)
            assert row[header.index(key)] == f"{doc[key]:.{precision}g}", fmt
            if key == "k":  # ellipk's value alone keeps 17 digits
                assert row[header.index("value")] == f"{doc['value']:.17g}", fmt


class TestVerify:
    def test_fast_scope_passes(self, capsys):
        doc = run_json(capsys, "verify", "--scope", "fast")
        assert doc["passed"] is True
        names = [c["name"] for c in doc["checks"]]
        assert any("generating function identity z=0.5" in n for n in names)
        assert any("watson" in n for n in names)


class KernelCalled(Exception):
    pass


class TestOnlyVerifyReachesTheRationalKernels:
    """No command but verify calls specfun's terminating 2F1 or jacobi_p0."""

    @pytest.fixture
    def kernels_refuse(self, monkeypatch):
        def refuse(*args):
            raise KernelCalled

        for name in ("hyp2f1_terminating", "jacobi_p0"):
            monkeypatch.setattr(specfun, name, refuse)

    @pytest.mark.parametrize("argv", [
        ["simulate", "-n", "12"],
        ["simulate", "-n", "12", "--coin", "custom", "--entries", "0.6,0.8j,0.8j,0.6"],
        ["return-prob", "-n", "20", "--method", "all"],
        ["xi", "--l", "5", "--m", "6"],
        ["genfun", "--z", "0.5"],
        ["genfun", "--sweep", "0.1:0.5:3"],
        ["classical", "--dim", "1", "--time", "10"],
        ["classical", "--dim", "2", "--gf", "0.3"],
        ["ellipk", "--k", "0.5"],
        ["ellipk", "--k", "0.5", "--method", "series"],
        ["watson", "--tol", "1e-6"],
    ], ids=["simulate-exact", "simulate-float", "return-prob", "xi", "genfun-z",
            "genfun-sweep", "classical-time", "classical-gf", "ellipk-agm", "ellipk-series",
            "watson"])
    def test_other_commands_exit_0(self, capsys, kernels_refuse, argv):
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, err

    def test_verify_calls_them(self, capsys, kernels_refuse):
        # each raise fails only its own check's row, and the report is whole
        code, out, _ = run_cli(capsys, "--format", "json", "verify", "--scope", "fast")
        assert code == 1
        checks = json.loads(out)["checks"]
        failed = [(c["name"], c["actual"]) for c in checks if c["status"] == "fail"]
        assert failed == [("_check_jacobi_recurrence", "KernelCalled: "),
                          ("_check_hyp_chain", "KernelCalled: ")]
        assert len(checks) == 17  # every row of the fast report


class TestGlobalFlagPlacement:
    def test_format_after_subcommand(self, capsys):
        before = run_cli(capsys, "--format", "json", "return-prob", "-n", "8")
        after = run_cli(capsys, "return-prob", "-n", "8", "--format", "json")
        assert before == after
        assert before[0] == 0

    def test_precision_after_subcommand(self, capsys):
        code, out, _ = run_cli(capsys, "classical", "--dim", "2", "--gf", "0.5",
                               "--precision", "4")
        assert code == 0
        assert "1.073" in out
        assert "1.0731820" not in out

    @pytest.mark.parametrize("argv", [
        ["--precision", "-1", "genfun", "--z", "0.5"],
        ["genfun", "--z", "0.5", "--precision", "-1"],
    ])
    def test_negative_precision_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "argument --precision: must be nonnegative, got -1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--precision", "768", "genfun", "--z", "0.5"],
        ["genfun", "--z", "0.5", "--precision", "100000"],
    ])
    def test_precision_above_cap_refused(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        got = argv[argv.index("--precision") + 1]
        err = capsys.readouterr().err
        assert f"argument --precision: must be at most {cli.MAX_PRECISION}, got {got}" in err

    def test_precision_at_cap_prints_the_exact_expansion(self, capsys):
        # 767 digits reach the end of every double's decimal expansion
        assert cli.MAX_PRECISION == 767
        lhs = run_json(capsys, "genfun", "--z", "0.5")["lhs_partial"]
        code, out, _ = run_cli(capsys, "--format", "csv", "--precision", "767",
                               "genfun", "--z", "0.5")
        assert code == 0
        assert list(csv.reader(io.StringIO(out)))[1][1] == f"{lhs:.5000g}"

    def test_zero_precision_accepted(self, capsys):
        code, out, _ = run_cli(capsys, "--precision", "0", "genfun", "--z", "0.5")
        assert code == 0
        assert out.splitlines()[1].split()[:3] == ["0.5", "1", "1"]


#: Each size cap: the module that defines it, and a command at the smallest
#: value it refuses.  The sweep's 17 points at N = MAX_SWEEP_WORK // 17 sum
#: 17 (N + 1) terms, the fewest above the cap.
SIZE_CAPS = {
    "MAX_EXACT_TIME": (walk, ["simulate", "-n", str(walk.MAX_EXACT_TIME + 1)]),
    "MAX_FLOAT_TIME": (walk, ["simulate", "-n", str(walk.MAX_FLOAT_TIME + 1),
                              "--coin", "custom", "--entries", "0.6,0.8j,0.8j,0.6"]),
    "MAX_DP_CELLS": (pathsum, ["xi", "--l", "0", "--m", str(pathsum.MAX_DP_CELLS)]),
    "MAX_PATHS_TIME": (pathsum, ["return-prob", "-n", str(pathsum.MAX_PATHS_TIME + 2),
                                 "--method", "xi"]),
    # the odd time one past the cap is covered by the direct route
    "MAX_P0_TIME": (genfun, ["return-prob", "-n", str(genfun.MAX_P0_TIME + 2),
                             "--method", "prop1"]),
    "MAX_RW_TIME": (classical, ["classical", "--dim", "1",
                                "--time", str(classical.MAX_RW_TIME + 1)]),
    "MAX_TRUNCATION": (genfun, ["genfun", "--z", "0.5",
                                "--truncate", str(genfun.MAX_TRUNCATION + 1)]),
    "MAX_SERIES_TERMS": (specfun, ["ellipk", "--k", "0.5", "--method", "series",
                                   "--terms", str(specfun.MAX_SERIES_TERMS + 1)]),
    "MAX_SWEEP_POINTS": (cli, ["genfun", "--sweep", f"0:0.5:{cli.MAX_SWEEP_POINTS + 1}"]),
    "MAX_SWEEP_WORK": (cli, ["genfun", "--sweep", "0:0.5:17",
                             "--truncate", str(cli.MAX_SWEEP_WORK // 17)]),
}


def child_env():
    """Environment for a child interpreter that imports this very ``hadwalk``."""
    env = dict(os.environ)
    package_root = str(Path(hadwalk.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return env


def console_script_target():
    """The ``module:function`` that ``[project.scripts]`` declares for ``hadwalk``."""
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hadwalk"]
    module, _, function = target.partition(":")
    return module.strip(), function.strip()


class TestEntryPoint:
    def test_console_script(self):
        # Run the declared target the way a generated console script does, so
        # the check needs no install and cannot pick up another checkout.
        module, function = console_script_target()
        launcher = (
            f"import sys; sys.argv[0] = 'hadwalk'; "
            f"from {module} import {function}; sys.exit({function}())"
        )
        result = subprocess.run(
            [sys.executable, "-c", launcher, "--format", "json", "return-prob", "-n", "8"],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        assert doc["values"]
        assert all(v["exact"] == "9/2^7" for v in doc["values"])

    @pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
    def test_closed_pipe_ends_by_sigpipe(self):
        # as `hadwalk simulate -n 1000 --format csv | head -1`: the 0.3 MB of
        # csv outgrows the pipe, so the child writes after the reader is gone
        module, function = console_script_target()
        launcher = f"from {module} import {function}; {function}()"
        with subprocess.Popen(
            [sys.executable, "-c", launcher, "simulate", "-n", "1000", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=child_env(),
        ) as child:
            assert child.stdout.readline().startswith("position,")
            child.stdout.close()
            child.wait(timeout=60)  # a traceback fits the stderr pipe's buffer
            stderr = child.stderr.read()
        assert child.returncode == -signal.SIGPIPE, stderr
        assert stderr == ""

    # at 1e308 the absolute target would overflow to inf and accept one panel
    @pytest.mark.parametrize("tol,message", [
        *((tol, "rel_tol must be a finite positive number") for tol in ("nan", "inf", "-1", "0")),
        *((tol, "rel_tol must be below 1") for tol in ("1", "1e308")),
    ], ids=["nan", "inf", "-1", "0", "1", "1e308"])
    def test_watson_bad_tolerance_exit_2(self, tol, message):
        # a child with a timeout, so a hang fails the test instead of the suite
        result = subprocess.run(
            [sys.executable, "-m", "hadwalk.cli", "watson", "--tol", tol],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.returncode == 2, result.stderr
        assert message in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("l,m", [(20000, 20000), (pathsum.MAX_DP_CELLS, 0)])
    def test_xi_size_cap_exit_2(self, l, m):
        # refused before any work; the timeout turns a runaway loop into a failure.
        # (MAX_DP_CELLS, 0) is one cell above the cap, the mirror of
        # test_size_cap_exit_2's (0, MAX_DP_CELLS).
        result = subprocess.run(
            [sys.executable, "-m", "hadwalk.cli", "xi", "--l", str(l), "--m", str(m)],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.returncode == 2, result.stderr
        assert f"MAX_DP_CELLS = {pathsum.MAX_DP_CELLS}" in result.stderr
        assert result.stdout == ""

    @pytest.mark.parametrize("l,m", [(500, 500), (700, 1400)])
    def test_xi_under_the_cap_prints_the_closed_form_cores(self, l, m):
        # at (700, 1400) the cores pass 2^1024, so the floats need rescaling
        result = subprocess.run(
            [sys.executable, "-m", "hadwalk.cli", "xi", "--l", str(l), "--m", str(m),
             "--format", "json"],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.returncode == 0, result.stderr
        doc = json.loads(result.stdout)
        want = pathsum.path_sum_closed(pathsum.StepPair(l, m))
        assert doc["sqrt2_exponent"] == want.scale_exp
        assert doc["coefficients"] == {
            name: {"re": str(core), "im": "0"}
            for name, core in zip("pqrs", (want.p, want.q, want.r, want.s))
        }
        assert all(math.isfinite(x) for pair in doc["floats"].values() for x in pair)

    @pytest.mark.parametrize("name", sorted(SIZE_CAPS))
    def test_size_cap_exit_2(self, name):
        # refused before any work; the timeout turns a runaway loop into a failure
        module, argv = SIZE_CAPS[name]
        result = subprocess.run(
            [sys.executable, "-m", "hadwalk.cli", *argv],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.returncode == 2, result.stderr
        assert f"{name} = {getattr(module, name)}" in result.stderr
        assert result.stdout == ""

    def test_size_cap_table_names_every_cap(self):
        # every public MAX_* module constant in src is a size cap with a row
        # in SIZE_CAPS, but MAX_PRECISION: it bounds a display option, and
        # argparse refuses it in its own wording (test_precision_above_cap_refused)
        source = Path(hadwalk.__file__).resolve().parent
        found = {name for path in source.glob("*.py")
                 for name in re.findall(r"^(MAX_[A-Z0-9_]+)\s*=", path.read_text(), re.M)}
        assert found == {*SIZE_CAPS, "MAX_PRECISION"}

    @pytest.mark.parametrize("entries", ["1e308,0,0,1", "1e200,0,0,1", "1e155,1e155,0,1"])
    def test_coin_entry_too_large_to_square_exit_2(self, entries):
        result = subprocess.run(
            [sys.executable, "-m", "hadwalk.cli", "simulate", "-n", "5",
             "--coin", "custom", "--entries", entries],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.returncode == 2, result.stderr
        a = complex(entries.split(",")[0])
        assert result.stderr == f"error: coin not unitary: |a|^2 of {a!r} overflows\n"
        assert "Traceback" not in result.stderr
        assert result.stdout == ""

    def test_usage_error_exit_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "hadwalk.cli", "--no-such-flag"],
            capture_output=True, text=True, timeout=60, env=child_env(),
        )
        assert result.returncode == 2, result.stderr
