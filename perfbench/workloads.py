"""Workload generators and the reference checks behind ``fail_ratio``.

Each workload turns a ``random.Random`` seeded from ``--seed`` into a list of
hadwalk command lines.  Sizes sit on a fixed ladder across the range the
workload covers; the seed jitters each rung a little and shuffles the order.
Every seed therefore gives new inputs, and new exact answers to check, at
nearly the same cost, so runs made with different seeds stay comparable.

The checks recompute every answer here, independently of hadwalk: binomial
closed forms with ``math.comb``, exact sums with ``Fraction``, and the
elliptic integral with ``scipy.special.ellipk``.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from fractions import Fraction

FLOAT_COIN = "0.6,0.8j,0.8j,0.6"
WATSON_G = 1.5163860591
# gf_point's default truncation pushes the tail bound below this
GF_TAIL_TARGET = 1e-12
GF_SLACK = 1e-10
ELLIPK_REL_TOL = 1e-12


def _jitter(rng: random.Random, centre: int, half_width: int, step: int = 1) -> int:
    """centre plus a multiple of step within [-half_width, half_width]."""
    k = half_width // step
    return centre + step * rng.randint(-k, k)


def _deep_return(rng: random.Random) -> list[list[str]]:
    # rungs are 0 mod 4; an offset of 4k keeps a rung there and 4k+2 moves
    # it to 2 mod 4, so both pairing cases of the closed route are hit
    residues = [0, 2, rng.choice((0, 2))]
    rng.shuffle(residues)
    times = [rung + rng.choice((-4, 0, 4) if r == 0 else (-2, 2))
             for rung, r in zip((608, 800, 992), residues)]
    rng.shuffle(times)
    return [["return-prob", "-n", str(t), "--method", "all"] for t in times]


def _full_distribution(rng: random.Random) -> list[list[str]]:
    commands = [
        ["simulate", "-n", str(_jitter(rng, rung, 4, 2)), "--format", "json"]
        for rung in (404, 500, 596)
    ] + [
        ["simulate", "-n", str(_jitter(rng, rung, 20)), "--coin", "custom",
         "--entries", FLOAT_COIN, "--format", "csv"]
        for rung in (3020, 3500, 3980)
    ]
    rng.shuffle(commands)
    return commands


def _gf_sweep(rng: random.Random) -> list[list[str]]:
    start = 0.98 + rng.randint(0, 20) * 1e-5
    stop = 0.996 - rng.randint(0, 2) * 1e-5
    commands = [
        ["genfun", "--sweep", f"{start:.5f}:{stop:.5f}:9", "--format", "json"],
        ["genfun", "--z", f"{0.995 + rng.randint(0, 2) * 1e-5:.5f}", "--format", "json"],
        ["genfun", "--z", f"{0.997 - rng.randint(0, 2) * 1e-5:.5f}", "--format", "json"],
        ["classical", "--dim", "2", "--gf", f"{rng.uniform(0.9, 0.999):.6f}", "--format", "json"],
        ["ellipk", "--k", f"{rng.uniform(0.5, 0.999):.6f}", "--format", "json"],
        ["watson", "--tol", "1e-10", "--format", "json"],
    ]
    rng.shuffle(commands)
    return commands


def _verify_full(rng: random.Random) -> list[list[str]]:
    commands = [["verify", "--scope", "full", "--format", "json"]] + [
        ["xi", "--l", str(n), "--m", str(n), "--format", "json"]
        for n in (_jitter(rng, 42, 2), _jitter(rng, 50, 2), _jitter(rng, 58, 2))
    ]
    rng.shuffle(commands)
    return commands


# the reasons each workload was chosen are in README.md and BENCHMARK.json
WORKLOADS = {
    "deep-return": _deep_return,
    "full-distribution": _full_distribution,
    "gf-sweep": _gf_sweep,
    "verify-full": _verify_full,
}


def commands_for(workload: str, seed: int) -> list[list[str]]:
    """The workload's command list; the same seed gives the same list."""
    return WORKLOADS[workload](random.Random(seed))


# --- references


def return_prob_reference(time: int) -> Fraction:
    """p_T(0) = C(2m,m)^2 / 2^(4m+1) with m = floor(T/4), for even T >= 4."""
    m = time // 4
    return Fraction(math.comb(2 * m, m) ** 2, 2 ** (4 * m + 1))


def dyadic_text(q: Fraction) -> str:
    """hadwalk's wire format n/2^k of a reduced dyadic rational."""
    return f"{q.numerator}/2^{q.denominator.bit_length() - 1}"


def _parse_dyadic(text: str) -> Fraction:
    num, exp = text.split("/2^")
    return Fraction(int(num), 1 << int(exp))


def _ellipk(k: float) -> float:
    from scipy.special import ellipk

    return float(ellipk(k * k))  # scipy takes the parameter m = k^2


def _gf_closed(z: float) -> float:
    return (1.0 + z * z) / math.pi * _ellipk(z * z) + 0.5


def _close(actual: float, expected: float, rel: float = ELLIPK_REL_TOL) -> bool:
    return abs(actual - expected) <= rel * abs(expected)


def _path_sum_cores(l: int, m: int) -> tuple[int, int, int, int]:
    """Hadamard path-sum coefficients (p, q, r, s) under (1/sqrt2)^(l+m-1)."""
    p = sum((-1) ** (m - g) * math.comb(l - 1, g) * math.comb(m - 1, g - 1)
            for g in range(1, min(l - 1, m) + 1))
    q = sum((-1) ** (m - g - 1) * math.comb(l - 1, g - 1) * math.comb(m - 1, g)
            for g in range(1, min(l, m - 1) + 1))
    r = sum((-1) ** (m - g) * math.comb(l - 1, g - 1) * math.comb(m - 1, g - 1)
            for g in range(1, min(l, m) + 1))
    return p, q, r, r


def _canonical(cores: list[int], exp: int) -> tuple[tuple[int, ...], int]:
    """Strip common factors of 2 (two powers of 1/sqrt2 each)."""
    if not any(cores):
        return tuple(cores), 0
    while exp >= 2 and all(c % 2 == 0 for c in cores):
        cores = [c // 2 for c in cores]
        exp -= 2
    return tuple(cores), exp


# --- checks: each returns None when the output is right, else the problem


def _option(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _check_return_prob(argv, out):
    time = int(_option(argv, "-n"))
    want = return_prob_reference(time)
    lines = out.splitlines()
    if not lines or lines[0].split() != ["method", "time", "probability_exact",
                                         "probability_decimal"]:
        return "unexpected header"
    rows = [line.split() for line in lines[1:]]
    if sorted(r[0] for r in rows) != ["closed", "direct", "prop1", "xi"]:
        return f"routes {[r[0] for r in rows]}"
    for method, t, exact, decimal in rows:
        if int(t) != time or exact != dyadic_text(want) or Fraction(decimal) != want:
            return f"{method} gave {exact}, want {dyadic_text(want)}"
    return None


def _check_simulate_exact(time, out):
    doc = json.loads(out)
    probs = {e["position"]: _parse_dyadic(e["probability_exact"]) for e in doc["probabilities"]}
    if doc["time"] != time or sorted(probs) != list(range(-time, time + 1, 2)):
        return "wrong time or support"
    if sum(probs.values()) != 1:
        return "probabilities do not sum to 1"
    if any(probs[x] != probs[-x] for x in probs):
        return "distribution not symmetric"
    if probs[0] != return_prob_reference(time):
        return f"p(0) = {dyadic_text(probs[0])}"
    return None


def _check_simulate_float(time, out):
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["position", "probability_exact", "probability_float"]:
        return "unexpected header"
    if [int(r[0]) for r in rows[1:]] != list(range(-time, time + 1, 2)):
        return "wrong support"
    total = math.fsum(float(r[2]) for r in rows[1:])
    if abs(total - 1.0) > 1e-9:
        return f"float probabilities sum to {total!r}"
    return None


def _check_simulate(argv, out):
    time = int(_option(argv, "-n"))
    if "custom" in argv:
        return _check_simulate_float(time, out)
    return _check_simulate_exact(time, out)


def _check_gf_point(z, lhs, rhs, tail):
    if not _close(rhs, _gf_closed(z)):
        return f"rhs {rhs!r} at z={z} against scipy {_gf_closed(z)!r}"
    if abs(lhs - rhs) > tail + GF_SLACK:
        return f"|lhs-rhs| = {abs(lhs - rhs):.3e} at z={z} exceeds the tail bound"
    return None


def _check_genfun(argv, out):
    doc = json.loads(out)
    if "--sweep" in argv:
        start, stop, count = _option(argv, "--sweep").split(":")
        start, stop, count = float(start), float(stop), int(count)
        points = doc["sweep"]
        if len(points) != count:
            return f"{len(points)} sweep points, want {count}"
        for i, point in enumerate(points):
            z = start + (stop - start) * i / max(count - 1, 1)
            if point["z"] != z:
                return f"sweep point {i} at z={point['z']!r}, want {z!r}"
            problem = _check_gf_point(z, point["lhs_partial"], point["rhs_closed"], GF_TAIL_TARGET)
            if problem:
                return problem
        return None
    if doc["z"] != float(_option(argv, "--z")) or doc["tail_bound"] > GF_TAIL_TARGET:
        return "wrong z or tail bound above target"
    return _check_gf_point(doc["z"], doc["lhs_partial"], doc["rhs_closed"], doc["tail_bound"])


def _check_classical(argv, out):
    z = float(_option(argv, "--gf"))
    want = 2.0 / math.pi * _ellipk(z)
    value = json.loads(out)["value"]
    return None if _close(value, want) else f"2d generating function {value!r}, want {want!r}"


def _check_ellipk(argv, out):
    k = float(_option(argv, "--k"))
    value = json.loads(out)["value"]
    return None if _close(value, _ellipk(k)) else f"K({k}) = {value!r}, want {_ellipk(k)!r}"


def _check_watson(argv, out):
    doc = json.loads(out)
    for key in ("g_quadrature", "g_closed"):
        if abs(doc[key] - WATSON_G) > 1e-6:
            return f"{key} = {doc[key]!r}"
    if abs(doc["f_return"] - (1.0 - 1.0 / WATSON_G)) > 1e-6:
        return f"f_return = {doc['f_return']!r}"
    return None


def _check_verify(argv, out):
    doc = json.loads(out)
    failed = [c["name"] for c in doc["checks"] if c["status"] != "pass"]
    if doc["scope"] != "full" or doc["passed"] is not True or failed or not doc["checks"]:
        return f"verify did not pass: {failed}"
    return None


def _check_xi(argv, out):
    l, m = int(_option(argv, "--l")), int(_option(argv, "--m"))
    doc = json.loads(out)
    coeffs = doc["coefficients"]
    if any(int(coeffs[name]["im"]) for name in "pqrs"):
        return "imaginary part in a Hadamard path sum"
    got = _canonical([int(coeffs[name]["re"]) for name in "pqrs"], doc["sqrt2_exponent"])
    want = _canonical(list(_path_sum_cores(l, m)), l + m - 1)
    return None if got == want else f"xi({l},{m}) = {got}, want {want}"


CHECKS = {
    "return-prob": _check_return_prob,
    "simulate": _check_simulate,
    "genfun": _check_genfun,
    "classical": _check_classical,
    "ellipk": _check_ellipk,
    "watson": _check_watson,
    "verify": _check_verify,
    "xi": _check_xi,
}


def check(argv: list[str], rc: int, out: str) -> str | None:
    """None when the command exited 0 and its output matches the reference."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return CHECKS[argv[0]](argv, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"
