"""Command-line frontend.

Subcommands: simulate, return-prob, xi, ellipk, genfun, classical, watson,
verify.  Every command honors --format json|csv|plain.  Every exact value
prints as "numerator/2^exponent", so nothing is rounded; csv and plain print
each float at --precision digits, but ellipk's value at 17.  Exit codes:
0 success, 1 failed check, 2 usage/domain error; the console script dies by
SIGPIPE (shell status 141) when its output pipe closes early.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
from collections.abc import Iterable

from . import classical, genfun, pathsum, specfun, verify, walk
from .classical import QuadratureConvergenceError


#: Largest point count of genfun --sweep.  It bounds the list of points
#: before it is built, and so genfun.gf_points' pass that solves each point's
#: truncation before any sum is taken: 0.14 s for 10 000 points on one core of
#: a 2-vCPU x86-64 host.
MAX_SWEEP_POINTS = 10_000

#: Largest --precision: the most significant digits in the exact decimal
#: expansion of any double (the largest subnormal needs 767), so no larger
#: precision prints another digit.
MAX_PRECISION = 767


class Emitter:
    """Renders one tabular payload in the selected format."""

    def __init__(self, fmt: str, precision: int) -> None:
        self.fmt = fmt
        self.precision = precision

    def table(self, columns: list[str], rows: Iterable[Iterable], json_doc: dict) -> None:
        """`json_doc` as JSON, else `rows` under `columns`, read once: a float
        cell at --precision significant digits and None as an empty cell."""
        spec = f".{self.precision}g"
        cells = ([format(v, spec) if isinstance(v, float) else "" if v is None else str(v)
                  for v in row] for row in rows)
        if self.fmt == "json":
            print(json.dumps(json_doc))
        elif self.fmt == "csv":
            writer = csv.writer(sys.stdout, lineterminator="\n")
            writer.writerow(columns)
            writer.writerows(cells)
        else:
            cells = list(cells)
            widths = [
                max(len(c), *(len(r[i]) for r in cells)) if cells else len(c)
                for i, c in enumerate(columns)
            ]
            print("  ".join(c.ljust(w) for c, w in zip(columns, widths)))
            for row in cells:
                print("  ".join(v.ljust(w) for v, w in zip(row, widths)))

    def record(self, doc: dict) -> None:
        """`doc` as one row whose columns are its keys."""
        self.table(list(doc), [doc.values()], json_doc=doc)


def _cmd_simulate(args, em: Emitter) -> int:
    if args.coin == "hadamard":
        if args.entries is not None:
            raise ValueError("--entries requires --coin custom")
        values = walk.symmetric_distribution(args.time).probs.values()
        exact, floats = list(map(str, values)), list(map(float, values))
    else:
        if args.entries is None:
            raise ValueError("--coin custom requires --entries a,b,c,d")
        parts = []
        for i, text in enumerate(args.entries.split(","), 1):
            try:
                parts.append(complex(text.strip()))
            except ValueError:
                raise ValueError(f"--entries: entry {i}, {text.strip()!r}, "
                                 "is not a complex number") from None
        if len(parts) != 4:
            raise ValueError("--entries needs exactly four complex numbers")
        coin = walk.CoinMatrix(*parts)
        floats = list(walk.evolve(coin, args.time).probabilities().values())
        exact = [None] * len(floats)
    positions = range(-args.time, args.time + 1, 2)
    doc = None
    if em.fmt == "json":
        entries = [
            {"position": x, "probability_exact": e, "probability_float": f}
            for x, e, f in zip(positions, exact, floats)
        ]
        doc = {"time": args.time, "coin": args.coin, "probabilities": entries}
    columns = ["position", "probability_exact", "probability_float"]
    em.table(columns, zip(positions, exact, floats), json_doc=doc)
    return 0


def _cmd_return_prob(args, em: Emitter) -> int:
    n = args.time
    if n < 0:
        raise ValueError("time must be nonnegative")
    covering = [r for r in verify.ROUTES if r.covers(n)]
    if not covering:
        needs = "; ".join(f"{r.name} needs {r.needs()}" for r in verify.ROUTES)
        raise ValueError(f"no method covers time {n}: {needs}")
    if args.method == "all":
        routes = covering
    else:
        routes = [r for r in verify.ROUTES if r.name == args.method]
        if not routes[0].covers(n):
            others = " or ".join(f"--method {r.name}" for r in covering)
            raise ValueError(
                f"method {args.method!r} does not cover time {n}: "
                f"it needs {routes[0].needs()}; use {others}"
            )
    values = {r.name: r.value(n) for r in routes}
    # compared as int pairs, as verify does, so no DyadicRational.__eq__
    if len({(v.numerator, v.denom_exp) for v in values.values()}) != 1:
        print(f"method disagreement at time {n}: {values}", file=sys.stderr)
        return 1
    value = next(iter(values.values()))
    exact, approx = str(value), float(value)

    def rows():
        # the decimal expansion only if a table reads the rows; JSON does not
        decimal = value.to_decimal_string()
        for m in values:
            yield [m, n, exact, decimal]

    doc = {
        "time": n,
        "values": [{"method": m, "exact": exact, "float": approx} for m in values],
        "all_equal": True,
    }
    em.table(["method", "time", "probability_exact", "probability_decimal"], rows(),
             json_doc=doc)
    return 0


def _cmd_xi(args, em: Emitter) -> int:
    vec = pathsum.path_sum_dp(pathsum.StepPair(args.l, args.m))
    floats = vec.to_complex()
    names = ("p", "q", "r", "s")
    cores = (vec.p, vec.q, vec.r, vec.s)
    columns = ["coefficient", "core_re", "core_im", "sqrt2_exponent", "float_re", "float_im"]
    rows = [
        [name, str(g), "0", vec.scale_exp, f.real, f.imag]
        for name, g, f in zip(names, cores, floats)
    ]
    doc = {
        "l": args.l,
        "m": args.m,
        "sqrt2_exponent": vec.scale_exp,
        "coefficients": {
            name: {"re": str(g), "im": "0"} for name, g in zip(names, cores)
        },
        "floats": {name: [f.real, f.imag] for name, f in zip(names, floats)},
    }
    em.table(columns, rows, json_doc=doc)
    return 0


def _cmd_ellipk(args, em: Emitter) -> int:
    if args.method == "agm":
        if args.terms is not None:
            raise ValueError("--terms requires --method series")
        value = specfun.elliptic_k_agm(args.k)
    else:
        args.terms = 64 if args.terms is None else args.terms
        value = specfun.elliptic_k_series(args.k, args.terms)
    doc = {"k": args.k, "method": args.method, "value": value}
    if args.method == "series":
        doc["terms"] = args.terms
    em.table(["k", "method", "value"], [[args.k, args.method, f"{value:.17g}"]], json_doc=doc)
    return 0


def _cmd_genfun(args, em: Emitter) -> int:
    if (args.z is None) == (args.sweep is None):
        raise ValueError("genfun requires exactly one of --z or --sweep")
    if args.sweep is not None:
        start, stop, count = args.sweep
        zs = [start + (stop - start) * i / max(count - 1, 1) for i in range(count)]
        points = [{"z": p.z, "lhs_partial": p.lhs_partial, "rhs_closed": p.rhs_closed}
                  for p in genfun.gf_points(zs, [args.truncate] * count)]
        em.table(list(points[0]), map(dict.values, points), json_doc={"sweep": points})
        return 0
    em.record(genfun.gf_point(args.z, args.truncate)._asdict())
    return 0


def _cmd_classical(args, em: Emitter) -> int:
    if (args.time is None) == (args.gf is None):
        raise ValueError("classical requires exactly one of --time or --gf")
    if args.time is not None:
        p = classical.rw_return_prob(args.dim, args.time)
        em.record({
            "dim": args.dim,
            "time": args.time,
            "probability_exact": str(p),
            "probability_float": float(p),
        })
    else:
        em.record({"dim": args.dim, "z": args.gf, "value": classical.rw_gf(args.dim, args.gf)})
    return 0


def _cmd_watson(args, em: Emitter) -> int:
    em.record(classical.watson_return_prob(args.tol)._asdict())
    return 0


def _cmd_verify(args, em: Emitter) -> int:
    report = verify.run_verify(args.scope)
    columns = ["status", "name", "expected", "actual", "tolerance"]
    rows = [
        ["PASS" if c.passed else "FAIL", c.name, c.expected, c.actual, c.tolerance]
        for c in report.checks
    ]
    doc = {
        "scope": report.scope,
        "passed": report.passed,
        "checks": [
            {
                "name": c.name,
                "status": "pass" if c.passed else "fail",
                "expected": c.expected,
                "actual": c.actual,
                "tolerance": c.tolerance,
            }
            for c in report.checks
        ],
    }
    em.table(columns, rows, json_doc=doc)
    return 0 if report.passed else 1


def _sweep_field(name: str, text: str, convert, kind: str):
    # argparse would name _parse_sweep in the message of a bare ValueError
    try:
        return convert(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"sweep {name} must be {kind}, got {text!r}") from None


def _parse_sweep(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("sweep must be start:stop:count")
    start = _sweep_field("start", parts[0], float, "a number")
    stop = _sweep_field("stop", parts[1], float, "a number")
    count = _sweep_field("count", parts[2], int, "an integer")
    # the points interpolate over stop - start, so it must be finite too
    for name, value in (("start", start), ("stop", stop), ("stop - start", stop - start)):
        if not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"sweep {name} = {value} is not finite")
    if count < 1:
        raise argparse.ArgumentTypeError("sweep count must be positive")
    if count > MAX_SWEEP_POINTS:
        raise argparse.ArgumentTypeError(
            f"sweep count {count} is above the limit MAX_SWEEP_POINTS = {MAX_SWEEP_POINTS}"
        )
    return start, stop, count


def _output_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # attached twice (root and subcommand) so the flags work in either
    # position; the subcommand copy must not clobber root values with
    # its own defaults, hence SUPPRESS
    default_format = argparse.SUPPRESS if suppress else "plain"
    default_precision = argparse.SUPPRESS if suppress else 15
    parser.add_argument("--format", choices=("json", "csv", "plain"),
                        default=default_format)
    parser.add_argument("--precision", type=int, default=default_precision,
                        help="decimal display digits for floats (default 15)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process and shared by every `main`
    call, so callers must not modify it.  `--method`'s choices are the names
    in `verify.ROUTES` at the first build."""
    parser = argparse.ArgumentParser(
        prog="hadwalk",
        description="Exact Hadamard-walk return probabilities, their "
        "elliptic-integral generating function, and classical comparanda.",
    )
    _output_options(parser, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _output_options(common, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common],
                       help="position distribution at a given time")
    p.add_argument("-n", "--time", type=int, required=True)
    p.add_argument("--coin", choices=("hadamard", "custom"), default="hadamard")
    p.add_argument("--entries", help="custom coin entries a,b,c,d (complex, j-notation)")

    p = sub.add_parser("return-prob", parents=[common],
                       help="exact return probability by each method")
    p.add_argument("-n", "--time", type=int, required=True)
    p.add_argument("--method", choices=(*(r.name for r in verify.ROUTES), "all"),
                   default="all")

    p = sub.add_parser("xi", parents=[common],
                       help="path-sum coefficients for l left / m right steps")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--m", type=int, required=True)

    p = sub.add_parser("ellipk", parents=[common],
                       help="complete elliptic integral K(k)")
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--method", choices=("agm", "series"), default="agm")
    p.add_argument("--terms", type=int, help="series terms (default 64)")

    p = sub.add_parser("genfun", parents=[common],
                       help="generating-function identity at z")
    p.add_argument("--z", type=float)
    p.add_argument("--truncate", type=int)
    p.add_argument("--sweep", type=_parse_sweep, metavar="START:STOP:COUNT")

    p = sub.add_parser("classical", parents=[common],
                       help="classical random-walk values")
    p.add_argument("--dim", type=int, choices=(1, 2), required=True)
    p.add_argument("--time", type=int)
    p.add_argument("--gf", type=float, metavar="Z")

    p = sub.add_parser("watson", parents=[common],
                       help="3d return constant by quadrature and closed form")
    p.add_argument("--tol", type=float, default=1e-8)

    p = sub.add_parser("verify", parents=[common],
                       help="cross-oracle verification suite")
    p.add_argument("--scope", choices=("fast", "full"), default="fast")

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command through the process's one parser and return its exit
    code.  The `_cmd_` handler is looked up when the command runs."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.precision < 0:
        parser.error(f"argument --precision: must be nonnegative, got {args.precision}")
    if args.precision > MAX_PRECISION:
        parser.error(f"argument --precision: must be at most {MAX_PRECISION}, "
                     f"got {args.precision}")
    em = Emitter(args.format, args.precision)
    try:
        return globals()["_cmd_" + args.command.replace("-", "_")](args, em)
    except QuadratureConvergenceError as exc:
        print(f"error: {exc} (best estimate {exc.best_estimate!r})", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    """The console script: like main, but a closed output pipe ends the
    process by SIGPIPE, as it ends cat or grep, not with a traceback."""
    import signal
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    run()
