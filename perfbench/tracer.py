"""Span tracer for the benchmark's traced run.

The tracer instruments hadwalk from outside the package: it replaces the
public functions of each layer module, and a chosen set of methods, with
wrappers that open a span around the call, and puts every original back
afterwards.  The layers are the modules of ``src/hadwalk``.

A span's self time is its duration minus the durations of the spans it
directly encloses, so the self times of all spans add up to the time spent
inside root spans.  Spans are aggregated per name as they close instead of
being stored, which keeps memory flat however many calls a workload makes.

A few methods run millions of times per workload (the Gaussian-integer
operators) or thousands of times per cell (the path-sum product).  Those get
call counters only; their time stays with the span that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

LAYERS = ("cli", "verify", "walk", "pathsum", "genfun", "specfun", "classical", "exactnum")

# Methods are wrapped on their class; module functions are found by scanning.
METHOD_SPANS = {
    "cli": {"Emitter": ("table",)},
    "walk": {
        "WaveFunction": ("step",),
        "FloatWaveFunction": ("step", "probabilities"),
        "Distribution": ("total",),
    },
    "exactnum": {
        "DyadicRational": ("__init__", "__str__", "to_decimal_string", "__float__"),
    },
}
METHOD_COUNTS = {
    "exactnum": {
        "GaussianInteger": ("__add__", "__radd__", "__sub__", "__mul__", "__rmul__"),
    },
}
FUNCTION_COUNTS = frozenset({"pathsum.pqrs_compose", "genfun.tail_bound"})


class Tracer:
    """Aggregates nested spans by name: calls, inclusive time and self time.

    ``clock`` is injectable so tests can drive spans with a fake clock.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.calls: dict[str, int] = defaultdict(int)
        self.inclusive: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.root_time = 0.0
        self.tally: dict[str, int] = defaultdict(int)
        self.p0_n: set[int] = set()
        self.states: list = []
        self._stack: list[list] = []
        self._depth: dict[str, int] = defaultdict(int)

    def enter(self, name: str) -> None:
        self._depth[name] += 1
        self._stack.append([name, self.clock(), 0.0])

    def exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        self.calls[name] += 1
        self.self_time[name] += duration - child
        self._depth[name] -= 1
        if not self._depth[name]:
            # a recursive call is already inside its outer call's span
            self.inclusive[name] += duration
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.root_time += duration

    def layer_self(self, layer: str) -> float:
        return sum(t for name, t in self.self_time.items() if _layer(name) == layer)

    def calls_of(self, name: str) -> int:
        """Calls of one function through every binding of it."""
        return sum(n for key, n in self.calls.items() if _base(key) == name)

    def inclusive_of(self, name: str) -> float:
        return sum(t for key, t in self.inclusive.items() if _base(key) == name)


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _base(name: str) -> str:
    """Span name without the "@module" suffix of a re-bound import."""
    return name.split("@", 1)[0]


# --- observers: read a wrapped call's arguments and result inside its span


def _arg(args, kwargs, index, key):
    return args[index] if len(args) > index else kwargs[key]


def _note_exact_value(tracer, args, kwargs, result):
    # float distributions come back as dicts; exact values do not
    if not isinstance(result, dict):
        tracer.tally["walk.exact_values"] += 1


def _note_state(tracer, args, kwargs, result):
    if hasattr(result, "cores"):
        tracer.states.append(result)


def _note_p0(tracer, args, kwargs, result):
    tracer.p0_n.add(_arg(args, kwargs, 0, "n"))


def _note_terms(tracer, args, kwargs, result):
    tracer.tally["genfun.terms"] += _arg(args, kwargs, 1, "truncation") + 1


def _note_grid(tracer, args, kwargs, result):
    tracer.tally["pathsum.grid_cells"] += len(result)


def _note_report(tracer, args, kwargs, result):
    tracer.tally["verify.checks"] += len(result.checks)
    tracer.tally["verify.checks_failed"] += sum(not c.passed for c in result.checks)


def _note_parser(tracer, args, kwargs, parser):
    # the parser is built afresh per command, so this needs no restoring
    parser.parse_args = _span_wrapper(tracer, "cli.parse_args", parser.parse_args, None)


OBSERVERS = {
    "walk.return_probability_direct": _note_exact_value,
    "walk.distribution": _note_exact_value,
    "walk.evolve": _note_state,
    "genfun.p0_legendre": _note_p0,
    "genfun.gf_partial_sum": _note_terms,
    "pathsum.path_sum_grid": _note_grid,
    "verify.run_verify": _note_report,
    "cli.build_parser": _note_parser,
}


def _span_wrapper(tracer, name, fn, observe):
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        enter(name)
        try:
            result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result
        finally:
            leave()

    return traced


def _count_wrapper(tracer, name, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    return counted


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner.attr`` holds ``original``."""

    owner: object
    attr: str
    original: object
    name: str
    counted: bool


def targets() -> list[Target]:
    """Every attribute the traced run replaces, in a fixed order."""
    found = []
    for layer in LAYERS:
        module = importlib.import_module(f"hadwalk.{layer}")
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            package, _, home = (obj.__module__ or "").partition(".")
            if package != "hadwalk" or home not in LAYERS:
                continue
            # a name bound by "from .x import f" is wrapped where callers
            # look it up, and its span stays in the defining layer
            name = f"{home}.{obj.__name__}"
            if home != layer:
                name += f"@{layer}"
            found.append(Target(module, attr, obj, name, _base(name) in FUNCTION_COUNTS))
        for table, counted in ((METHOD_SPANS, False), (METHOD_COUNTS, True)):
            for cls_name, methods in table.get(layer, {}).items():
                cls = getattr(module, cls_name)
                for attr in methods:
                    found.append(
                        Target(cls, attr, vars(cls)[attr], f"{layer}.{cls_name}.{attr}", counted)
                    )
    return found


class Instrumented:
    """Context manager that wraps every target and restores it on exit."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.installed: list[Target] = []

    def __enter__(self) -> Tracer:
        try:
            for target in targets():
                if target.counted:
                    wrapper = _count_wrapper(self.tracer, target.name, target.original)
                else:
                    observe = OBSERVERS.get(target.name)
                    wrapper = _span_wrapper(self.tracer, target.name, target.original, observe)
                setattr(target.owner, target.attr, wrapper)
                self.installed.append(target)
        except BaseException:
            self.__exit__()
            raise
        return self.tracer

    def __exit__(self, *exc) -> None:
        while self.installed:
            target = self.installed.pop()
            setattr(target.owner, target.attr, target.original)


def unrestored(checked: list[Target]) -> list[str]:
    """Names of targets whose attribute is no longer the original object."""
    return [
        t.name
        for t in checked
        if (vars(t.owner).get(t.attr) if isinstance(t.owner, type) else getattr(t.owner, t.attr))
        is not t.original
    ]


def _max_core_bits(states) -> int:
    bits = 0
    for psi in states:
        for x in psi.support():
            for g in psi.cores(x):
                bits = max(bits, abs(g.re).bit_length(), abs(g.im).bit_length())
    return bits


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# name, unit, better, value from (tracer, traced solve_s).  A ratio whose
# base is zero on a workload reads 0.
PER_LAYER: list[tuple[str, str, str, Callable[[Tracer, float], float]]] = [
    *[(f"{layer}.self_s", "s", "lower", (lambda t, s, l=layer: t.layer_self(l))) for layer in LAYERS],
    ("trace.unattributed_s", "s", "lower", lambda t, s: s - t.root_time),
    ("trace.solve_s", "s", "lower", lambda t, s: s),
    ("walk.exact_steps", "count", "lower", lambda t, s: t.calls_of("walk.WaveFunction.step")),
    ("walk.exact_step_s", "s", "lower", lambda t, s: t.inclusive_of("walk.WaveFunction.step")),
    ("walk.max_core_bits", "bits", "lower", lambda t, s: _max_core_bits(t.states)),
    ("walk.steps_per_value", "ratio", "lower",
     lambda t, s: _ratio(t.calls_of("walk.WaveFunction.step"), t.tally["walk.exact_values"])),
    ("walk.float_steps", "count", "lower", lambda t, s: t.calls_of("walk.FloatWaveFunction.step")),
    ("walk.float_step_s", "s", "lower", lambda t, s: t.inclusive_of("walk.FloatWaveFunction.step")),
    ("walk.distribution_s", "s", "lower", lambda t, s: t.inclusive_of("walk.distribution")),
    ("exactnum.gauss_ops", "count", "lower",
     lambda t, s: sum(t.calls_of(f"exactnum.GaussianInteger.{m}")
                      for m in METHOD_COUNTS["exactnum"]["GaussianInteger"])),
    ("exactnum.dyadic_new", "count", "lower", lambda t, s: t.calls_of("exactnum.DyadicRational.__init__")),
    ("exactnum.dyadic_new_s", "s", "lower", lambda t, s: t.inclusive_of("exactnum.DyadicRational.__init__")),
    ("exactnum.format_s", "s", "lower",
     lambda t, s: sum(t.inclusive_of(f"exactnum.DyadicRational.{m}")
                      for m in ("__str__", "to_decimal_string", "__float__"))),
    ("pathsum.closed_calls", "count", "lower", lambda t, s: t.calls_of("pathsum.path_sum_closed")),
    ("pathsum.closed_s", "s", "lower", lambda t, s: t.inclusive_of("pathsum.path_sum_closed")),
    ("pathsum.grid_cells", "count", "lower", lambda t, s: t.tally["pathsum.grid_cells"]),
    ("pathsum.grid_s", "s", "lower", lambda t, s: t.inclusive_of("pathsum.path_sum_grid")),
    ("pathsum.compose_calls", "count", "lower", lambda t, s: t.calls_of("pathsum.pqrs_compose")),
    ("genfun.partial_sum_s", "s", "lower", lambda t, s: t.inclusive_of("genfun.gf_partial_sum")),
    ("genfun.terms", "count", "lower", lambda t, s: t.tally["genfun.terms"]),
    ("genfun.p0_calls", "count", "lower", lambda t, s: t.calls_of("genfun.p0_legendre")),
    ("genfun.p0_s", "s", "lower", lambda t, s: t.inclusive_of("genfun.p0_legendre")),
    ("genfun.p0_distinct_ratio", "ratio", "higher",
     lambda t, s: _ratio(len(t.p0_n), t.calls_of("genfun.p0_legendre"))),
    ("genfun.truncation_s", "s", "lower", lambda t, s: t.inclusive_of("genfun.truncation_for")),
    ("genfun.tail_bound_calls", "count", "lower", lambda t, s: t.calls_of("genfun.tail_bound")),
    ("specfun.legendre_calls", "count", "lower", lambda t, s: t.calls_of("specfun.legendre_p0")),
    ("specfun.legendre_s", "s", "lower", lambda t, s: t.inclusive_of("specfun.legendre_p0")),
    ("specfun.agm_calls", "count", "lower",
     lambda t, s: t.calls_of("specfun.elliptic_k_from_complement")),
    ("specfun.agm_s", "s", "lower",
     lambda t, s: t.inclusive_of("specfun.elliptic_k_from_complement")),
    ("specfun.hyp2f1_calls", "count", "lower", lambda t, s: t.calls_of("specfun.hyp2f1_terminating")),
    ("specfun.hyp2f1_s", "s", "lower", lambda t, s: t.inclusive_of("specfun.hyp2f1_terminating")),
    ("specfun.jacobi_s", "s", "lower", lambda t, s: t.inclusive_of("specfun.jacobi_p0")),
    ("classical.quad_s", "s", "lower", lambda t, s: t.inclusive_of("classical.watson_g_quadrature")),
    ("classical.integrand_evals", "count", "lower",
     lambda t, s: t.calls["specfun.elliptic_k_from_complement@classical"]),
    ("classical.rw_s", "s", "lower",
     lambda t, s: sum(t.inclusive_of(f"classical.{f}")
                      for f in ("rw_return_prob", "rw_gf", "rw_gf_tail_bound"))),
    ("verify.run_s", "s", "lower", lambda t, s: t.inclusive_of("verify.run_verify")),
    ("verify.checks", "count", "higher", lambda t, s: t.tally["verify.checks"]),
    ("verify.checks_failed", "count", "lower", lambda t, s: t.tally["verify.checks_failed"]),
    ("cli.emit_s", "s", "lower", lambda t, s: t.inclusive_of("cli.Emitter.table")),
    ("cli.emit_bytes", "bytes", "lower", lambda t, s: t.tally["cli.emit_bytes"]),
    ("cli.parse_s", "s", "lower",
     lambda t, s: t.inclusive_of("cli.build_parser") + t.inclusive_of("cli.parse_args")),
]


def layer_metrics(tracer: Tracer, solve_s: float) -> dict[str, dict]:
    """Every per-layer metric of one traced repetition, with its unit."""
    return {name: {"value": fn(tracer, solve_s), "unit": unit} for name, unit, _, fn in PER_LAYER}
