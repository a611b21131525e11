"""Tests for the benchmark's tracer, workload generator, reference checks and
calibrated timing."""

import contextlib
import io
import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import tracer as tr  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# one small command of every kind the workloads issue
SMALL_COMMANDS = [
    ["return-prob", "-n", "20", "--method", "all"],
    ["return-prob", "-n", "22", "--method", "all"],
    ["simulate", "-n", "12", "--format", "json"],
    ["simulate", "-n", "31", "--coin", "custom", "--entries", workloads.FLOAT_COIN,
     "--format", "csv"],
    ["genfun", "--sweep", "0.1:0.6:3", "--format", "json"],
    ["genfun", "--z", "0.5", "--format", "json"],
    ["classical", "--dim", "2", "--gf", "0.7", "--format", "json"],
    ["ellipk", "--k", "0.9", "--format", "json"],
    ["watson", "--tol", "1e-8", "--format", "json"],
    ["xi", "--l", "5", "--m", "7", "--format", "json"],
    ["verify", "--scope", "fast", "--format", "json"],
]


def _run(argv):
    from hadwalk import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _replay(tracer, clock, events):
    for at, name in events:
        clock.now = at
        if name is None:
            tracer.exit()
        else:
            tracer.enter(name)


def test_self_time_is_span_time_minus_child_spans():
    clock = FakeClock()
    tracer = tr.Tracer(clock)
    # cli.main [0, 10] encloses walk.evolve [2, 5], which encloses
    # exactnum.f [3, 4], and a second exactnum.f [6, 7.5]
    _replay(tracer, clock, [
        (0, "cli.main"), (2, "walk.evolve"), (3, "exactnum.f"), (4, None), (5, None),
        (6, "exactnum.f"), (7.5, None), (10, None),
    ])
    assert tracer.self_time["cli.main"] == 10 - 3 - 1.5
    assert tracer.self_time["walk.evolve"] == 3 - 1
    assert tracer.self_time["exactnum.f"] == 1 + 1.5
    assert tracer.calls["exactnum.f"] == 2
    assert tracer.root_time == 10
    assert sum(tracer.layer_self(layer) for layer in tr.LAYERS) == tracer.root_time


def test_recursive_span_counts_its_inclusive_time_once():
    clock = FakeClock()
    tracer = tr.Tracer(clock)
    _replay(tracer, clock, [(0, "specfun.f"), (1, "specfun.f"), (3, None), (4, None)])
    assert tracer.inclusive["specfun.f"] == 4
    assert tracer.self_time["specfun.f"] == 4


def test_traced_run_restores_every_wrapped_attribute():
    from hadwalk import cli, genfun, walk

    checked = tr.targets()
    names = {t.name for t in checked}
    # re-bound imports are wrapped where their callers look them up
    assert {"specfun.legendre_p0@genfun", "specfun.elliptic_k_from_complement@classical",
            "walk.WaveFunction.step", "exactnum.GaussianInteger.__mul__"} <= names
    original_main, original_step = cli.main, vars(walk.WaveFunction)["step"]

    tracer = tr.Tracer()
    with tr.Instrumented(tracer):
        assert len(tr.unrestored(checked)) == len(checked)
        outputs = [_run(argv) for argv in SMALL_COMMANDS]
    assert tr.unrestored(checked) == []
    assert cli.main is original_main
    assert vars(walk.WaveFunction)["step"] is original_step
    assert genfun.legendre_p0.__module__ == "hadwalk.specfun"
    assert not hasattr(genfun.legendre_p0, "__wrapped__")

    assert all(code == 0 for code, _ in outputs)
    assert tracer.calls["cli.main"] == len(SMALL_COMMANDS)
    layers = tr.layer_metrics(tracer, tracer.root_time)
    assert {name for name, *_ in tr.PER_LAYER} == set(layers)
    assert layers["walk.exact_steps"]["value"] > 0
    assert layers["exactnum.gauss_ops"]["value"] > 0
    assert layers["verify.checks"]["value"] > 0
    assert layers["trace.unattributed_s"]["value"] == 0
    attributed = sum(layers[f"{layer}.self_s"]["value"] for layer in tr.LAYERS)
    assert attributed == pytest.approx(tracer.root_time)


def test_calibrated_time_scales_wall_time_by_the_sampled_reference(monkeypatch):
    monkeypatch.setattr(worker, "reference_job", lambda: 0.001)
    previous = signal.getsignal(signal.SIGALRM)
    try:
        sampler = worker.Sampler()
        start = sampler.start()
        while time.perf_counter() - start < 4 * worker.SAMPLE_INTERVAL_S:
            pass
        wall_s, calibrated_s = sampler.stop(start)
        elapsed = time.perf_counter() - start
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert len(sampler.samples) >= 2
    assert wall_s <= elapsed - 0.001 * len(sampler.samples)
    assert calibrated_s == pytest.approx(wall_s * worker.REFERENCE_NOMINAL_S / 0.001)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_same_seed_gives_same_commands(name):
    assert workloads.commands_for(name, 7) == workloads.commands_for(name, 7)
    assert len({json.dumps(workloads.commands_for(name, s)) for s in range(10)}) > 1


@pytest.mark.parametrize("argv", SMALL_COMMANDS[:-1], ids=lambda a: " ".join(a[:3]))
def test_checks_accept_hadwalk_output(argv):
    code, out = _run(argv)
    assert workloads.check(argv, code, out) is None


def test_checks_reject_wrong_answers():
    argv = ["return-prob", "-n", "20", "--method", "all"]
    code, out = _run(argv)
    right = workloads.dyadic_text(workloads.return_prob_reference(20))
    assert right in out
    assert workloads.check(argv, code, out.replace(right, "1/2^3", 1)) is not None
    assert workloads.check(argv, 2, out) == "exit code 2"
    argv = ["simulate", "-n", "12", "--format", "json"]
    code, out = _run(argv)
    doc = json.loads(out)
    doc["probabilities"][0]["probability_exact"] = "0/2^0"
    assert workloads.check(argv, code, json.dumps(doc)) is not None


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    per_layer = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    assert per_layer == [(n, u, b) for n, u, b, _ in tr.PER_LAYER] + [
        ("trace.overhead_ratio", "ratio", "lower")
    ]
