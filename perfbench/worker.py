"""One repetition of a benchmark workload, in a fresh interpreter.

Usage: python3 worker.py ROOT < config.json

ROOT is the checkout holding ``src/hadwalk``.  The config is a JSON object
``{"commands": [[argv...], ...], "trace": bool}``.  The worker first times
``import hadwalk.cli`` plus ``build_parser()`` (set-up), then runs every
command through ``hadwalk.cli.main`` with stdout and stderr captured, and
prints one JSON object with the timings, the peak resident set and each
command's exit code and output.  With ``trace`` set it runs the commands
under the span tracer and adds the per-layer metrics.

Calibrated time.  The CPU speed a shared host gives this process swings by up
to 2x within seconds, so wall times of the same work vary that much.  While
set-up and each untraced command run, a timer signal every
``SAMPLE_INTERVAL_S`` runs a fixed reference job (``reference_job``, about
half a millisecond of big-integer, float, object and string work) and records
how long it took.  Each interval is reported in wall seconds, less the time
spent in the reference job, and in calibrated seconds: wall seconds times
``REFERENCE_NOMINAL_S`` over the mean reference time sampled during it, that
is, the time the work would take while the reference job takes its nominal
time.  The reference job is fixed code of the benchmark, so a change to
hadwalk moves calibrated and wall times alike.  Traced commands are not
sampled, so that the reference job never lands inside a traced span.
"""

import signal
import sys
import time

SAMPLE_INTERVAL_S = 0.05
REFERENCE_NOMINAL_S = 0.0005


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x, y):
        self.x = x
        self.y = y

    def plus(self, other):
        return _Point(self.x + other.x, self.y - other.y)


def reference_job() -> float:
    """Wall time of a fixed pure-Python job mixing the kinds of work hadwalk
    does: big-integer and float arithmetic, small-object method calls, dict
    updates and number formatting."""
    start = time.perf_counter()
    big = 3 ** 1500
    acc = 0
    x = 0.5
    p, q = _Point(1, 2), _Point(3, 4)
    table = {}
    parts = []
    for i in range(1, 301):
        acc = (acc + big * i) >> 3 if acc.bit_length() > 4000 else acc + big * i
        x = x * (i - 0.5) / i + 1e-3
        p = p.plus(q)
        table[i & 31] = table.get(i & 31, 0) + p.x
        if i % 8 == 0:
            parts.append(f"{p.y}/{x:.6g}")
    "".join(parts)
    return time.perf_counter() - start


class Sampler:
    """Runs ``reference_job`` on a timer signal while an interval is timed."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame) -> None:
        self.samples.append(reference_job())

    def start(self) -> float:
        self.samples = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        return time.perf_counter()

    def stop(self, start: float) -> tuple[float, float]:
        """(wall, calibrated) seconds since ``start``, reference time excluded."""
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        wall_s = elapsed - sum(self.samples)
        # one more sample just after, so even a short interval has one
        samples = self.samples + [reference_job()]
        reference_s = sum(samples) / len(samples)
        return wall_s, wall_s * REFERENCE_NOMINAL_S / reference_s


def peak_rss_mb() -> float:
    """Peak resident set of this process since it started, in MiB.

    Linux keeps in ``ru_maxrss`` the parent's resident set at the fork that
    made this process, so it is read from ``VmHWM``, which exec resets."""
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    root = sys.argv[1]
    sampler = Sampler()
    reference_job()  # warm-up
    # only sys, time and signal are loaded before this point, so set-up pays
    # for every module hadwalk needs, as a fresh `hadwalk` process would
    start = sampler.start()
    sys.path.insert(0, f"{root}/src")
    from hadwalk import cli

    cli.build_parser()
    setup_wall_s, setup_s = sampler.stop(start)

    import contextlib
    import io
    import json
    import os

    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"hadwalk imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    config = json.load(sys.stdin)

    def run_commands(sample: bool) -> list[dict]:
        outputs = []
        for argv in config["commands"]:
            out, err = io.StringIO(), io.StringIO()
            t0 = sampler.start() if sample else time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(argv)
                except SystemExit as exc:  # argparse rejects bad usage this way
                    code = exc.code if isinstance(exc.code, int) else 2
            if sample:
                wall_s, seconds = sampler.stop(t0)
            else:
                wall_s = seconds = time.perf_counter() - t0
            outputs.append({
                "rc": code,
                "wall_s": wall_s,
                "seconds": seconds,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
            })
        return outputs

    result = {"setup_wall_s": setup_wall_s, "setup_s": setup_s}
    if config["trace"]:
        import tracer as tr

        tracer = tr.Tracer()
        instrumented = tr.Instrumented(tracer)
        with instrumented:
            checked = list(instrumented.installed)
            outputs = run_commands(sample=False)
        left = tr.unrestored(checked)
        if left:
            print(f"tracer left wrappers in place: {left}", file=sys.stderr)
            return 3
        wall_s = sum(o["wall_s"] for o in outputs)
        tracer.tally["cli.emit_bytes"] = sum(len(o["stdout"].encode()) for o in outputs)
        layers = tr.layer_metrics(tracer, wall_s)
        attributed = sum(layers[f"{layer}.self_s"]["value"] for layer in tr.LAYERS)
        remainder = layers["trace.unattributed_s"]["value"]
        if abs(attributed + remainder - wall_s) > 1e-6:
            print(f"layer self times {attributed} + {remainder} != {wall_s}", file=sys.stderr)
            return 3
        result["layers"] = layers
    else:
        outputs = run_commands(sample=True)
    result["solve_wall_s"] = sum(o["wall_s"] for o in outputs)
    result["solve_s"] = sum(o["seconds"] for o in outputs)
    result["peak_rss_mb"] = peak_rss_mb()
    result["outputs"] = outputs
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
