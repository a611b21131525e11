"""hadwalk benchmark: time to solution of four CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Every repetition runs in a fresh worker interpreter (``worker.py``), one
process with one thread, which times ``import hadwalk.cli`` plus
``build_parser()`` and then the workload's whole command list through
``hadwalk.cli.main``.  Repetitions run back to back while they fit in
``--seconds``; the reported times are medians over them, in calibrated
seconds (see ``worker.py``; wall times are in the record).  Every output is
checked against a reference computed in ``workloads.py``.

With ``--trace 0`` the last line carries the end-to-end metrics; with
``--trace 1`` each untraced repetition is followed by a traced one and the
last line carries the per-layer metrics of the median traced repetition.
The line before it is a JSON record with the run metadata, the command list
and every sample.  ``--workload all`` runs each workload untraced and prints
solve_s, setup_s, peak_rss_mb and fail_ratio for each.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 15
END_TO_END = {"solve_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
WORKER_TIMEOUT_S = 150
# Workers import hadwalk from the checkout only and reuse its cached bytecode,
# as an installed package would; numpy keeps to one BLAS thread.
WORKER_ENV_DROP = ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE")
WORKER_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class WorkerError(RuntimeError):
    pass


def run_worker(commands: list[list[str]], trace: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in WORKER_ENV_DROP}
    env.update(WORKER_ENV)
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT)],
        input=json.dumps({"commands": commands, "trace": trace}),
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=WORKER_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _commit() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _version(package: str) -> str | None:
    try:
        return importlib.metadata.version(package)
    except importlib.metadata.PackageNotFoundError:
        return None


def metadata(seed: int, commands: list[list[str]]) -> dict:
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "command_count": len(commands),
    }


def _median_rep(reps: list[dict]) -> dict:
    """The repetition whose wall solve time is the (lower) median."""
    return sorted(reps, key=lambda r: r["solve_wall_s"])[(len(reps) - 1) // 2]


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds`` and check every output."""
    commands = workloads.commands_for(name, seed)
    run_worker([], False)  # byte-compiles hadwalk and warms the file cache
    plain: list[dict] = []
    traced: list[dict] = []
    setup_only: list[dict] = []

    def more_setups() -> bool:
        return not trace and len(plain) + len(setup_only) < SETUP_SAMPLES

    begin = time.perf_counter()
    rounds: list[float] = []
    # a round starts only if a typical round still ends within the time
    while not rounds or time.perf_counter() - begin + statistics.median(rounds) <= seconds:
        round_start = time.perf_counter()
        plain.append(run_worker(commands, False))
        if trace:
            traced.append(run_worker(commands, True))
        elif more_setups():
            # interleaved, so set-up samples span the run as solve samples do
            setup_only.append(run_worker([], False))
        rounds.append(time.perf_counter() - round_start)
    while more_setups():
        setup_only.append(run_worker([], False))
    setups = [rep["setup_s"] for rep in plain + setup_only]

    attempted = failed = 0
    problems = []
    for rep in plain + traced:
        for argv, out in zip(commands, rep["outputs"], strict=True):
            attempted += 1
            problem = workloads.check(argv, out["rc"], out["stdout"])
            if problem:
                failed += 1
                problems.append(f"{' '.join(argv)}: {problem} {out['stderr'].strip()}")

    solve = [rep["solve_s"] for rep in plain]
    samples = {"solve_s": solve, "setup_s": setups,
               "peak_rss_mb": [rep["peak_rss_mb"] for rep in plain],
               "solve_wall_s": [rep["solve_wall_s"] for rep in plain],
               "setup_wall_s": [rep["setup_wall_s"] for rep in plain + setup_only],
               "command_wall_s": [[o["wall_s"] for o in rep["outputs"]] for rep in plain]}
    if trace:
        # traced commands are not calibrated, so the ratio compares wall times
        samples["traced_solve_wall_s"] = [rep["solve_wall_s"] for rep in traced]
        metrics = dict(_median_rep(traced)["layers"])
        metrics["trace.overhead_ratio"] = {
            "value": (statistics.median(samples["traced_solve_wall_s"])
                      / statistics.median(samples["solve_wall_s"])),
            "unit": "ratio",
        }
    else:
        metrics = {
            name: {"value": statistics.median(samples[name]), "unit": unit}
            for name, unit in END_TO_END.items()
        }
    record = {
        "workload": name,
        "trace": trace,
        "seconds": seconds,
        "meta": metadata(seed, commands),
        "commands": commands,
        "command_seconds": [
            statistics.median(rep["outputs"][i]["seconds"] for rep in plain)
            for i in range(len(commands))
        ],
        "samples": samples,
        "fail_ratio": failed / attempted,
        "problems": problems[:20],
    }
    return {
        "record": record,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def _format(metrics: dict) -> str:
    return "  ".join(f"{k}={m['value']:.6g} {m['unit']}" for k, m in metrics.items())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hadwalk" / "cli.py").is_file():
        print(f"no hadwalk sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        runs = {n: measure(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark worker failed: {exc}", file=sys.stderr)
        return 1

    for name, run in runs.items():
        for problem in run["record"]["problems"]:
            print(f"FAIL {name}: {problem}", file=sys.stderr)
    if args.workload == "all":
        metrics = {}
        for name, run in runs.items():
            row = dict(run["result"]["metrics"])
            row["fail_ratio"] = {"value": run["record"]["fail_ratio"], "unit": "ratio"}
            print(f"{name:18} {_format(row)}")
            metrics.update({f"{name}.{k}": v for k, v in row.items()})
        result = {
            "correct": all(r["result"]["correct"] for r in runs.values()),
            "attempted": sum(r["result"]["attempted"] for r in runs.values()),
            "failed": sum(r["result"]["failed"] for r in runs.values()),
            "metrics": metrics,
        }
    else:
        run = runs[args.workload]
        print(json.dumps({"record": run["record"]}))
        result = run["result"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
