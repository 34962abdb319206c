"""zapsim benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload scan --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all      # every workload, every metric
    python3 perfbench/run.py --self-test

Run from the repository root; the code under test is ``src/zapsim`` of the
same checkout.  See ``perfbench/README.md`` for the workloads and metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, verb_metric

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Fresh interpreters timed per run for setup_s; the median CPU time is reported.
SETUP_SAMPLES = 5
# Every run ends within this many seconds, child processes included.
TIME_LIMIT = 170.0


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def _child(args: list[str], deadline: float) -> str:
    """Stdout of ``python3 <args>`` with src/ on the path; stderr passes through."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"out of time before {args[0]}")
    try:
        proc = subprocess.run(
            [sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{args[0]} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{args[0]} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def preflight() -> None:
    if "ZAPSIM_THREADS" in os.environ:
        raise BenchError("ZAPSIM_THREADS is set; the benchmark runs the scan pool as users do, with it unset")
    if not (SRC / "zapsim" / "__init__.py").is_file():
        raise BenchError(f"no zapsim sources under {SRC}; run from a full checkout")


def run_workload(spec: dict, workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """Measure one workload; prints a readable report and returns the contract result."""
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            wall, cpu = _child([str(HERE / "probe_setup.py"), "--seed", str(seed)], deadline).split()
            setup.append((float(wall), float(cpu)))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    raw = json.loads(_child([str(HERE / "worker.py"), *args], deadline))

    print(f"workload={workload} seed={seed} seconds={seconds:g} trace={trace}")
    print("env " + json.dumps(raw["env"], sort_keys=True))
    if trace:
        metrics = {m["name"]: (raw["layers"][m["name"]], m["unit"]) for m in spec["per_layer"] if m["name"] in raw["layers"]}
        for row in raw["counts"]:
            print(
                f"  {row['verb']}: fft {row['fft']} ({row['fft_setup']} set-up, {row['fft_per_medium']:g}/medium), "
                f"H {row['h']} ({row['h_per_medium']:g}/medium), delay_overlaps {row['delay_overlaps']} calls "
                f"over {row['delays']} delays, best_projection {row['best_projection']}"
            )
        if raw["missing"]:
            print("missing (no longer in zapsim, not reported): " + ", ".join(raw["missing"]))
        print(f"spans: {raw['trace_file']}")
    else:
        wall = {verb: statistics.median(times) for verb, times in raw["wall_samples"].items()}
        cpu = {verb: statistics.median(times) for verb, times in raw["cpu_samples"].items()}
        for verb, times in raw["wall_samples"].items():
            print(f"{verb_metric(verb)} = {wall[verb]:.6g} s wall, {cpu[verb]:.6g} s cpu (medians of {len(times)})")
        # Wall time is printed, not reported: on a shared 2-vCPU host it measures the other tenants.
        print(f"pass wall time = {sum(wall.values()):.6g} s")
        print(f"set-up wall time = {statistics.median(w for w, _ in setup):.6g} s (median of {len(setup)})")
        metrics = {
            "pass_cpu_s": (sum(cpu.values()), "s"),
            "verb_geomean_cpu_s": (math.exp(statistics.fmean(math.log(t) for t in cpu.values())), "s"),
            "setup_s": (statistics.median(c for _, c in setup), "s"),
            "peak_rss_mb": (raw["peak_rss_mb"], "MB"),
        }
    print(f"fail_rate = {raw['failed']}/{raw['attempted']} verb invocations")
    for name, (value, unit) in metrics.items():
        note = f" (median of {len(setup)})" if name == "setup_s" else ""
        print(f"{name} = {value:.6g} {unit}{note}")
    return {
        "correct": raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    spec = _spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true", help="check the checks and the op-count table")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT
    try:
        preflight()
        if args.self_test:
            print(_child([str(HERE / "selftest.py")], deadline))
            return 0
        if args.workload != "all":
            result = run_workload(spec, args.workload, args.seed, args.seconds, args.trace, deadline)
            print(json.dumps(result))
            return 0
        results = {}
        for workload in WORKLOADS:
            results[workload] = run_workload(
                spec, workload, args.seed, args.seconds, args.trace, time.monotonic() + TIME_LIMIT
            )
            print()
        print(json.dumps(results))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
