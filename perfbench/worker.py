"""Run one workload's CLI verbs in this process, time them and check every output.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` set to the
checkout's ``src/``, so that peak RSS is the workload's own.  Verbs go
through ``zapsim.cli.main`` exactly as a user's command line would, with the
default scenario and ``sampling.seed`` set to the workload seed.  Prints one
JSON line with the raw samples; ``run.py`` turns them into metrics.

With ``--trace 1`` each pass through the verbs is run twice, untraced and
then traced, so that the difference gives the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import zapsim
from zapsim import cli
from zapsim.config import ScenarioConfig

from checks import Reference
from tracing import Tracer, layer_metrics, verb_counts
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK = HERE / "work"
# Problems printed per run; the count of failed invocations is always exact.
MAX_REPORTED = 10
MIN_PASSES = 2


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "zapsim": zapsim.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "zapsim_threads_set": "ZAPSIM_THREADS" in os.environ,
        "seed": seed,
        "grid_n": ScenarioConfig().grid_n,
        "machine": platform.machine(),
    }


class Invoker:
    """Invokes verbs into one scratch directory and counts failed invocations."""

    def __init__(self, seed: int, out_dir: Path, reference: Reference) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def invoke(self, verb: str, tracer: Tracer | None = None) -> tuple[float, float]:
        """Wall and CPU time of one ``zapsim <verb>`` call; its outputs are checked afterwards.

        CPU time is this process's, all threads together (``time.process_time``).
        """
        shutil.rmtree(self.out_dir, ignore_errors=True)
        argv = [verb, "--out", str(self.out_dir), "--set", f"sampling.seed={self.seed}"]
        scope = tracer.invocation(verb) if tracer is not None else contextlib.nullcontext()
        rc, crash = None, None
        start, cpu_start = time.perf_counter(), time.process_time()
        try:
            with contextlib.redirect_stdout(io.StringIO()), scope:
                rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crashing verb is a failed invocation, not a crashed benchmark
            crash = traceback.format_exc(limit=3)
        elapsed = (time.perf_counter() - start, time.process_time() - cpu_start)
        self.attempted += 1
        if crash is not None:
            problems = [f"{verb}: raised\n{crash}"]
        elif rc != 0:
            problems = [f"{verb}: exit code {rc}"]
        else:
            problems = self.reference.check(verb, self.out_dir, self.seed)
        if problems:
            self.failed += 1
            self.problems += problems
        return elapsed

    def run_pass(self, verbs, tracer: Tracer | None = None) -> dict:
        if tracer is None:
            return {verb: self.invoke(verb) for verb in verbs}
        tracer.install()
        try:
            return {verb: self.invoke(verb, tracer) for verb in verbs}
        finally:
            tracer.remove()


def measure(invoker: Invoker, verbs, seconds: float, tracer: Tracer | None) -> tuple[list, list]:
    """Passes through ``verbs`` until the next one would overrun ``seconds``.

    An untraced run makes at least ``MIN_PASSES`` passes, so that a verb
    slower than half of ``seconds`` still gets a median of two samples; a
    traced run makes at least one untraced and one traced pass.
    """
    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    least = 1 if tracer is not None else MIN_PASSES
    longest = 0.0
    while True:
        start = time.perf_counter()
        untraced.append(invoker.run_pass(verbs))
        if tracer is not None:
            traced.append(invoker.run_pass(verbs, tracer))
        longest = max(longest, time.perf_counter() - start)
        if len(untraced) >= least and time.perf_counter() + longest > deadline:
            return untraced, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not Path(zapsim.__file__).resolve().is_relative_to(HERE.parent / "src"):
        print(f"zapsim imported from {zapsim.__file__}, not from this checkout", file=sys.stderr)
        return 2

    verbs = WORKLOADS[args.workload]
    env = environment(args.seed)
    tracer = Tracer() if args.trace else None
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        invoker = Invoker(args.seed, scratch / "out", Reference())
        untraced, traced = measure(invoker, verbs, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in invoker.problems[:MAX_REPORTED]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "env": env,
        "attempted": invoker.attempted,
        "failed": invoker.failed,
        "wall_samples": {verb: [p[verb][0] for p in untraced] for verb in verbs},
        "cpu_samples": {verb: [p[verb][1] for p in untraced] for verb in verbs},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = layer_metrics(tracer.spans, tracer.invocations, tracer.missing, len(traced))
        layers["metrics"]["trace.overhead_frac"] = (
            statistics.median(sum(cpu for _, cpu in p.values()) for p in traced)
            / statistics.median(sum(cpu for _, cpu in p.values()) for p in untraced)
            - 1.0
        )
        counts = verb_counts(tracer.spans, tracer.invocations)
        result.update(layers=layers["metrics"], missing=layers["missing"], counts=counts[: len(verbs)])
        trace_file = WORK / f"trace-{args.workload}-seed{args.seed}.json"
        with open(trace_file, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "env": env,
                    "span_fields": ["id", "name", "invocation", "parent", "start_s", "end_s", "value"],
                    "invocations": tracer.invocations,
                    "spans": tracer.spans,
                    "counts": counts,
                    "missing": layers["missing"],
                    "metrics": layers["metrics"],
                },
                fh,
            )
        result["trace_file"] = str(trace_file.relative_to(HERE.parent))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
