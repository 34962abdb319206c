"""Self-test of the benchmark's own machinery; run it through ``run.py --self-test``.

1. The output check passes on real output and counts a failure when one
   stored reference value is perturbed.
2. The tracer wraps every module-level binding (``medium.to_time``,
   ``modes.to_spectrum``, ``shaper.delay_overlaps``, ``runners.eta_curve``)
   and puts every original back afterwards.
3. A wrapped function the package no longer defines is reported as missing,
   and the metrics built on it are left out rather than reported as 0.
4. Self time subtracts child spans.
5. A traced run of every physics verb reproduces the op-count table below.
   The table describes the code at the benchmark's first commit; a change
   that removes FFTs or H(nu) evaluations updates it together with the
   claim it makes.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

import zapsim
from zapsim import config, fields, medium, modes, runners, shaper

from checks import Reference
from tracing import Tracer, layer_metrics, self_times, verb_counts
from worker import WORK, Invoker

# verb: (set-up FFTs, FFTs per medium, H per medium, delays evaluated, delay_overlaps calls)
OP_COUNTS = {
    "propagate": (1, 2, 2, 0, 0),
    "xcorr": (1, 4, 1, 2255, 5),
    "eta-scan": (0, 5, 2, 2255, 5),
    "depth-scan": (1, 15, 5, 3436, 136),
}


def _expect(condition: bool, message) -> None:
    if not condition:
        raise AssertionError(message)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def check_catches_perturbation(out_dir: Path) -> None:
    reference = Reference()
    invoker = Invoker(7, out_dir, reference)
    invoker.invoke("wigner")
    invoker.invoke("propagate")
    _expect(invoker.failed == 0, invoker.problems)

    table = reference.arrays["wigner_grid.csv"]
    table[100, 2] += 1e-6 * np.max(np.abs(table[:, 2]))
    invoker.invoke("wigner")
    _expect(invoker.failed == 1 and "column w differs" in invoker.problems[-1], invoker.problems)

    reference.meta["acceptance"]["PRESET3_TRANSMISSION"] *= 1.0 + 1e-5
    invoker.invoke("propagate")
    _expect(invoker.failed == 2 and "PRESET3_TRANSMISSION" in invoker.problems[-1], invoker.problems)
    _say(f"ok   output check counts 2 failures in {invoker.attempted} invocations after 2 perturbations")


def _bindings() -> dict:
    mods = [m for name, m in sys.modules.items() if name == "zapsim" or name.startswith("zapsim.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    out.update({("ScenarioConfig", k): v for k, v in vars(config.ScenarioConfig).items()})
    return out


def check_bindings() -> None:
    before = _bindings()
    expected = [
        (medium, "to_time", fields.to_time),
        (modes, "to_spectrum", fields.to_spectrum),
        (shaper, "delay_overlaps", modes.delay_overlaps),
        (runners, "eta_curve", modes.eta_curve),
        (zapsim, "to_spectrum", fields.to_spectrum),
    ]
    tracer = Tracer()
    tracer.install()
    try:
        for holder, name, original in expected:
            wrapped = getattr(holder, name)
            _expect(getattr(wrapped, "__wrapped__", None) is original, f"{holder.__name__}.{name} not wrapped")
        _expect(tracer.missing == [], f"missing at the first commit: {tracer.missing}")
    finally:
        tracer.remove()
    after = _bindings()
    changed = [k for k in before if after.get(k) is not before[k]]
    _expect(not changed, f"not restored: {changed}")
    _say("ok   every binding wrapped while installed and restored after")


def check_missing() -> None:
    original = shaper._best_projection
    del shaper._best_projection
    tracer = Tracer()
    try:
        tracer.install()
        tracer.remove()
    finally:
        shaper._best_projection = original
    _expect("shaper._best_projection" in tracer.missing, tracer.missing)
    report = layer_metrics([], [], tracer.missing, 1)
    _expect("shaper.best_projection.calls" not in report["metrics"], report)
    _expect("shaper.best_projection.calls" in report["missing"], report)
    _expect(report["metrics"]["modes.delay_overlaps.calls"] == 0, report)
    _say("ok   a deleted function is reported missing, its metrics left out")


def check_self_time() -> None:
    spans = [
        [0, "a", 0, None, 0.0, 10.0, None],
        [1, "b", 0, 0, 1.0, 4.0, None],
        [2, "c", 0, 1, 2.0, 3.0, None],
        [3, "b", 0, 0, 5.0, 6.0, None],
    ]
    _expect(self_times(spans) == [6.0, 2.0, 1.0, 1.0], self_times(spans))
    _say("ok   self time subtracts direct children")


def check_op_counts(out_dir: Path) -> None:
    tracer = Tracer()
    invoker = Invoker(7, out_dir, Reference())
    invoker.run_pass(tuple(OP_COUNTS), tracer)
    _expect(invoker.failed == 0, invoker.problems)
    for row in verb_counts(tracer.spans, tracer.invocations):
        got = (row["fft_setup"], row["fft_per_medium"], row["h_per_medium"], row["delays"], row["delay_overlaps"])
        _expect(got == OP_COUNTS[row["verb"]], (row["verb"], got, OP_COUNTS[row["verb"]]))
        _expect(row["media"] == 5, row)
    _say("ok   op counts match: " + ", ".join(f"{v} {c}" for v, c in OP_COUNTS.items()))


def main() -> int:
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=WORK))
    try:
        check_self_time()
        check_bindings()
        check_missing()
        check_catches_perturbation(scratch / "out")
        check_op_counts(scratch / "out")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
