"""Spans around zapsim's layer functions, recorded from outside the package.

Each module imports its helpers by name (``medium.to_time``,
``modes.to_spectrum``, ``shaper.delay_overlaps``, ``runners.eta_curve`` ...),
so wrapping ``zapsim.fields.to_time`` alone would miss most calls.
:meth:`Tracer.install` replaces every module-level binding of each wrapped
function in every loaded ``zapsim`` module, and :meth:`Tracer.remove` puts the
originals back.  No source file changes.

A span is ``[id, name, invocation, parent, start, end, value]``: ``parent`` is
the id of the enclosing span on the same thread (None for a root), one
invocation id covers one ``cli.main`` call, and ``value`` is a per-call
quantity for a few functions (delays scanned, bytes written, media listed).
Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

LAYERS = ("fields", "medium", "modes", "shaper", "quantum", "runners", "config")

# Functions the per-layer metrics are built on, by layer.  Every public
# function of a layer module (and public method of ScenarioConfig) is
# wrapped as well, found at install time.  A name here that the package no
# longer defines is reported as missing, and the metrics built on it are left
# out rather than reported as 0.
NAMED = {
    "fields": ("to_spectrum", "to_time"),
    "medium": ("transfer_function", "propagate", "energy_transmission"),
    "modes": ("delay_overlaps", "eta_curve", "visibility_curve"),
    "shaper": ("achievable_lo", "_best_projection"),
    "quantum": ("sample_quadratures", "wigner_grid"),
    "runners": ("_write_csv", "_write_sidecar"),
    "config": ("ScenarioConfig.media",),
}

ROOT = "cli.main"
FFT = ("fields.to_spectrum", "fields.to_time")
H = ("medium.transfer_function",)
MEDIA = "config.ScenarioConfig.media"
DELAY_SCAN = "modes.delay_overlaps"
SEARCH = "shaper._best_projection"

# Per-call values: (bound arguments, result) -> number.
VALUES = {
    DELAY_SCAN: lambda args, result: int(np.size(args["delays"])),
    # computed bytes: one complex128 array in and one out
    "fields.to_spectrum": lambda args, result: result.grid.n * 16 * 2,
    "fields.to_time": lambda args, result: result.grid.n * 16 * 2,
    "runners._write_csv": lambda args, result: os.path.getsize(args["path"]),
    MEDIA: lambda args, result: len(result),
}


def _package_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "zapsim" or name.startswith("zapsim.")]


def _targets(layer: str):
    """{qualified name: (owner, attribute, function)} of one layer, and the named functions it lacks."""
    mod = sys.modules.get(f"zapsim.{layer}")
    found, missing = {}, []
    names = list(NAMED[layer])
    if mod is not None:
        names += [
            n
            for n, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not n.startswith("_")
        ]
        cls = getattr(mod, "ScenarioConfig", None) if layer == "config" else None
        if cls is not None:
            names += [f"ScenarioConfig.{n}" for n, obj in vars(cls).items() if inspect.isfunction(obj) and not n.startswith("_")]
    for qual in names:
        owner, _, attr = qual.rpartition(".")
        holder = getattr(mod, owner, None) if owner else mod
        fn = vars(holder).get(attr) if holder is not None else None
        if not inspect.isfunction(fn):
            missing.append(f"{layer}.{qual}")
            continue
        found[f"{layer}.{qual}"] = (holder, attr, fn)
    return found, sorted(set(missing))


class Tracer:
    """Collects spans in memory while installed; :meth:`remove` restores the package."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.invocations: list[str] = []
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._local = threading.local()
        self._inv = -1

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        rec = [len(self.spans), name, self._inv, stack[-1] if stack else None, time.perf_counter(), 0.0, None]
        self.spans.append(rec)
        stack.append(rec[0])
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self._stack().pop()

    def _wrap(self, name: str, fn):
        value = VALUES.get(name)
        sig = inspect.signature(fn) if value else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if value is not None:
                try:
                    rec[6] = value(sig.bind(*args, **kwargs).arguments, result)
                except (KeyError, TypeError, AttributeError, OSError):
                    rec[6] = None
            return result

        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _package_modules()
        missing = []
        for layer in LAYERS:
            found, gone = _targets(layer)
            missing += gone
            for name, (holder, attr, fn) in found.items():
                wrapper = self._wrap(name, fn)
                if "ScenarioConfig." in name:
                    self._patches.append((holder, attr, fn))
                    setattr(holder, attr, wrapper)
                    continue
                for mod in modules:
                    for binding, obj in list(vars(mod).items()):
                        if obj is fn:
                            self._patches.append((mod, binding, fn))
                            setattr(mod, binding, wrapper)
        self.missing = sorted(set(missing))

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._patches):
            setattr(owner, attr, fn)
        self._patches.clear()

    @contextmanager
    def invocation(self, verb: str):
        """Root span for one CLI call; spans inside it share its invocation id."""
        self._inv = len(self.invocations)
        self.invocations.append(verb)
        rec = self._open(ROOT)
        try:
            yield
        finally:
            self._close(rec)


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s[5] - s[4] for s in spans]
    for s in spans:
        if s[3] is not None:
            out[s[3]] -= s[5] - s[4]
    return out


def verb_counts(spans: list[list], invocations: list[str]) -> list[dict]:
    """Deterministic op counts per CLI invocation.

    FFTs and H(nu) evaluations made after ``ScenarioConfig.media()`` returns
    are per-medium work; those before it are set-up.
    """
    by_inv = defaultdict(list)
    for s in spans:
        by_inv[s[2]].append(s)
    rows = []
    for inv, verb in enumerate(invocations):
        mine = by_inv[inv]
        media = next((s for s in mine if s[1] == MEDIA), None)
        n_media = (media[6] or 0) if media is not None else 0
        after = media[5] if media is not None else float("inf")
        fft = [s for s in mine if s[1] in FFT]
        h = [s for s in mine if s[1] in H]
        search_ids = {s[0] for s in mine if s[1] == SEARCH}
        scans = [s for s in mine if s[1] == DELAY_SCAN]
        row = {
            "verb": verb,
            "media": n_media,
            "fft": len(fft),
            "fft_setup": sum(1 for s in fft if s[4] < after),
            "h": len(h),
            "delay_overlaps": len(scans),
            "delays": sum(s[6] or 0 for s in scans),
            "best_projection": len(search_ids),
            "search_scans": sum(1 for s in scans if s[3] in search_ids),
        }
        row["fft_per_medium"] = (row["fft"] - row["fft_setup"]) / n_media if n_media else 0.0
        row["h_per_medium"] = sum(1 for s in h if s[4] >= after) / n_media if n_media else 0.0
        rows.append(row)
    return rows


def layer_metrics(spans: list[list], invocations: list[str], missing: list[str], passes: int) -> dict:
    """Per-layer metrics, each per pass through the workload's verbs.

    Metrics that rest on a missing function, or on a per-call value that
    could not be read, are left out; their names go to ``missing``.
    """
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    inclusive = defaultdict(float)
    values = defaultdict(int)
    unreadable = set()
    for s, st in zip(spans, selfs):
        calls[s[1]] += 1
        self_s[s[1]] += st
        inclusive[s[1]] += s[5] - s[4]
        if s[1] in VALUES:
            if s[6] is None:
                unreadable.add(s[1])
            else:
                values[s[1]] += s[6]

    def total(names, table):
        return sum(table[n] for n in names) / passes

    def layer_self(layer):
        return sum(v for n, v in self_s.items() if n.startswith(layer + ".")) / passes

    counts = verb_counts(spans, invocations)
    scans = calls[DELAY_SCAN] / passes
    delays = values[DELAY_SCAN] / passes
    searches = calls[SEARCH] / passes
    search_scans = sum(r["search_scans"] for r in counts) / passes
    groups = {
        "modes.delay_overlaps": ((DELAY_SCAN,), {
            "calls": scans,
            "delays": delays,
            "self_s": total([DELAY_SCAN], self_s),
            "us_per_delay": total([DELAY_SCAN], self_s) / delays * 1e6 if delays else 0.0,
        }),
        "modes.curve": (("modes.eta_curve", "modes.visibility_curve"), {
            "self_s": total(["modes.eta_curve", "modes.visibility_curve"], self_s),
        }),
        "shaper.best_projection": ((SEARCH, DELAY_SCAN), {
            "calls": searches,
            "self_s": total([SEARCH], self_s),
            "evals_per_call": search_scans / searches if searches else 0.0,
        }),
        "shaper.achievable_lo": (("shaper.achievable_lo",), {
            "calls": total(["shaper.achievable_lo"], calls),
            "self_s": total(["shaper.achievable_lo"], self_s),
        }),
        "fields.fft": (FFT + (MEDIA,), {
            "calls": total(FFT, calls),
            "per_medium": sum(r["fft_per_medium"] for r in counts) / passes,
            "self_s": total(FFT, self_s),
            "bytes_computed": total(FFT, values),
        }),
        "medium.H": (H + (MEDIA,), {
            "calls": total(H, calls),
            "per_medium": sum(r["h_per_medium"] for r in counts) / passes,
            "self_s": total(H, self_s),
        }),
        "medium.propagate": (("medium.propagate",), {"self_s": total(["medium.propagate"], self_s)}),
        "medium.energy_transmission": (("medium.energy_transmission",), {
            "self_s": total(["medium.energy_transmission"], self_s),
        }),
        # quantum calls nothing outside its own layer, but its helpers
        # (quadrature_pdf, wigner) are spans too: report the whole call.
        "quantum.sample": (("quantum.sample_quadratures",), {
            "self_s": total(["quantum.sample_quadratures"], inclusive),
        }),
        "quantum.wigner_grid": (("quantum.wigner_grid",), {"self_s": total(["quantum.wigner_grid"], inclusive)}),
        "runners": ((), {"self_s": layer_self("runners")}),
        "runners.write_csv": (("runners._write_csv",), {
            "self_s": total(["runners._write_csv"], self_s),
            "bytes": total(["runners._write_csv"], values),
        }),
        "runners.write_sidecar": (("runners._write_sidecar",), {"self_s": total(["runners._write_sidecar"], self_s)}),
        "config": ((), {"self_s": layer_self("config")}),
    }
    out, gone = {}, set(missing)
    for prefix, (needs, metrics) in groups.items():
        lost = [n for n in needs if n in gone or n in unreadable]
        if lost:
            gone.update(f"{prefix}.{m}" for m in metrics)
            continue
        out.update({f"{prefix}.{m}": v for m, v in metrics.items()})
    return {"metrics": out, "missing": sorted(gone | unreadable)}
