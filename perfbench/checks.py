"""Output checks: every file a verb writes, against the seed commit's outputs.

The reference lives in ``reference/`` and is rebuilt by ``make_reference.py``.
A numeric column passes when it is within ``REL_TOL`` of the reference,
relative to the column's peak magnitude.  On top of that each verb checks
the frozen acceptance constants and the north-star invariants
(visibility <= 1, eta_shaped >= eta_unshaped, eta <= eta_base * T_E).
Every check returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REL_TOL = 1e-9
# Tolerance of the frozen acceptance constants, as in tests/test_acceptance.py.
CONST_TOL = 1e-6
# Slack for inequalities between values printed with 12 significant digits.
ROUNDING = 1e-11
# Upper bound on the printed pulse-area ratio, which is round-off at depth >= 70.
AREA_LIMIT = 1e-9


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def read_csv(path: Path):
    """(header key -> text, numeric column names, 2-d float array, text columns) of a zapsim CSV."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header, k = {}, 0
    while k < len(lines) and lines[k].startswith("#"):
        key, sep, val = lines[k][1:].strip().partition(" = ")
        if sep:
            header[key] = val
        k += 1
    columns = lines[k].split(",")
    rows = lines[k + 1 :]
    first = rows[0].split(",")
    numeric = [j for j, v in enumerate(first) if _is_number(v)]
    data = np.loadtxt(rows, delimiter=",", usecols=numeric, ndmin=2)
    labels = {columns[j]: [r.split(",")[j] for r in rows] for j in range(len(columns)) if j not in numeric}
    return header, [columns[j] for j in numeric], data, labels


def read_keyvals(path: Path) -> dict:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, val = line.partition(" = ")
        if sep:
            out[key.strip()] = val.strip()
    return out


def _close(got: float, want: float, rel: float) -> bool:
    return abs(got - want) <= rel * abs(want)


class Reference:
    """The seed commit's outputs for the default scenario."""

    def __init__(self, directory: Path = REFERENCE_DIR) -> None:
        with open(directory / "seed_outputs.json", encoding="utf-8") as fh:
            self.meta = json.load(fh)
        with np.load(directory / "seed_outputs.npz") as npz:
            self.arrays = {k: npz[k] for k in npz.files}

    # -- building blocks ------------------------------------------------

    def _table(self, name: str, columns: list, data: np.ndarray) -> list[str]:
        ref = self.arrays[name]
        if columns != self.meta["columns"][name] or data.shape != ref.shape:
            return [f"{name}: columns {columns} shape {data.shape}, reference {self.meta['columns'][name]} {ref.shape}"]
        problems = []
        for j, col in enumerate(columns):
            tol = REL_TOL * float(np.max(np.abs(ref[:, j])))
            err = float(np.max(np.abs(data[:, j] - ref[:, j])))
            if not err <= tol:
                problems.append(f"{name}: column {col} differs by {err:.3g} (tolerance {tol:.3g})")
        return problems

    def _header(self, name: str, header: dict) -> list[str]:
        problems = []
        for key, want in self.meta["header"].get(name, {}).items():
            got = header.get(key)
            if got is None or not _close(float(got), want, REL_TOL):
                problems.append(f"{name}: header {key} = {got}, reference {want!r}")
        return problems

    def _constant(self, label: str, got: float) -> list[str]:
        want = self.meta["acceptance"][label]
        return [] if _close(got, want, CONST_TOL) else [f"{label}: got {got!r}, frozen {want!r}"]

    # -- per verb -------------------------------------------------------

    def check(self, verb: str, out_dir: Path, seed: int) -> list[str]:
        """Problems with the files ``verb`` left in ``out_dir`` (expected to hold nothing else)."""
        want = set(self.meta["files"][verb])
        got = set(os.listdir(out_dir))
        problems = [f"{verb}: unexpected or missing files {sorted(want ^ got)}"] if want != got else []
        tables = {}
        for name in sorted(want & got):
            path = out_dir / name
            try:
                if name.endswith(".csv"):
                    header, columns, data, labels = read_csv(path)
                    tables[name] = (header, dict(zip(columns, data.T)), labels)
                    problems += self._table(name, columns, data) + self._header(name, header)
                elif name in self.meta["keyvals"]:
                    problems += self._keyvals(name, read_keyvals(path))
                elif name == "quadrature_samples.txt":
                    problems += self._samples(path, seed)
            except (OSError, ValueError, IndexError, KeyError) as exc:
                problems.append(f"{name}: unreadable ({type(exc).__name__}: {exc})")
        invariants = getattr(self, "_invariants_" + verb.replace("-", "_"), None)
        if invariants is not None and not problems:
            try:
                problems += invariants(tables)
            except (KeyError, ValueError) as exc:
                problems.append(f"{verb}: invariant check failed ({type(exc).__name__}: {exc})")
        return problems

    def _keyvals(self, name: str, got: dict) -> list[str]:
        problems = []
        for key, want in self.meta["keyvals"][name].items():
            if key not in got or not _close(float(got[key]), want, REL_TOL):
                problems.append(f"{name}: {key} = {got.get(key)}, reference {want!r}")
        return problems

    def _samples(self, path: Path, seed: int) -> list[str]:
        info = self.meta["sample"]
        lines = path.read_text(encoding="utf-8").splitlines()
        head = info["header"].format(seed=seed)
        if lines[0] != head:
            return [f"{path.name}: header {lines[0]!r}, expected {head!r}"]
        values = np.array(lines[1:], dtype=np.float64)
        # The seed commit inverts a tabulated CDF of the mixture's quadrature
        # density at uniform draws from default_rng(seed).
        u = np.random.default_rng(seed).random(info["n"])
        want = np.interp(u, self.arrays["sample.cdf"], self.arrays["sample.xs"])
        if values.shape != want.shape:
            return [f"{path.name}: {values.size} values, expected {want.size}"]
        tol = REL_TOL * float(np.max(np.abs(want)))
        err = float(np.max(np.abs(values - want)))
        return [] if err <= tol else [f"{path.name}: values differ by {err:.3g} (tolerance {tol:.3g})"]

    # -- invariants and frozen constants --------------------------------

    def _invariants_propagate(self, tables: dict) -> list[str]:
        header = tables["propagated_preset3.csv"][0]
        problems = self._constant("PRESET3_TRANSMISSION", float(header["transmission"]))
        for name, (header, _, _) in tables.items():
            if not float(header["transmission"]) <= 1.0:
                problems.append(f"{name}: transmission {header['transmission']} > 1")
            if not float(header["area_ratio"]) < AREA_LIMIT:
                problems.append(f"{name}: area ratio {header['area_ratio']} >= {AREA_LIMIT}")
        return problems

    def _invariants_xcorr(self, tables: dict) -> list[str]:
        problems = []
        for name, (_, cols, _) in tables.items():
            if not np.all(cols["visibility"] <= 1.0 + ROUNDING):
                problems.append(f"{name}: visibility exceeds 1 ({cols['visibility'].max()!r})")
            if not math.isclose(float(cols["visibility_norm"].max()), 1.0, rel_tol=ROUNDING):
                problems.append(f"{name}: normalized visibility peaks at {cols['visibility_norm'].max()!r}")
        return problems

    def _invariants_eta_scan(self, tables: dict) -> list[str]:
        problems = self._constant(
            "PRESET3_TRANSMISSION", float(tables["eta_scan_preset3.csv"][0]["transmission"])
        )
        for name, (header, cols, _) in tables.items():
            cap = float(header["detection.eta_base"]) * float(header["transmission"])
            if not (np.all(cols["eta"] >= 0.0) and np.all(cols["eta"] <= cap * (1.0 + ROUNDING))):
                problems.append(f"{name}: eta outside [0, eta_base * T_E = {cap!r}]")
        return problems

    def _invariants_depth_scan(self, tables: dict) -> list[str]:
        header, cols, labels = tables["efficiency_vs_depth.csv"]
        row = {label: k for k, label in enumerate(labels["preset"])}
        problems = (
            self._constant("PRESET3_TRANSMISSION", float(cols["transmission"][row["preset3"]]))
            + self._constant("PRESET4_SHAPED_ETA", float(cols["eta_shaped"][row["preset4"]]))
            + self._constant("PRESET1_SHAPED_ETA", float(cols["eta_shaped"][row["preset1"]]))
            + self._constant("PRESET1_UNSHAPED_ETA", float(cols["eta_unshaped"][row["preset1"]]))
        )
        eta_base = float(header["detection.eta_base"])
        if not np.all(cols["eta_shaped"] >= cols["eta_unshaped"]):
            problems.append("efficiency_vs_depth.csv: eta_shaped < eta_unshaped")
        if not np.all(cols["eta_shaped"] <= eta_base * cols["transmission"] * (1.0 + ROUNDING)):
            problems.append("efficiency_vs_depth.csv: eta_shaped > eta_base * T_E")
        return problems
