"""Rebuild ``reference/`` from the code in ``src/``.

    PYTHONPATH=src python3 perfbench/make_reference.py

Run it only on the commit whose outputs every later run is compared with
(the first commit of this benchmark); the reference files are committed.
It runs all six verbs at the default scenario, stores every numeric CSV
column, the numeric header and summary values, the frozen acceptance
constants and the tabulated CDF the sampler inverts, and checks that the
stored table reproduces the sample file exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from zapsim import cli, quantum
from zapsim.config import ScenarioConfig

from checks import REFERENCE_DIR, read_csv, read_keyvals
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = ScenarioConfig().sampling_seed

ACCEPTANCE = {
    "PRESET3_TRANSMISSION": 0.986893760072331,
    "PRESET4_SHAPED_ETA": 0.558428642716,
    "PRESET1_SHAPED_ETA": 0.599703466713,
    "PRESET1_UNSHAPED_ETA": 0.587984051564,
}
# Header values that are results rather than echoed configuration.  The
# area ratio is left out: exp(-depth) is far below round-off, so the printed
# value is noise (the propagate check bounds it instead).
RESULT_KEYS = ("transmission",)
SUMMARY_KEYS = ("eta", "rendered_eta", "w_origin", "nonclassical")


def sample_table(eta: float):
    """Inverse-CDF table of the seed sampler (trapezoid rule on the closed-form density)."""
    xs = np.linspace(-quantum._TABLE_HALF_WIDTH, quantum._TABLE_HALF_WIDTH, quantum._TABLE_NODES)
    pdf = quantum.quadrature_pdf(quantum.HeraldedState(eta), xs)
    cdf = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(xs))))
    return xs, cdf / cdf[-1]


def main() -> int:
    cfg = ScenarioConfig()
    meta = {"files": {}, "columns": {}, "header": {}, "keyvals": {}, "acceptance": ACCEPTANCE}
    arrays = {}
    (HERE / "work").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="reference-", dir=HERE / "work"))
    try:
        for verb in [v for verbs in WORKLOADS.values() for v in verbs]:
            out = scratch / verb
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main([verb, "--out", str(out)])
            if rc != 0:
                raise SystemExit(f"{verb} exited {rc}")
            meta["files"][verb] = sorted(os.listdir(out))
            for name in meta["files"][verb]:
                path = out / name
                if name.endswith(".csv"):
                    header, columns, data, _ = read_csv(path)
                    arrays[name] = data
                    meta["columns"][name] = columns
                    picked = {k: float(header[k]) for k in RESULT_KEYS if k in header}
                    if picked:
                        meta["header"][name] = picked
                elif name == "wigner_summary.txt":
                    got = read_keyvals(path)
                    meta["keyvals"][name] = {k: float(got[k]) for k in SUMMARY_KEYS}
                elif name == "quadrature_samples.txt":
                    lines = path.read_text(encoding="utf-8").splitlines()
                    eta = cfg.detection_eta_base
                    xs, cdf = sample_table(eta)
                    u = np.random.default_rng(SEED).random(cfg.sampling_n_samples)
                    if lines[1:] != [f"{v:.12g}" for v in np.interp(u, cdf, xs)]:
                        raise SystemExit("stored CDF table does not reproduce the sample file")
                    arrays["sample.xs"], arrays["sample.cdf"] = xs, cdf
                    meta["sample"] = {
                        "header": lines[0].replace(f"seed = {SEED}", "seed = {seed}"),
                        "n": cfg.sampling_n_samples,
                    }
    finally:
        shutil.rmtree(scratch)
    REFERENCE_DIR.mkdir(exist_ok=True)
    np.savez_compressed(REFERENCE_DIR / "seed_outputs.npz", **arrays)
    with open(REFERENCE_DIR / "seed_outputs.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(arrays)} arrays to {REFERENCE_DIR}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
