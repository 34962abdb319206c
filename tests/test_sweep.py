"""A seeded sweep of the config space through the CLI.

Sixty configs are drawn with a fixed seed: a 2^11 or 2^12 grid at 5, 10 or
20 fs, a 30-300 fs pulse, a custom medium of depth 0-500 and T2 0.5-50 ps, a
shaper with or without a span and a pixel, and a delay scan of 2-300 steps
within +-window/4.  Each runs xcorr, eta-scan, depth-scan and propagate.  A
run exits 0 or 1, and after exit 0 every CSV value is finite and the printed
numbers keep the physical bounds: |overlap| <= 1, the scan's peak-normalized
curve peaks at 1, 0 <= eta <= eta_base * T_E, and
unshaped <= shaped <= eta_base * T_E.  The bounds carry a relative slack of
1e-11 for round-off and the CSVs' 12 significant digits.
"""

import numpy as np
import pytest

from zapsim.cli import main
from zapsim.config import ScenarioConfig

ETA_BASE = ScenarioConfig().detection_eta_base
SLACK = 1e-11


def draw_configs(count: int = 60, seed: int = 2024) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(count):
        n, dt_fs = int(rng.choice([2**11, 2**12])), float(rng.choice([5.0, 10.0, 20.0]))
        quarter_ps = 0.25 * n * dt_fs * 1e-3
        low, high = np.sort(rng.uniform(-quarter_ps, quarter_ps, 2))
        span = "none" if rng.random() < 0.3 else f"{rng.uniform(1.0, 80.0):.6g}"
        pixel = "none" if rng.random() < 0.5 else f"{rng.uniform(0.05, 1.0):.6g}"
        configs.append([
            f"grid.n={n}",
            f"grid.dt_fs={dt_fs:g}",
            f"pulse.fwhm_fs={rng.uniform(30.0, 300.0):.6g}",
            f"medium.depth={rng.uniform(0.0, 500.0):.6g}",
            f"medium.t2_ps={rng.uniform(0.5, 50.0):.6g}",
            f"shaper.span_nm={span}",
            f"shaper.pixel_nm={pixel}",
            f"scan.delay_min_ps={low:.6g}",
            f"scan.delay_max_ps={high:.6g}",
            f"scan.delay_steps={int(rng.integers(2, 301))}",
        ])
    return configs


def read_csv(path) -> tuple[dict, dict]:
    """(header values, columns) of a CSV; every column but a label column is parsed as float."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header = dict(l[2:].split(" = ", 1) for l in lines if l.startswith("# ") and " = " in l)
    body = [l for l in lines if not l.startswith("#")]
    names, rows = body[0].split(","), [l.split(",") for l in body[1:]]
    columns = {}
    for k, name in enumerate(names):
        values = [row[k] for row in rows]
        columns[name] = values if name == "preset" else np.array(values, dtype=np.float64)
    return header, columns


def check_xcorr(out):
    for path in sorted(out.glob("xcorr_*.csv")):
        _, cols = read_csv(path)
        assert np.all(cols["visibility"] <= 1.0 + SLACK)
        assert cols["visibility_norm"].max() == 1.0


def check_eta_scan(out):
    for path in sorted(out.glob("eta_scan_*.csv")):
        header, cols = read_csv(path)
        cap = ETA_BASE * float(header["transmission"])
        assert np.all(cols["eta"] >= 0.0)
        assert np.all(cols["eta"] <= cap * (1.0 + SLACK))


def check_depth_scan(out):
    _, cols = read_csv(out / "efficiency_vs_depth.csv")
    assert np.all(cols["eta_unshaped"] >= 0.0)
    assert np.all(cols["eta_shaped"] >= cols["eta_unshaped"])
    assert np.all(cols["eta_shaped"] <= ETA_BASE * cols["transmission"] * (1.0 + SLACK))


CONFIGS = draw_configs()
CHECKS = {"xcorr": check_xcorr, "eta-scan": check_eta_scan, "depth-scan": check_depth_scan, "propagate": None}


@pytest.mark.parametrize("settings", CONFIGS, ids=[f"draw{k}" for k in range(len(CONFIGS))])
def test_drawn_config_exits_cleanly_within_the_bounds(tmp_path, settings):
    for verb, check in CHECKS.items():
        out = tmp_path / verb
        code = main([verb, *(arg for s in settings for arg in ("--set", s)), "--out", str(out)])
        assert code in (0, 1), (verb, settings)
        if code:
            continue
        for path in out.glob("*.csv"):
            for name, values in read_csv(path)[1].items():
                assert name == "preset" or np.all(np.isfinite(values)), (verb, path.name, name, settings)
        if check:
            check(out)
