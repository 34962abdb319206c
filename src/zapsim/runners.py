"""Scenario runners: build the pipeline from a config and emit CSV datasets.

Every emitted file starts with ``#``-prefixed header lines echoing the
resolved configuration, so a run can be reproduced from any of its outputs.
Numeric columns carry 12 significant digits.  Outputs are byte-identical
across reruns with a fixed config and seed.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .fields import GridAdequacyWarning, pulse_area, to_spectrum, to_time
from .medium import MediumPreset, energy_transmission, propagate
from .modes import eta_curve, normalize, visibility_curve
from .quantum import (
    HeraldedState,
    estimate_eta,
    is_nonclassical,
    sample_quadratures,
    wigner,
    wigner_grid,
)
from .shaper import max_shaped_eta, max_unshaped_eta

__all__ = [
    "run_propagate",
    "run_xcorr",
    "run_eta_scan",
    "run_efficiency_vs_depth",
    "run_wigner",
    "run_sample",
]

LOG_FLOOR = 1e-12


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def _header_lines(cfg: ScenarioConfig, verb: str, extra: dict | None = None) -> list[str]:
    lines = [f"zapsim {verb}"]
    lines.extend(cfg.to_lines())
    for key in sorted(extra or {}):
        lines.append(f"{key} = {_fmt(extra[key])}")
    return lines


def _write_csv(path: Path, header: list[str], columns: list[str], rows) -> None:
    text = "".join(f"# {line}\n" for line in header)
    text += ",".join(columns) + "\n"
    for row in rows:
        text += ",".join(_fmt(v) for v in row) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_sidecar(path: Path, cfg: ScenarioConfig, verb: str, sections: list[tuple[str, list[str]]]) -> None:
    lines = [f"zapsim {verb} parameters", ""]
    lines.extend(cfg.to_lines())
    for title, body in sections:
        lines.append("")
        lines.append(f"[{title}]")
        lines.extend(body)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _grid_notes(grid) -> list[str]:
    return [
        f"grid.window_ns = {_fmt(grid.window * 1e9)}",
        f"grid.df_mhz = {_fmt(grid.df / 1e6)}",
    ]


def _propagate_recorded(spec_in, params):
    """Propagate and capture grid-adequacy warnings as text."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", GridAdequacyWarning)
        out = propagate(spec_in, params)
    notes = [str(w.message) for w in caught if issubclass(w.category, GridAdequacyWarning)]
    return out, notes


def _medium_lines(entry: MediumPreset, notes: list[str], extras: dict) -> list[str]:
    body = [
        f"depth = {_fmt(entry.params.depth)}",
        f"t2_ps = {_fmt(entry.params.t2 * 1e12)}",
        f"temperature_c = {'none' if entry.temperature_c is None else _fmt(entry.temperature_c)}",
    ]
    body += [f"{k} = {_fmt(v)}" for k, v in sorted(extras.items())]
    body += [f"warning = {note}" for note in notes]
    return body


def run_propagate(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit the transmitted time-domain envelope around the pulse for each medium."""
    grid = cfg.make_grid()
    pulse = normalize(cfg.make_pulse(grid))
    spec_in = to_spectrum(pulse)
    center = grid.t[int(np.argmax(np.abs(pulse.amp)))]
    lo_t = center + cfg.scan_delay_min_ps * 1e-12
    hi_t = center + cfg.scan_delay_max_ps * 1e-12
    sel = (grid.t >= lo_t) & (grid.t <= hi_t)

    paths = []
    sections = [("grid", _grid_notes(grid))]
    for entry in cfg.media():
        spec_out, notes = _propagate_recorded(spec_in, entry.params)
        t_e = energy_transmission(spec_in, entry.params)
        field_out = to_time(spec_out)
        ratio = abs(pulse_area(field_out)) / abs(pulse_area(pulse))
        rows = [
            ((t - center) * 1e12, abs(a), a.real, a.imag)
            for t, a in zip(grid.t[sel], field_out.amp[sel])
        ]
        path = out_dir / f"propagated_{entry.label}.csv"
        header = _header_lines(
            cfg,
            "propagate",
            {"medium.label": entry.label, "transmission": t_e, "area_ratio": ratio},
        )
        _write_csv(path, header, ["t_ps", "amp_abs", "amp_re", "amp_im"], rows)
        paths.append(path)
        sections.append(
            (entry.label, _medium_lines(entry, notes, {"transmission": t_e, "area_ratio": ratio}))
        )
    _write_sidecar(out_dir / "propagate_params.txt", cfg, "propagate", sections)
    return paths


def run_xcorr(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit the classical fringe-visibility delay scan for each medium."""
    grid = cfg.make_grid()
    pulse = cfg.make_pulse(grid)
    spec_in = to_spectrum(normalize(pulse))
    delays = cfg.delays()

    paths = []
    sections = [("grid", _grid_notes(grid))]
    for entry in cfg.media():
        spec_out, notes = _propagate_recorded(spec_in, entry.params)
        sig = to_time(spec_out)
        curve = visibility_curve(sig, pulse, delays)
        norm = curve.peak_normalized()
        rows = list(zip(curve.xs * 1e12, curve.ys, norm.ys))
        path = out_dir / f"xcorr_{entry.label}.csv"
        header = _header_lines(cfg, "xcorr", {"medium.label": entry.label})
        _write_csv(path, header, ["delay_ps", "visibility", "visibility_norm"], rows)
        paths.append(path)
        sections.append((entry.label, _medium_lines(entry, notes, {})))
    _write_sidecar(out_dir / "xcorr_params.txt", cfg, "xcorr", sections)
    return paths


def run_eta_scan(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit the homodyne efficiency delay scan (un-modulated LO) per medium."""
    grid = cfg.make_grid()
    pulse = cfg.make_pulse(grid)
    delays = cfg.delays()

    paths = []
    sections = [("grid", _grid_notes(grid))]
    for entry in cfg.media():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GridAdequacyWarning)
            curve = eta_curve(pulse, entry.params, pulse, cfg.detection_eta_base, delays)
        notes = [str(w.message) for w in caught if issubclass(w.category, GridAdequacyWarning)]
        clamped = curve.ys < LOG_FLOOR
        log_eta = np.log10(np.maximum(curve.ys, LOG_FLOOR))
        rows = list(zip(curve.xs * 1e12, curve.ys, log_eta, clamped))
        path = out_dir / f"eta_scan_{entry.label}.csv"
        header = _header_lines(
            cfg,
            "eta-scan",
            {"medium.label": entry.label, "transmission": curve.meta["transmission"]},
        )
        _write_csv(path, header, ["delay_ps", "eta", "log10_eta", "log_clamped"], rows)
        paths.append(path)
        sections.append(
            (entry.label, _medium_lines(entry, notes, {"transmission": curve.meta["transmission"]}))
        )
    _write_sidecar(out_dir / "eta_scan_params.txt", cfg, "eta-scan", sections)
    return paths


def run_efficiency_vs_depth(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit peak efficiency per medium, with and without LO shaping."""
    grid = cfg.make_grid()
    pulse = cfg.make_pulse(grid)
    spec_in = to_spectrum(normalize(pulse))
    shaper_cfg = cfg.shaper_config()

    rows = []
    sections = [("grid", _grid_notes(grid))]
    for entry in cfg.media():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GridAdequacyWarning)
            unshaped = max_unshaped_eta(pulse, entry.params, cfg.detection_eta_base)
            if cfg.shaper_enabled:
                shaped = max_shaped_eta(pulse, entry.params, shaper_cfg, cfg.detection_eta_base)
            else:
                shaped = unshaped
        notes = [str(w.message) for w in caught if issubclass(w.category, GridAdequacyWarning)]
        t_e = energy_transmission(spec_in, entry.params)
        rows.append((entry.label, entry.params.depth, entry.params.t2 * 1e12, unshaped, shaped, t_e))
        sections.append(
            (
                entry.label,
                _medium_lines(
                    entry,
                    sorted(set(notes)),
                    {"eta_unshaped": unshaped, "eta_shaped": shaped, "transmission": t_e},
                ),
            )
        )
    path = out_dir / "efficiency_vs_depth.csv"
    header = _header_lines(cfg, "depth-scan")
    _write_csv(
        path,
        header,
        ["preset", "depth", "t2_ps", "eta_unshaped", "eta_shaped", "transmission"],
        rows,
    )
    _write_sidecar(out_dir / "efficiency_vs_depth_params.txt", cfg, "depth-scan", sections)
    return [path]


def _resolve_eta(cfg: ScenarioConfig, eta: float | None) -> float:
    if eta is not None:
        return eta
    if cfg.wigner_eta is not None:
        return cfg.wigner_eta
    return cfg.detection_eta_base


def run_wigner(
    cfg: ScenarioConfig,
    out_dir: Path,
    eta: float | None = None,
    from_samples: bool = False,
) -> list[Path]:
    """Emit a Wigner map and scalar summary for the measured mixture.

    With ``from_samples`` the single-photon fraction is first re-estimated
    from synthetic quadrature data, exercising the full tomography chain.
    """
    eta_true = _resolve_eta(cfg, eta)
    summary = [f"eta = {_fmt(eta_true)}"]
    extra = {"eta": eta_true}
    if from_samples:
        sample = sample_quadratures(
            HeraldedState(eta_true), cfg.sampling_n_samples, cfg.sampling_seed
        )
        est = estimate_eta(sample)
        summary += [
            f"eta_hat = {_fmt(est.eta_hat)}",
            f"stderr = {_fmt(est.stderr)}",
            f"clamped = {_fmt(est.clamped)}",
            f"n_samples = {cfg.sampling_n_samples}",
            f"seed = {cfg.sampling_seed}",
        ]
        extra.update({"eta_hat": est.eta_hat, "from_samples": True})
        state = HeraldedState(est.eta_hat)
    else:
        state = HeraldedState(eta_true)

    axis = np.linspace(-cfg.wigner_half_width, cfg.wigner_half_width, cfg.wigner_n_side)
    grid_vals = wigner_grid(state, cfg.wigner_half_width, cfg.wigner_n_side)
    rows = [
        (axis[i], axis[j], grid_vals[i, j])
        for i in range(cfg.wigner_n_side)
        for j in range(cfg.wigner_n_side)
    ]
    path = out_dir / "wigner_grid.csv"
    _write_csv(path, _header_lines(cfg, "wigner", extra), ["x", "p", "w"], rows)

    w00 = wigner(state, 0.0, 0.0)
    summary += [
        f"rendered_eta = {_fmt(state.eta)}",
        f"w_origin = {_fmt(w00)}",
        f"nonclassical = {_fmt(is_nonclassical(state))}",
    ]
    summary_path = out_dir / "wigner_summary.txt"
    _write_sidecar(summary_path, cfg, "wigner", [("summary", summary)])
    return [path, summary_path]


def run_sample(cfg: ScenarioConfig, out_dir: Path, eta: float | None = None) -> list[Path]:
    """Emit synthetic quadrature samples, one value per line."""
    eta_val = _resolve_eta(cfg, eta)
    sample = sample_quadratures(HeraldedState(eta_val), cfg.sampling_n_samples, cfg.sampling_seed)
    path = out_dir / "quadrature_samples.txt"
    header = (
        f"# vacuum_variance = {_fmt(sample.meta['vacuum_variance'])}, "
        f"eta = {_fmt(eta_val)}, seed = {cfg.sampling_seed}, n = {cfg.sampling_n_samples}\n"
    )
    body = "".join(f"{v:.12g}\n" for v in sample.values)
    path.write_text(header + body, encoding="utf-8", newline="\n")
    return [path]
