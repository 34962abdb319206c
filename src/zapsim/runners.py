"""Scenario runners: build the pipeline from a config and emit CSV datasets.

Every emitted file starts with ``#``-prefixed header lines echoing the
resolved configuration, so a run can be reproduced from any of its outputs.
Numeric columns carry 12 significant digits.  Each data file is formatted in
one pass: a row template is repeated once per row and filled by a single
``%`` from its columns' values, so no Python call is made per value.  Outputs
are byte-identical across reruns with a fixed config and seed.
"""

from __future__ import annotations

import warnings
from functools import partial
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .fields import GridAdequacyWarning, TemporalField, _norm, normalize, pulse_area, to_spectrum
from .medium import MediumPreset, _warn_line_sampling, _warn_window_edges, transfer_function, transmit
from .modes import _check_delays, _eta_scan, _visibility_scan, delay_overlaps
from .quantum import (
    HeraldedState,
    estimate_eta,
    is_nonclassical,
    sample_quadratures,
    wigner,
    wigner_grid,
)
from .shaper import _efficiencies

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


# the conversion of a column by its dtype kind, as _fmt formats one value: a bool or int as an integer, a float
# to 12 significant digits, anything else (a label) as its str
_SPEC = {"b": "%d", "i": "%d", "u": "%d", "f": "%.12g"}


def _write_csv(path: Path, header: list[str], names: list[str], columns) -> None:
    """Write equal-length ``columns`` (arrays, or sequences of labels) under ``names``, in one ``%`` pass."""
    columns = [np.asarray(c) for c in columns]
    ncols, nrows = len(columns), len(columns[0])
    values = [None] * (ncols * nrows)
    for k, col in enumerate(columns):
        values[k::ncols] = col.tolist()  # row i's values are values[i * ncols : (i + 1) * ncols]
    row = ",".join(_SPEC.get(col.dtype.kind, "%s") for col in columns) + "\n"
    text = "".join(f"# {line}\n" for line in header) + ",".join(names) + "\n" + row * nrows % tuple(values)
    path.write_text(text, encoding="utf-8", newline="\n")


def _write_sidecar(path: Path, cfg: ScenarioConfig, verb: str, sections: list[tuple[str, list[str]]]) -> None:
    lines = [f"zapsim {verb} parameters", ""]
    lines.extend(cfg.to_lines())
    for title, body in sections:
        lines.append("")
        lines.append(f"[{title}]")
        lines.extend(body)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def _medium_lines(entry: MediumPreset, notes: list[str], extras: dict) -> list[str]:
    body = [
        f"depth = {_fmt(entry.params.depth)}",
        f"t2_ps = {_fmt(entry.params.t2 * 1e12)}",
        f"temperature_c = {'none' if entry.temperature_c is None else _fmt(entry.temperature_c)}",
    ]
    body += [f"{k} = {_fmt(v)}" for k, v in sorted(extras.items())]
    body += [f"warning = {note}" for note in notes]
    return body


def _each_medium(cfg: ScenarioConfig, out_dir: Path, verb: str, stem: str, send, row) -> list:
    """Transmit through each medium once, by ``send(params)``; ``row(entry, out)`` returns (result, sidecar
    values) from what ``send`` returned.  The sidecar ``<stem>_params.txt`` lists each medium's values and
    grid-adequacy warnings, in the order they were raised.
    """
    grid = cfg.make_grid()
    results = []
    grid_lines = [f"grid.window_ns = {_fmt(grid.window * 1e9)}", f"grid.df_mhz = {_fmt(grid.df / 1e6)}"]
    sections = [("grid", grid_lines)]
    for entry in cfg.media():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GridAdequacyWarning)
            out = send(entry.params)
        notes = [str(w.message) for w in caught if issubclass(w.category, GridAdequacyWarning)]
        result, extras = row(entry, out)
        del out  # free this medium's arrays before the next transmission
        results.append(result)
        sections.append((entry.label, _medium_lines(entry, notes, extras)))
    _write_sidecar(out_dir / f"{stem}_params.txt", cfg, verb, sections)
    return results


def run_propagate(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit the transmitted time-domain envelope around the pulse for each medium.

    The envelope is written with its imaginary part, ``amp_im``, the round-off
    of a complex transform pair whose bits that column keeps; so this runner
    keeps a complex pair of its own, the package's only one.  It runs in
    numpy's bin order (DC, the positive detunings, then the negative ones),
    which needs no shift: the full H is the half-band H followed by its
    conjugate mirror, H(-nu) = conj H(nu).
    """
    pulse = normalize(cfg.make_pulse(cfg.make_grid()))
    grid = pulse.grid
    scale, mid = grid.n * grid.dt, grid.n // 2

    def energy(amp):
        power = np.abs(amp)
        power *= power
        return float(grid.df * np.sum(power))

    spec_in = pulse.amp.astype(np.complex128)  # cast first: a float64 input takes another FFT, with other round-off
    np.fft.ifft(spec_in, out=spec_in)  # ifft's kernel is exp(+2*pi*i*nu*t)
    spec_in *= scale
    energy_in = energy(spec_in)

    def send(m):
        # allocated before transfer_function's temporaries: allocated after them, it raised the peak RSS of a
        # default propagate run from 90.7 to 96.9 MB (the allocator reuses memory differently)
        h = np.empty(grid.n, dtype=np.complex128)
        half = transfer_function(grid, m).amp
        h[:mid] = half[:mid]
        np.conj(half[:0:-1], out=h[mid:])  # -Nyquist .. -df
        del half
        np.multiply(spec_in, h, out=h)
        t_e = energy(h) / energy_in
        np.fft.fft(h, out=h)
        h /= scale
        _warn_line_sampling(grid, m)
        _warn_window_edges(h.real)
        return TemporalField(grid, h), t_e

    t = grid.t
    center = t[int(np.argmax(np.abs(pulse.amp)))]
    sel = (t >= center + cfg.scan_delay_min_ps * 1e-12) & (t <= center + cfg.scan_delay_max_ps * 1e-12)
    t_ps = (t[sel] - center) * 1e12
    area_in = abs(pulse_area(pulse))

    def row(entry, out):
        field, t_e = out
        extras = {"transmission": t_e, "area_ratio": abs(pulse_area(field)) / area_in}
        a = field.amp[sel]
        path = out_dir / f"propagated_{entry.label}.csv"
        header = _header_lines(cfg, "propagate", {"medium.label": entry.label, **extras})
        _write_csv(path, header, ["t_ps", "amp_abs", "amp_re", "amp_im"], [t_ps, np.abs(a), a.real, a.imag])
        return path, extras

    return _each_medium(cfg, out_dir, "propagate", "propagate", send, row)


def _input_lo(cfg: ScenarioConfig):
    """The unit-energy input pulse's half spectrum: the signal sent through each medium, and the LO of the
    delay scans and of depth-scan's unshaped search."""
    return to_spectrum(normalize(cfg.make_pulse(cfg.make_grid())))


def run_xcorr(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit the classical fringe-visibility delay scan for each medium."""
    spec_in = _input_lo(cfg)
    delays = _check_delays(spec_in.grid, cfg.delays())

    def row(entry, out):
        overlaps = delay_overlaps(spec_in, out.spectrum, delays) / _norm(out.spectrum)
        curve = _visibility_scan(overlaps, delays)
        columns = [curve.xs * 1e12, curve.ys, curve.peak_normalized().ys]
        path = out_dir / f"xcorr_{entry.label}.csv"
        header = _header_lines(cfg, "xcorr", {"medium.label": entry.label})
        _write_csv(path, header, ["delay_ps", "visibility", "visibility_norm"], columns)
        return path, {}

    return _each_medium(cfg, out_dir, "xcorr", "xcorr", partial(transmit, spec_in), row)


def run_eta_scan(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit the homodyne efficiency delay scan (un-modulated LO) per medium."""
    spec_in = _input_lo(cfg)
    delays = _check_delays(spec_in.grid, cfg.delays())

    def row(entry, out):
        overlaps = delay_overlaps(spec_in, out.spectrum, delays) / _norm(out.spectrum)
        curve = _eta_scan(out, overlaps, entry.params, cfg.detection_eta_base, delays)
        clamped = curve.ys < LOG_FLOOR
        log_eta = np.log10(np.maximum(curve.ys, LOG_FLOOR))
        extras = {"transmission": curve.meta["transmission"]}
        path = out_dir / f"eta_scan_{entry.label}.csv"
        header = _header_lines(cfg, "eta-scan", {"medium.label": entry.label, **extras})
        columns = [curve.xs * 1e12, curve.ys, log_eta, clamped]
        _write_csv(path, header, ["delay_ps", "eta", "log10_eta", "log_clamped"], columns)
        return path, extras

    return _each_medium(cfg, out_dir, "eta-scan", "eta_scan", partial(transmit, spec_in), row)


def run_efficiency_vs_depth(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit peak efficiency per medium, with and without LO shaping."""
    shaper_cfg = cfg.shaper_config()
    spec_in = _input_lo(cfg)
    eta_base = cfg.detection_eta_base

    def row(entry, out):
        unshaped, shaped = _efficiencies(out, spec_in, eta_base, shaper_cfg)
        t_e = out.transmission
        extras = {"eta_unshaped": unshaped, "eta_shaped": shaped, "transmission": t_e}
        return (entry.label, entry.params.depth, entry.params.t2 * 1e12, unshaped, shaped, t_e), extras

    rows = _each_medium(cfg, out_dir, "depth-scan", "efficiency_vs_depth", partial(transmit, spec_in), row)
    path = out_dir / "efficiency_vs_depth.csv"
    names = ["preset", "depth", "t2_ps", "eta_unshaped", "eta_shaped", "transmission"]
    _write_csv(path, _header_lines(cfg, "depth-scan"), names, zip(*rows))
    return [path]


def _mixture_eta(cfg: ScenarioConfig) -> float:
    """The single-photon fraction of the mixture: ``wigner.eta``, else ``detection.eta_base``."""
    return cfg.detection_eta_base if cfg.wigner_eta is None else cfg.wigner_eta


def run_wigner(cfg: ScenarioConfig, out_dir: Path, from_samples: bool = False) -> list[Path]:
    """Emit a Wigner map and scalar summary for the measured mixture.

    With ``from_samples`` the single-photon fraction is first re-estimated
    from synthetic quadrature data, exercising the full tomography chain.
    """
    eta_true = _mixture_eta(cfg)
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

    n = cfg.wigner_n_side
    axis = np.linspace(-cfg.wigner_half_width, cfg.wigner_half_width, n)
    grid_vals = wigner_grid(state, cfg.wigner_half_width, n)
    path = out_dir / "wigner_grid.csv"
    columns = [np.repeat(axis, n), np.tile(axis, n), grid_vals.ravel()]  # row i * n + j is (x_i, p_j)
    _write_csv(path, _header_lines(cfg, "wigner", extra), ["x", "p", "w"], columns)

    w00 = wigner(state, 0.0, 0.0)
    summary += [
        f"rendered_eta = {_fmt(state.eta)}",
        f"w_origin = {_fmt(w00)}",
        f"nonclassical = {_fmt(is_nonclassical(state))}",
    ]
    summary_path = out_dir / "wigner_summary.txt"
    _write_sidecar(summary_path, cfg, "wigner", [("summary", summary)])
    return [path, summary_path]


def run_sample(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit synthetic quadrature samples, one value per line."""
    eta_val = _mixture_eta(cfg)
    sample = sample_quadratures(HeraldedState(eta_val), cfg.sampling_n_samples, cfg.sampling_seed)
    path = out_dir / "quadrature_samples.txt"
    header = (
        f"# vacuum_variance = {_fmt(sample.meta['vacuum_variance'])}, "
        f"eta = {_fmt(eta_val)}, seed = {cfg.sampling_seed}, n = {cfg.sampling_n_samples}\n"
    )
    body = "%.12g\n" * sample.values.size % tuple(sample.values.tolist())
    path.write_text(header + body, encoding="utf-8", newline="\n")
    return [path]
