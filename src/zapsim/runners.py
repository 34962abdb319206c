"""Scenario runners: build the pipeline from a config and emit CSV datasets.

Every CSV starts with ``#``-prefixed header lines echoing the resolved
configuration and the file's own values; the sidecars (``<stem>_params.txt``
and the Wigner summary) echo the configuration as plain lines before their
sections.  So a run can be reproduced from any of these outputs.  The
quadrature samples file has a single header line instead,
``# vacuum_variance = ..., eta = ..., seed = ..., n = ...``.  Every
``key = value`` line formats its value by one rule (``_fmt``), and numeric
values carry 12 significant digits.  Each data file is formatted in one
pass: a row template is repeated once per row and filled by a single ``%``
from its columns' values, so no Python call is made per value (the Wigner
map's axis values and distinct W values are formatted once, ``_texts``).
Outputs are byte-identical across reruns with a fixed config and seed.
"""

from __future__ import annotations

import warnings
from pathlib import Path

import numpy as np

from .config import ScenarioConfig
from .fields import GridAdequacyWarning, TemporalField, _norm, normalize, pulse_area, to_spectrum
from .medium import _wrap_error, transfer_function, transmit
from .modes import ScanCurve, _check_delays, _eta, delay_overlaps
from .quantum import (
    VACUUM_VARIANCE,
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


# the conversion of a value by its dtype kind, in a key = value line (_fmt) and in a CSV column alike: a bool or
# int as an integer, a float to 12 significant digits, anything else (a label) as its str
_SPEC = {"b": "%d", "i": "%d", "u": "%d", "f": "%.12g"}


def _fmt(value) -> str:
    return "none" if value is None else _SPEC.get(np.asarray(value).dtype.kind, "%s") % (value,)


def _texts(values: np.ndarray) -> np.ndarray:
    """``_fmt``'s text of each of ``values``, in one ``%`` pass, as an object array of strings."""
    text = (_SPEC.get(values.dtype.kind, "%s") + "\n") * values.size % tuple(values.tolist())
    return np.array(text.split("\n")[:-1], dtype=object)


def _pairs(values: dict) -> list[str]:
    """One ``key = value`` line per entry, in the dict's order."""
    return [f"{key} = {_fmt(value)}" for key, value in values.items()]


def _header_lines(cfg: ScenarioConfig, verb: str, extra: dict | None = None) -> list[str]:
    return [f"zapsim {verb}", *cfg.to_lines(), *_pairs(dict(sorted((extra or {}).items())))]


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


def _each_medium(cfg: ScenarioConfig, out_dir: Path, verb: str, stem: str, row) -> list:
    """``row(entry)`` sends the pulse through one of the config's media once and returns (result, sidecar
    values).  The sidecar ``<stem>_params.txt`` lists each medium's values and the grid-adequacy warnings
    raised anywhere in its row, in the order they were raised.
    """
    grid = cfg.make_grid()
    results = []
    sections = [("grid", _pairs({"grid.window_ns": grid.window * 1e9, "grid.df_mhz": grid.df / 1e6}))]
    for entry in cfg.media():
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GridAdequacyWarning)
            result, extras = row(entry)
        notes = [str(w.message) for w in caught if issubclass(w.category, GridAdequacyWarning)]
        results.append(result)
        values = {"depth": entry.params.depth, "t2_ps": entry.params.t2 * 1e12, "temperature_c": entry.temperature_c}
        lines = _pairs({**values, **dict(sorted(extras.items()))}) + [f"warning = {note}" for note in notes]
        sections.append((entry.label, lines))
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
    peak, area_in = int(np.argmax(np.abs(pulse.amp))), abs(pulse_area(pulse))
    spec_in = pulse.amp.astype(np.complex128)  # cast first: a float64 input takes another FFT, with other round-off
    del pulse

    def energy(amp):
        power = np.abs(amp)
        power *= power
        return float(grid.df * np.sum(power))

    np.fft.ifft(spec_in, out=spec_in)  # ifft's kernel is exp(+2*pi*i*nu*t)
    spec_in *= scale
    energy_in = energy(spec_in)

    center, lo, hi = peak * grid.dt, cfg.scan_delay_min_ps * 1e-12, cfg.scan_delay_max_ps * 1e-12
    k0, k1 = (min(max(int((center + d) // grid.dt) + s, 0), grid.n) for d, s in ((lo, -1), (hi, 2)))
    t = np.arange(k0, k1) * grid.dt  # Grid.t[k0:k1] bit for bit: the window and a sample either side, no full axis
    sel = (t >= center + lo) & (t <= center + hi)
    t_ps = (t[sel] - center) * 1e12

    def row(entry):
        m = entry.params
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
        _wrap_error(grid, m, spec_in[0].real, energy_in)
        extras = {"transmission": t_e, "area_ratio": abs(pulse_area(TemporalField(grid, h))) / area_in}
        a = h[k0:k1][sel]
        path = out_dir / f"propagated_{entry.label}.csv"
        header = _header_lines(cfg, "propagate", {"medium.label": entry.label, **extras})
        _write_csv(path, header, ["t_ps", "amp_abs", "amp_re", "amp_im"], [t_ps, np.abs(a), a.real, a.imag])
        return path, extras

    return _each_medium(cfg, out_dir, "propagate", "propagate", row)


def _input_lo(cfg: ScenarioConfig):
    """The unit-energy input pulse's half spectrum: the signal sent through each medium, and the LO of the
    delay scans and of depth-scan's unshaped search."""
    return to_spectrum(normalize(cfg.make_pulse(cfg.make_grid())))


def _run_scan(cfg: ScenarioConfig, out_dir: Path, verb: str, stem: str, names: list[str], columns) -> list[Path]:
    """Emit ``<stem>_<label>.csv`` per medium: ``delay_ps``, then the columns ``names``.  ``columns(out,
    overlaps, delays)`` returns those columns and the header's per-medium values, from the medium's transmitted
    product and the overlaps of its unit-energy mode with the delayed input LO."""
    spec_in = _input_lo(cfg)
    delays = _check_delays(spec_in.grid, cfg.delays())

    def row(entry):
        out = transmit(spec_in, entry.params)
        overlaps = delay_overlaps(spec_in, out.spectrum, delays) / _norm(out.spectrum)
        cols, extras = columns(out, overlaps, delays)
        path = out_dir / f"{stem}_{entry.label}.csv"
        header = _header_lines(cfg, verb, {"medium.label": entry.label, **extras})
        _write_csv(path, header, ["delay_ps", *names], [delays * 1e12, *cols])
        return path, extras

    return _each_medium(cfg, out_dir, verb, stem, row)


def run_xcorr(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit the classical fringe-visibility delay scan for each medium."""

    def columns(out, overlaps, delays):
        curve = ScanCurve(delays, np.abs(overlaps))
        return [curve.ys, curve.peak_normalized().ys], {}

    return _run_scan(cfg, out_dir, "xcorr", "xcorr", ["visibility", "visibility_norm"], columns)


def run_eta_scan(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit the homodyne efficiency delay scan (un-modulated LO) per medium."""

    def columns(out, overlaps, delays):
        eta = ScanCurve(delays, _eta(cfg.detection_eta_base, out, np.abs(overlaps) ** 2)).ys
        return [eta, np.log10(np.maximum(eta, LOG_FLOOR)), eta < LOG_FLOOR], {"transmission": out.transmission}

    return _run_scan(cfg, out_dir, "eta-scan", "eta_scan", ["eta", "log10_eta", "log_clamped"], columns)


def run_efficiency_vs_depth(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit peak efficiency per medium, with and without LO shaping."""
    shaper_cfg = cfg.shaper_config()
    spec_in = _input_lo(cfg)
    eta_base = cfg.detection_eta_base

    def row(entry):
        out = transmit(spec_in, entry.params)
        unshaped, shaped = _efficiencies(out, spec_in, eta_base, shaper_cfg)
        t_e = out.transmission
        extras = {"eta_unshaped": unshaped, "eta_shaped": shaped, "transmission": t_e}
        return (entry.label, entry.params.depth, entry.params.t2 * 1e12, unshaped, shaped, t_e), extras

    rows = _each_medium(cfg, out_dir, "depth-scan", "efficiency_vs_depth", row)
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
    summary = {"eta": eta_true}
    extra = {"eta": eta_true}
    state = HeraldedState(eta_true)
    if from_samples:
        sample = sample_quadratures(state, cfg.sampling_n_samples, cfg.sampling_seed)
        est = estimate_eta(sample)
        summary.update(eta_hat=est.eta_hat, stderr=est.stderr, clamped=est.clamped)
        summary.update(n_samples=cfg.sampling_n_samples, seed=cfg.sampling_seed)
        extra.update({"eta_hat": est.eta_hat, "from_samples": True})
        state = HeraldedState(est.eta_hat)

    n = cfg.wigner_n_side
    ax = _texts(np.linspace(-cfg.wigner_half_width, cfg.wigner_half_width, n))
    grid_vals = wigner_grid(state, cfg.wigner_half_width, n)
    path = out_dir / "wigner_grid.csv"
    distinct, index = np.unique(grid_vals.ravel().view(np.int64), return_inverse=True)  # by bits: 0.0 is not -0.0
    columns = [np.repeat(ax, n), np.tile(ax, n), _texts(distinct.view(np.float64))[index]]  # row i*n + j: (x_i, p_j)
    _write_csv(path, _header_lines(cfg, "wigner", extra), ["x", "p", "w"], columns)

    summary.update(rendered_eta=state.eta, w_origin=wigner(state, 0.0, 0.0), nonclassical=is_nonclassical(state))
    summary_path = out_dir / "wigner_summary.txt"
    _write_sidecar(summary_path, cfg, "wigner", [("summary", _pairs(summary))])
    return [path, summary_path]


def run_sample(cfg: ScenarioConfig, out_dir: Path) -> list[Path]:
    """Emit synthetic quadrature samples, one value per line."""
    eta_val = _mixture_eta(cfg)
    sample = sample_quadratures(HeraldedState(eta_val), cfg.sampling_n_samples, cfg.sampling_seed)
    path = out_dir / "quadrature_samples.txt"
    values = {"vacuum_variance": VACUUM_VARIANCE, "eta": eta_val}
    header = "# " + ", ".join(_pairs({**values, "seed": cfg.sampling_seed, "n": cfg.sampling_n_samples})) + "\n"
    body = "%.12g\n" * sample.values.size % tuple(sample.values.tolist())
    path.write_text(header + body, encoding="utf-8", newline="\n")
    return [path]
