"""Scenario configuration: flat ``section.key = value`` text files.

Unset keys fall back to the reference scenario: a 100 fs pulse at 780 nm on
a 2^19 x 10 fs grid, the five vapor-cell presets, a 0.6 nm shaper, and a
base detection efficiency of 0.62.  ``#`` starts a comment.  Parse errors
carry the line number; validation errors name the offending key.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields, replace

import numpy as np

from .fields import Grid, TemporalField, gaussian_pulse, make_grid
from .medium import MediumParams, MediumPreset, temperature_presets
from .shaper import ShaperConfig

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "parse_config_text", "apply_overrides"]


class ConfigError(ValueError):
    """Invalid configuration file, key, or value."""


@dataclass(frozen=True)
class ScenarioConfig:
    grid_n: int = 2**19
    grid_dt_fs: float = 10.0
    pulse_fwhm_fs: float = 100.0
    pulse_detuning_ghz: float = 0.0
    medium_preset: str = "all"
    medium_depth: float | None = None
    medium_t2_ps: float | None = None
    shaper_resolution_nm: float = 0.6
    shaper_pixel_nm: float | None = None
    shaper_span_nm: float | None = 60.0
    shaper_enabled: bool = True
    detection_eta_base: float = 0.62
    scan_delay_min_ps: float = -1.0
    scan_delay_max_ps: float = 8.0
    scan_delay_steps: int = 451
    sampling_n_samples: int = 100000
    sampling_seed: int = 12345
    wigner_half_width: float = 4.0
    wigner_n_side: int = 121
    wigner_eta: float | None = None
    output_directory: str = "out"

    # -- derived builders ------------------------------------------------

    def make_grid(self) -> Grid:
        return make_grid(self.grid_n, self.grid_dt_fs * 1e-15)

    def make_pulse(self, grid: Grid) -> TemporalField:
        return gaussian_pulse(
            grid,
            self.pulse_fwhm_fs * 1e-15,
            detuning=self.pulse_detuning_ghz * 1e9,
        )

    def media(self) -> list[MediumPreset]:
        if self.medium_depth is not None:
            params = MediumParams(depth=self.medium_depth, t2=self.medium_t2_ps * 1e-12)
            return [MediumPreset("custom", None, params)]
        presets = temperature_presets()
        if self.medium_preset.strip().lower() == "all":
            return presets
        picked = []
        for tok in self.medium_preset.split(","):
            picked.append(presets[int(tok) - 1])
        return picked

    def shaper_config(self) -> ShaperConfig:
        return ShaperConfig(
            resolution_fwhm=self.shaper_resolution_nm * 1e-9,
            pixel_width=None if self.shaper_pixel_nm is None else self.shaper_pixel_nm * 1e-9,
            span=None if self.shaper_span_nm is None else self.shaper_span_nm * 1e-9,
        )

    def delays(self) -> np.ndarray:
        return np.linspace(
            self.scan_delay_min_ps * 1e-12,
            self.scan_delay_max_ps * 1e-12,
            self.scan_delay_steps,
        )

    def to_lines(self) -> list[str]:
        """Deterministic ``section.key = value`` echo of the full config."""
        out = []
        for key in sorted(_KEY_TO_FIELD):
            val = getattr(self, _KEY_TO_FIELD[key])
            if val is None:
                rendered = "none"
            elif isinstance(val, bool):
                rendered = "true" if val else "false"
            elif isinstance(val, float):
                rendered = f"{val:.12g}"
            else:
                rendered = str(val)
            out.append(f"{key} = {rendered}")
        return out


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_opt_float(text: str) -> float | None:
    low = text.strip().lower()
    if low in ("", "none", "off"):
        return None
    return float(text)


_PARSERS = {
    "grid.n": int,
    "grid.dt_fs": float,
    "pulse.fwhm_fs": float,
    "pulse.detuning_ghz": float,
    "medium.preset": str,
    "medium.depth": _parse_opt_float,
    "medium.t2_ps": _parse_opt_float,
    "shaper.resolution_nm": float,
    "shaper.pixel_nm": _parse_opt_float,
    "shaper.span_nm": _parse_opt_float,
    "shaper.enabled": _parse_bool,
    "detection.eta_base": float,
    "scan.delay_min_ps": float,
    "scan.delay_max_ps": float,
    "scan.delay_steps": int,
    "sampling.n_samples": int,
    "sampling.seed": int,
    "wigner.half_width": float,
    "wigner.n_side": int,
    "wigner.eta": _parse_opt_float,
    "output.directory": str,
}

_KEY_TO_FIELD = {key: key.replace(".", "_") for key in _PARSERS}
assert set(_KEY_TO_FIELD.values()) == {f.name for f in dataclass_fields(ScenarioConfig)}


def _parse_line(line: str, lineno: int) -> tuple[str, object] | None:
    body = line.split("#", 1)[0].strip()
    if not body:
        return None
    if "=" not in body:
        raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line.rstrip()!r}")
    key, _, raw = body.partition("=")
    key = key.strip()
    raw = raw.strip()
    if key not in _PARSERS:
        raise ConfigError(f"line {lineno}: unknown key {key!r}")
    try:
        value = _PARSERS[key](raw)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"line {lineno}: invalid value for {key!r}: {exc}") from exc
    return key, value


def parse_config_text(text: str) -> ScenarioConfig:
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        parsed = _parse_line(line, lineno)
        if parsed is not None:
            key, value = parsed
            updates[_KEY_TO_FIELD[key]] = value
    cfg = replace(ScenarioConfig(), **updates)
    validate(cfg)
    return cfg


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario file; missing file raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return parse_config_text(text)


def apply_overrides(cfg: ScenarioConfig, assignments: list[str]) -> ScenarioConfig:
    """Apply ``section.key=value`` strings on top of an existing config."""
    updates = {}
    for i, item in enumerate(assignments, start=1):
        parsed = _parse_line(item, i)
        if parsed is None:
            raise ConfigError(f"empty override {item!r}")
        key, value = parsed
        updates[_KEY_TO_FIELD[key]] = value
    out = replace(cfg, **updates)
    validate(out)
    return out


def _fail(key: str, why: str):
    raise ConfigError(f"invalid {key!r}: {why}")


def validate(cfg: ScenarioConfig) -> None:
    for key in sorted(_KEY_TO_FIELD):
        val = getattr(cfg, _KEY_TO_FIELD[key])
        if isinstance(val, float) and not np.isfinite(val):
            _fail(key, f"must be finite, got {val}")
    n = cfg.grid_n
    if n < 2 or (n & (n - 1)) != 0:
        _fail("grid.n", f"must be a power of two >= 2, got {n}")
    if not cfg.grid_dt_fs > 0:
        _fail("grid.dt_fs", f"must be positive, got {cfg.grid_dt_fs}")
    window_s = n * cfg.grid_dt_fs * 1e-15
    if not 0 < cfg.pulse_fwhm_fs * 1e-15 < window_s:
        _fail("pulse.fwhm_fs", f"pulse must fit the {window_s:.3e} s window")
    if abs(cfg.pulse_detuning_ghz * 1e9) >= 0.5 / (cfg.grid_dt_fs * 1e-15):
        _fail("pulse.detuning_ghz", "detuning exceeds the Nyquist limit")

    if (cfg.medium_depth is None) != (cfg.medium_t2_ps is None):
        _fail("medium.depth", "medium.depth and medium.t2_ps must be set together")
    if cfg.medium_depth is not None:
        if cfg.medium_depth < 0:
            _fail("medium.depth", f"must be >= 0, got {cfg.medium_depth}")
        if not cfg.medium_t2_ps > 0:
            _fail("medium.t2_ps", f"must be positive, got {cfg.medium_t2_ps}")
    else:
        spec = cfg.medium_preset.strip().lower()
        if spec != "all":
            tokens = cfg.medium_preset.split(",")
            for tok in tokens:
                try:
                    idx = int(tok)
                except ValueError:
                    _fail("medium.preset", f"expected 'all' or preset indices, got {tok!r}")
                if not 1 <= idx <= 5:
                    _fail("medium.preset", f"preset index must be 1..5, got {idx}")
            if len({int(tok) for tok in tokens}) < len(tokens):
                _fail("medium.preset", "a preset is listed twice")

    if not cfg.shaper_resolution_nm > 0:
        _fail("shaper.resolution_nm", f"must be positive, got {cfg.shaper_resolution_nm}")
    if cfg.shaper_pixel_nm is not None and not cfg.shaper_pixel_nm > 0:
        _fail("shaper.pixel_nm", f"must be positive, got {cfg.shaper_pixel_nm}")
    if cfg.shaper_span_nm is not None and not cfg.shaper_span_nm > cfg.shaper_resolution_nm:
        _fail("shaper.span_nm", "must exceed shaper.resolution_nm")
    if not 0.0 <= cfg.detection_eta_base <= 1.0:
        _fail("detection.eta_base", f"must lie in [0, 1], got {cfg.detection_eta_base}")

    if not cfg.scan_delay_min_ps < cfg.scan_delay_max_ps:
        _fail("scan.delay_min_ps", "scan.delay_min_ps must be below scan.delay_max_ps")
    if cfg.scan_delay_steps < 2:
        _fail("scan.delay_steps", f"must be >= 2, got {cfg.scan_delay_steps}")
    limit_ps = window_s / 4.0 * 1e12
    if abs(cfg.scan_delay_min_ps) > limit_ps or abs(cfg.scan_delay_max_ps) > limit_ps:
        _fail("scan.delay_max_ps", f"delays must stay within +-{limit_ps:.6g} ps (window/4)")

    if cfg.sampling_n_samples < 1:
        _fail("sampling.n_samples", f"must be >= 1, got {cfg.sampling_n_samples}")
    if not cfg.wigner_half_width > 0:
        _fail("wigner.half_width", f"must be positive, got {cfg.wigner_half_width}")
    if cfg.wigner_n_side < 2:
        _fail("wigner.n_side", f"must be >= 2, got {cfg.wigner_n_side}")
    if cfg.wigner_eta is not None and not 0.0 <= cfg.wigner_eta <= 1.0:
        _fail("wigner.eta", f"must lie in [0, 1], got {cfg.wigner_eta}")
