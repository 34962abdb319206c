"""Scenario configuration: flat ``section.key = value`` text files.

Unset keys fall back to the reference scenario: a 100 fs pulse at 780 nm on
a 2^19 x 10 fs grid, the five vapor-cell presets, a 0.6 nm shaper, and a
base detection efficiency of 0.62.  ``#`` starts a comment.  Parse errors
carry the line number; validation errors name the offending key.
"""

from __future__ import annotations

from dataclasses import dataclass, fields as dataclass_fields, replace

import numpy as np

from .fields import Grid, TemporalField, _check_pulse, gaussian_pulse, make_grid
from .medium import MediumParams, MediumPreset, _check_line, temperature_presets
from .modes import _check_delays, _check_eta_base
from .quantum import HeraldedState, _check_sampling, _check_wigner_axis
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
        return _media(self)

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
        for key in sorted(_PARSERS):
            val = getattr(self, key.replace(".", "_"))
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


def _media(cfg: ScenarioConfig) -> list[MediumPreset]:
    """The custom medium of medium.depth and medium.t2_ps, or the presets medium.preset names."""
    if (cfg.medium_depth is None) != (cfg.medium_t2_ps is None):
        raise ValueError("medium.depth and medium.t2_ps must be set together")
    if cfg.medium_depth is not None:
        return [MediumPreset("custom", None, MediumParams(depth=cfg.medium_depth, t2=cfg.medium_t2_ps * 1e-12))]
    presets = temperature_presets()
    if cfg.medium_preset.strip().lower() == "all":
        return presets
    picked = [int(tok) - 1 for tok in cfg.medium_preset.split(",")]
    if not set(picked) <= set(range(len(presets))):
        raise ValueError(f"preset indices must be 1..{len(presets)}, got {cfg.medium_preset!r}")
    if len(set(picked)) < len(picked):
        raise ValueError("a preset is listed twice")
    return [presets[i] for i in picked]


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


# "section.key" -> parser, from the field section_key and its annotation
_BY_TYPE = {"int": int, "float": float, "str": str, "bool": _parse_bool, "float | None": _parse_opt_float}
_PARSERS = {f.name.replace("_", ".", 1): _BY_TYPE[f.type] for f in dataclass_fields(ScenarioConfig)}


def _assign(cfg: ScenarioConfig, lines, overrides: bool = False) -> ScenarioConfig:
    """``cfg`` with ``section.key = value`` lines applied, not validated; an override may not be blank."""
    updates = {}
    for lineno, line in enumerate(lines, start=1):
        body = line.split("#", 1)[0].strip()
        if not body and overrides:
            raise ConfigError(f"empty override {line!r}")
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {line.rstrip()!r}")
        key, _, raw = body.partition("=")
        key = key.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        try:
            updates[key.replace(".", "_")] = _PARSERS[key](raw.strip())
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"line {lineno}: invalid value for {key!r}: {exc}") from exc
    return replace(cfg, **updates)


def parse_config_text(text: str) -> ScenarioConfig:
    return validate(_assign(ScenarioConfig(), text.splitlines()))


def load_config(path) -> ScenarioConfig:
    """Read and validate a scenario file; missing file raises OSError."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def apply_overrides(cfg: ScenarioConfig, assignments: list[str]) -> ScenarioConfig:
    """Apply ``section.key=value`` strings on top of an existing config."""
    return validate(_assign(cfg, assignments, overrides=True))


def _check_delay_steps(steps: int) -> None:
    if steps < 2:
        raise ValueError(f"must be >= 2, got {steps}")


# (key, check) in order: a check applies the rules of the object its key feeds,
# and its ValueError is reported under that key.  A rule over several keys is
# reported by the first row that sees it: a row holds later keys at accepted values.
_CHECKS = (
    ("grid.n", lambda c: make_grid(c.grid_n, 1.0)),
    ("grid.dt_fs", lambda c: c.make_grid()),
    ("pulse.fwhm_fs", lambda c: _check_pulse(c.make_grid(), c.pulse_fwhm_fs * 1e-15)),
    (
        "pulse.detuning_ghz",
        lambda c: _check_pulse(c.make_grid(), c.pulse_fwhm_fs * 1e-15, c.pulse_detuning_ghz * 1e9),
    ),
    (
        "medium.depth",
        lambda c: _media(replace(c, medium_t2_ps=None if c.medium_t2_ps is None else 1.0, medium_preset="all")),
    ),
    ("medium.t2_ps", lambda c: [_check_line(c.make_grid(), p.params) for p in _media(replace(c, medium_preset="all"))]),
    ("medium.preset", _media),
    ("shaper.resolution_nm", lambda c: replace(c, shaper_span_nm=None, shaper_pixel_nm=None).shaper_config()),
    ("shaper.span_nm", lambda c: replace(c, shaper_pixel_nm=None).shaper_config()),
    ("shaper.pixel_nm", lambda c: c.shaper_config()),
    ("detection.eta_base", lambda c: _check_eta_base(c.detection_eta_base)),
    ("scan.delay_max_ps", lambda c: _check_delays(c.make_grid(), [c.scan_delay_max_ps * 1e-12])),
    ("scan.delay_min_ps", lambda c: _check_delays(c.make_grid(), replace(c, scan_delay_steps=2).delays())),
    ("scan.delay_steps", lambda c: _check_delay_steps(c.scan_delay_steps)),
    ("sampling.n_samples", lambda c: _check_sampling(c.sampling_n_samples)),
    ("sampling.seed", lambda c: _check_sampling(c.sampling_n_samples, c.sampling_seed)),
    ("wigner.half_width", lambda c: _check_wigner_axis(c.wigner_half_width, 2)),
    ("wigner.n_side", lambda c: _check_wigner_axis(c.wigner_half_width, c.wigner_n_side)),
    ("wigner.eta", lambda c: c.wigner_eta is None or HeraldedState(c.wigner_eta)),
)


def validate(cfg: ScenarioConfig) -> ScenarioConfig:
    """Return ``cfg`` if each key holds a value its rules accept; else raise ConfigError naming the key."""
    for key in sorted(_PARSERS):
        val = getattr(cfg, key.replace(".", "_"))
        if isinstance(val, float) and not np.isfinite(val):
            raise ConfigError(f"invalid {key!r}: must be finite, got {val}")
    for key, check in _CHECKS:
        try:
            check(cfg)
        except ValueError as exc:
            raise ConfigError(f"invalid {key!r}: {exc}") from exc
    return cfg
