"""Linear response of a dense two-level medium with a single Lorentzian line.

The medium multiplies the field spectrum by

    H(nu) = exp[ -depth / (1 - i * 2*pi*(nu - nu_a) * T2) ]

where ``depth`` is the resonant optical depth (absorption coefficient times
path length), ``nu_a`` the resonance detuning from the pulse carrier and
``T2`` the effective coherence lifetime setting the linewidth (Doppler
broadening is absorbed into T2).  At exact resonance H = exp(-depth), so the
complex pulse area of a resonantly carried pulse decays by exp(-depth) per
pass while, for a line much narrower than the pulse bandwidth, almost no
energy is absorbed.  The reshaped output develops the sign-alternating
free-induction lobes characteristic of zero-area pulses.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .fields import (
    Grid,
    GridAdequacyWarning,
    SpectralField,
    TemporalField,
    normalize,
    to_time,
)

__all__ = [
    "MediumParams",
    "MediumPreset",
    "Transmitted",
    "transfer_function",
    "transmit",
    "propagate",
    "energy_transmission",
    "temperature_presets",
]

# Fewer frequency samples than this across the Lorentzian FWHM triggers a
# sampling warning; so does relative field amplitude above this level at the
# window edges (wrap-around risk).
MIN_SAMPLES_PER_LINE = 8.0
EDGE_AMPLITUDE_LIMIT = 1e-6

# Note: depths above ~700 underflow exp(-depth) to zero at the resonance bin
# in double precision.  The physical amplitude there is unmeasurably small,
# so the filter is used as-is.


@dataclass(frozen=True)
class MediumParams:
    """Optical depth, coherence lifetime T2 (s), and resonance detuning (Hz)."""

    depth: float
    t2: float
    detune_a: float = 0.0

    def __post_init__(self) -> None:
        if not (self.depth >= 0.0) or not np.isfinite(self.depth):
            raise ValueError(f"optical depth must be >= 0, got {self.depth!r}")
        if not (self.t2 > 0.0) or not np.isfinite(self.t2):
            raise ValueError(f"T2 must be positive, got {self.t2!r}")
        if not np.isfinite(self.detune_a):
            raise ValueError(f"resonance detuning must be finite, got {self.detune_a!r}")

    @property
    def line_fwhm(self) -> float:
        """Lorentzian absorption linewidth (FWHM) in Hz, 1/(pi*T2)."""
        return 1.0 / (np.pi * self.t2)


class MediumPreset(NamedTuple):
    label: str
    temperature_c: float | None
    params: MediumParams


@dataclass(frozen=True)
class Transmitted:
    """F*H for one medium and its envelope; on first use, the spectrum of the
    unit-energy output mode (by Parseval) and the energy transmission T_E."""

    spectrum: SpectralField
    field: TemporalField
    input_energy: float

    @cached_property
    def mode(self) -> SpectralField:
        return normalize(self.spectrum)

    @cached_property
    def transmission(self) -> float:
        if self.input_energy <= 0.0:
            raise ValueError("energy transmission of a zero-energy field is undefined")
        return self.spectrum.energy / self.input_energy


def transfer_function(grid: Grid, m: MediumParams) -> SpectralField:
    """Sample H(nu) = exp[-depth / (1 - i 2 pi (nu - nu_a) T2)] on the grid.

    |H| <= 1 everywhere (passive medium) and H(nu_a) = exp(-depth) exactly.
    """
    if abs(m.detune_a) >= grid.nyquist:
        raise ValueError(
            f"resonance detuning {m.detune_a!r} Hz lies outside the grid span "
            f"(+-{grid.nyquist} Hz)"
        )
    x = 2.0 * np.pi * (grid.freqs - m.detune_a) * m.t2
    return SpectralField(grid, np.exp(-m.depth / (1.0 - 1j * x)))


def _warn_grid_adequacy(field: TemporalField, m: MediumParams) -> None:
    grid = field.grid
    samples = m.line_fwhm / grid.df
    if samples < MIN_SAMPLES_PER_LINE:
        warnings.warn(
            f"only {samples:.1f} frequency samples span the {m.line_fwhm / 1e9:.3f} GHz "
            f"line FWHM (want >= {MIN_SAMPLES_PER_LINE:.0f}); refine df",
            GridAdequacyWarning,
            stacklevel=3,
        )
    amp_t = np.abs(field.amp)
    peak = amp_t.max()
    if peak > 0.0:
        edge = max(amp_t[0], amp_t[-1]) / peak
        if edge > EDGE_AMPLITUDE_LIMIT:
            warnings.warn(
                f"field amplitude at the window edges is {edge:.2e} of peak "
                f"(> {EDGE_AMPLITUDE_LIMIT:.0e}); the response wraps around the window",
                GridAdequacyWarning,
                stacklevel=3,
            )


def transmit(F: SpectralField, m: MediumParams) -> Transmitted:
    """Send a spectral field through the medium: one H(nu), one inverse FFT.

    Emits a :class:`GridAdequacyWarning` when the line is under-sampled or
    the output field has not decayed at the window edges.
    """
    h = transfer_function(F.grid, m)
    spectrum = SpectralField(F.grid, F.amp * h.amp)
    field = to_time(spectrum)
    _warn_grid_adequacy(field, m)
    return Transmitted(spectrum, field, F.energy)


def propagate(F: SpectralField, m: MediumParams) -> SpectralField:
    """Apply the medium transfer function to a spectral field (see :func:`transmit`)."""
    return transmit(F, m).spectrum


def energy_transmission(F: SpectralField, m: MediumParams) -> float:
    """Transmitted energy fraction, sum |H F|^2 / sum |F|^2, in [0, 1]."""
    h = transfer_function(F.grid, m)
    w = np.abs(F.amp) ** 2
    total = float(np.sum(w))
    if total <= 0.0:
        raise ValueError("energy transmission of a zero-energy field is undefined")
    return float(np.sum(np.abs(h.amp) ** 2 * w) / total)


def temperature_presets() -> list[MediumPreset]:
    """Five vapor-cell operating points of increasing optical depth.

    Depths are {70, 180, 440, 1000, 2200}; T2 is interpolated linearly from
    280 ps down to 260 ps across the list.  Cell temperatures are attached
    only to the two hottest points (100 and 115 C), the only ones with a
    known calibration.
    """
    depths = (70.0, 180.0, 440.0, 1000.0, 2200.0)
    temps: tuple[float | None, ...] = (None, None, None, 100.0, 115.0)
    presets = []
    for i, (depth, temp) in enumerate(zip(depths, temps)):
        t2 = 280e-12 + (260e-12 - 280e-12) * i / (len(depths) - 1)
        presets.append(
            MediumPreset(f"preset{i + 1}", temp, MediumParams(depth=depth, t2=t2))
        )
    return presets
