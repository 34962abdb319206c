"""Linear response of a dense two-level medium with a single Lorentzian line.

The medium multiplies the field spectrum by

    H(nu) = exp[ -depth / (1 - i * 2*pi*nu * T2) ]

where ``nu`` is the detuning from the line, on which the pulse is carried,
``depth`` the resonant optical depth (absorption coefficient times
path length) and ``T2`` the effective coherence lifetime setting the
linewidth (Doppler broadening is absorbed into T2).  At exact resonance
H = exp(-depth), so the complex pulse area of a resonantly carried pulse
decays by exp(-depth) per pass while, for a line much narrower than the
pulse bandwidth, almost no energy is absorbed.  The reshaped output develops
the sign-alternating free-induction lobes characteristic of zero-area pulses.
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
    _full,
    _spectral_sum,
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
    """Optical depth and coherence lifetime T2 (s) of a line at zero detuning."""

    depth: float
    t2: float

    def __post_init__(self) -> None:
        if not (self.depth >= 0.0) or not np.isfinite(self.depth):
            raise ValueError(f"optical depth must be >= 0, got {self.depth!r}")
        if not (self.t2 > 0.0) or not np.isfinite(self.t2):
            raise ValueError(f"T2 must be positive, got {self.t2!r}")

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


def _check_line(grid: Grid, m: MediumParams) -> None:
    """The rule of :func:`transfer_function`, checked without sampling H; Python floats overflow without a warning."""
    if not np.isfinite(2.0 * np.pi * grid.nyquist * float(m.t2)):
        raise ValueError(f"T2 {m.t2!r} s is too long for the grid: 2*pi*nyquist*T2 overflows")


def transfer_function(grid: Grid, m: MediumParams, half: bool = False) -> SpectralField:
    """Sample H(nu) = exp[-depth / (1 - i 2 pi nu T2)] on the grid.

    |H| <= 1 everywhere (passive medium) and H(0) = exp(-depth) exactly.
    The impulse response is real, so H(-nu) = conj H(nu): H is evaluated once,
    on ``Grid.half_freqs`` (nu >= 0), and returned as that half spectrum with
    ``half`` set, or else mirrored by ``fields._full``.  The mirror is bit-exact,
    as ``Grid.half_freqs`` is bit for bit the mirrored ``Grid.freqs`` and complex / and exp commute with conj.
    """
    _check_line(grid, m)
    # a full-layout H is allocated before the half band's temporaries: allocated after them, it raised
    # the peak RSS of a default propagate run from 90.7 to 96.9 MB (the allocator reuses memory differently)
    h = None if half else np.empty(grid.n, dtype=np.complex128)
    z = 1j * (2.0 * np.pi * grid.half_freqs * m.t2)  # H from i*2*pi*nu*T2 in place
    np.divide(-m.depth, np.subtract(1.0, z, out=z), out=z)
    H = SpectralField(grid, np.exp(z, out=z), half=True)
    return H if half else _full(H, out=h)


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
    amp = field.amp  # no full-grid temporary is held: a complex |E(t)| is read in blocks of 8 KiB
    if np.iscomplexobj(amp):
        peak = max(np.abs(amp[k : k + 1024]).max() for k in range(0, grid.n, 1024))
    else:
        peak = max(amp.max(), -amp.min())
    if peak > 0.0:
        edge = np.abs(amp[[0, -1]]).max() / peak
        if edge > EDGE_AMPLITUDE_LIMIT:
            warnings.warn(
                f"field amplitude at the window edges is {edge:.2e} of peak "
                f"(> {EDGE_AMPLITUDE_LIMIT:.0e}); the response wraps around the window",
                GridAdequacyWarning,
                stacklevel=3,
            )


def transmit(F: SpectralField, m: MediumParams) -> Transmitted:
    """Send a spectral field through the medium: one H(nu) in F's layout, F*H in place, one inverse FFT.

    A half spectrum (the nu >= 0 bins of a real field, see :class:`SpectralField`)
    takes H on those n/2 + 1 bins and one real inverse FFT, and gives a real
    field and a half output spectrum; a full spectrum takes the mirrored H and a
    complex inverse FFT.  Emits a :class:`GridAdequacyWarning` when the line is
    under-sampled or the output field has not decayed at the window edges.
    """
    input_energy = F.energy  # summed before the output arrays exist
    h = transfer_function(F.grid, m, half=F.half).amp
    spectrum = SpectralField(F.grid, np.multiply(F.amp, h, out=h), half=F.half)
    field = to_time(spectrum)
    _warn_grid_adequacy(field, m)
    return Transmitted(spectrum, field, input_energy)


def propagate(F: SpectralField, m: MediumParams) -> SpectralField:
    """Apply the medium transfer function to a spectral field (see :func:`transmit`)."""
    return transmit(F, m).spectrum


def energy_transmission(F: SpectralField, m: MediumParams) -> float:
    """Transmitted energy fraction, sum |H F|^2 / sum |F|^2 over the full spectrum, in [0, 1]; F in either layout."""
    h = transfer_function(F.grid, m, half=F.half)
    w = np.abs(F.amp) ** 2
    total = float(_spectral_sum(F, w))
    if total <= 0.0:
        raise ValueError("energy transmission of a zero-energy field is undefined")
    return float(_spectral_sum(F, np.abs(h.amp) ** 2 * w) / total)


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
