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

The impulse response is real, so H(-nu) = conj H(nu): H is sampled on the
nu >= 0 bins of a half spectrum (:mod:`zapsim.fields`) alone.
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
    _roundoff,
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
    """F*H for one medium; on first use, its envelope (:func:`fields.to_time`
    of F*H), the spectrum of the unit-energy output mode (by Parseval) and the
    energy transmission T_E.

    A consumer that reads only the spectrum (a best-delay search, the shaper)
    makes no inverse FFT.
    """

    spectrum: SpectralField
    input_energy: float

    @cached_property
    def field(self) -> TemporalField:
        return to_time(self.spectrum)

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


def transfer_function(grid: Grid, m: MediumParams) -> SpectralField:
    """Sample H(nu) = exp[-depth / (1 - i 2 pi nu T2)] on the half spectrum's bins, ``Grid.half_freqs``.

    |H| <= 1 everywhere (passive medium) and H(0) = exp(-depth) exactly.
    """
    _check_line(grid, m)
    z = np.empty(grid.half_freqs.size, dtype=np.complex128)  # H from 1 - i*2*pi*nu*T2 in place
    z.real = 1.0
    np.multiply(2.0 * np.pi, grid.half_freqs, out=z.imag)
    z.imag *= m.t2
    np.subtract(0.0, z.imag, out=z.imag)  # 0 - x, as the complex 1 - i*x has it: +0.0 at DC, not -0.0
    np.divide(-m.depth, z, out=z)
    return SpectralField(grid, np.exp(z, out=z))


def _warn_line_sampling(grid: Grid, m: MediumParams) -> None:
    samples = m.line_fwhm / grid.df
    if samples < MIN_SAMPLES_PER_LINE:
        warnings.warn(
            f"only {samples:.1f} frequency samples span the {m.line_fwhm / 1e9:.3f} GHz "
            f"line FWHM (want >= {MIN_SAMPLES_PER_LINE:.0f}); refine df",
            GridAdequacyWarning,
            stacklevel=3,
        )


def _edges_decayed(S: SpectralField) -> bool:
    """True when no window-edge warning can fire for the field of the half spectrum S, read from S alone.

    The edge samples are sums over the nu >= 0 bins, every bin but DC and Nyquist weighted 2:
    E(0) = df * sum S and E(-dt) = df * sum S * exp(2*pi*i*q/n), the latter as a row-by-column
    contraction of the n/2 bins below Nyquist against two ~sqrt(n/2) phasor vectors (einsum's own
    loop: a BLAS product would start threads), and the peak is at least the RMS sqrt(energy / window)
    (Parseval).  So when both edges, widened by the round-off of either evaluation, stay within
    EDGE_AMPLITUDE_LIMIT of the RMS, :func:`_warn_window_edges` on the built field would be silent.
    """
    grid, amp = S.grid, S.amp
    mid = int(grid.n) // 2
    cols = 1 << (mid.bit_length() // 2)
    rows = mid // cols
    col = np.exp((2j * np.pi / grid.n) * np.arange(cols))
    row = np.exp((2j * np.pi * cols / grid.n) * np.arange(rows))
    dc, nyquist = amp[0].real, amp[mid].real
    at_start = 2.0 * amp[:mid].sum().real - dc + nyquist
    at_end = 2.0 * (np.einsum("rc,c->r", amp[:mid].reshape(rows, cols), col) * row).sum().real - dc - nyquist
    edge = grid.df * max(abs(at_start), abs(at_end))
    slack = _roundoff(grid, S.energy)
    return edge + slack <= EDGE_AMPLITUDE_LIMIT * (np.sqrt(S.energy / grid.window) - slack)


def _warn_window_edges(amp: np.ndarray) -> None:
    """Warn when the real field ``amp`` has not decayed at the window edges."""
    peak = max(amp.max(), -amp.min())
    if peak > 0.0:
        edge = max(abs(amp[0]), abs(amp[-1])) / peak
        if edge > EDGE_AMPLITUDE_LIMIT:
            warnings.warn(
                f"field amplitude at the window edges is {edge:.2e} of peak "
                f"(> {EDGE_AMPLITUDE_LIMIT:.0e}); the response wraps around the window",
                GridAdequacyWarning,
                stacklevel=3,
            )


def _transmitted(F: SpectralField, m: MediumParams) -> Transmitted:
    """F*H, formed in the array of a fresh H: the product that :func:`transmit` and :func:`energy_transmission` read."""
    input_energy = F.energy  # summed before the output arrays exist
    h = transfer_function(F.grid, m).amp
    return Transmitted(SpectralField(F.grid, np.multiply(F.amp, h, out=h)), input_energy)


def transmit(F: SpectralField, m: MediumParams) -> Transmitted:
    """Send a half spectrum through the medium: one H(nu) on its n/2 + 1 bins and F*H in place.

    The real output field is transformed only when it is read
    (:class:`Transmitted`).  Emits a :class:`GridAdequacyWarning` when the
    line is under-sampled or the output field has not decayed at the window
    edges; the edges are first read from the spectrum (:func:`_edges_decayed`),
    and the field is built for the exact check only where that bound cannot
    clear them.
    """
    out = _transmitted(F, m)
    _warn_line_sampling(F.grid, m)
    if not _edges_decayed(out.spectrum):
        _warn_window_edges(out.field.amp)
    return out


def propagate(F: SpectralField, m: MediumParams) -> SpectralField:
    """Apply the medium transfer function to a spectral field (see :func:`transmit`)."""
    return transmit(F, m).spectrum


def energy_transmission(F: SpectralField, m: MediumParams) -> float:
    """Transmitted energy fraction, sum |H F|^2 / sum |F|^2 over the full spectrum, in [0, 1]: the T_E of
    :class:`Transmitted`, equal bit for bit to ``transmit(F, m).transmission`` but without its warnings."""
    return _transmitted(F, m).transmission


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
