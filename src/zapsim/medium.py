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
nu >= 0 bins of a half spectrum (:mod:`zapsim.fields`) alone, and
:func:`transmit` samples it only on the input's band, the K bins up to the
last whose modulus exceeds 1e-12 of the input spectrum's peak
(``SpectralField.band``): the transmitted spectrum F*H is a prefix of K
bins.  As |H| <= 1, the bins it drops would move the transmitted field by
at most 2 * df * sum |F| over them; the default 100 fs pulse's closed-form
spectrum holds 133,344 bins, K = 103,288 of them.  That bound is set by
the input, so a medium that keeps less than half of the input's energy on
the band is sent through on every bin the input holds
(``MIN_BAND_TRANSMISSION``).  The DFT makes the response periodic in the
window n*dt; :func:`_wrap_error` bounds its tail's effect in closed form.
"""

from __future__ import annotations

import math
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

# A medium whose tail beyond the window can move eta or T_E by more than this warns (:func:`_wrap_error`).
WRAP_ERROR_LIMIT = 1e-9
# The least energy transmission on the input's band at which transmit drops the bins above it.  The bins'
# bound on the field is set by the input; a weaker output reads it as a larger fraction of its own peak.
MIN_BAND_TRANSMISSION = 0.5
# max sqrt(x) |J1(x)| (0.8250309, at x ~ 2.166), rounded up: with |2 J1(x) / x| <= 1, it bounds the response's J1
_J1_ENVELOPE = 0.825031

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


class MediumPreset(NamedTuple):
    label: str
    temperature_c: float | None
    params: MediumParams


@dataclass(frozen=True)
class Transmitted:
    """F*H for one medium; on first use, its envelope (:func:`fields.to_time`
    of F*H) and the energy transmission T_E.  The unit-energy output mode's
    spectrum is :func:`fields.normalize` of ``spectrum`` (by Parseval).

    A consumer that reads only the spectrum (a best-delay search, the shaper)
    makes no inverse FFT, and :func:`transmit`'s grid check reads none.
    """

    spectrum: SpectralField
    input_energy: float

    @cached_property
    def field(self) -> TemporalField:
        return to_time(self.spectrum)

    @cached_property
    def transmission(self) -> float:
        if self.input_energy <= 0.0:
            raise ValueError("energy transmission of a zero-energy field is undefined")
        return self.spectrum.energy / self.input_energy


def _check_line(grid: Grid, m: MediumParams) -> None:
    """The rule of :func:`transfer_function`, checked without sampling H; Python floats overflow without a warning."""
    if not np.isfinite(2.0 * np.pi * grid.nyquist * float(m.t2)):
        raise ValueError(f"T2 {m.t2!r} s is too long for the grid: 2*pi*nyquist*T2 overflows")


def transfer_function(grid: Grid, m: MediumParams, bins: int | None = None) -> SpectralField:
    """Sample H(nu) = exp[-depth / (1 - i 2 pi nu T2)] on the half spectrum's bins, ``Grid.half_freqs``, or on
    its first ``bins`` of them (a prefix, :class:`fields.SpectralField`), each to the same bits.

    |H| <= 1 everywhere (passive medium) and H(0) = exp(-depth) exactly.
    """
    _check_line(grid, m)
    freqs = grid.half_freqs[:bins]
    z = np.empty(freqs.size, dtype=np.complex128)  # H from 1 - i*2*pi*nu*T2 in place
    z.real = 1.0
    np.multiply(2.0 * np.pi, freqs, out=z.imag)
    z.imag *= m.t2
    np.subtract(0.0, z.imag, out=z.imag)  # 0 - x, as the complex 1 - i*x has it: +0.0 at DC, not -0.0
    np.divide(-m.depth, z, out=z)
    return SpectralField(grid, np.exp(z, out=z), prefix=bins is not None)


def _wrap_error(grid: Grid, m: MediumParams, area: float, energy: float) -> float:
    """A closed-form bound on how far the medium's tail beyond one window can move eta (at eta_base = 1) or T_E
    of an input of pulse area ``area`` and energy ``energy``; warns once when it exceeds ``WRAP_ERROR_LIMIT``.

    The impulse response is h = delta - k, k(s) = a exp(-s/T2) 2 J1(x)/x, with a = depth/T2 and x = 2 sqrt(a s)
    (M. D. Crisp, Phys. Rev. A 1, 1604 (1970)).  The DFT transmits the response made periodic in the window
    W = n dt, so near the pulse the field carries -F(0) sum_{j>=1} k(jW + u), F(0) the input's area.  |k| is at
    most a exp(-s/T2) min(1, 2C x^(-3/2)), C = max sqrt(x) |J1(x)|, which falls at least as fast as exp(-s/T2),
    so the images sum to at most its value at W over 1 - exp(-W/T2).  A unit-energy LO sees that near-constant
    offset through its own area, F(0)/sqrt(E_F) for the input LO, and |<lo|out>|^2 doubles it.  The F(0) form
    assumes a nonnegative input envelope, whose area equals its L1 norm; every CLI input is one.
    """
    if m.depth == 0.0 or area == 0.0:
        return 0.0
    decay = grid.window / m.t2
    x = 2.0 * math.sqrt(m.depth * decay)
    bessel = 2.0 * _J1_ENVELOPE / max(x**1.5, 2.0 * _J1_ENVELOPE)  # min(1, 2C x^(-3/2))
    tail = m.depth * math.exp(-decay) / m.t2 * bessel / -math.expm1(-decay)
    error = 2.0 * area * area / energy * tail
    if error > WRAP_ERROR_LIMIT:
        warnings.warn(
            f"the medium's tail beyond the window can move eta or T_E by up to {error:.2e} "
            f"(> {WRAP_ERROR_LIMIT:.0e}); widen the window n*dt",
            GridAdequacyWarning,
            stacklevel=3,
        )
    return error


def _transmitted(F: SpectralField, m: MediumParams) -> Transmitted:
    """F*H on the input's band, formed in the array of a fresh H: the product that :func:`transmit` and
    :func:`energy_transmission` read.  A medium that keeps less than ``MIN_BAND_TRANSMISSION`` of the input's
    energy on the band gets F*H on every bin instead."""
    input_energy = F.energy  # summed before the output arrays exist
    h = transfer_function(F.grid, m, bins=F.band).amp
    out = SpectralField(F.grid, np.multiply(F.amp[: h.size], h, out=h), prefix=True)
    if h.size < F.amp.size and out.energy < MIN_BAND_TRANSMISSION * input_energy:
        del out, h
        h = transfer_function(F.grid, m, bins=F.amp.size).amp
        out = SpectralField(F.grid, np.multiply(F.amp, h, out=h), prefix=True)
    return Transmitted(out, input_energy)


def transmit(F: SpectralField, m: MediumParams) -> Transmitted:
    """Send a half spectrum through the medium: one H(nu) on the K bins of its band (``SpectralField.band``,
    computed once per input) and F*H in place, a prefix of K bins.  The bins above are 0, which moves the
    transmitted field by at most 2 * df * sum |F| over them, as |H| <= 1; a medium that keeps less than
    ``MIN_BAND_TRANSMISSION`` of the input's energy on the band gets F*H on all of its bins.

    The real output field is transformed only when it is read
    (:class:`Transmitted`); no check builds it.  Emits a
    :class:`GridAdequacyWarning` when the medium's tail beyond the window can
    move eta or T_E by more than ``WRAP_ERROR_LIMIT`` (:func:`_wrap_error`).
    """
    out = _transmitted(F, m)
    _wrap_error(F.grid, m, F.amp[0].real, out.input_energy)
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
