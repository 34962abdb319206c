"""Finite-resolution pulse-shaper model and achievable homodyne efficiency.

A 4-f shaper with a focused spot of finite size cannot imprint spectral
features sharper than its resolution.  That limit is modeled as convolution
of the requested complex spectrum with a unit-area Gaussian kernel whose
wavelength FWHM (default 0.6 nm) converts to frequency as dnu = c*dlam/lam^2.
In the time domain the convolution is a multiplicative Gaussian window of
FWHM 4*ln2/(pi*dnu), a few picoseconds at the default resolution, centered
on the pulse; structure spreading beyond that window is unreachable by the
shaped local oscillator.  An optional pixel width adds a box average of the
spectrum before the resolution smoothing.

The shaper reference frame travels with the pulse, so the window is centered
on the target's peak.  Global delay and phase of the local oscillator are
free experimental parameters and are optimized away before any efficiency is
reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.ndimage import uniform_filter1d
from scipy.optimize import minimize_scalar

from .fields import (
    LN2,
    Grid,
    SpectralField,
    TemporalField,
    to_spectrum,
    to_time,
)
from .medium import MediumParams, SpectralFilter, energy_transmission, propagate
from .modes import _check_normalized, _lattice_overlaps, _spectral_product, _support, normalize

__all__ = [
    "ShaperConfig",
    "resolution_kernel",
    "achievable_lo",
    "max_shaped_eta",
    "max_unshaped_eta",
]

SPEED_OF_LIGHT = 299792458.0

@dataclass(frozen=True)
class ShaperConfig:
    """Spectral resolution and aperture of the local-oscillator shaper.

    All widths are in meters of wavelength at ``center_wavelength``.
    ``pixel_width`` of None selects the continuous-mask model; ``span``
    of None disables the aperture cut.
    """

    resolution_fwhm: float = 0.6e-9
    center_wavelength: float = 780e-9
    pixel_width: float | None = None
    span: float | None = 60e-9

    def __post_init__(self) -> None:
        if not (self.resolution_fwhm > 0.0):
            raise ValueError(f"resolution FWHM must be positive, got {self.resolution_fwhm!r}")
        if not (self.center_wavelength > 0.0):
            raise ValueError(f"center wavelength must be positive, got {self.center_wavelength!r}")
        if self.pixel_width is not None and not (self.pixel_width > 0.0):
            raise ValueError(f"pixel width must be positive, got {self.pixel_width!r}")
        if self.span is not None and not (self.span > self.resolution_fwhm):
            raise ValueError(
                f"span {self.span!r} must exceed the resolution FWHM {self.resolution_fwhm!r}"
            )

    def _to_freq(self, width: float) -> float:
        return SPEED_OF_LIGHT * width / self.center_wavelength**2

    @property
    def resolution_fwhm_hz(self) -> float:
        """Resolution kernel FWHM converted to frequency."""
        return self._to_freq(self.resolution_fwhm)

    @property
    def pixel_width_hz(self) -> float | None:
        return None if self.pixel_width is None else self._to_freq(self.pixel_width)

    @property
    def span_hz(self) -> float | None:
        return None if self.span is None else self._to_freq(self.span)


def resolution_kernel(grid: Grid, cfg: ShaperConfig) -> SpectralFilter:
    """Unit-area Gaussian smoothing kernel sampled on the grid detunings."""
    dnu = cfg.resolution_fwhm_hz
    if dnu < 2.0 * grid.df:
        raise ValueError(
            f"kernel FWHM {dnu:.3e} Hz is below twice the grid spacing {grid.df:.3e} Hz "
            "and cannot be resolved"
        )
    values = np.exp(-4.0 * LN2 * (grid.freqs / dnu) ** 2)
    values = values / (grid.df * values.sum())
    return SpectralFilter(grid, values.astype(np.complex128))


def _resolution_window(grid: Grid, center: float, dnu: float) -> np.ndarray:
    # time-domain image of the unit-area Gaussian kernel, centered on the pulse
    tsig = ((grid.t - center + 0.5 * grid.window) % grid.window) - 0.5 * grid.window
    return np.exp(-((np.pi * dnu * tsig) ** 2) / (4.0 * LN2))


def achievable_lo(target: TemporalField, cfg: ShaperConfig) -> TemporalField:
    """Closest mode to ``target`` the shaper can actually produce.

    The target spectrum is aperture-limited, pixel-averaged when a pixel
    width is configured, smoothed by the resolution kernel, and renormalized.
    With ideal resolution (kernel much narrower than the grid spacing) the
    target is returned unchanged up to normalization.
    """
    _check_normalized(target, "shaper target")
    grid = target.grid
    k_peak = int(np.argmax(np.abs(target.amp)))
    amp = target.amp

    if cfg.span_hz is not None or cfg.pixel_width_hz is not None:
        spec = to_spectrum(TemporalField(grid, amp)).amp.copy()
        if cfg.span_hz is not None:
            spec[np.abs(grid.freqs) > 0.5 * cfg.span_hz] = 0.0
        if cfg.pixel_width_hz is not None:
            size = max(1, int(round(cfg.pixel_width_hz / grid.df)))
            if size > 1:
                spec = (
                    uniform_filter1d(spec.real, size=size, mode="wrap")
                    + 1j * uniform_filter1d(spec.imag, size=size, mode="wrap")
                )
        amp = to_time(SpectralField(grid, spec)).amp

    window = _resolution_window(grid, grid.t[k_peak], cfg.resolution_fwhm_hz)
    return normalize(TemporalField(grid, amp * window))


def _best_projection(lo_spec: SpectralField, sig_spec: SpectralField) -> float:
    """max over delay of |<lo(tau)|sig>|^2, refined to machine precision.

    The coarse maximum is taken over every dt-lattice delay within
    +-window/4, all from one FFT of the spectral product; the exact direct
    sum is then maximized within one time step of it.
    """
    grid = lo_spec.grid
    g = _spectral_product(lo_spec, sig_spec)
    corr = np.abs(_lattice_overlaps(g, grid))
    quarter = grid.n // 4
    corr[quarter + 1 : grid.n - quarter] = -1.0
    k = int(np.argmax(corr))
    tau = (k if k <= quarter else k - grid.n) * grid.dt
    g, freqs = _support(g, grid.freqs)
    phase = -2j * np.pi * freqs

    def neg(t: float) -> float:
        return -np.abs(grid.df * np.sum(g * np.exp(phase * t))) ** 2

    res = minimize_scalar(
        neg, bounds=(tau - grid.dt, tau + grid.dt), method="bounded", options={"xatol": 1e-18}
    )
    return float(max(-res.fun, corr[k] ** 2))


def _propagated_mode(input_field: TemporalField, m: MediumParams):
    f_in = to_spectrum(normalize(input_field))
    t_e = energy_transmission(f_in, m)
    out = normalize(to_time(propagate(f_in, m)))
    return out, t_e


def max_shaped_eta(
    input_field: TemporalField,
    m: MediumParams,
    cfg: ShaperConfig,
    eta_base: float,
) -> float:
    """Best homodyne efficiency with the shaped local oscillator.

    The shaper target is the transmitted mode itself (the unconstrained
    projection maximizer); the plain input mode is kept as a fallback
    candidate so the result can never fall below the unshaped detection.
    Returns eta_base * T_E * |<lo|out>|^2 maximized over LO delay and the
    two candidates.
    """
    if not (0.0 <= eta_base <= 1.0):
        raise ValueError(f"eta_base must lie in [0, 1], got {eta_base!r}")
    out, t_e = _propagated_mode(input_field, m)
    out_spec = to_spectrum(out)
    best = 0.0
    for candidate in (achievable_lo(out, cfg), achievable_lo(normalize(input_field), cfg)):
        proj = _best_projection(to_spectrum(candidate), out_spec)
        best = max(best, proj)
    return float(eta_base * t_e * best)


def max_unshaped_eta(input_field: TemporalField, m: MediumParams, eta_base: float) -> float:
    """Best homodyne efficiency with the un-modulated input pulse as LO."""
    if not (0.0 <= eta_base <= 1.0):
        raise ValueError(f"eta_base must lie in [0, 1], got {eta_base!r}")
    out, t_e = _propagated_mode(input_field, m)
    lo_spec = to_spectrum(normalize(input_field))
    proj = _best_projection(lo_spec, to_spectrum(out))
    return float(eta_base * t_e * proj)
