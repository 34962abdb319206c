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

from .fields import (
    LN2,
    Grid,
    SpectralField,
    TemporalField,
    normalize,
    to_spectrum,
    to_time,
)
from .medium import MediumParams, SpectralFilter, Transmitted, transmit
from .modes import (
    _check_eta_base, _check_normalized, _eta, _lattice_overlaps, _phasors, _spectral_product, _support
)

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
                f"span {self.span:g} m must exceed the resolution FWHM {self.resolution_fwhm:g} m"
            )
        if None not in (self.span, self.pixel_width) and not (self.pixel_width < self.span):
            raise ValueError(f"pixel width {self.pixel_width:g} m must be below the span {self.span:g} m")

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


def _box_average(x: np.ndarray, size: int) -> np.ndarray:
    """Circular mean over bins i - size//2 ... i - size//2 + size - 1 (uniform_filter1d, mode="wrap")."""
    if size == 1:
        return x
    sums = np.cumsum(np.take(x, np.arange(-(size // 2) - 1, x.size + size - size // 2 - 1), mode="wrap"))
    return (sums[size:] - sums[: x.size]) / size


def achievable_lo(
    target: TemporalField, cfg: ShaperConfig, spectrum: SpectralField | None = None
) -> TemporalField:
    """Closest mode to ``target`` the shaper can actually produce.

    The target spectrum is aperture-limited, pixel-averaged when a pixel
    width is configured, smoothed by the resolution kernel, and renormalized.
    With ideal resolution (kernel much narrower than the grid spacing) the
    target is returned unchanged up to normalization.  A caller that already
    holds the target's spectrum passes it as ``spectrum`` to save a transform.
    """
    _check_normalized(target, "shaper target")
    grid = target.grid
    k_peak = int(np.argmax(np.abs(target.amp)))
    amp = target.amp

    if cfg.span_hz is not None or cfg.pixel_width_hz is not None:
        spec = (to_spectrum(target) if spectrum is None else spectrum).amp.copy()
        if cfg.span_hz is not None:
            spec[np.abs(grid.freqs) > 0.5 * cfg.span_hz] = 0.0
        if cfg.pixel_width_hz is not None:
            size = max(1, int(round(cfg.pixel_width_hz / grid.df)))
            if size > grid.n:
                raise ValueError(f"shaper pixel covers {size} frequency bins, more than the grid's {grid.n}")
            spec = _box_average(spec, size)
        amp = to_time(SpectralField(grid, spec)).amp

    window = _resolution_window(grid, grid.t[k_peak], cfg.resolution_fwhm_hz)
    return normalize(TemporalField(grid, amp * window))


def _best_projection(lo_spec: SpectralField, sig_spec: SpectralField) -> float:
    """max over delay of |<lo(tau)|sig>|^2, refined to machine precision.

    The coarse maximum is taken over every dt-lattice delay within
    +-window/4, all from one FFT of the spectral product.  Newton steps on
    |A(tau)|^2, A = df * sum g * exp(-2*pi*i*nu*tau), refine it within one
    time step; the largest value seen is returned.  Each step sums A and both
    tau-derivatives exactly over the support of g, from one product h of g
    with the phasors of :func:`_phasors`.  The sums are ufunc reductions:
    a BLAS dot product here (h @ phase) runs on OpenBLAS's own threads and
    nearly doubles the CPU time of a depth scan for no gain in wall time.
    """
    grid = lo_spec.grid
    g = _spectral_product(lo_spec, sig_spec)
    corr = np.abs(_lattice_overlaps(g, grid))
    quarter = grid.n // 4
    corr[quarter + 1 : grid.n - quarter] = -1.0
    k = int(np.argmax(corr))
    best = float(corr[k] ** 2)
    start = (k if k <= quarter else k - grid.n) * grid.dt
    g, freqs = _support(g, grid.freqs)
    g = g * grid.df
    phase = -2j * np.pi * freqs
    x = 0.0  # offset from the lattice maximum, kept within one time step
    for _ in range(8):  # at the default scenario Newton stops within 4 steps
        h = g * _phasors(freqs[0], grid.df, g.size, start + x)
        a = h.sum()
        h *= phase
        a1 = h.sum()
        h *= phase
        a2 = h.sum()
        best = max(best, float(abs(a) ** 2))
        half_d2 = abs(a1) ** 2 + (np.conj(a) * a2).real
        new = min(max(x - (np.conj(a) * a1).real / half_d2, -grid.dt), grid.dt) if half_d2 < 0.0 else x
        if abs(new - x) <= 1e-9 * grid.dt:
            break
        x = new
    return best


def _unshaped_eta(out: Transmitted, lo_in: SpectralField, eta_base: float) -> float:
    return float(_eta(eta_base, out, _best_projection(lo_in, out.mode)))


def _shaped_eta(
    out: Transmitted, shaped_in: SpectralField, unshaped: float, cfg: ShaperConfig, eta_base: float
) -> float:
    """Best of the LO shaped to the transmitted mode, ``shaped_in`` (the shaped input) and ``unshaped``."""
    own = _best_projection(to_spectrum(achievable_lo(normalize(out.field), cfg, out.mode)), out.mode)
    return max(float(_eta(eta_base, out, max(own, _best_projection(shaped_in, out.mode)))), unshaped)


def max_shaped_eta(input_field: TemporalField, m: MediumParams, cfg: ShaperConfig, eta_base: float) -> float:
    """Best homodyne efficiency with the shaped local oscillator.

    The shaper target is the transmitted mode itself (the unconstrained
    projection maximizer); the shaped input mode, which can detect more
    once a coarse pixel has averaged the target, is a second candidate.
    Returns eta_base * T_E * |<lo|out>|^2 maximized over LO delay and the two
    candidates, or :func:`max_unshaped_eta` where the un-modulated pulse
    detects more, so shaped >= unshaped by construction.
    """
    _check_eta_base(eta_base)
    mode_in = normalize(input_field)
    lo_in = to_spectrum(mode_in)
    out = transmit(lo_in, m)
    shaped_in = to_spectrum(achievable_lo(mode_in, cfg, lo_in))
    return _shaped_eta(out, shaped_in, _unshaped_eta(out, lo_in, eta_base), cfg, eta_base)


def max_unshaped_eta(input_field: TemporalField, m: MediumParams, eta_base: float) -> float:
    """Best homodyne efficiency with the un-modulated input pulse as LO."""
    _check_eta_base(eta_base)
    lo_in = to_spectrum(normalize(input_field))
    return _unshaped_eta(transmit(lo_in, m), lo_in, eta_base)
