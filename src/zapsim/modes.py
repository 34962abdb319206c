"""Mode normalization, complex overlaps, and delay scans.

Delays are applied as spectral phase ramps exp(2*pi*i*nu*tau), which shifts
an envelope later by tau with sub-sample accuracy.  All overlap integrals are
evaluated in the frequency domain, where a delayed-mode projection reduces to

    <lo(tau)|sig> = df * sum_nu conj(LO(nu)) * S(nu) * exp(-2*pi*i*nu*tau)

so a scan over many delays reuses one spectral product g = conj(LO) * S.
When every delay sits on the time-step lattice tau_0 + k*dt (the uniform
scans the CLI builds, with a step that is a multiple of dt), the sum is a
DFT in k: one FFT of g * exp(-2*pi*i*nu*tau_0) yields every delay at once.
Any other delay set falls back to the exact direct sum, evaluated one delay
at a time over the support of g.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import SpectralField, TemporalField, normalize, pulse_energy, to_spectrum, to_time
from .medium import MediumParams, Transmitted, transmit

__all__ = [
    "ScanCurve",
    "normalize",
    "overlap",
    "delay_field",
    "delay_overlaps",
    "visibility_curve",
    "eta_curve",
    "peak_eta",
]

NORMALIZATION_TOL = 1e-6

# |g| below this fraction of its peak contributes < ~1e-14 to any overlap;
# truncating the spectral product to its support speeds up direct sums.
_SUPPORT_CUTOFF = 1e-20

# Largest distance from the dt lattice, in units of dt, at which a delay is
# still taken as a lattice point.  Float-built uniform grids (linspace,
# arange) miss the lattice by < 1e-11 dt; a miss of 3.6e-12 dt moves the
# overlaps of a 100 fs pulse by 2e-14 of their peak.
_LATTICE_TOL = 1e-10


@dataclass(frozen=True)
class ScanCurve:
    """Sampled scan: strictly increasing abscissae, finite real values."""

    xs: np.ndarray
    ys: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        xs = np.asarray(self.xs, dtype=np.float64)
        ys = np.asarray(self.ys, dtype=np.float64)
        if xs.ndim != 1 or xs.shape != ys.shape:
            raise ValueError(f"xs and ys must be 1-d and equal length, got {xs.shape} vs {ys.shape}")
        if xs.size == 0:
            raise ValueError("scan curve must contain at least one point")
        if xs.size > 1 and not np.all(np.diff(xs) > 0.0):
            raise ValueError("scan abscissae must be strictly increasing")
        if not (np.all(np.isfinite(xs)) and np.all(np.isfinite(ys))):
            raise ValueError("scan curve contains non-finite values")
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    def peak_normalized(self) -> "ScanCurve":
        """Same curve scaled so the maximum value is 1."""
        peak = float(self.ys.max())
        if peak <= 0.0:
            raise ValueError("cannot peak-normalize a non-positive curve")
        meta = dict(self.meta)
        meta["peak_normalized"] = True
        return ScanCurve(self.xs, self.ys / peak, meta)


def _check_normalized(f, name: str) -> None:
    e = pulse_energy(f)
    if abs(e - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"{name} must be normalized to unit energy (got energy {e!r})")


def overlap(a: TemporalField, b: TemporalField) -> complex:
    """Complex mode overlap <a|b> = dt * sum conj(a) b for unit-energy modes.

    |overlap| <= 1 with equality only when the modes agree up to a global
    phase.
    """
    if a.grid != b.grid:
        raise ValueError("overlap requires both fields on the same grid")
    _check_normalized(a, "first mode")
    _check_normalized(b, "second mode")
    return complex(a.grid.dt * np.sum(np.conj(a.amp) * b.amp))


def delay_field(f: TemporalField, tau: float) -> TemporalField:
    """Shift an envelope later in time by tau seconds (circular, off-grid exact)."""
    F = to_spectrum(f)
    shifted = F.amp * np.exp(2j * np.pi * F.grid.freqs * tau)
    return to_time(SpectralField(F.grid, shifted))


def _spectral_product(lo_spec: SpectralField, sig_spec: SpectralField) -> np.ndarray:
    """g = conj(LO) * S as a fresh array."""
    if lo_spec.grid != sig_spec.grid:
        raise ValueError("delay scan requires both spectra on the same grid")
    g = np.conj(lo_spec.amp)
    g *= sig_spec.amp
    return g


def _support(g: np.ndarray, freqs: np.ndarray):
    """g and freqs cut to the span where |g| exceeds _SUPPORT_CUTOFF of its peak."""
    mag = np.abs(g)
    peak = mag.max()
    if peak == 0.0:
        return g[:1] * 0.0, freqs[:1]
    idx = np.nonzero(mag > peak * _SUPPORT_CUTOFF)[0]
    lo_i, hi_i = int(idx[0]), int(idx[-1]) + 1
    return g[lo_i:hi_i], freqs[lo_i:hi_i]


def _lattice_overlaps(g: np.ndarray, grid, tau0: float = 0.0) -> np.ndarray:
    """Overlaps at tau0 + k*dt for every k, stored at index k mod n.

    Multiplies g in place by the phase ramp of tau0.  With g in ascending
    frequency order, nu_j = (j - n/2) * df, the sum over nu at k*dt is
    fft(g)[k] * (-1)^k, which is periodic in k with period n.
    """
    if tau0 != 0.0:
        ramp = np.multiply(grid.freqs, -2j * np.pi * tau0)
        np.exp(ramp, out=ramp)
        g *= ramp
        del ramp
    out = np.fft.fft(g)
    out *= grid.df
    out[1::2] *= -1.0
    return out


def delay_overlaps(lo_spec: SpectralField, sig_spec: SpectralField, delays) -> np.ndarray:
    """<lo(tau)|sig> for each tau, given the two mode spectra.

    Both spectra are assumed to belong to unit-energy modes; the result for
    tau = 0 then equals the plain overlap.  Delays on the dt lattice cost one
    FFT in all; any other delay set costs one support-length sum per delay.
    """
    g = _spectral_product(lo_spec, sig_spec)
    delays = np.atleast_1d(np.asarray(delays, dtype=np.float64))
    grid = lo_spec.grid
    steps = (delays - delays[:1]) / grid.dt
    lags = np.rint(steps)
    if delays.size and np.all(np.abs(steps - lags) <= _LATTICE_TOL):
        return _lattice_overlaps(g, grid, float(delays[0]))[lags.astype(np.int64) % grid.n]
    g, freqs = _support(g, grid.freqs)
    phase = -2j * np.pi * freqs
    return np.array([grid.df * np.sum(g * np.exp(phase * tau)) for tau in delays])


def _check_delays(grid, delays) -> np.ndarray:
    delays = np.asarray(delays, dtype=np.float64)
    if delays.ndim != 1 or delays.size == 0:
        raise ValueError("delays must be a non-empty 1-d array")
    if delays.size > 1 and not np.all(np.diff(delays) > 0.0):
        raise ValueError("delays must be strictly increasing")
    limit = grid.window / 4.0
    if np.any(np.abs(delays) > limit):
        raise ValueError(f"delays must stay within +-window/4 = +-{limit} s")
    return delays


def _visibility_scan(lo_spec: SpectralField, sig_spec: SpectralField, delays: np.ndarray) -> ScanCurve:
    ys = np.abs(delay_overlaps(lo_spec, sig_spec, delays))
    meta = {"kind": "visibility", "delay_step_s": float(delays[1] - delays[0]) if delays.size > 1 else 0.0}
    return ScanCurve(delays, ys, meta)


def visibility_curve(sig: TemporalField, lo: TemporalField, delays) -> ScanCurve:
    """Field cross-correlation magnitude |<lo(tau)|sig>| versus delay.

    Both modes are normalized internally; the raw curve peaks at the mode
    overlap magnitude.  Use :meth:`ScanCurve.peak_normalized` for the
    arbitrary-units variant.
    """
    if sig.grid != lo.grid:
        raise ValueError("signal and local oscillator must share a grid")
    delays = _check_delays(sig.grid, delays)
    return _visibility_scan(to_spectrum(normalize(lo)), to_spectrum(normalize(sig)), delays)


def _check_eta_base(eta_base: float) -> None:
    if not (0.0 <= eta_base <= 1.0):
        raise ValueError(f"eta_base must lie in [0, 1], got {eta_base!r}")


def _eta(eta_base: float, out: Transmitted, proj):
    """Detected fraction eta_base * T_E * |<lo|out>|^2, given the projection."""
    return eta_base * out.transmission * proj


def _eta_scan(out: Transmitted, lo_spec: SpectralField, m: MediumParams, eta_base: float, delays):
    proj = np.abs(delay_overlaps(lo_spec, out.mode, delays)) ** 2
    meta = {
        "kind": "eta",
        "eta_base": float(eta_base),
        "transmission": float(out.transmission),
        "depth": float(m.depth),
        "t2_s": float(m.t2),
    }
    return ScanCurve(delays, _eta(eta_base, out, proj), meta)


def eta_curve(
    input_field: TemporalField,
    m: MediumParams,
    lo: TemporalField,
    eta_base: float,
    delays,
) -> ScanCurve:
    """Homodyne single-photon fraction versus local-oscillator delay.

    The input mode is sent through the medium and the detected fraction is

        eta(tau) = eta_base * T_E * |<lo(tau)|out>|^2

    with T_E the energy transmission and ``out`` the normalized transmitted
    mode.  eta_base lumps every delay-independent loss (state preparation,
    detector efficiency, electronic noise).
    """
    _check_eta_base(eta_base)
    if input_field.grid != lo.grid:
        raise ValueError("input and local oscillator must share a grid")
    delays = _check_delays(input_field.grid, delays)
    out = transmit(to_spectrum(normalize(input_field)), m)
    return _eta_scan(out, to_spectrum(normalize(lo)), m, eta_base, delays)


def peak_eta(curve: ScanCurve) -> tuple[float, float]:
    """Argmax and max of a scan curve; ties resolve to the smallest abscissa."""
    if curve.xs.size == 0:
        raise ValueError("cannot take the peak of an empty curve")
    k = int(np.argmax(curve.ys))
    return float(curve.xs[k]), float(curve.ys[k])
