"""Mode normalization, complex overlaps, and delay scans.

Delays are applied as spectral phase ramps exp(2*pi*i*nu*tau), which shifts
an envelope later by tau with sub-sample accuracy, so a delayed-mode
projection is

    <lo(tau)|sig> = df * sum_nu conj(LO(nu)) * S(nu) * exp(-2*pi*i*nu*tau)
                  = dt * sum_t conj(lo(t - tau)) * sig(t)      (circular in t)

A scan whose delays are all whole multiples of dt (the uniform scans the CLI
builds, with a start and step that are multiples of dt) is the second sum at
integer lags: a correlation over the few samples where the LO is nonzero,
costing less than one transform.  Delays on a lattice tau_0 + k*dt with tau_0
off it, or an LO too wide for the correlation, take one FFT of the spectral
product g = conj(LO) * S times exp(-2*pi*i*nu*tau_0).  Any other delay set
falls back to the exact first sum, one delay at a time over the support of g.
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

# |g| (or |lo| in time) below this fraction of its peak contributes < ~1e-14
# to any overlap; truncating to the support speeds up direct sums.
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


def _support(g: np.ndarray, xs: np.ndarray):
    """g and its abscissae xs cut to the span where |g| exceeds _SUPPORT_CUTOFF of its peak."""
    mag = np.abs(g)
    peak = mag.max()
    if peak == 0.0:
        return g[:1] * 0.0, xs[:1]
    idx = np.nonzero(mag > peak * _SUPPORT_CUTOFF)[0]
    lo_i, hi_i = int(idx[0]), int(idx[-1]) + 1
    return g[lo_i:hi_i], xs[lo_i:hi_i]


def _phasors(nu0: float, df: float, count: int, tau: float) -> np.ndarray:
    """exp(-2*pi*i*(nu0 + j*df)*tau) for j < count, as the outer product of two
    ~sqrt(count) exponentials: as accurate as one full-length np.exp, far cheaper."""
    cols = max(1, int(np.ceil(np.sqrt(count))))
    rows = -(-count // cols)
    col = np.exp(-2j * np.pi * (df * tau) * np.arange(cols))
    row = np.exp(-2j * np.pi * tau * (nu0 + (cols * df) * np.arange(rows)))
    return np.multiply.outer(row, col).ravel()[:count]


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


def _time_support(f: TemporalField) -> tuple[np.ndarray, int]:
    """A copy of f over its support, first to last sample above _SUPPORT_CUTOFF of its peak,
    and the index of the first: all a time-domain scan keeps of its LO."""
    amp, t = _support(f.amp, f.grid.t)
    return amp.copy(), int(np.rint(t[0] / f.grid.dt))


def _time_correlation(lo_support: tuple[np.ndarray, int], sig: TemporalField, delays: np.ndarray):
    """dt * sum_u conj(lo[u]) * sig[(u + k) mod n] at each lag k = delay / dt, over the LO's support.

    None (use the spectral path) when a delay is off the dt lattice or
    support length times lag span exceeds the n*log2(n) cost of a transform,
    as for a support that wraps the window edge (length n) in any scan
    spanning more than log2(n) lags.
    """
    grid = sig.grid
    steps = delays / grid.dt
    lags = np.rint(steps)
    if not delays.size or np.any(np.abs(steps - lags) > _LATTICE_TOL):
        return None
    lo, first = lo_support
    lags = lags.astype(np.int64)
    k0 = int(lags.min())
    span = int(lags.max()) - k0 + 1
    if lo.size * span > grid.n * np.log2(grid.n):
        return None
    window = np.take(sig.amp, np.arange(first + k0, first + k0 + lo.size + span - 1), mode="wrap")
    # np.correlate conjugates its second argument: out[j] = sum_u window[j + u] * conj(lo[u])
    return grid.dt * np.correlate(window, lo, mode="valid")[lags - k0]


def delay_overlaps(
    lo_spec: SpectralField, sig_spec: SpectralField, delays, lo_support=None, sig: TemporalField | None = None
) -> np.ndarray:
    """<lo(tau)|sig> for each tau, given the LO mode spectrum and the signal spectrum.

    The LO is a unit-energy mode and the result is linear in the signal, so
    for a unit-energy signal the result at tau = 0 is the plain overlap.
    With the LO's :func:`_time_support` and the signal in time as ``sig``,
    delays that are all multiples of dt are correlated in time.  Otherwise
    delays on a dt lattice cost one FFT in all, and any other delay set one
    support-length sum per delay.
    """
    delays = np.atleast_1d(np.asarray(delays, dtype=np.float64))
    if lo_support is not None and sig is not None:
        out = _time_correlation(lo_support, sig, delays)
        if out is not None:
            return out
    g = _spectral_product(lo_spec, sig_spec)
    grid = lo_spec.grid
    steps = (delays - delays[:1]) / grid.dt
    lags = np.rint(steps)
    if delays.size and np.all(np.abs(steps - lags) <= _LATTICE_TOL):
        return _lattice_overlaps(g, grid, float(delays[0]))[lags.astype(np.int64) % grid.n]
    g, freqs = _support(g, grid.freqs)
    return np.array([grid.df * (g * _phasors(freqs[0], grid.df, g.size, tau)).sum() for tau in delays])


def _transmitted_overlaps(lo_spec: SpectralField, lo_support, out: Transmitted, delays) -> np.ndarray:
    """<lo(tau)|mode of out>: overlaps with the transmitted field, scaled by 1/sqrt of its energy."""
    return delay_overlaps(lo_spec, out.spectrum, delays, lo_support, out.field) / np.sqrt(out.energy)


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


def _visibility_scan(overlaps: np.ndarray, delays: np.ndarray) -> ScanCurve:
    meta = {"kind": "visibility", "delay_step_s": float(delays[1] - delays[0]) if delays.size > 1 else 0.0}
    return ScanCurve(delays, np.abs(overlaps), meta)


def visibility_curve(sig: TemporalField, lo: TemporalField, delays) -> ScanCurve:
    """Field cross-correlation magnitude |<lo(tau)|sig>| versus delay.

    Both modes are normalized internally; the raw curve peaks at the mode
    overlap magnitude.  Use :meth:`ScanCurve.peak_normalized` for the
    arbitrary-units variant.
    """
    if sig.grid != lo.grid:
        raise ValueError("signal and local oscillator must share a grid")
    delays = _check_delays(sig.grid, delays)
    lo, sig = normalize(lo), normalize(sig)
    overlaps = delay_overlaps(to_spectrum(lo), to_spectrum(sig), delays, _time_support(lo), sig)
    return _visibility_scan(overlaps, delays)


def _check_eta_base(eta_base: float) -> None:
    if not (0.0 <= eta_base <= 1.0):
        raise ValueError(f"eta_base must lie in [0, 1], got {eta_base!r}")


def _eta(eta_base: float, out: Transmitted, proj):
    """Detected fraction eta_base * T_E * |<lo|out>|^2, given the projection."""
    return eta_base * out.transmission * proj


def _eta_scan(out: Transmitted, overlaps: np.ndarray, m: MediumParams, eta_base: float, delays):
    proj = np.abs(overlaps) ** 2
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
    lo = normalize(lo)
    overlaps = _transmitted_overlaps(to_spectrum(lo), _time_support(lo), out, delays)
    return _eta_scan(out, overlaps, m, eta_base, delays)


def peak_eta(curve: ScanCurve) -> tuple[float, float]:
    """Argmax and max of a scan curve; ties resolve to the smallest abscissa."""
    if curve.xs.size == 0:
        raise ValueError("cannot take the peak of an empty curve")
    k = int(np.argmax(curve.ys))
    return float(curve.xs[k]), float(curve.ys[k])
