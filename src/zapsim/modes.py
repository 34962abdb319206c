"""Mode normalization, complex overlaps, and delay scans.

Delays are applied as spectral phase ramps exp(2*pi*i*nu*tau), which shifts
an envelope later by tau with sub-sample accuracy, so a delayed-mode
projection is

    <lo(tau)|sig> = df * sum_nu g(nu) * exp(-2*pi*i*nu*tau),    g = conj(LO) * S.

A scan on one lattice tau0 + k*dt is this sum at integer lags k: one inverse
transform of g, of length n/2 when every lag is even (the phasors of even
lags repeat every n/2 bins, so g folds in half) and of length n otherwise,
with g first multiplied by the phase ramp of tau0's distance from the dt
lattice when tau0 is off it.  Any other delay set is the exact sum, one
delay at a time over the support of g.

The LO and the signal are real envelopes, so every spectrum is a half
spectrum (see :mod:`zapsim.fields`) and g is Hermitian: the sums run over
nu >= 0 and are real.  A complex field with a nonzero imaginary part raises
ValueError.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    _SUPPORT_CUTOFF, Grid, SpectralField, TemporalField, _norm, normalize, pulse_energy, to_spectrum, to_time,
)
from .medium import MediumParams, Transmitted, transmit

__all__ = [
    "ScanCurve",
    "normalize",
    "delay_overlaps",
    "visibility_curve",
    "eta_curve",
]

NORMALIZATION_TOL = 1e-6

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
        """The curve scaled so that its maximum value is 1; a curve that is never positive raises."""
        peak = float(self.ys.max())
        if peak <= 0.0:
            raise ValueError("cannot peak-normalize a non-positive curve")
        return ScanCurve(self.xs, self.ys / peak)


def _check_normalized(f, name: str) -> None:
    e = pulse_energy(f)
    if abs(e - 1.0) > NORMALIZATION_TOL:
        raise ValueError(f"{name} must be normalized to unit energy (got energy {e!r})")


def _spectral_product(lo_spec: SpectralField, sig_spec: SpectralField) -> SpectralField:
    """g = conj(LO) * S of two half spectra, as a fresh half spectrum on the shorter one's bins: the bins
    above a prefix are 0 (:class:`fields.SpectralField`), and so is g there."""
    if lo_spec.grid != sig_spec.grid:
        raise ValueError("delay scan requires both spectra on the same grid")
    bins = min(lo_spec.amp.size, sig_spec.amp.size)
    g = np.conj(lo_spec.amp[:bins])
    g *= sig_spec.amp[:bins]
    return SpectralField(lo_spec.grid, g, prefix=True)


def _support(g: SpectralField) -> tuple[np.ndarray, np.ndarray]:
    """The terms of a sum of g over the full spectrum and their abscissae, cut to the span where |g|
    reaches _SUPPORT_CUTOFF of its peak (all of a zero g).  The terms are a copy of the half spectrum g:
    each bin but DC and Nyquist stands for itself and its mirror and is weighted 2 (``fields._spectral_sum``);
    the last bin of g is Nyquist only when g holds all n/2 + 1."""
    mag = np.abs(g.amp)
    inside = mag >= mag.max() * _SUPPORT_CUTOFF
    lo_i, hi_i = int(np.argmax(inside)), inside.size - int(np.argmax(inside[::-1]))
    terms = g.amp[lo_i:hi_i].copy()
    terms[max(1 - lo_i, 0) : terms.size - (hi_i == g.grid.n // 2 + 1)] *= 2.0
    return terms, g.grid.half_freqs[lo_i:hi_i]


def _phasors(nu0: float, df: float, count: int, tau: float) -> np.ndarray:
    """exp(-2*pi*i*(nu0 + j*df)*tau) for j < count, as the outer product of two
    ~sqrt(count) exponentials: as accurate as one full-length np.exp, far cheaper."""
    cols = max(1, int(np.ceil(np.sqrt(count))))
    rows = -(-count // cols)
    col = np.exp(-2j * np.pi * (df * tau) * np.arange(cols))
    row = np.exp(-2j * np.pi * tau * (nu0 + (cols * df) * np.arange(rows)))
    return np.multiply.outer(row, col).ravel()[:count]


def _even_lag_overlaps(g: SpectralField) -> np.ndarray:
    """The real overlaps A(2m*dt) = df * sum_nu g * exp(-2*pi*i*nu*2m*dt), stored at index m mod n/2: the field
    of the folded spectrum on the 2*dt grid.  The half spectrum g holds the bins nu_q = q * df, q = 0 .. n/2,
    of a Hermitian product, and sampling A every 2*dt folds its spectrum: the grid of n/2 samples holds the
    bins q <= n/4, X_q = g_q + conj(g_{n/2-q}), and A is their :func:`fields.to_time`.  A prefix g of fewer
    bins is 0 above them: the mirrored term exists only for q > n/2 - len(g), and X is a view of g when
    there is none."""
    quarter = g.grid.n // 4
    if not quarter:  # n = 2: the one even lag, 0, has no grid of n/2 = 1 sample; A(0) = df * (g_0 + g_1)
        return np.array([g.grid.df * g.amp.sum().real])
    folded = g.amp[: quarter + 1]
    if g.amp.size > quarter:
        folded = folded.copy()
        mirror = g.amp[quarter:][::-1]  # g_{n/2-q} for q = n/2 - len(g) + 1 .. n/4
        folded[folded.size - mirror.size :] += np.conj(mirror)
    return to_time(SpectralField(Grid(g.grid.n // 2, 2.0 * g.grid.dt), folded, prefix=True)).amp


def delay_overlaps(lo_spec: SpectralField, sig_spec: SpectralField, delays) -> np.ndarray:
    """<lo(tau)|sig> for each tau, from the half spectra of the LO mode and the signal.

    The LO is a unit-energy mode and the result is linear in the signal, so
    for a unit-energy signal the result at tau = 0 is the plain overlap.
    Delays on one lattice tau0 + k*dt are read from one inverse transform of
    g = conj(LO) * S: of length n/2 (:func:`_even_lag_overlaps`) when every
    lag k is even, else of length n.  Any other delay set is one
    support-length spectral sum per delay.  The overlaps are real (float64)
    on either path.
    """
    g = _spectral_product(lo_spec, sig_spec)
    delays = np.atleast_1d(np.asarray(delays, dtype=np.float64))
    if not delays.size:
        return np.zeros(0)
    grid = g.grid
    offset = delays[0] - np.rint(delays[0] / grid.dt) * grid.dt
    if abs(offset) <= _LATTICE_TOL * grid.dt:
        offset = 0.0
    steps = (delays - offset) / grid.dt
    lags = np.rint(steps)
    if np.all(np.abs(steps - lags) <= _LATTICE_TOL):
        if offset:  # A(offset + k*dt) is the lag-k overlap of g * exp(-2*pi*i*nu*offset)
            np.multiply(g.amp, _phasors(0.0, grid.df, g.amp.size, offset), out=g.amp)
        lags = lags.astype(np.int64)
        if not np.any(lags % 2):
            return _even_lag_overlaps(g)[(lags // 2) % (grid.n // 2)]
        return to_time(g).amp[lags % grid.n]  # A(t) = df * sum_nu g * exp(-2*pi*i*nu*t) is g's field
    terms, freqs = _support(g)
    sums = np.array([(terms * _phasors(freqs[0], grid.df, terms.size, tau)).sum() for tau in delays])
    return grid.df * sums.real  # a Hermitian g sums to a real A


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


def visibility_curve(sig: TemporalField, lo: TemporalField, delays) -> ScanCurve:
    """Field cross-correlation magnitude |<lo(tau)|sig>| versus delay.

    Both modes are normalized internally; the raw curve peaks at the mode
    overlap magnitude.  Use :meth:`ScanCurve.peak_normalized` for the
    arbitrary-units variant.
    """
    delays = _check_delays(sig.grid, delays)
    overlaps = delay_overlaps(to_spectrum(normalize(lo)), to_spectrum(normalize(sig)), delays)
    return ScanCurve(delays, np.abs(overlaps))


def _check_eta_base(eta_base: float) -> None:
    if not (0.0 <= eta_base <= 1.0):
        raise ValueError(f"eta_base must lie in [0, 1], got {eta_base!r}")


def _eta(eta_base: float, out: Transmitted, proj):
    """Detected fraction eta_base * T_E * |<lo|out>|^2, given the projection."""
    return eta_base * out.transmission * proj


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
    delays = _check_delays(input_field.grid, delays)
    lo_spec = to_spectrum(normalize(lo))
    out = transmit(to_spectrum(normalize(input_field)), m)
    overlaps = delay_overlaps(lo_spec, out.spectrum, delays)
    overlaps /= _norm(out.spectrum)
    return ScanCurve(delays, _eta(eta_base, out, np.abs(overlaps) ** 2))

