from dataclasses import dataclass

import numpy as np
import pytest
from scipy.ndimage import correlate1d
from scipy.optimize import minimize_scalar

from zapsim import (
    Grid,
    SpectralField,
    TemporalField,
    gaussian_pulse,
    make_grid,
    normalize,
    to_spectrum,
    transfer_function,
)
from zapsim.shaper import _resolution_window

DEFAULT_N = 2**19
DEFAULT_DT = 10e-15
PULSE_FWHM = 100e-15


@pytest.fixture(scope="session")
def default_grid():
    return make_grid(DEFAULT_N, DEFAULT_DT)


@pytest.fixture(scope="session")
def mid_grid():
    return make_grid(2**18, DEFAULT_DT)


@pytest.fixture(scope="session")
def small_grid():
    return make_grid(2**12, DEFAULT_DT)


@pytest.fixture(scope="session")
def default_pulse(default_grid):
    return gaussian_pulse(default_grid, PULSE_FWHM)


@pytest.fixture(scope="session")
def default_mode(default_pulse):
    return normalize(default_pulse)


@pytest.fixture(scope="session")
def default_mode_spec(default_mode):
    return to_spectrum(default_mode)


@pytest.fixture(scope="session")
def mid_pulse(mid_grid):
    return gaussian_pulse(mid_grid, PULSE_FWHM)


@pytest.fixture(scope="session")
def mid_mode(mid_pulse):
    return normalize(mid_pulse)


def random_field(grid, seed, offset=0.0):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=grid.n) + 1j * rng.normal(size=grid.n) + offset
    return TemporalField(grid, amp)


def real_field(grid, seed, offset=0.0):
    """The real part of :func:`random_field`, as float64."""
    return TemporalField(grid, random_field(grid, seed, offset).amp.real)


# The full spectral layout, all n bins ascending from -Nyquist, built here with numpy alone as an oracle for
# the library's half spectra: a half spectrum is mirrored by E(-nu) = conj E(nu), and a field of any dtype is
# transformed by numpy's complex pair, whose ifft has the library's kernel exp(+2*pi*i*nu*t).


@dataclass(frozen=True)
class FullSpectrum:
    """A spectrum in the full layout: ``amp`` holds all n bins, at the detunings ``full_freqs(grid)``."""

    grid: Grid
    amp: np.ndarray

    @property
    def energy(self) -> float:
        return float(self.grid.df * np.sum(np.abs(self.amp) ** 2))


def full_freqs(grid):
    """The detunings of the full layout, ascending from -Nyquist, with 0 at index n/2."""
    return np.fft.fftshift(np.fft.fftfreq(grid.n, grid.dt))


def full_spectrum(x):
    """x in the full layout: a half spectrum (``SpectralField``) mirrored, the -Nyquist bin being the conjugate
    of +Nyquist; a field by the complex transform E(nu) = dt * sum_t E(t) * exp(2*pi*i*nu*t); a full
    spectrum as is."""
    if isinstance(x, FullSpectrum):
        return x
    if isinstance(x, SpectralField):
        return FullSpectrum(x.grid, np.concatenate([np.conj(x.amp[:0:-1]), x.amp[:-1]]))
    amp = np.fft.fftshift(np.fft.ifft(np.asarray(x.amp, dtype=np.complex128)))
    return FullSpectrum(x.grid, amp * (x.grid.n * x.grid.dt))


def full_field(F):
    """The complex field of a full-layout spectrum, E(t) = df * sum_nu E(nu) * exp(-2*pi*i*nu*t)."""
    return TemporalField(F.grid, np.fft.fft(np.fft.ifftshift(F.amp)) / (F.grid.n * F.grid.dt))


@dataclass(frozen=True)
class FullTransmitted:
    """A transmission in the full layout (see :func:`full_transmit`)."""

    spectrum: FullSpectrum
    field: TemporalField
    mode: FullSpectrum
    transmission: float


def full_transmit(x, m):
    """x sent through the medium m in the full layout: F * H over all n bins, with H the library's half-band H
    mirrored, its complex field, its unit-energy mode and its energy transmission T_E."""
    F = full_spectrum(x)
    out = FullSpectrum(F.grid, F.amp * full_spectrum(transfer_function(F.grid, m)).amp)
    mode = FullSpectrum(F.grid, out.amp / np.sqrt(out.energy))
    return FullTransmitted(out, full_field(out), mode, out.energy / F.energy)


def lattice_overlaps(g, grid):
    """Overlaps at k*dt for every k, stored at index k mod n.  With g in ascending
    frequency order, nu_j = (j - n/2) * df, the sum over nu at k*dt is fft(g)[k] * (-1)^k."""
    out = np.fft.fft(g)
    out *= grid.df
    out[1::2] *= -1.0
    return out


def full_product(lo_spec, sig_spec):
    """conj(LO) * S over all n bins of the full layout, half spectra mirrored first."""
    return np.conj(full_spectrum(lo_spec).amp) * full_spectrum(sig_spec).amp


def brent_projection(lo_spec, sig_spec):
    """Oracle for max over delay of |<lo(tau)|sig>|^2 within +-window/4: bounded Brent on the direct sum
    over the full spectrum, within two time steps of every local maximum of the dt-lattice overlaps within
    +-window/4 that reaches half the largest (as far as ``_best_projection`` refines its starts), and never
    past +-window/4."""
    grid = lo_spec.grid
    g = full_product(lo_spec, sig_spec)
    corr = np.abs(lattice_overlaps(g, grid)) ** 2
    quarter = grid.n // 4
    corr[quarter + 1 : grid.n - quarter] = -1.0
    peaks = (corr >= np.roll(corr, 1)) & (corr >= np.roll(corr, -1)) & (corr >= 0.5 * corr.max())
    mag = np.abs(g)
    idx = np.nonzero(mag >= 1e-20 * mag.max())[0]
    keep = slice(idx[0], idx[-1] + 1)
    g, freqs = g[keep], full_freqs(grid)[keep]

    def overlap_and_derivatives(t):
        h = grid.df * g * np.exp(-2j * np.pi * freqs * t)
        return h.sum(), (h * (-2j * np.pi * freqs)).sum(), (h * (-2j * np.pi * freqs) ** 2).sum()

    best = corr.max()
    for k in np.nonzero(peaks)[0]:
        tau = (k if k <= quarter else k - grid.n) * grid.dt
        bounds = (max(tau - 2.0 * grid.dt, -0.25 * grid.window), min(tau + 2.0 * grid.dt, 0.25 * grid.window))
        t = minimize_scalar(lambda t: -abs(overlap_and_derivatives(t)[0]) ** 2, bounds=bounds, method="bounded",
                            options={"xatol": 1e-18}).x
        for _ in range(3):  # Newton steps on |A|^2, kept within the bounds, polish Brent's abscissa
            a, a1, a2 = overlap_and_derivatives(t)
            best = max(best, abs(a) ** 2)
            half_d2 = abs(a1) ** 2 + (np.conj(a) * a2).real
            if not half_d2 < 0.0:
                break
            t = min(max(t - (np.conj(a) * a1).real / half_d2, bounds[0]), bounds[1])
        best = max(best, abs(overlap_and_derivatives(t)[0]) ** 2)
    return best


def direct_overlaps(lo_spec, sig_spec, delays):
    """<lo(tau)|sig> = df * sum_nu conj(LO) * S * exp(-2*pi*i*nu*tau) over the full spectrum, one delay at a time."""
    grid = lo_spec.grid
    g = full_product(lo_spec, sig_spec)
    freqs = full_freqs(grid)
    return np.array([grid.df * np.sum(g * np.exp(-2j * np.pi * freqs * t)) for t in delays])


def extended_overlaps(lo_spec, sig_spec, delays):
    """<lo(tau)|sig>, the direct sum of :func:`direct_overlaps` in numpy's extended precision (longdouble): the
    spectra's float64 values taken as exact, their product, the frequencies (j - n/2) / (n*dt), pi and the
    phases formed and summed in longdouble, so that its own round-off lies well below any float64 path's."""
    grid = lo_spec.grid
    g = np.conj(full_spectrum(lo_spec).amp.astype(np.clongdouble)) * full_spectrum(sig_spec).amp.astype(np.clongdouble)
    window = np.longdouble(grid.n) * np.longdouble(grid.dt)
    turn = -2j * (4 * np.arctan(np.longdouble(1))) * (np.arange(grid.n) - grid.n // 2).astype(np.longdouble) / window
    return np.array([(g * np.exp(turn * np.longdouble(t))).sum().real / window for t in delays], dtype=np.float64)


def centred_box(full, size):
    """The shaper's pixel box as a direct correlation: the mean over size + 1 bins with half-weight ends
    (size bins for an odd size) centred on each bin, of a spectrum in the full layout, circular."""
    weights = np.ones(size + 1 - size % 2)
    if size % 2 == 0:
        weights[[0, -1]] = 0.5
    weights /= size
    return correlate1d(full.real, weights, mode="wrap") + 1j * correlate1d(full.imag, weights, mode="wrap")


def full_layout_lo(target, cfg):
    """``achievable_lo`` with every spectrum in the full layout: the target's full spectrum cut to
    |nu| <= span / 2, box-averaged by :func:`centred_box` in the frame of the target's peak sample k
    (the spectrum times exp(-2*pi*i*nu*k*dt) is averaged, then multiplied by exp(+2*pi*i*nu*k*dt)),
    back to time by the complex inverse transform, windowed about k and normalized.  A complex field:
    its imaginary part is round-off."""
    grid = target.grid
    k_peak = int(np.argmax(np.abs(target.amp)))
    spec = full_spectrum(target).amp
    if cfg.span_hz is not None:
        spec = np.where(np.abs(full_freqs(grid)) <= 0.5 * cfg.span_hz, spec, 0.0)
    if cfg.pixel_width_hz is not None:
        # nu*k*dt = q*k/n cycles for bin q: reduced mod n in integers, so each phase is exact to round-off
        cycles = (np.arange(-grid.n // 2, grid.n // 2) * k_peak) % grid.n / grid.n
        delay = np.exp(-2j * np.pi * cycles)
        spec = centred_box(spec * delay, max(1, int(round(cfg.pixel_width_hz / grid.df)))) / delay
    amp = full_field(FullSpectrum(grid, spec)).amp
    keep, window = _resolution_window(grid, k_peak, cfg.resolution_fwhm_hz)
    lo = np.zeros(grid.n, dtype=complex)
    lo[keep] = amp[keep] * window
    return TemporalField(grid, lo / np.sqrt(grid.dt * np.sum(np.abs(lo) ** 2)))
