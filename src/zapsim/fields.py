"""Uniform time/frequency grids, envelope fields, and transforms.

All fields are carrier-removed envelopes sampled on a uniform time grid:
a real envelope (the resonant pulse and all a real medium makes of it) is
stored as float64, any other as complex128.  Spectra are complex and indexed
by detuning from the optical carrier in Hz.  The transform pair is the
Riemann-sum form of the continuous Fourier transform,

    E(nu) = dt * sum_t  E(t)  * exp(+2*pi*i*nu*t)
    E(t)  = df * sum_nu E(nu) * exp(-2*pi*i*nu*t)

so that a component at positive detuning nu evolves as exp(-2*pi*i*nu*t),
Parseval holds exactly between the two energy sums, and the zero-detuning
spectral sample equals the pulse area dt * sum_t E(t).  With this sign
choice the response of a passive resonant medium is causal in time.

The pulse is carried on resonance and the medium's impulse response is
real, so every envelope analysed is real and its spectrum Hermitian,
E(-nu) = conj E(nu).  A :class:`SpectralField` is therefore always the
nu >= 0 half, n/2 + 1 bins from DC to +Nyquist (``Grid.half_freqs``): one
real FFT makes it (:func:`to_spectrum`, which refuses a complex field with
a nonzero imaginary part in ``_real``) and one real inverse FFT undoes it
into a float64 field (:func:`to_time`).  A spectrum made with
``prefix=True`` may hold only its first bins, fewer than n/2 + 1, and the
bins above them are exactly 0: the transmitted spectrum stops at the
input's band (``SpectralField.band``, ``medium.transmit``), and a shaped
LO's at its own (``shaper._band_spectrum``).  A sum over the full spectrum
of a product of half spectra weights every bin but DC and Nyquist twice,
and a prefix holds no Nyquist bin (``_spectral_sum``).  :func:`to_time`
hands the real inverse FFT a conjugated copy of the bins, which it
zero-pads to n/2 + 1.  These two are the package's only real FFTs, each
called on the grid its samples live on: the even-lag delay scans read the
field of a folded spectrum on the grid of n/2 samples 2*dt apart
(``modes._even_lag_overlaps``), and every LO is the field of the bins
inside its span on the grid of n/D samples D*dt apart that its band needs,
whose spectrum is the forward transform of that same array
(``shaper._shaped_lo``, ``shaper._band_spectrum``; D = 1 for
``shaper.achievable_lo``).  The transmitted field
(``medium.Transmitted.field``) is :func:`to_time` of F*H, made only when it
is read.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

__all__ = [
    "Grid",
    "TemporalField",
    "SpectralField",
    "GridAdequacyWarning",
    "make_grid",
    "gaussian_pulse",
    "to_spectrum",
    "to_time",
    "pulse_area",
    "pulse_energy",
    "normalize",
]

LN2 = float(np.log(2.0))
# A spectrum's band ends at its last bin whose modulus exceeds this fraction of its peak (SpectralField.band)
BAND_CUTOFF = 1e-12
# np.exp returns exactly 0 for any argument below this (its smallest subnormal is exp(-745.13))
_EXP_UNDERFLOW = -746.0


class GridAdequacyWarning(UserWarning):
    """Grid sampling or windowing is marginal for the requested physics."""


@dataclass(frozen=True)
class Grid:
    """Uniform time grid with its matching detuning grid.

    Parameters
    ----------
    n : int
        Sample count, a power of two, at least 2.
    dt : float
        Time step in seconds.

    The frequency samples of a spectrum are detunings from the carrier,
    ascending from 0 to +1/(2*dt) with spacing df = 1/(n*dt)
    (``half_freqs``).
    """

    n: int
    dt: float

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 2 or self.n & (self.n - 1):
            raise ValueError(f"grid size must be a power of two >= 2, got {self.n!r}")
        if not (self.dt > 0.0) or not np.isfinite(self.dt):
            raise ValueError(f"time step must be positive and finite, got {self.dt!r}")

    @property
    def df(self) -> float:
        """Frequency spacing 1/(n*dt) in Hz."""
        return 1.0 / (self.n * self.dt)

    @property
    def window(self) -> float:
        """Total time window n*dt in seconds."""
        return self.n * self.dt

    @property
    def nyquist(self) -> float:
        """Largest representable |detuning|, 1/(2*dt) in Hz."""
        return 0.5 / self.dt

    @cached_property
    def t(self) -> np.ndarray:
        """Time samples, k*dt for k = 0 .. n-1."""
        arr = np.arange(self.n) * self.dt
        arr.flags.writeable = False
        return arr

    @cached_property
    def half_freqs(self) -> np.ndarray:
        """Detunings of a half spectrum in Hz, k*df for k = 0 .. n/2, scaled as fftfreq scales its bin
        numbers: bit for bit the |fftfreq(n, dt)| they mirror."""
        arr = np.arange(self.n // 2 + 1) * self.df
        arr.flags.writeable = False
        return arr


def _validate_amp(amp, size: int, keep_real: bool = False, prefix: bool = False) -> np.ndarray:
    """amp as complex128, or as float64 when ``keep_real`` and it is not complex; checked for shape and finiteness.
    With ``prefix`` it may hold fewer than ``size`` samples, at least one."""
    out = np.asarray(amp, dtype=np.float64 if keep_real and not np.iscomplexobj(amp) else np.complex128)
    if out.ndim != 1 or not (0 < out.size <= size if prefix else out.size == size):
        expected = f"at most ({size},)" if prefix else f"({size},)"
        raise ValueError(f"amplitude array has shape {out.shape}, expected {expected}")
    with np.errstate(all="ignore"):  # a finite sum proves it without a full-grid mask; finite samples may sum to inf
        finite = np.isfinite(out.sum()) or np.all(np.isfinite(out))
    if not finite:
        raise ValueError("amplitude array contains non-finite values")
    return out


@dataclass(frozen=True)
class TemporalField:
    """Envelope E(t) on a grid, float64 for real values and complex128 otherwise; immutable after creation."""

    grid: Grid
    amp: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp", _validate_amp(self.amp, self.grid.n, keep_real=True))


@dataclass(frozen=True)
class SpectralField:
    """The nu >= 0 half of the Hermitian spectrum E(nu) of a real field: n/2 + 1 complex bins, ascending
    from 0 to +Nyquist (``Grid.half_freqs``); E(-nu) = conj E(nu) gives the rest.

    With ``prefix`` the array may hold only the first bins, 1 to n/2 + 1 of them, and the bins above are
    exactly 0: a prefix of fewer than n/2 + 1 bins holds no Nyquist bin.
    """

    grid: Grid
    amp: np.ndarray
    prefix: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "amp", _validate_amp(self.amp, self.grid.n // 2 + 1, prefix=self.prefix))

    @cached_property
    def energy(self) -> float:
        """df * sum |E(nu)|^2, summed on first use: amp must not change in place afterwards."""
        power = np.abs(self.amp)
        power *= power
        return float(self.grid.df * _spectral_sum(power, self.grid.n))

    @cached_property
    def band(self) -> int:
        """K, 1 + the last bin whose modulus exceeds ``BAND_CUTOFF`` of the peak (1 for a zero spectrum): the bins
        a product with this spectrum keeps (``medium.transmit``).  Dropping the bins above moves the field by
        at most 2 * df * sum |E| over them."""
        mag = np.abs(self.amp)
        above = np.nonzero(mag > BAND_CUTOFF * mag.max())[0]
        return int(above[-1]) + 1 if above.size else 1


def _roundoff(grid: Grid, energy: float) -> float:
    """A bound on the round-off in one sample of a field of this energy, as a transform of its spectrum or
    a sum over its bins computes it: 16 * n * eps times the field's RMS sqrt(energy / window).  An FFT errs by
    about log2(n) * eps * sqrt(sum |E(t)|^2) = log2(n) * eps * sqrt(n) * RMS, a sum of m terms by m * eps times
    the sum of their moduli, which is at most sqrt(n) * RMS for the bins (Cauchy-Schwarz and Parseval)."""
    return 16.0 * grid.n * float(np.finfo(np.float64).eps) * float(np.sqrt(energy / grid.window))


def _spectral_sum(x: np.ndarray, n: int):
    """Sum over the full spectrum of a product x of half spectra of an n-point grid, such as conj(a) * b.  As
    x(-nu) = conj x(nu), every bin but DC and Nyquist counts twice and the sum is real; x holds the Nyquist
    bin only when it holds all n/2 + 1."""
    total = 2.0 * np.sum(x) - x[0]
    return (total - x[-1] if x.size == n // 2 + 1 else total).real


def make_grid(n: int, dt: float) -> Grid:
    """Build a grid of ``n`` samples (power of two) with step ``dt`` seconds."""
    return Grid(int(n), float(dt))


def _check_pulse(grid: Grid, fwhm_t: float, center_t: float = 0.0) -> None:
    """The rules of :func:`gaussian_pulse`, checked without building the pulse."""
    if not (0.0 < fwhm_t < grid.window):
        raise ValueError(f"pulse fwhm {fwhm_t!r} s must lie in (0, window={grid.window} s)")
    if not np.isfinite(center_t):
        raise ValueError(f"pulse center {center_t!r} s must be finite")


def gaussian_pulse(grid: Grid, fwhm_t: float, center_t: float | None = None) -> TemporalField:
    """Transform-limited Gaussian pulse with unit peak amplitude, on resonance: a real (float64) envelope.

    Parameters
    ----------
    fwhm_t : float
        Full width at half maximum of the intensity profile |E(t)|^2, seconds.
    center_t : float, optional
        Peak time, finite; it may lie outside the window.  Defaults to one
        eighth of the window, which leaves most of the window free for the
        causal tail a resonant medium appends.

    Raises
    ------
    ValueError
        If the pulse does not fit the window or the center is not finite.
    """
    if center_t is None:
        center_t = grid.window / 8.0
    _check_pulse(grid, fwhm_t, center_t)
    reach = fwhm_t * np.sqrt(-_EXP_UNDERFLOW / (2.0 * LN2)) / grid.dt + 2.0  # samples; exp is 0 beyond, with margin
    lo, hi = (int(np.clip(k, 0, grid.n)) for k in (center_t / grid.dt - reach, center_t / grid.dt + reach + 1.0))
    x = np.arange(lo, hi) * grid.dt - center_t  # grid.t[lo:hi] - center_t
    env = np.exp(-2.0 * LN2 * (x / fwhm_t) ** 2)
    amp = np.zeros(grid.n)
    amp[lo:hi] = env
    return TemporalField(grid, amp)


def to_spectrum(f: TemporalField) -> SpectralField:
    """Forward transform of a real field into its half spectrum (see :class:`SpectralField`), by one real FFT;
    the result approximates E(nu) = integral E(t) e^{2 pi i nu t} dt.  A complex field with a nonzero
    imaginary part raises ValueError (:func:`_real`)."""
    amp = np.fft.rfft(_real(f).amp)
    np.conj(amp, out=amp)  # rfft's kernel is exp(-2*pi*i*nu*t)
    amp *= f.grid.dt
    return SpectralField(f.grid, amp)


def _real(f: TemporalField) -> TemporalField:
    """f as mode analysis takes it: a float64 field as is, a complex128 field with an all-zero imaginary
    part as float64; a complex field with a nonzero imaginary part raises ValueError."""
    if not np.iscomplexobj(f.amp):
        return f
    if np.any(f.amp.imag):
        raise ValueError("mode analysis takes real envelopes (float64, or complex128 with a zero imaginary part), "
                         "got a complex envelope with a nonzero imaginary part")
    return TemporalField(f.grid, np.ascontiguousarray(f.amp.real))


def to_time(F: SpectralField) -> TemporalField:
    """Inverse transform, exact round-trip partner of :func:`to_spectrum`: one real inverse FFT, of a
    conjugated copy of the bins, into a real (float64) field; the FFT zero-pads a prefix."""
    amp = np.fft.irfft(np.conj(F.amp), F.grid.n)
    amp /= F.grid.dt
    return TemporalField(F.grid, amp)


def pulse_area(f: TemporalField) -> complex:
    """Complex pulse area dt * sum_t E(t).

    Equals the zero-detuning sample of :func:`to_spectrum`, i.e. the field
    component at the carrier frequency.  For a resonant carrier this is the
    quantity the area theorem constrains.
    """
    return complex(f.grid.dt * f.amp.sum())


def pulse_energy(f: TemporalField | SpectralField) -> float:
    """Field energy, dt * sum |E(t)|^2 or df * sum |E(nu)|^2 (arbitrary units).

    The two evaluations agree exactly by Parseval under this transform
    normalization.
    """
    if isinstance(f, TemporalField):
        return float(f.grid.dt * np.sum(np.abs(f.amp) ** 2))
    if isinstance(f, SpectralField):
        return f.energy
    raise TypeError(f"expected TemporalField or SpectralField, got {type(f).__name__}")


def _norm(f: TemporalField | SpectralField) -> float:
    """sqrt of the field energy; a zero field has no mode and raises."""
    e = pulse_energy(f)
    if e <= 0.0:
        raise ValueError("cannot normalize a zero field")
    return float(np.sqrt(e))


def normalize(f: TemporalField | SpectralField) -> TemporalField | SpectralField:
    """Scale a field, in either domain, to unit energy.  The product with 1/norm is how numpy divides a
    complex array by a float, so a real field scales to the bits of its complex128 copy."""
    return replace(f, amp=f.amp * (1.0 / _norm(f)))
