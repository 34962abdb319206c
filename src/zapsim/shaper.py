"""Finite-resolution pulse-shaper model and achievable homodyne efficiency.

A 4-f shaper with a focused spot of finite size cannot imprint spectral
features sharper than its resolution.  That limit is modeled as convolution
of the requested complex spectrum with a unit-area Gaussian kernel whose
wavelength FWHM (default 0.6 nm) converts to frequency as dnu = c*dlam/lam^2.
In the time domain the convolution is a multiplicative Gaussian window of
FWHM 4*ln2/(pi*dnu), a few picoseconds at the default resolution, centered
on the pulse; structure spreading beyond that window is unreachable by the
shaped local oscillator.  An optional pixel width adds a box average of the
spectrum before the resolution smoothing, one pixel wide and centred on each
bin, as a pixelated mask is centred on each pixel (A. M. Weiner, Rev. Sci.
Instrum. 71, 1929 (2000)).  The box averages in the pulse's frame, like the
window: a pulse moved by whole samples gets the same LO, moved with it.

The shaper reference frame travels with the pulse, so the window is centered
on the target's peak.  Global delay and phase of the local oscillator are
free experimental parameters and are optimized away before any efficiency is
reported.

The resonant input pulse is real, and so are the transmitted field and
every LO shaped from it: a centred box keeps a spectrum Hermitian.  So the
transmission, the LO shaping and the best-delay searches all run on nu >= 0
half spectra (n/2 + 1 bins), each LO from one real inverse FFT and its
spectrum from one real FFT.  A complex input raises ValueError
(``fields._real``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    _EXP_UNDERFLOW,
    LN2,
    _real,
    _roundoff,
    _spectrum,
    Grid,
    SpectralField,
    TemporalField,
    normalize,
)
from .medium import MediumParams, Transmitted, transmit
from .modes import _check_eta_base, _check_normalized, _eta, _even_lag_overlaps, _phasors, _spectral_product, _support

__all__ = [
    "ShaperConfig",
    "achievable_lo",
    "max_shaped_eta",
    "max_unshaped_eta",
]

SPEED_OF_LIGHT = 299792458.0
CENTER_WAVELENGTH = 780e-9

@dataclass(frozen=True)
class ShaperConfig:
    """Spectral resolution and aperture of the local-oscillator shaper.

    All widths are in meters of wavelength at ``CENTER_WAVELENGTH``.
    ``pixel_width`` of None selects the continuous-mask model; ``span``
    of None disables the aperture cut.
    """

    resolution_fwhm: float = 0.6e-9
    pixel_width: float | None = None
    span: float | None = 60e-9

    def __post_init__(self) -> None:
        if not (self.resolution_fwhm > 0.0):
            raise ValueError(f"resolution FWHM must be positive, got {self.resolution_fwhm!r}")
        if self.pixel_width is not None and not (self.pixel_width > 0.0):
            raise ValueError(f"pixel width must be positive, got {self.pixel_width!r}")
        if self.span is not None and not (self.span > self.resolution_fwhm):
            raise ValueError(
                f"span {self.span:g} m must exceed the resolution FWHM {self.resolution_fwhm:g} m"
            )
        if None not in (self.span, self.pixel_width) and not (self.pixel_width < self.span):
            raise ValueError(f"pixel width {self.pixel_width:g} m must be below the span {self.span:g} m")

    def _to_freq(self, width: float) -> float:
        return SPEED_OF_LIGHT * width / CENTER_WAVELENGTH**2

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


def _resolution_window(grid: Grid, k_center: int, dnu: float):
    """Time-domain image of the unit-area Gaussian kernel, centered on sample ``k_center``.

    Returns the sample indices where it can be nonzero and its values there.
    The exponent falls below -746, where exp is exactly 0, beyond 49 ps of
    the center at the default resolution (about 9,800 of 2^19 samples), so
    only that span is evaluated; the indices are ``slice(None)`` when the
    span covers the grid.
    """
    reach = np.sqrt(-_EXP_UNDERFLOW * 4.0 * LN2) / (np.pi * dnu * grid.dt) + 2.0  # in samples, with margin
    if 2.0 * reach + 1.0 >= grid.n:
        keep, k = slice(None), np.arange(grid.n)
    else:
        keep = k = np.arange(k_center - int(reach), k_center + int(reach) + 1) % grid.n
    # times k*dt from the sample indices, bit for bit Grid.t[k], which is not built
    tsig = ((k * grid.dt - k_center * grid.dt + 0.5 * grid.window) % grid.window) - 0.5 * grid.window
    return keep, np.exp(-((np.pi * dnu * tsig) ** 2) / (4.0 * LN2))


def _sample_delay(n: int, k: int, count: int) -> np.ndarray:
    """exp(-2*pi*i*q*k/n) for q < count, the phase a delay of k whole samples puts on bin q: as the outer
    product of two ~sqrt(count) exponentials (see modes._phasors), each exponent reduced mod n in integers,
    so every phase is right to round-off where a float delay q*df*k*dt would lose ~q*k/n ulps of a cycle."""
    cols = max(1, int(np.ceil(np.sqrt(count))))
    rows = -(-count // cols)
    col = np.exp((-2j * np.pi / n) * (np.arange(cols) * k % n))
    row = np.exp((-2j * np.pi / n) * (np.arange(rows) * (cols * k % n) % n))
    return np.multiply.outer(row, col).ravel()[:count]


def _box_average(x: np.ndarray, size: int) -> np.ndarray:
    """Circular mean of a Hermitian spectrum, given and returned as its nu >= 0 half x, over a box size * df
    wide centred on each bin: bins i - size//2 ... i + size//2, the end bins of an even size at half weight,
    each bin q read as x[q mod n] or, past Nyquist, as conj(x[n - q mod n]).  The result is Hermitian."""
    if size == 1:
        return x
    n, reach = 2 * (x.size - 1), size // 2
    q = np.arange(-reach - 1, x.size + reach) % n
    ext = x[np.minimum(q, n - q)]
    np.conj(ext, out=ext, where=q > n // 2)
    sums = np.cumsum(ext)
    out = sums[2 * reach + 1 :] - sums[: x.size]
    if size % 2 == 0:
        out -= 0.5 * (ext[1 : x.size + 1] + ext[2 * reach + 1 :])
    out /= size
    return out


def _peak_sample(amp: np.ndarray) -> int:
    """argmax(|amp|) of a real array, the first of ties, with no |amp| array."""
    k_max, k_min = int(np.argmax(amp)), int(np.argmin(amp))
    return min((-amp[k_max], k_max), (amp[k_min], k_min))[1]


def achievable_lo(
    target: TemporalField | Transmitted, cfg: ShaperConfig, spectrum: SpectralField | None = None
) -> TemporalField:
    """Closest mode to the real envelope ``target`` the shaper can actually produce.

    The target spectrum is aperture-limited, pixel-averaged when a pixel
    width is configured, smoothed by the resolution kernel, and renormalized.
    With ideal resolution (kernel much narrower than the grid spacing) the
    target is returned unchanged up to normalization.  A caller that already
    holds the target's unit-energy half spectrum passes it as ``spectrum`` to
    save a transform; the target may then have any energy, since the result
    is renormalized and its peak, which centers the window, does not move.
    A :class:`Transmitted` target carries both: its output mode is the
    spectrum, and its field is transformed only if it is read.

    The LO is real, from one real inverse FFT of the shaped half spectrum.
    Without a pixel that transform takes only the bins inside the span, and
    zero-pads the rest itself.  The window is centred on that span-cut
    field's peak sample k wherever k is provably the target's, and the
    target is read only otherwise: the two fields' samples differ by at most
    the cut-off bins' reach 2 * df * sum |S| beyond the span, plus the
    round-off of either transform, so when no other sample of the cut field
    lies within twice that of its peak, k is the target's argmax(|E|), first
    of ties.  A pixel box reads bins across the cut, so the cut spectrum is
    padded first; it is averaged with the delay phase of the target's peak
    sample taken out, and that phase is put back after, so it always reads
    the target.  Without an aperture or a pixel the LO is the windowed target.
    """
    if isinstance(target, Transmitted):
        if spectrum is not None:
            raise ValueError("a transmitted target carries its own spectrum")
        out, spectrum = target, target.mode
        read_target = lambda: out.field  # built on first read
    else:
        target = _real(target)
        _check_normalized(target if spectrum is None else _real(spectrum), "shaper target")
        read_target = lambda: target

    shaped = cfg.span_hz is not None or cfg.pixel_width_hz is not None
    if not shaped:
        target = read_target()
        grid, amp = target.grid, target.amp
        k_peak = _peak_sample(amp)
    else:
        spectrum = _spectrum(read_target()) if spectrum is None else spectrum
        grid, source = spectrum.grid, spectrum.amp
        if cfg.span_hz is not None:  # keep the bins with nu <= span / 2
            source = source[: np.searchsorted(grid.half_freqs, 0.5 * cfg.span_hz, side="right")]
        if cfg.pixel_width_hz is None:
            # how far the fields of the cut and of the whole unit-energy spectrum can differ, summed before
            # the cut field exists
            reach = 2.0 * grid.df * np.abs(spectrum.amp[source.size :]).sum() + 2.0 * _roundoff(grid, 1.0)
            spec = np.conj(source)  # irfft zero-pads the bins past the span itself
        else:  # the box reads bins across the cut, so the cut spectrum is padded first
            k_peak = _peak_sample(read_target().amp)
            size = max(1, int(round(cfg.pixel_width_hz / grid.df)))
            if size > grid.n:
                raise ValueError(f"shaper pixel covers {size} frequency bins, more than the grid's {grid.n}")
            spec = np.zeros(grid.n // 2 + 1, dtype=np.complex128)
            spec[: source.size] = source
            if size == 1:
                np.conj(spec, out=spec)
            else:  # the delay of k_peak, in whole samples so that its phase repeats past Nyquist, is taken
                # out and then put back onto the conjugated bins: conj(box * conj(delay)) = conj(box) * delay
                spec *= _sample_delay(grid.n, k_peak, spec.size)
                spec = _box_average(spec, size)
                np.conj(spec, out=spec)
                spec *= _sample_delay(grid.n, k_peak, spec.size)
        amp = np.fft.irfft(spec, grid.n)  # to_time's transform, of bins conjugated as it conjugates them
        del spec  # freed before the window's temporaries
        amp /= grid.dt
        if cfg.pixel_width_hz is None:  # k_peak is the target's when no other sample is within 2 * reach
            k_peak = _peak_sample(amp)
            level = abs(amp[k_peak]) - 2.0 * reach
            if not (level > 0.0 and np.count_nonzero(amp >= level) + np.count_nonzero(amp <= -level) == 1):
                k_peak = _peak_sample(read_target().amp)

    keep, window = _resolution_window(grid, k_peak, cfg.resolution_fwhm_hz)
    windowed = amp[keep] * window
    energy = grid.dt * np.sum(np.abs(windowed) ** 2)  # the LO is zero outside keep
    if energy <= 0.0:
        raise ValueError("cannot normalize a zero field")
    windowed /= np.sqrt(energy)
    if shaped:
        amp.fill(0.0)  # the transform's own output array becomes the windowed LO
    else:
        amp = np.zeros_like(amp)
    amp[keep] = windowed
    return TemporalField(grid, amp)


# Most Newton starts in one search, highest samples first.  The loss bound
# admits 1-2 samples at the default scenario; a pulse barely resolved by dt
# can admit every sample, and each start costs a few support-length sums.
_MAX_STARTS = 8

# Slack, in units of |overlap|, on the bound that lets the shaped input LO be
# skipped: covers Newton's stopping tolerance and round-off in the distance.
_SKIP_SLACK = 1e-9


def _best_projection(lo_spec: SpectralField, sig_spec: SpectralField) -> float:
    """max over delay of |<lo(tau)|sig>|^2, refined to machine precision.

    With g = conj(LO) * S, f(tau) = A(tau)^2, A = df * sum g * exp(-2*pi*i*nu*tau),
    real because both spectra are half spectra of real fields and g is Hermitian.
    The coarse search samples f at the even lags 2m*dt within +-window/4,
    all from one half-length transform (:func:`_even_lag_overlaps`).
    On the support of g, |f''| <= 2*(2*pi)^2*(M1^2 + M0*M2) with
    Mk = df * sum |g| * |nu|^k (|g| is even, so its centroid is nu = 0), so the
    sample nearest the true maximum, at most dt from it, falls short of it by
    at most L = (2*pi*dt)^2 * (M1^2 + M0*M2).  Newton steps on f, each kept
    within 2*dt of its start, refine from every sample within L of the best
    sample (at most ``_MAX_STARTS``), so a nearly tied peak that the lattice
    undersamples is not lost; the largest value seen is returned.  Every
    step is also kept within +-window/4, the coarse search's own range, so
    an overlap that still rises there returns its value at that edge.  Each
    step sums A and both tau-derivatives exactly over the support of g, from one
    product h of g with the phasors of :func:`_phasors`.  The sums are ufunc
    reductions: a BLAS dot product here (h @ phase) runs on OpenBLAS's own
    threads and nearly doubles the CPU time of a depth scan for no gain in
    wall time.  The sums run over nu >= 0, every bin but DC and Nyquist
    weighted 2 (:func:`_support`), and take real parts.
    """
    product = _spectral_product(lo_spec, sig_spec)
    grid = product.grid
    mid, eighth = grid.n // 2, grid.n // 8
    coarse = _even_lag_overlaps(product)
    coarse *= coarse  # |A|^2 of the real A, squared in place
    coarse[eighth + 1 : mid - eighth] = -1.0  # keep the lags |2m| <= n/4
    best = float(coarse.max())

    g, freqs = _support(product)
    del product
    g *= grid.df
    mag = np.abs(g)
    m0 = mag.sum()
    if m0 == 0.0:  # disjoint spectra: every overlap is 0
        return best
    dev = np.abs(freqs)
    mag *= dev
    m1 = mag.sum()
    mag *= dev
    loss = (2.0 * np.pi * grid.dt) ** 2 * (m1**2 + m0 * mag.sum())
    starts = np.nonzero(coarse >= best - loss)[0]
    starts = starts[np.argsort(-coarse[starts], kind="stable")[:_MAX_STARTS]]

    phase = -2j * np.pi * freqs
    quarter = 0.25 * grid.window  # 2 * eighth * dt exactly, as n is a power of two
    for m in starts:
        start = 2 * (int(m) if m <= eighth else int(m) - mid) * grid.dt
        low, high = max(-2.0 * grid.dt, -quarter - start), min(2.0 * grid.dt, quarter - start)
        x = 0.0  # offset from the start, kept within two time steps and +-window/4
        for _ in range(8):  # at the default scenario Newton stops within 4 steps
            h = g * _phasors(freqs[0], grid.df, g.size, start + x)
            a = h.sum().real
            h *= phase
            a1 = h.sum().real
            h *= phase
            a2 = h.sum().real
            best = max(best, float(a**2))
            half_d2 = a1**2 + a * a2
            new = x
            if half_d2 < 0.0:
                new = min(max(x - a * a1 / half_d2, low), high)
            if abs(new - x) <= 1e-9 * grid.dt:
                break
            x = new
    return best


@dataclass
class _ShapedInput:
    """The input LO u's half spectrum ``lo``, the shaped input LO s = achievable_lo(u) as a field, and
    their distance min over phi of ||u - exp(i*phi)*s|| = sqrt(2 - 2*|<u|s>|).  s's half spectrum is
    transformed on first use, by the first search that the distance cannot skip, and then replaces
    the field, so that one of the two is held through the medium loop."""

    lo: SpectralField
    field: TemporalField | None
    distance: float
    _spectrum: SpectralField | None = None

    @property
    def spectrum(self) -> SpectralField:
        if self._spectrum is None:
            self._spectrum, self.field = _spectrum(self.field), None
        return self._spectrum


def _shaped_input(mode_in: TemporalField, lo_in: SpectralField, cfg: ShaperConfig) -> _ShapedInput:
    """The shaped input LO of the unit-energy input mode u and its half spectrum ``lo_in``, with
    <u|s> = dt * sum u * s summed in time by einsum's own loop: a BLAS dot product would start threads,
    and a product array would be a full-length temporary."""
    mode_in = _real(mode_in)
    shaped = achievable_lo(mode_in, cfg, lo_in)
    inner = abs(lo_in.grid.dt * np.einsum("i,i->", mode_in.amp, shaped.amp))
    return _ShapedInput(lo_in, shaped, float(np.sqrt(max(0.0, 2.0 - 2.0 * inner))))


def _efficiencies(out: Transmitted, eta_base: float, cfg: ShaperConfig, shaped_in: _ShapedInput) -> tuple[float, float]:
    """(unshaped, shaped) efficiency for one medium, with ``shaped_in`` from :func:`_shaped_input`.

    The shaped efficiency is the best of the LO shaped to the transmitted
    mode, the shaped input LO s and the input LO u itself.  Delay is unitary,
    so at every delay |<s(tau)|out>| <= |<u(tau)|out>| + distance(u, s)
    (Cauchy-Schwarz): the search over s, and with it s's transform, is
    skipped when that bound on its result cannot reach the own-mode LO's.
    The own-mode LO is shaped from the output mode's spectrum, and reads the
    transmitted field only where its centre cannot be proven from the cut
    spectrum's own field (:func:`achievable_lo`).
    """
    mode = out.mode
    p_in = _best_projection(shaped_in.lo, mode)
    unshaped = float(_eta(eta_base, out, p_in))
    best = _best_projection(_spectrum(achievable_lo(out, cfg)), mode)
    if (np.sqrt(p_in) + shaped_in.distance + _SKIP_SLACK) ** 2 >= best:
        best = max(best, _best_projection(shaped_in.spectrum, mode))
    return unshaped, max(float(_eta(eta_base, out, best)), unshaped)


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
    lo_in = _spectrum(mode_in)
    out = transmit(lo_in, m)
    return _efficiencies(out, eta_base, cfg, _shaped_input(mode_in, lo_in, cfg))[1]


def max_unshaped_eta(input_field: TemporalField, m: MediumParams, eta_base: float) -> float:
    """Best homodyne efficiency with the un-modulated input pulse as LO."""
    _check_eta_base(eta_base)
    lo_in = _spectrum(normalize(input_field))
    out = transmit(lo_in, m)
    return float(_eta(eta_base, out, _best_projection(lo_in, out.mode)))
