"""Finite-resolution pulse-shaper model and achievable homodyne efficiency.

A 4-f shaper with a focused spot of finite size cannot imprint spectral
features sharper than its resolution.  That limit is modeled as convolution
of the requested complex spectrum with a unit-area Gaussian kernel whose
wavelength FWHM (default 0.6 nm) converts to frequency as dnu = c*dlam/lam^2.
In the time domain the convolution is a multiplicative Gaussian window of
FWHM 4*ln2/(pi*dnu), a few picoseconds at the default resolution, centered
on the pulse; structure spreading beyond that window is unreachable by the
shaped local oscillator.  An optional pixel width adds a box average of the
spectrum, one pixel wide and centred on each bin, as a pixelated mask is
centred on each pixel.  Averaged in the pulse's frame, the box is a second
factor in time: the periodic Dirichlet kernel centred on the pulse, the
sinc envelope of a pixelated mask (A. M. Weiner, Rev. Sci. Instrum. 71,
1929 (2000)).  So a pulse moved by whole samples gets the same LO, moved
with it.

The shaper reference frame travels with the pulse, so the window is centered
on the target's peak.  Global delay and phase of the local oscillator are
free experimental parameters and are optimized away before any efficiency is
reported.

The resonant input pulse is real, and so are the transmitted field and
every LO shaped from it: both time-domain factors are real.  So the
transmission, the LO shaping and the best-delay searches all run on nu >= 0
half spectra (n/2 + 1 bins, or a prefix of them: the transmitted spectrum
stops at the input's band).  Every LO is built by one path
(:func:`_shaped_lo`) on the grid its band needs: n/D samples D*dt apart, D
the largest power of two whose Nyquist/D the band that the span, the window
and the box leave it stays below (:func:`_band_spectrum`), or D = 1 without
a span and for :func:`achievable_lo`.  On that grid the LO is one
:func:`fields.to_time` of the bins inside its span, windowed there, and its
spectrum, the n/(2D) + 1 bins of its band, is one :func:`fields.to_spectrum`
of the same array: at the default span D = 2, and a depth scan makes no
length-n transform per medium.  A complex input raises ValueError
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
    Grid,
    SpectralField,
    TemporalField,
    _norm,
    normalize,
    to_spectrum,
    to_time,
)
from .medium import MediumParams, Transmitted, transmit
from .modes import (
    _check_eta_base,
    _check_normalized,
    _eta,
    _even_lag_overlaps,
    _phasors,
    _spectral_product,
    _support,
)

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


def _resolution_window(grid: Grid, k_center: int, dnu: float, size: int = 1):
    """Time-domain image of the unit-area Gaussian kernel, centered on sample ``k_center``, times that of a
    box of ``size`` bins (:func:`_box_kernel`) when the box covers more than one bin.

    Returns the sample indices where it can be nonzero and its values there.
    The exponent falls below -746, where exp is exactly 0, beyond 49 ps of
    the center at the default resolution (about 9,800 of 2^19 samples), so
    only that span is evaluated; the indices are ``slice(None)`` when the
    span covers the grid.
    """
    reach = _window_reach(grid, dnu)
    if reach is None:
        keep, k = slice(None), np.arange(grid.n)
    else:
        keep = k = np.arange(k_center - reach, k_center + reach + 1) % grid.n
    # times k*dt from the sample indices, bit for bit Grid.t[k], which is not built
    tsig = ((k * grid.dt - k_center * grid.dt + 0.5 * grid.window) % grid.window) - 0.5 * grid.window
    window = np.exp(-((np.pi * dnu * tsig) ** 2) / (4.0 * LN2))
    if size > 1:
        window *= _box_kernel(grid.n, k - k_center, size)
    return keep, window


def _window_reach(grid: Grid, dnu: float) -> int | None:
    """The samples either side of its centre where the resolution window can be nonzero; None if they cover the grid."""
    reach = np.sqrt(-_EXP_UNDERFLOW * 4.0 * LN2) / (np.pi * dnu * grid.dt) + 2.0  # in samples, with margin
    return None if 2.0 * reach + 1.0 >= grid.n else int(reach)


def _box_kernel(n: int, m: np.ndarray, size: int) -> np.ndarray:
    """Time-domain image, at whole-sample offsets m, of a centred box average over ``size`` of n bins:
    the periodic Dirichlet kernel sin(pi*size*m/n) / (size*sin(pi*m/n)), 1 at m = 0 mod n, times
    cos(pi*m/n) for an even size, whose two end bins weigh half.  m is reduced mod n to [-n/2, n/2) and
    size*m mod 2n to [-n, n) in integers, so that an angle near 0 is formed as a small one, and each value
    is right to round-off relative to the kernel's peak of 1."""
    m = (m + n // 2) % n - n // 2
    angle = np.pi / n
    num = np.sin(angle * ((size * m + n) % (2 * n) - n))
    if size % 2 == 0:
        num *= np.cos(angle * m)
    return np.divide(num, size * np.sin(angle * m), out=np.ones_like(num), where=m != 0)


def _pixel_bins(grid: Grid, cfg: ShaperConfig) -> int:
    """The bins one pixel of ``cfg`` covers on ``grid``: 1 without a pixel box."""
    return 1 if cfg.pixel_width_hz is None else max(1, int(round(cfg.pixel_width_hz / grid.df)))


def _peak_sample(amp: np.ndarray) -> int:
    """argmax(|amp|) of a real array, the first of ties, with no |amp| array."""
    k_max, k_min = int(np.argmax(amp)), int(np.argmin(amp))
    return min((-amp[k_max], k_max), (amp[k_min], k_min))[1]


def achievable_lo(target: TemporalField | Transmitted, cfg: ShaperConfig) -> TemporalField:
    """Closest mode to the real envelope ``target`` the shaper can actually produce.

    The target spectrum is aperture-limited, pixel-averaged when a pixel
    width is configured, smoothed by the resolution kernel, and renormalized.
    With ideal resolution (kernel much narrower than the grid spacing) the
    target is returned unchanged up to normalization.  One path serves every
    target and span, on the target's own grid: the band-rate builder at
    D = 1 (:func:`_shaped_lo`).
    """
    return _shaped_lo(target, cfg, 1)


def _shaped_lo(target: TemporalField | Transmitted, cfg: ShaperConfig, step: int) -> TemporalField:
    """The unit-energy LO of :func:`achievable_lo` at every ``step``-th sample, on the grid of n/step samples
    step*dt apart: the grid its band needs when that band lies below Nyquist/step (:func:`_band_spectrum`).

    The spectrum S is a :class:`Transmitted` target's own, with no forward
    transform, or :func:`fields.to_spectrum` of a unit-energy field.  Its bins
    up to the cut, span/2 or without a span its last bin, are scaled by 1/|S|,
    to the bits of its unit-energy mode's, and the cut field E_cut is
    :func:`fields.to_time` of them on the step grid: below Nyquist/step they
    are the same bins, so that field is E_cut at every step-th sample.

    The LO is E_cut times the resolution window and, for a pixel of more than
    one bin, the box's Dirichlet kernel, both centred on the target's peak
    sample k of the full grid and evaluated on the window's samples alone
    (:func:`_resolution_window`) that the step grid holds, in the transform's
    own output array.  It is normalized by step*dt times its sum of squares,
    which equals the full rate's sum on the band (Parseval).  k is E_cut's
    own peak sample wherever it is provably the target's
    (:func:`_proven_peak`), and the target's field is read (a transmitted one
    built) only otherwise.
    """
    if isinstance(target, Transmitted):
        spectrum, read_target = target.spectrum, lambda: target.field  # the field is built on first read
    else:
        target = _real(target)
        _check_normalized(target, "shaper target")
        spectrum, read_target = to_spectrum(target), lambda: target
    grid = spectrum.grid
    size = _pixel_bins(grid, cfg)
    if size > grid.n:
        raise ValueError(f"shaper pixel covers {size} frequency bins, more than the grid's {grid.n}")
    scale = 1.0 / _norm(spectrum)  # as normalize scales the mode's bins; a zero field raises
    # no span (span_hz None) cuts at the spectrum's last bin
    cut = np.searchsorted(grid.half_freqs[: spectrum.amp.size], 0.5 * (cfg.span_hz or np.inf), side="right")
    # how far the fields of the cut and of the whole unit-energy spectrum can differ, summed before the cut
    # field exists
    reach = 2.0 * grid.df * np.abs(spectrum.amp[cut:]).sum() * scale + 2.0 * _roundoff(grid, 1.0)
    rate = Grid(grid.n // step, step * grid.dt)
    bins = spectrum.amp[:cut] * scale
    amp = to_time(SpectralField(rate, bins, prefix=True)).amp
    k_peak = _proven_peak(amp, bins, grid, reach)
    del bins  # before the window's arrays exist
    if k_peak is None:
        k_peak = _peak_sample(read_target().amp)

    keep, window = _resolution_window(grid, k_peak, cfg.resolution_fwhm_hz, size)
    if step > 1:  # the window's samples that the step grid holds
        held = keep % step == 0
        keep, window = keep[held] // step, window[held]
    windowed = amp[keep] * window
    energy = rate.dt * np.sum(np.abs(windowed) ** 2)  # the LO is zero outside keep
    if energy <= 0.0:
        raise ValueError("cannot normalize a zero field")
    windowed /= np.sqrt(energy)
    amp.fill(0.0)  # the transform's own output array becomes the windowed LO
    amp[keep] = windowed
    return TemporalField(rate, amp)


def _proven_peak(amp: np.ndarray, bins: np.ndarray, grid: Grid, reach: float) -> int | None:
    """argmax |E_cut| on the full grid, first of ties, where it is provably the target's peak sample, else None.

    ``amp`` is E_cut at every D-th sample of ``grid`` (D = n / amp.size), the field of the cut half spectrum
    ``bins``.  The target's field and E_cut differ by at most ``reach`` at any sample, so when no other sample
    of E_cut lies within twice that of its peak k, k is the target's argmax |E|.  At D > 1 the samples in
    between are bounded by the curvature of E_cut: on an interval [c0, c1] of length D*dt,
    |E(s)| <= max(|E(c0)|, |E(c1)|) + (D*dt)^2 / 8 * max |E''|, and
    |E''| <= (2*pi)^2 * df * 2 * sum nu^2 |X| over the bins X.  Only the in-between samples of intervals whose
    bound reaches |E(j)| - 2 * reach, j the step grid's own peak, can win or tie; each is summed exactly,
    df * sum X * exp(-2*pi*i*nu*t) over the full spectrum, one product with the phasors of
    :func:`modes._phasors`, and every other sample lies below that level.  Sums over more than n bins in all
    are not made: reading the target's field, one length-n transform, costs less.
    """
    step = grid.n // amp.size
    j = _peak_sample(amp)
    peak = (-abs(amp[j]), step * j)  # (-|E|, sample) of the largest |E|, first of ties
    summed = []  # |E| of the in-between samples summed exactly
    if step > 1:
        near = abs(amp[j]) - 2.0 * reach - _rise(bins, grid, step)
        ends = np.nonzero((amp >= near) | (amp <= -near))[0]  # each interval next to one can pass the level
        intervals = np.unique(np.concatenate((ends - 1, ends)) % amp.size)
        if intervals.size * (step - 1) * bins.size > grid.n:  # reading the target costs less
            return None
        for s in (step * intervals[:, None] + np.arange(1, step)).ravel():
            # every bin but DC stands for its mirror too, and there is no Nyquist bin; the phasor at DC is 1
            x = 2.0 * np.einsum("i,i->", bins, _phasors(0.0, grid.df, bins.size, s * grid.dt)) - bins[0]
            summed.append(abs(grid.df * x.real))
            peak = min(peak, (-summed[-1], int(s)))
    level = -peak[0] - 2.0 * reach
    count = np.count_nonzero(amp >= level) + np.count_nonzero(amp <= -level) + sum(e >= level for e in summed)
    return peak[1] if level > 0.0 and count == 1 else None


def _rise(bins: np.ndarray, grid: Grid, step: int) -> float:
    """How far |E| can rise, between two samples step*dt apart, above the larger of its values at both:
    (step*dt)^2 / 8 * max |E''|, with |E''| <= (2*pi)^2 * df * 2 * sum nu^2 |X| for E the field of the half
    spectrum ``bins`` X of ``grid``, which holds no Nyquist bin (a parabola's bound, applied to E and -E)."""
    freqs = grid.half_freqs[: bins.size]
    curve = (2.0 * np.pi) ** 2 * grid.df * 2.0 * np.einsum("i,i,i->", np.abs(bins), freqs, freqs)
    return (step * grid.dt) ** 2 / 8.0 * curve


# Most Newton starts in one search, highest samples first.  The loss bound
# admits 1-2 samples at the default scenario; a pulse barely resolved by dt
# can admit every sample, and each start costs a few support-length sums.
_MAX_STARTS = 8


def _best_projection(lo_spec: SpectralField, sig_spec: SpectralField) -> float:
    """max over delay of |<lo(tau)|sig>|^2, refined to machine precision.

    With g = conj(LO) * S, f(tau) = A(tau)^2, A = df * sum g * exp(-2*pi*i*nu*tau),
    real because both spectra are half spectra of real fields and g is Hermitian.
    The coarse search samples f at the even lags 2m*dt within +-window/4,
    all from one half-length transform (:func:`_even_lag_overlaps`).
    On the support of g, |f''| <= 2*(2*pi)^2*(M1^2 + M0*M2) with
    Mk = df * sum |g| * |nu|^k over the full spectrum: the half spectrum's
    terms of :func:`_support`, at nu >= 0, weighted for their mirrors.  So the
    sample nearest the true maximum, at most dt from it, falls short of it by
    at most L = (2*pi*dt)^2 * (M1^2 + M0*M2).  Only the kept lags are squared
    and compared.  Newton steps on f, each kept within 2*dt of its start,
    refine from every sample within L of the best sample (at most
    ``_MAX_STARTS``), so a nearly tied peak that the lattice undersamples is
    not lost; the largest value seen is returned.  Each start begins at the
    vertex of the parabola through its sample and its two neighbours
    (:func:`_newton_start`).  Every step is also kept within +-window/4, the
    coarse search's own range, so an overlap that still rises there returns
    its value at that edge.  Each step sums A and both tau-derivatives
    exactly over the support of g from one product h of g with the phasors
    of :func:`_phasors`: A = sum Re h, A' = sum 2*pi*nu * Im h and
    A'' = -sum (2*pi*nu)^2 * Re h.  A is a pairwise ufunc sum, right to
    round-off; the derivatives, which only steer the step, are ``np.einsum``
    sums, numpy's own loops: a BLAS dot product here runs on OpenBLAS's own
    threads and nearly doubles the CPU time of a depth scan for no gain in
    wall time.  The sums run over nu >= 0, every bin but DC and Nyquist
    weighted 2 (:func:`_support`).
    """
    product = _spectral_product(lo_spec, sig_spec)
    grid = product.grid
    mid, eighth = grid.n // 2, grid.n // 8
    coarse = _even_lag_overlaps(product)
    # the kept lags |2m| <= n/4, m = 0 .. n/8 at the front and -n/8 .. -1 at the back (none at n <= 4), |A|^2
    # of the real A squared in place
    front, back = coarse[: eighth + 1], coarse[mid - eighth :]
    front *= front
    back *= back
    best = float(max(front.max(), back.max(initial=0.0)))

    g, freqs = _support(product)
    del product
    g *= grid.df
    mag = np.abs(g)
    m0 = mag.sum()
    if m0 == 0.0:  # disjoint spectra: every overlap is 0
        return best
    mag *= freqs
    m1 = mag.sum()
    mag *= freqs
    loss = (2.0 * np.pi * grid.dt) ** 2 * (m1**2 + m0 * mag.sum())
    del mag
    starts = np.concatenate((np.nonzero(front >= best - loss)[0], np.nonzero(back >= best - loss)[0] - eighth))
    starts = starts[np.argsort(-coarse[starts], kind="stable")[:_MAX_STARTS]]  # lags m, coarse[m] for m < 0 too

    turn = 2.0 * np.pi * freqs
    turn2 = turn * turn
    quarter = 0.25 * grid.window  # 2 * eighth * dt exactly, as n is a power of two
    for m in starts:
        start = 2 * int(m) * grid.dt
        low, high = max(-2.0 * grid.dt, -quarter - start), min(2.0 * grid.dt, quarter - start)
        x = _newton_start(coarse, int(m), eighth, grid.dt, low, high)  # offset from the start, kept within bounds
        for _ in range(8):  # at the default scenario Newton stops within 4 steps
            h = _phasors(freqs[0], grid.df, g.size, start + x)
            h *= g
            a = h.real.sum()  # pairwise, as the overlap itself must be right to round-off
            a1 = np.einsum("i,i->", turn, h.imag)
            a2 = -np.einsum("i,i->", turn2, h.real)
            best = max(best, float(a**2))
            half_d2 = a1**2 + a * a2
            new = x
            if half_d2 < 0.0:
                new = min(max(x - a * a1 / half_d2, low), high)
            if abs(new - x) <= 1e-9 * grid.dt:
                break
            x = new
    return best


def _newton_start(coarse: np.ndarray, m: int, eighth: int, dt: float, low: float, high: float) -> float:
    """The offset from the lag 2m*dt at which Newton starts: the vertex of the parabola through the squared
    overlaps ``coarse`` at the lags m - 1, m and m + 1 (coarse[m] for m < 0 too), clamped to [low, high], or 0
    where the three are not concave or m is at the kept range's end |m| = n/8."""
    if abs(m) >= eighth:
        return 0.0
    before, at, after = coarse[m - 1], coarse[m], coarse[m + 1]
    bend = before - 2.0 * at + after
    return min(max(dt * (before - after) / bend, low), high) if bend < 0.0 else 0.0


def _band_spectrum(out: Transmitted, cfg: ShaperConfig) -> SpectralField:
    """The half spectrum of the LO that ``cfg`` shapes to ``out``: :func:`fields.to_spectrum` of the LO built
    on the grid of n/D samples D*dt apart (:func:`_shaped_lo`).

    The span-cut field has no bins above span/2, and the resolution window and
    the pixel box widen its band by the window's reach, where the kernel
    exp(-4 ln2 nu^2 / dnu^2) falls below e^-746 (the image of the window's own
    cut in time, :func:`_resolution_window`), and by half the box, size*df/2.
    Above B = span/2 + dnu*sqrt(746 / (4 ln2)) + size*df/2 the LO's spectrum
    is therefore below e^-746 of its peak, and its every D-th sample, D the
    largest power of two (at most n/2) with B < Nyquist/D, or 1, aliases
    nothing: their spectrum holds the bins 0 .. n/(2D), and the bins above
    are 0.  The result is that prefix of n/(2D) + 1 bins on the full grid
    (:class:`fields.SpectralField`), and its product with S runs on the
    shorter of the two.  No span is an infinite band, so D = 1, as where the
    window covers the grid (:func:`_window_reach`) and bounds no band.  The
    aperture's finite band is that of a 4-f shaper's finite spot
    (A. M. Weiner, Rev. Sci. Instrum. 71, 1929 (2000)).
    """
    grid, step = out.spectrum.grid, 1
    kernel_reach = cfg.resolution_fwhm_hz * np.sqrt(-_EXP_UNDERFLOW / (4.0 * LN2))
    band = 0.5 * (cfg.span_hz or np.inf) + kernel_reach + 0.5 * _pixel_bins(grid, cfg) * grid.df
    wraps = _window_reach(grid, cfg.resolution_fwhm_hz) is None
    while not wraps and step < grid.n // 2 and band < grid.nyquist / (2 * step):
        step *= 2
    return SpectralField(grid, to_spectrum(_shaped_lo(out, cfg, step)).amp, prefix=True)


def _detected(eta_base: float, out: Transmitted, lo_spec: SpectralField) -> float:
    """eta_base * T_E * max over delay of |<lo|mode>|^2 for the unit-energy output mode of ``out``, searched
    on its spectrum S as it is: max |<lo|S>|^2 / |S|^2 is that projection, to round-off, and no mode is built.
    A zero field has no mode and raises."""
    _norm(out.spectrum)
    return float(_eta(eta_base, out, _best_projection(lo_spec, out.spectrum) / out.spectrum.energy))


def _efficiencies(out: Transmitted, lo_in: SpectralField, eta_base: float, cfg: ShaperConfig) -> tuple[float, float]:
    """(unshaped, shaped) efficiency for one medium, with the input LO's half spectrum ``lo_in``.

    The shaped efficiency is the better of the LO shaped to the transmitted
    mode and the input LO itself.  The own-mode LO is shaped from the
    transmitted spectrum on its band's grid and transformed back there
    (:func:`_band_spectrum`); it reads the transmitted field only where its
    centre cannot be proven from the cut spectrum's own field
    (:func:`_proven_peak`).  Both searches read the transmitted spectrum as it
    is (:func:`_detected`), the input LO's first, before the shaped LO's
    arrays exist.
    """
    unshaped = _detected(eta_base, out, lo_in)
    shaped = _detected(eta_base, out, _band_spectrum(out, cfg))
    return unshaped, max(shaped, unshaped)


def max_shaped_eta(input_field: TemporalField, m: MediumParams, cfg: ShaperConfig, eta_base: float) -> float:
    """Best homodyne efficiency with the shaped local oscillator.

    The shaper target is the transmitted mode itself, the unconstrained
    projection maximizer.  Returns eta_base * T_E * |<lo|out>|^2 maximized
    over LO delay, or :func:`max_unshaped_eta` where the un-modulated pulse
    detects more, so shaped >= unshaped by construction.
    """
    _check_eta_base(eta_base)
    lo_in = to_spectrum(normalize(input_field))
    return _efficiencies(transmit(lo_in, m), lo_in, eta_base, cfg)[1]


def max_unshaped_eta(input_field: TemporalField, m: MediumParams, eta_base: float) -> float:
    """Best homodyne efficiency with the un-modulated input pulse as LO."""
    _check_eta_base(eta_base)
    lo_in = to_spectrum(normalize(input_field))
    return _detected(eta_base, transmit(lo_in, m), lo_in)
