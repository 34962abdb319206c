import numpy as np
import pytest
from scipy.ndimage import uniform_filter1d
from scipy.optimize import minimize_scalar

import zapsim.shaper
from zapsim import (
    MediumParams,
    ShaperConfig,
    SpectralField,
    TemporalField,
    achievable_lo,
    delay_field,
    gaussian_pulse,
    make_grid,
    max_shaped_eta,
    max_unshaped_eta,
    normalize,
    overlap,
    propagate,
    temperature_presets,
    to_spectrum,
    to_time,
    transmit,
)
from zapsim.fields import _full, _spectrum
from zapsim.modes import _spectral_product, _support
from zapsim.shaper import (
    _best_projection, _box_average, _efficiencies, _even_lag_overlaps, _resolution_window, _shaped_input
)

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

IDEAL = ShaperConfig(resolution_fwhm=1e-18, span=None)


def transmitted_mode(pulse, params):
    return normalize(to_time(propagate(to_spectrum(normalize(pulse)), params)))


@pytest.fixture(scope="module")
def preset_modes(mid_pulse):
    presets = temperature_presets()
    return {i: transmitted_mode(mid_pulse, presets[i].params) for i in (0, 2, 4)}


def lattice_overlaps(g, grid):
    """Overlaps at k*dt for every k, stored at index k mod n.  With g in ascending
    frequency order, nu_j = (j - n/2) * df, the sum over nu at k*dt is fft(g)[k] * (-1)^k."""
    out = np.fft.fft(g)
    out *= grid.df
    out[1::2] *= -1.0
    return out


def brent_projection(lo_spec, sig_spec):
    """Oracle: bounded Brent within one time step of every local maximum of the dt-lattice
    overlaps within +-window/4 that reaches half the largest, on full spectra."""
    grid = lo_spec.grid
    g = _spectral_product(_full(lo_spec), _full(sig_spec))
    corr = np.abs(lattice_overlaps(g.amp, grid)) ** 2
    quarter = grid.n // 4
    corr[quarter + 1 : grid.n - quarter] = -1.0
    peaks = (corr >= np.roll(corr, 1)) & (corr >= np.roll(corr, -1)) & (corr >= 0.5 * corr.max())
    g, freqs = _support(g)

    def neg(t):
        return -np.abs(grid.df * np.sum(g * np.exp(-2j * np.pi * freqs * t))) ** 2

    best = corr.max()
    for k in np.nonzero(peaks)[0]:
        tau = (k if k <= quarter else k - grid.n) * grid.dt
        bounds = (tau - grid.dt, tau + grid.dt)
        best = max(best, -minimize_scalar(neg, bounds=bounds, method="bounded", options={"xatol": 1e-18}).fun)
    return best


class TestShaperConfig:
    def test_wavelength_to_frequency_conversion(self):
        cfg = ShaperConfig()
        # c * dlam / lam^2 at 780 nm
        expected = 299792458.0 * 0.6e-9 / 780e-9**2
        assert cfg.resolution_fwhm_hz == pytest.approx(expected, rel=1e-12)
        assert cfg.resolution_fwhm_hz == pytest.approx(295.85e9, rel=1e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShaperConfig(resolution_fwhm=0.0)
        with pytest.raises(ValueError):
            ShaperConfig(pixel_width=-1e-9)
        with pytest.raises(ValueError):
            ShaperConfig(resolution_fwhm=2e-9, span=1e-9)

    def test_pixel_must_be_below_span(self):
        with pytest.raises(ValueError, match="pixel"):
            ShaperConfig(pixel_width=60e-9, span=60e-9)
        assert ShaperConfig(pixel_width=1e-6, span=None).pixel_width == 1e-6

    def test_optional_widths(self):
        cfg = ShaperConfig(pixel_width=None, span=None)
        assert cfg.pixel_width_hz is None
        assert cfg.span_hz is None


class TestAchievableLo:
    def test_ideal_resolution_returns_target(self, preset_modes):
        target = preset_modes[2]
        out = achievable_lo(target, IDEAL)
        assert np.max(np.abs(out.amp - target.amp)) < 1e-9 * np.abs(target.amp).max()

    def test_smooth_target_barely_affected(self, mid_pulse):
        target = normalize(mid_pulse)
        out = achievable_lo(target, ShaperConfig())
        assert abs(overlap(out, target)) ** 2 > 0.99

    def test_fine_structure_is_lost_with_depth(self, preset_modes):
        cfg = ShaperConfig()
        fidelity = {
            i: abs(overlap(achievable_lo(mode, cfg), mode)) ** 2
            for i, mode in preset_modes.items()
        }
        assert fidelity[4] < fidelity[2] < fidelity[0]

    def test_unnormalized_target_rejected(self, mid_pulse):
        with pytest.raises(ValueError):
            achievable_lo(mid_pulse, ShaperConfig())

    def test_output_is_normalized(self, preset_modes):
        from zapsim import pulse_energy

        out = achievable_lo(preset_modes[4], ShaperConfig())
        assert pulse_energy(out) == pytest.approx(1.0, abs=1e-12)

    def test_pixel_averaging_costs_fidelity(self, preset_modes):
        target = preset_modes[2]
        plain = abs(overlap(achievable_lo(target, ShaperConfig()), target)) ** 2
        pixelated = abs(
            overlap(achievable_lo(target, ShaperConfig(pixel_width=2.0e-9)), target)
        ) ** 2
        assert pixelated < plain

    def test_sub_bin_pixels_are_noop(self, preset_modes):
        target = preset_modes[2]
        lam = 780e-9
        tiny = 0.4 * target.grid.df * lam**2 / 299792458.0
        a = achievable_lo(target, ShaperConfig(pixel_width=tiny))
        b = achievable_lo(target, ShaperConfig())
        assert np.allclose(a.amp, b.amp, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("cfg", [ShaperConfig(), ShaperConfig(pixel_width=2.0e-9)], ids=["span", "pixel"])
    def test_given_spectrum_same_lo_and_left_unchanged(self, preset_modes, cfg):
        target = preset_modes[2]
        spec = to_spectrum(target)
        before = spec.amp.copy()
        assert np.array_equal(achievable_lo(target, cfg, spec).amp, achievable_lo(target, cfg).amp)
        assert np.array_equal(spec.amp, before)

    @pytest.mark.parametrize("cfg", [ShaperConfig(), IDEAL, ShaperConfig(span=1e-9)], ids=["span", "ideal", "narrow"])
    def test_half_spectrum_gives_the_same_lo_real(self, preset_modes, cfg):
        target = preset_modes[2]
        full = achievable_lo(target, cfg)
        real = achievable_lo(target, cfg, to_spectrum(target, half=True))
        assert np.max(np.abs(real.amp - full.amp)) <= 1e-13 * np.abs(full.amp).max()
        if cfg.span is not None:
            assert not np.any(real.amp.imag)

    @pytest.mark.parametrize("pixel_nm", [2.0, 3.0])
    def test_half_spectrum_gives_the_same_pixel_lo(self, preset_modes, pixel_nm):
        # a pixel box averages the full-layout mirror of a half spectrum
        target = preset_modes[2]
        cfg = ShaperConfig(pixel_width=pixel_nm * 1e-9)
        full = achievable_lo(target, cfg, to_spectrum(target))
        mirrored = achievable_lo(target, cfg, to_spectrum(target, half=True))
        assert np.max(np.abs(mirrored.amp - full.amp)) <= 1e-13 * np.abs(full.amp).max()

    def test_pixel_wider_than_grid_rejected(self, preset_modes):
        target = preset_modes[2]
        with pytest.raises(ValueError, match="pixel"):
            achievable_lo(target, ShaperConfig(pixel_width=1.0, span=None))


class TestBoxAverage:
    @pytest.mark.parametrize("size", [2, 3, 4, 5171])
    def test_matches_scipy_wrap_filter(self, preset_modes, size):
        x = to_spectrum(preset_modes[4]).amp
        ref = uniform_filter1d(x.real, size, mode="wrap") + 1j * uniform_filter1d(x.imag, size, mode="wrap")
        assert np.max(np.abs(_box_average(x, size) - ref)) <= 1e-12 * np.abs(x).max()

    def test_size_one_is_exact_noop(self, preset_modes):
        x = to_spectrum(preset_modes[4]).amp
        assert np.array_equal(_box_average(x, 1), x)


class TestBestProjection:
    @pytest.mark.parametrize("tau", [20e-12, -3e-12, 2e-12, 2.0037e-12])
    def test_finds_a_delayed_copy_anywhere_in_the_window(self, mid_mode, tau):
        # the search spans +-window/4, not a fixed delay range
        lo_spec = to_spectrum(mid_mode)
        sig_spec = to_spectrum(delay_field(mid_mode, tau))
        assert _best_projection(lo_spec, sig_spec) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("tau", [20e-12, -3e-12, 2e-12, 2.0037e-12])
    def test_delayed_copy_not_below_brent(self, mid_mode, tau):
        lo_spec = to_spectrum(mid_mode)
        sig_spec = to_spectrum(delay_field(mid_mode, tau))
        assert _best_projection(lo_spec, sig_spec) >= brent_projection(lo_spec, sig_spec) - 1e-15

    @pytest.mark.parametrize("preset_idx", [0, 4])
    def test_transmitted_mode_not_below_brent(self, preset_idx):
        grid = make_grid(2**16, 10e-15)
        spec = to_spectrum(normalize(gaussian_pulse(grid, 100e-15)))
        out = transmit(spec, temperature_presets()[preset_idx].params)
        shaped = to_spectrum(achievable_lo(normalize(out.field), ShaperConfig()))
        for lo_spec in (spec, shaped):
            assert _best_projection(lo_spec, out.mode) >= brent_projection(lo_spec, out.mode) - 1e-15


    @pytest.mark.parametrize("half", [False, True], ids=["full", "half"])
    def test_even_lags_fold_to_a_half_length_transform(self, preset_modes, half):
        lo, sig = achievable_lo(preset_modes[4], ShaperConfig()), preset_modes[4]
        lo_spec = to_spectrum(lo)
        g = _spectral_product(lo_spec, to_spectrum(sig))
        full = lattice_overlaps(g.amp, lo_spec.grid)
        if half:
            g = _spectral_product(to_spectrum(lo, half=True), to_spectrum(sig, half=True))
        assert g.half == half
        even = _even_lag_overlaps(g)
        assert even.size == lo_spec.grid.n // 2
        assert np.max(np.abs(even - full[::2])) <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("half_lo", [False, True], ids=["full-lo", "half-lo"])
    def test_mixed_layouts_search_like_full_ones(self, preset_modes, half_lo):
        # a half spectrum that meets a full one is mirrored: the search is the all-full one
        lo, sig = achievable_lo(preset_modes[2], ShaperConfig()), preset_modes[2]
        full = _best_projection(to_spectrum(lo), to_spectrum(sig))
        mixed = _best_projection(to_spectrum(lo, half=half_lo), to_spectrum(sig, half=not half_lo))
        assert mixed == pytest.approx(full, rel=1e-13, abs=0.0)

    def test_nearly_tied_peaks_not_below_brent(self):
        # two delayed copies of the pulse of nearly equal weight: the lattice can rank their
        # peaks wrongly when one sits between samples, so refining only its maximum falls short
        grid = make_grid(2**14, 10e-15)
        lo_spec = to_spectrum(normalize(gaussian_pulse(grid, 100e-15)))
        rng = np.random.default_rng(7)
        short = []
        for case in range(200):
            t1 = rng.uniform(-3e-12, 3e-12)
            t2 = t1 + rng.uniform(0.5e-12, 3e-12)
            weight = rng.uniform(0.995, 1.005) * np.exp(2j * np.pi * rng.uniform())
            amp = lo_spec.amp * (np.exp(2j * np.pi * grid.freqs * t1) + weight * np.exp(2j * np.pi * grid.freqs * t2))
            sig_spec = SpectralField(grid, amp / np.sqrt(grid.df * np.sum(np.abs(amp) ** 2)))
            if _best_projection(lo_spec, sig_spec) < brent_projection(lo_spec, sig_spec) - 1e-15:
                short.append(case)
        assert short == []


class TestResolutionWindow:
    @pytest.mark.parametrize("cfg", [ShaperConfig(), IDEAL], ids=["default", "ideal"])
    @pytest.mark.parametrize("k_center", [65536, 7, 2**19 - 3])
    def test_span_is_the_full_evaluation(self, default_grid, cfg, k_center):
        # exp is exactly 0 outside the span, and the span's values are bit for bit the full ones
        grid, dnu = default_grid, cfg.resolution_fwhm_hz
        tsig = ((grid.t - grid.t[k_center] + 0.5 * grid.window) % grid.window) - 0.5 * grid.window
        full = np.exp(-((np.pi * dnu * tsig) ** 2) / (4.0 * np.log(2.0)))
        keep, values = _resolution_window(grid, k_center, dnu)
        window = np.zeros(grid.n)
        window[keep] = values
        assert np.array_equal(window.view(np.uint64), full.view(np.uint64))
        if cfg is IDEAL:
            assert keep == slice(None)
        else:
            assert keep.size < grid.n // 50

    @pytest.mark.parametrize("n", [2**14, 2**19])
    def test_spectrum_is_the_unit_area_kernel(self, n):
        # the window multiplies the LO in time, so the spectrum is smoothed by its transform
        grid, dnu = make_grid(n, 10e-15), ShaperConfig().resolution_fwhm_hz
        keep, values = _resolution_window(grid, 0, dnu)
        window = np.zeros(grid.n)
        window[keep] = values
        assert window[0] == 1.0
        kernel = np.exp(-4.0 * np.log(2.0) * (grid.freqs / dnu) ** 2)
        kernel /= grid.df * kernel.sum()
        spectrum = to_spectrum(TemporalField(grid, window)).amp
        assert np.max(np.abs(spectrum.real - kernel)) < 1e-12 * kernel.max()
        assert np.max(np.abs(spectrum.imag)) < 1e-12 * kernel.max()


class TestMaxEta:
    def test_no_medium_recovers_eta_base(self, mid_pulse):
        m = MediumParams(depth=0.0, t2=1e-12)
        assert max_unshaped_eta(mid_pulse, m, 0.62) == pytest.approx(0.62, abs=1e-6)
        assert max_shaped_eta(mid_pulse, m, ShaperConfig(), 0.62) == pytest.approx(0.62, abs=1e-6)

    def test_ideal_resolution_reaches_transmission_cap(self, mid_pulse):
        from zapsim import energy_transmission

        params = temperature_presets()[2].params
        spec = to_spectrum(normalize(mid_pulse))
        cap = 0.62 * energy_transmission(spec, params)
        got = max_shaped_eta(mid_pulse, params, IDEAL, 0.62)
        assert got == pytest.approx(cap, abs=1e-6)

    @pytest.mark.parametrize("preset_idx", [0, 2, 4])
    def test_shaped_never_below_unshaped(self, mid_pulse, preset_idx):
        params = temperature_presets()[preset_idx].params
        shaped = max_shaped_eta(mid_pulse, params, ShaperConfig(), 0.62)
        unshaped = max_unshaped_eta(mid_pulse, params, 0.62)
        assert shaped >= unshaped - 1e-12

    @pytest.mark.parametrize("preset_idx", [0, 2, 4])
    def test_coarser_resolution_never_helps(self, mid_pulse, preset_idx):
        params = temperature_presets()[preset_idx].params
        ladder = [
            max_shaped_eta(mid_pulse, params, ShaperConfig(resolution_fwhm=r), 0.62)
            for r in (0.3e-9, 0.6e-9, 1.2e-9)
        ]
        assert ladder[0] >= ladder[1] >= ladder[2]

    def test_bounded_by_transmitted_fraction(self, mid_pulse):
        from zapsim import energy_transmission

        params = temperature_presets()[4].params
        cap = 0.62 * energy_transmission(to_spectrum(normalize(mid_pulse)), params)
        assert max_shaped_eta(mid_pulse, params, ShaperConfig(), 0.62) <= cap + 1e-12

    def test_eta_base_validated(self, mid_pulse):
        params = temperature_presets()[0].params
        with pytest.raises(ValueError):
            max_shaped_eta(mid_pulse, params, ShaperConfig(), -0.1)
        with pytest.raises(ValueError):
            max_unshaped_eta(mid_pulse, params, 1.5)


@pytest.mark.parametrize("span_nm", [None, 60.0])
@pytest.mark.parametrize("pixel_nm", [2.0, 3.0])
@pytest.mark.parametrize("preset_idx", range(5))
def test_shaped_is_best_candidate_below_transmitted_fraction(preset_idx, pixel_nm, span_nm):
    # a coarse pixel: the shaped input LO beats the own-mode LO at presets 2-4,
    # and both fall below the un-modulated pulse at presets 1 and 5
    grid = make_grid(2**16, 10e-15)
    pulse = normalize(gaussian_pulse(grid, 100e-15))
    params = temperature_presets()[preset_idx].params
    cfg = ShaperConfig(pixel_width=pixel_nm * 1e-9, span=None if span_nm is None else span_nm * 1e-9)
    # the floor is built in the layouts the library uses: a half transmission, full pixel LOs
    out = transmit(_spectrum(pulse), params)
    shaped_in = 0.62 * out.transmission * _best_projection(_spectrum(achievable_lo(pulse, cfg)), out.mode)
    floor = max(max_unshaped_eta(pulse, params, 0.62), shaped_in)
    assert floor <= max_shaped_eta(pulse, params, cfg, 0.62) <= 0.62 * out.transmission + 1e-12


@pytest.mark.parametrize("pixel_nm", [None, 2.0, 3.0])
def test_skipping_a_losing_shaped_input_changes_nothing(monkeypatch, pixel_nm):
    grid = make_grid(2**16, 10e-15)
    pulse = normalize(gaussian_pulse(grid, 100e-15))
    cfg = ShaperConfig(pixel_width=None if pixel_nm is None else pixel_nm * 1e-9)
    lo_in = _spectrum(pulse)
    lo, shaped, distance = _shaped_input(pulse, lo_in, cfg)
    # the real input is held as a half spectrum; a pixel box makes the shaped input LO complex
    assert lo.half and shaped.half == (pixel_nm is None)
    searches = []
    monkeypatch.setattr(zapsim.shaper, "_best_projection", lambda *args: searches.append(1) or _best_projection(*args))
    for preset in temperature_presets():
        out = transmit(lo_in, preset.params)
        mode = out.mode
        del searches[:]
        skipping = _efficiencies(out, 0.62, cfg, (lo, shaped, distance))
        skipped = 3 - len(searches)
        # an infinite distance never proves the shaped input LO loses
        assert skipping == _efficiencies(out, 0.62, cfg, (lo, shaped, np.inf))
        # the shaped input LO is kept for a coarse pixel and provably loses without one
        assert skipped == (1 if pixel_nm is None else 0)
        # the bound the skip rests on: |<s(tau)|out>| <= |<u(tau)|out>| + distance
        bound = (np.sqrt(_best_projection(lo, mode)) + distance) ** 2
        assert _best_projection(shaped, mode) <= bound


@pytest.fixture(scope="module")
def real_input():
    grid = make_grid(2**16, 10e-15)
    pulse = normalize(gaussian_pulse(grid, 100e-15))
    return pulse, to_spectrum(pulse)


@pytest.mark.parametrize("span_nm", [60.0, None])
@pytest.mark.parametrize("preset_idx", range(5))
def test_half_spectrum_search_matches_the_full_one(monkeypatch, real_input, preset_idx, span_nm):
    pulse, lo_in = real_input
    params = temperature_presets()[preset_idx].params
    cfg = ShaperConfig(span=None if span_nm is None else span_nm * 1e-9)
    out = transmit(lo_in, params)
    # what the half search rests on: at zero detuning S(-nu) = conj S(nu)
    s, mid = out.mode.amp, lo_in.grid.n // 2
    assert np.max(np.abs(s[mid - 1 : 0 : -1] - np.conj(s[mid + 1 :]))) <= 1e-15 * np.abs(s).max()
    assert _spectrum(pulse).half
    lo_half = to_spectrum(pulse, half=True)
    half = [
        _best_projection(lo_half, transmit(lo_half, params).mode),
        max_unshaped_eta(pulse, params, 0.62),
        max_shaped_eta(pulse, params, cfg, 0.62),
    ]
    monkeypatch.setattr(zapsim.shaper, "_spectrum", to_spectrum)  # every spectrum in the full layout
    full = [
        _best_projection(lo_in, out.mode),
        max_unshaped_eta(pulse, params, 0.62),
        max_shaped_eta(pulse, params, cfg, 0.62),
    ]
    assert half == pytest.approx(full, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("case", ["detuned", "pixel"])
def test_non_hermitian_inputs_search_full_spectra(monkeypatch, case):
    # a detuned carrier breaks S(-nu) = conj S(nu): no real transform may run; a pixel box breaks it
    # for its LOs only, searched on full spectra against the mirrored real transmission
    grid = make_grid(2**16, 10e-15)
    pulse = normalize(gaussian_pulse(grid, 100e-15, detuning=2e12 if case == "detuned" else 0.0))
    cfg = ShaperConfig(pixel_width=2e-9 if case == "pixel" else None)
    params = temperature_presets()[2].params
    real_transforms = []
    for name in ("rfft", "irfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _fn=fn, **kwargs: real_transforms.append(1) or _fn(*args, **kwargs))
    lo_in = _spectrum(pulse)
    out = transmit(lo_in, params)
    lo, shaped, _ = _shaped_input(pulse, lo_in, cfg)
    own = _spectrum(achievable_lo(out.field, cfg, out.mode))
    assert not shaped.half and not own.half
    assert lo.half == out.mode.half == (case == "pixel")
    if case == "pixel":
        assert not np.any(out.field.amp.imag)
    for lo_spec in (lo, shaped, own):
        assert _best_projection(lo_spec, out.mode) >= brent_projection(lo_spec, out.mode) - 1e-15
    assert max_shaped_eta(pulse, params, cfg, 0.62) >= 0.62 * out.transmission * _best_projection(lo, out.mode)
    assert (real_transforms == []) == (case == "detuned")
