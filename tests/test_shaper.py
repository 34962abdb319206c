import numpy as np
import pytest

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
from zapsim.fields import _spectrum
from zapsim.modes import _spectral_product
from zapsim.shaper import (
    CENTER_WAVELENGTH, SPEED_OF_LIGHT, _best_projection, _box_average, _efficiencies, _even_lag_overlaps, _resolution_window, _shaped_input
)

from conftest import brent_projection, centred_box, full_layout_lo, full_product, lattice_overlaps

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

IDEAL = ShaperConfig(resolution_fwhm=1e-18, span=None)


def transmitted_mode(pulse, params):
    return normalize(to_time(propagate(to_spectrum(normalize(pulse), half=True), params)))


@pytest.fixture(scope="module")
def preset_modes(mid_pulse):
    presets = temperature_presets()
    return {i: transmitted_mode(mid_pulse, presets[i].params) for i in (0, 2, 4)}


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
        spec = to_spectrum(target, half=True)
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

    @pytest.mark.parametrize("bins", [2583, 2584])
    def test_pixel_lo_is_the_full_layout_one_real(self, preset_modes, bins):
        # a pixel of 2 nm, an odd number of bins on this 2^18 grid, and one bin wider: a centred box of
        # either parity keeps the spectrum Hermitian
        target = preset_modes[2]
        cfg = ShaperConfig(pixel_width=bins * target.grid.df * CENTER_WAVELENGTH**2 / SPEED_OF_LIGHT)
        assert int(round(cfg.pixel_width_hz / target.grid.df)) == bins
        want = full_layout_lo(target, cfg).amp
        got = achievable_lo(target, cfg, to_spectrum(target, half=True))
        assert got.amp.dtype == np.float64
        assert np.max(np.abs(want.imag)) <= 1e-13 * np.abs(want).max()
        assert np.max(np.abs(got.amp - want)) <= 1e-13 * np.abs(want).max()

    def test_pixel_wider_than_grid_rejected(self, preset_modes):
        target = preset_modes[2]
        with pytest.raises(ValueError, match="pixel"):
            achievable_lo(target, ShaperConfig(pixel_width=1.0, span=None))


class TestBoxAverage:
    @pytest.mark.parametrize("size", [2, 3, 4, 5171, "n"])
    def test_matches_scipy_wrap_filter(self, preset_modes, size):
        # the centred box over the mirrored full spectrum, compared on nu >= 0 (+Nyquist is -Nyquist conjugated);
        # a box as wide as the grid on a 2^12 grid, where scipy's direct correlation is quick
        mode = preset_modes[4]
        if size == "n":
            mode = transmitted_mode(gaussian_pulse(make_grid(2**12, 10e-15), 100e-15), temperature_presets()[4].params)
            size = mode.grid.n
        x = to_spectrum(mode, half=True).amp
        mid = x.size - 1
        full = np.concatenate([np.conj(x[:0:-1]), x[:-1]])  # ascending from -Nyquist
        ref = centred_box(full, size)
        got = _box_average(x, size)
        assert got.shape == x.shape
        assert np.max(np.abs(got[:mid] - ref[mid:])) <= 1e-12 * np.abs(x).max()
        assert abs(got[mid] - np.conj(ref[0])) <= 1e-12 * np.abs(x).max()

    def test_size_one_is_exact_noop(self, preset_modes):
        x = to_spectrum(preset_modes[4], half=True).amp
        assert np.array_equal(_box_average(x, 1), x)


class TestBestProjection:
    @pytest.mark.parametrize("tau", [20e-12, -3e-12, 2e-12, 2.0037e-12])
    def test_finds_a_delayed_copy_anywhere_in_the_window(self, mid_mode, tau):
        # the search spans +-window/4, not a fixed delay range
        lo_spec = to_spectrum(mid_mode, half=True)
        sig_spec = to_spectrum(delay_field(mid_mode, tau), half=True)
        assert _best_projection(lo_spec, sig_spec) == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("tau", [20e-12, -3e-12, 2e-12, 2.0037e-12])
    def test_delayed_copy_not_below_brent(self, mid_mode, tau):
        lo_spec = to_spectrum(mid_mode, half=True)
        sig_spec = to_spectrum(delay_field(mid_mode, tau), half=True)
        assert _best_projection(lo_spec, sig_spec) >= brent_projection(lo_spec, sig_spec) - 1e-15

    @pytest.mark.parametrize("preset_idx", [0, 4])
    def test_transmitted_mode_not_below_brent(self, preset_idx):
        grid = make_grid(2**16, 10e-15)
        spec = to_spectrum(normalize(gaussian_pulse(grid, 100e-15)), half=True)
        out = transmit(spec, temperature_presets()[preset_idx].params)
        shaped = to_spectrum(achievable_lo(normalize(out.field), ShaperConfig()), half=True)
        for lo_spec in (spec, shaped):
            assert _best_projection(lo_spec, out.mode) >= brent_projection(lo_spec, out.mode) - 1e-15

    def test_even_lags_fold_to_a_half_length_transform(self, preset_modes):
        lo, sig = achievable_lo(preset_modes[4], ShaperConfig()), preset_modes[4]
        lo_spec, sig_spec = to_spectrum(lo, half=True), to_spectrum(sig, half=True)
        full = lattice_overlaps(full_product(lo_spec, sig_spec), lo_spec.grid)
        even = _even_lag_overlaps(_spectral_product(lo_spec, sig_spec))
        assert even.dtype == np.float64 and even.size == lo_spec.grid.n // 2
        assert np.max(np.abs(even - full[::2])) <= 1e-13 * np.abs(full).max()

    def test_full_layout_spectra_are_refused(self, preset_modes):
        lo, sig = achievable_lo(preset_modes[2], ShaperConfig()), preset_modes[2]
        for spectra in ((to_spectrum(lo), to_spectrum(sig, half=True)), (to_spectrum(lo, half=True), to_spectrum(sig))):
            with pytest.raises(ValueError, match="full-layout spectrum"):
                _best_projection(*spectra)

    def test_nearly_tied_peaks_not_below_brent(self):
        # two delayed copies of the pulse of nearly equal weight: the lattice can rank their
        # peaks wrongly when one sits between samples, so refining only its maximum falls short
        grid = make_grid(2**14, 10e-15)
        lo_spec = to_spectrum(normalize(gaussian_pulse(grid, 100e-15)), half=True)
        rng = np.random.default_rng(7)
        short = []
        for case in range(200):
            t1 = rng.uniform(-3e-12, 3e-12)
            t2 = t1 + rng.uniform(0.5e-12, 3e-12)
            weight = rng.uniform(0.995, 1.005) * rng.choice([-1.0, 1.0])  # a real signal: the copies agree or flip
            nu = grid.half_freqs
            amp = lo_spec.amp * (np.exp(2j * np.pi * nu * t1) + weight * np.exp(2j * np.pi * nu * t2))
            amp[-1] = amp[-1].real  # the Nyquist bin of a real field
            sig_spec = normalize(SpectralField(grid, amp, half=True))
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
    # the real input LO and the shaped one, pixel-averaged or not, are half spectra
    assert lo.half and shaped.half
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
    return pulse, to_spectrum(pulse, half=True)


@pytest.mark.parametrize("span_nm", [60.0, None])
@pytest.mark.parametrize("preset_idx", range(5))
def test_half_spectrum_search_matches_the_full_one(real_input, preset_idx, span_nm):
    # the searches on half spectra against the full-layout oracle: Brent on the direct sum over all n bins
    pulse, lo_in = real_input
    params = temperature_presets()[preset_idx].params
    cfg = ShaperConfig(span=None if span_nm is None else span_nm * 1e-9)
    out = transmit(lo_in, params)
    # what the half search rests on: at zero detuning S(-nu) = conj S(nu)
    s = transmit(to_spectrum(pulse), params).mode.amp
    mid = lo_in.grid.n // 2
    assert np.max(np.abs(s[mid - 1 : 0 : -1] - np.conj(s[mid + 1 :]))) <= 1e-15 * np.abs(s).max()
    half = [
        _best_projection(lo_in, out.mode),
        max_unshaped_eta(pulse, params, 0.62),
        max_shaped_eta(pulse, params, cfg, 0.62),
    ]
    unshaped = brent_projection(lo_in, out.mode)
    own = brent_projection(to_spectrum(full_layout_lo(out.field, cfg)), out.mode)
    shaped_in = brent_projection(to_spectrum(full_layout_lo(pulse, cfg)), out.mode)
    scale = 0.62 * out.transmission
    full = [unshaped, scale * unshaped, scale * max(unshaped, own, shaped_in)]
    assert half == pytest.approx(full, rel=1e-13, abs=0.0)


def test_pixel_box_runs_only_real_transforms(monkeypatch):
    # a centred pixel box keeps S(-nu) = conj S(nu) for its LOs: no complex transform runs, and every
    # spectrum searched is a half spectrum
    grid = make_grid(2**16, 10e-15)
    pulse = normalize(gaussian_pulse(grid, 100e-15))
    cfg = ShaperConfig(pixel_width=2e-9)
    params = temperature_presets()[2].params
    complex_transforms = []
    for name in ("fft", "ifft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name, lambda *args, _fn=fn, **kwargs: complex_transforms.append(1) or _fn(*args, **kwargs))
    lo_in = _spectrum(pulse)
    out = transmit(lo_in, params)
    lo, shaped, _ = _shaped_input(pulse, lo_in, cfg)
    own = _spectrum(achievable_lo(out.field, cfg, out.mode))
    assert lo.half and shaped.half and own.half and out.mode.half
    assert out.field.amp.dtype == np.float64
    eta = max_shaped_eta(pulse, params, cfg, 0.62)
    assert complex_transforms == []
    monkeypatch.undo()
    for lo_spec in (lo, shaped, own):
        assert _best_projection(lo_spec, out.mode) >= brent_projection(lo_spec, out.mode) - 1e-15
    assert eta >= 0.62 * out.transmission * _best_projection(lo, out.mode)
