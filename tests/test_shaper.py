import numpy as np
import pytest

import zapsim.shaper
from zapsim import (
    Grid,
    MediumParams,
    ShaperConfig,
    SpectralField,
    TemporalField,
    achievable_lo,
    gaussian_pulse,
    make_grid,
    normalize,
    propagate,
    temperature_presets,
    to_spectrum,
    to_time,
    transmit,
)
from zapsim.cli import main
from zapsim.medium import Transmitted
from zapsim.modes import _spectral_product
from zapsim.shaper import (
    CENTER_WAVELENGTH,
    SPEED_OF_LIGHT,
    _band_spectrum,
    _best_projection,
    _detected,
    _efficiencies,
    _even_lag_overlaps,
    _newton_start,
    _resolution_window,
    _rise,
    _shaped_lo,
)

from conftest import (
    brent_projection,
    delay_field,
    direct_overlaps,
    efficiencies,
    full_freqs,
    full_layout_lo,
    full_product,
    full_spectrum,
    full_transmit,
    lattice_overlaps,
    overlap,
    padded,
)

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

IDEAL = ShaperConfig(resolution_fwhm=1e-18, span=None)


def transmitted_mode(pulse, params):
    return normalize(to_time(propagate(to_spectrum(normalize(pulse)), params)))


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

    def test_target_with_no_content_inside_the_span_is_refused(self, small_grid):
        # the span keeps only the bins where the spectrum is 0, so the LO is a zero field
        cfg = ShaperConfig()
        amp = np.zeros(small_grid.n // 2 + 1, dtype=np.complex128)
        amp[small_grid.half_freqs > 0.5 * cfg.span_hz] = 1.0
        spectrum = SpectralField(small_grid, amp)
        with pytest.raises(ValueError, match="cannot normalize a zero field"):
            achievable_lo(Transmitted(spectrum, spectrum.energy), cfg)

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

    def test_sub_bin_pixel_narrows_the_lo_by_its_sinc(self, preset_modes):
        # a pixel of 0.4 bins is a box of that width, not rounded to one bin and away: the LO is the pixel-free
        # one times sin(pi*P*t) / (pi*P*t) about its centre sample, renormalized
        target = preset_modes[2]
        grid = target.grid
        cfg = ShaperConfig(pixel_width=0.4 * grid.df * CENTER_WAVELENGTH**2 / SPEED_OF_LIGHT)
        got = achievable_lo(target, cfg).amp
        plain = achievable_lo(target, ShaperConfig()).amp
        assert not np.array_equal(got, plain)
        m = (np.arange(grid.n) - int(np.argmax(np.abs(target.amp))) + grid.n // 2) % grid.n - grid.n // 2
        want = plain * np.sinc(cfg.pixel_width_hz * m * grid.dt)
        want /= np.sqrt(grid.dt * np.sum(want**2))
        assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()

    @staticmethod
    def check_transmitted_lo(out, preset_modes, cfg):
        """A Transmitted target is shaped from its output mode, with no forward transform, to a real LO: that of
        its unit-energy field (preset_modes[2]) to 1e-13 of peak."""
        got = achievable_lo(out, cfg).amp
        want = achievable_lo(preset_modes[2], cfg).amp
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("cfg", [ShaperConfig(), ShaperConfig(pixel_width=2.0e-9)], ids=["span", "pixel"])
    def test_given_spectrum_same_lo_and_left_unchanged(self, mid_pulse, preset_modes, cfg):
        # a target that carries its spectrum (a Transmitted) keeps the bits of that spectrum
        out = transmit(to_spectrum(normalize(mid_pulse)), temperature_presets()[2].params)
        spectrum = out.spectrum.amp.copy()
        self.check_transmitted_lo(out, preset_modes, cfg)
        assert np.array_equal(out.spectrum.amp, spectrum)

    @pytest.mark.parametrize("cfg", [ShaperConfig(), IDEAL, ShaperConfig(span=1e-9)], ids=["span", "ideal", "narrow"])
    def test_half_spectrum_gives_the_same_lo_real(self, mid_pulse, preset_modes, cfg):
        out = transmit(to_spectrum(normalize(mid_pulse)), temperature_presets()[2].params)
        self.check_transmitted_lo(out, preset_modes, cfg)

    @pytest.mark.parametrize(
        "pixel_width",
        [2e-9, 2583.5 / (2**18 * 10e-15) * CENTER_WAVELENGTH**2 / SPEED_OF_LIGHT],
        ids=["2nm", "2583.5-bins"],
    )
    def test_pixel_lo_is_the_full_layout_one_real(self, preset_modes, pixel_width):
        # a pixel of 2 nm, 1,291.7 bins of this 2^18 grid, and one of 2,583.5 bins, half a bin from either whole
        # count: the box's sinc in time keeps the spectrum Hermitian at any width
        target = preset_modes[2]
        cfg = ShaperConfig(pixel_width=pixel_width)
        want = full_layout_lo(target, cfg).amp
        got = achievable_lo(target, cfg)
        assert got.amp.dtype == np.float64
        assert np.max(np.abs(want.imag)) <= 1e-13 * np.abs(want).max()
        assert np.max(np.abs(got.amp - want)) <= 1e-14 * np.abs(want).max()

    def test_pixel_wider_than_grid_rejected(self, preset_modes):
        target = preset_modes[2]
        with pytest.raises(ValueError, match="pixel"):
            achievable_lo(target, ShaperConfig(pixel_width=1.0, span=None))


class TestPixelBox:
    @pytest.mark.parametrize(
        "size, span_nm", [(size, span) for size in (2, 3, 4, 5171) for span in (60.0, None)] + [("n", None)]
    )
    def test_pixel_lo_matches_the_full_layout_box(self, preset_modes, size, span_nm):
        # the LO on half spectra, at the band's rate, against the full layout's with the same sinc factor in
        # time; widths of whole bins and a box as wide as the grid, wider than any span, on a 2^12 grid
        target = preset_modes[4]
        if size == "n":
            target = transmitted_mode(gaussian_pulse(make_grid(2**12, 10e-15), 100e-15), temperature_presets()[4].params)
            size = target.grid.n
        span = None if span_nm is None else span_nm * 1e-9
        cfg = ShaperConfig(pixel_width=size * target.grid.df * CENTER_WAVELENGTH**2 / SPEED_OF_LIGHT, span=span)
        want = full_layout_lo(target, cfg).amp
        got = achievable_lo(target, cfg).amp
        assert got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()


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
        mode = normalize(out.spectrum)
        for lo_spec in (spec, shaped):
            assert _best_projection(lo_spec, mode) >= brent_projection(lo_spec, mode) - 1e-15

    def test_even_lags_fold_to_a_half_length_transform(self, preset_modes):
        lo, sig = achievable_lo(preset_modes[4], ShaperConfig()), preset_modes[4]
        lo_spec, sig_spec = to_spectrum(lo), to_spectrum(sig)
        full = lattice_overlaps(full_product(lo_spec, sig_spec), lo_spec.grid)
        even = _even_lag_overlaps(_spectral_product(lo_spec, sig_spec))
        assert even.dtype == np.float64 and even.size == lo_spec.grid.n // 2
        assert np.max(np.abs(even - full[::2])) <= 1e-13 * np.abs(full).max()

    @pytest.mark.parametrize("side, beyond", [(1.0, 1.5), (-1.0, 1.5), (1.0, -1.5)])
    def test_overlap_rising_through_the_edge_stops_there(self, side, beyond):
        # the signal is the LO delayed by side * (window/4 + ``beyond`` samples): past the edge the overlap still
        # rises through +-window/4, and the search returns its value there, the largest within its range (and
        # Brent's); a peak just inside the range is found in full
        grid = make_grid(2**12, 10e-15)
        mode = normalize(gaussian_pulse(grid, 100e-15))
        edge = side * 0.25 * grid.window
        lo_spec = to_spectrum(mode)
        sig_spec = to_spectrum(delay_field(mode, edge + side * beyond * grid.dt))
        at_edge = abs(direct_overlaps(lo_spec, sig_spec, [edge])[0]) ** 2
        want = 1.0 if beyond < 0.0 else at_edge
        assert at_edge < 0.99
        assert _best_projection(lo_spec, sig_spec) == pytest.approx(want, rel=1e-12, abs=0.0)
        assert brent_projection(lo_spec, sig_spec) == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_disjoint_spectra_project_to_zero_with_no_newton_step(self, small_grid, monkeypatch):
        # every overlap of an LO on bins 0-9 with a signal that is 0 there is 0: the search stops at the lattice
        lo = np.ones(10, dtype=np.complex128)
        sig = np.zeros(small_grid.n // 2 + 1, dtype=np.complex128)
        sig[10:] = 1.0
        monkeypatch.setattr("zapsim.shaper._phasors", lambda *args: pytest.fail("a Newton step ran"))
        got = _best_projection(SpectralField(small_grid, lo, prefix=True), SpectralField(small_grid, sig))
        assert got == 0.0

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
            weight = rng.uniform(0.995, 1.005) * rng.choice([-1.0, 1.0])  # a real signal: the copies agree or flip
            nu = grid.half_freqs
            amp = lo_spec.amp * (np.exp(2j * np.pi * nu * t1) + weight * np.exp(2j * np.pi * nu * t2))
            amp[-1] = amp[-1].real  # the Nyquist bin of a real field
            sig_spec = normalize(SpectralField(grid, amp))
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
        # the kernel over the full spectrum, normalized there, then its nu >= 0 bins and +Nyquist (= -Nyquist)
        kernel = np.exp(-4.0 * np.log(2.0) * (full_freqs(grid) / dnu) ** 2)
        kernel /= grid.df * kernel.sum()
        kernel = np.append(kernel[n // 2 :], kernel[0])
        spectrum = to_spectrum(TemporalField(grid, window)).amp
        assert np.max(np.abs(spectrum.real - kernel)) < 1e-12 * kernel.max()
        assert np.max(np.abs(spectrum.imag)) < 1e-12 * kernel.max()


class TestMaxEta:
    def test_no_medium_recovers_eta_base(self, mid_pulse):
        m = MediumParams(depth=0.0, t2=1e-12)
        assert efficiencies(mid_pulse, m, 0.62) == pytest.approx((0.62, 0.62), abs=1e-6)

    def test_ideal_resolution_reaches_transmission_cap(self, mid_pulse):
        from zapsim import energy_transmission

        params = temperature_presets()[2].params
        spec = to_spectrum(normalize(mid_pulse))
        cap = 0.62 * energy_transmission(spec, params)
        got = efficiencies(mid_pulse, params, 0.62, IDEAL)[1]
        assert got == pytest.approx(cap, abs=1e-6)

    @pytest.mark.parametrize("preset_idx", [0, 2, 4])
    def test_shaped_never_below_unshaped(self, mid_pulse, preset_idx):
        params = temperature_presets()[preset_idx].params
        unshaped, shaped = efficiencies(mid_pulse, params, 0.62)
        assert shaped >= unshaped - 1e-12

    @pytest.mark.parametrize("preset_idx", [0, 2, 4])
    def test_coarser_resolution_never_helps(self, mid_pulse, preset_idx):
        params = temperature_presets()[preset_idx].params
        ladder = [
            efficiencies(mid_pulse, params, 0.62, ShaperConfig(resolution_fwhm=r))[1]
            for r in (0.3e-9, 0.6e-9, 1.2e-9)
        ]
        assert ladder[0] >= ladder[1] >= ladder[2]

    def test_bounded_by_transmitted_fraction(self, mid_pulse):
        from zapsim import energy_transmission

        params = temperature_presets()[4].params
        cap = 0.62 * energy_transmission(to_spectrum(normalize(mid_pulse)), params)
        assert efficiencies(mid_pulse, params, 0.62)[1] <= cap + 1e-12

    def test_eta_base_validated(self, tmp_path):
        # eta_base enters the efficiencies through the config: depth-scan refuses one outside [0, 1] with exit 1
        # and writes nothing
        for eta_base in ("-0.1", "1.5"):
            out = tmp_path / eta_base
            assert main(["depth-scan", "--out", str(out), "--set", f"detection.eta_base={eta_base}"]) == 1
            assert not out.exists()


@pytest.mark.parametrize("span_nm", [None, 60.0])
@pytest.mark.parametrize("pixel_nm", [2.0, 3.0])
@pytest.mark.parametrize("preset_idx", range(5))
def test_shaped_is_best_candidate_below_transmitted_fraction(preset_idx, pixel_nm, span_nm):
    # a coarse pixel: whichever LO detects most, the un-modulated pulse, the shaped input
    # or the LO shaped to the transmitted mode, and never more than the transmitted fraction
    grid = make_grid(2**16, 10e-15)
    pulse = normalize(gaussian_pulse(grid, 100e-15))
    params = temperature_presets()[preset_idx].params
    cfg = ShaperConfig(pixel_width=pixel_nm * 1e-9, span=None if span_nm is None else span_nm * 1e-9)
    out = transmit(to_spectrum(pulse), params)
    mode = normalize(out.spectrum)
    shaped_in = 0.62 * out.transmission * _best_projection(to_spectrum(achievable_lo(pulse, cfg)), mode)
    unshaped, shaped = efficiencies(pulse, params, 0.62, cfg)
    assert max(unshaped, shaped_in) <= shaped <= 0.62 * out.transmission + 1e-12


@pytest.mark.parametrize("pixel_nm", [2.0, 3.0])
def test_pixel_box_moves_with_the_pulse(pixel_nm):
    # the box averages in the pulse's frame, as the resolution window is centred on it: a pulse moved by
    # whole samples gets the LO moved by as many, and the same efficiency
    grid = make_grid(2**16, 10e-15)
    params = temperature_presets()[3].params
    cfg = ShaperConfig(pixel_width=pixel_nm * 1e-9)
    first = grid.window / 8
    centres = (first, first + 50e-12, grid.window / 4, grid.window / 2)
    pulses = [gaussian_pulse(grid, 100e-15, centre) for centre in centres]
    etas = [efficiencies(pulse, params, 0.62, cfg)[1] for pulse in pulses]
    assert max(etas) - min(etas) <= 1e-12
    outs = [transmit(to_spectrum(normalize(pulse)), params) for pulse in pulses]
    los = [achievable_lo(out, cfg) for out in outs]
    for centre, lo in zip(centres[1:], los[1:]):
        moved = np.roll(los[0].amp, int(round((centre - first) / grid.dt)))
        assert np.max(np.abs(lo.amp - moved)) <= 1e-12 * np.abs(moved).max()


@pytest.mark.parametrize(
    "span_nm, pixel_nm, reads",
    [(60.0, None, False), (1.0, None, True), (60.0, 2.0, False), (None, None, False)],
    ids=["60.0-False", "1.0-True", "60.0-pixel2-False", "None-False"],
)
@pytest.mark.parametrize("preset_idx", [0, 2, 4])
def test_lo_centre_is_read_from_the_cut_field_where_proven(default_grid, preset_idx, span_nm, pixel_nm, reads):
    # the LO window is centred on the transmitted field's peak sample: the default span cuts only bins whose
    # reach is far below the gap between the cut field's two highest samples, so that field's peak is proven
    # the target's and the unbuilt transmitted field stays unbuilt, with or without a pixel box, whose
    # sinc factor is centred there too; without a span the cut is all of the output mode, its reach is
    # round-off alone, and the field stays unbuilt as well; a 1 nm span leaves a smooth cut field with no
    # proven peak, and the field is built and read.  Either way the LO has the bits of the window centred on
    # argmax |target|
    grid = default_grid
    out = transmit(to_spectrum(normalize(gaussian_pulse(grid, 100e-15))), temperature_presets()[preset_idx].params)
    assert "field" not in vars(out)  # transmit builds no field
    cfg = ShaperConfig(
        span=None if span_nm is None else span_nm * 1e-9, pixel_width=None if pixel_nm is None else pixel_nm * 1e-9
    )
    lo = achievable_lo(out, cfg)
    assert ("field" in vars(out)) == reads
    mode = normalize(out.spectrum).amp
    cut = mode.size if span_nm is None else np.searchsorted(grid.half_freqs, 0.5 * cfg.span_hz, side="right")
    amp = np.fft.irfft(np.conj(mode[:cut]), grid.n) / grid.dt
    k_peak = int(np.argmax(np.abs(out.field.amp)))
    keep, window = _resolution_window(grid, k_peak, cfg.resolution_fwhm_hz, cfg.pixel_width_hz)
    want = np.zeros(grid.n)
    want[keep] = amp[keep] * window / np.sqrt(grid.dt * np.sum((amp[keep] * window) ** 2))
    assert np.array_equal(lo.amp.view(np.uint64), want.view(np.uint64))


@pytest.fixture(scope="module")
def real_input():
    grid = make_grid(2**16, 10e-15)
    pulse = normalize(gaussian_pulse(grid, 100e-15))
    return pulse, to_spectrum(pulse)


@pytest.mark.parametrize("span_nm", [60.0, None])
@pytest.mark.parametrize("preset_idx", range(5))
def test_half_spectrum_search_matches_the_full_one(real_input, preset_idx, span_nm):
    # the searches on half spectra against the full-layout oracle: Brent on the direct sum over all n bins
    pulse, lo_in = real_input
    params = temperature_presets()[preset_idx].params
    cfg = ShaperConfig(span=None if span_nm is None else span_nm * 1e-9)
    out = transmit(lo_in, params)
    mode = normalize(out.spectrum)
    # what the half search rests on: at zero detuning S(-nu) = conj S(nu)
    s = full_transmit(pulse, params).mode.amp
    mid = lo_in.grid.n // 2
    assert np.max(np.abs(s[mid - 1 : 0 : -1] - np.conj(s[mid + 1 :]))) <= 1e-15 * np.abs(s).max()
    half = [
        _best_projection(lo_in, mode),
        *efficiencies(pulse, params, 0.62, cfg),
    ]
    unshaped = brent_projection(lo_in, mode)
    own = brent_projection(full_spectrum(full_layout_lo(out.field, cfg)), mode)
    shaped_in = brent_projection(full_spectrum(full_layout_lo(pulse, cfg)), mode)
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
    lo = to_spectrum(pulse)
    out = transmit(lo, params)
    shaped = to_spectrum(achievable_lo(pulse, cfg))  # the input shaped by the same pixel box
    own = to_spectrum(achievable_lo(out, cfg))
    assert {x.amp.shape for x in (lo, shaped, own)} == {(grid.n // 2 + 1,)}
    mode = normalize(out.spectrum)
    assert mode.amp.shape == (lo.band,)  # the half spectrum on the input's band
    assert out.field.amp.dtype == np.float64
    eta = efficiencies(pulse, params, 0.62, cfg)[1]
    assert complex_transforms == []
    monkeypatch.undo()
    for lo_spec in (lo, shaped, own):
        assert _best_projection(lo_spec, mode) >= brent_projection(lo_spec, mode) - 1e-15
    assert eta >= 0.62 * out.transmission * _best_projection(lo, mode)


def test_shaped_input_never_beats_the_own_mode_lo():
    # the evidence for searching two LOs only: over seeded shaper and pulse draws at every preset, the input
    # pulse shaped by the same shaper never detects more of the transmitted mode than the LO shaped to that mode
    grid = make_grid(2**14, 10e-15)
    rng = np.random.default_rng(21)
    losses = []
    for draw in range(24):
        fwhm = rng.choice([50e-15, 100e-15, 200e-15])
        resolution = rng.uniform(0.1e-9, 2e-9)
        span = rng.choice([None, 60e-9, 10e-9, 5e-9])
        pixel = None if rng.random() < 0.5 else rng.uniform(0.5e-9, 5e-9)  # below every span and above every resolution
        cfg = ShaperConfig(resolution_fwhm=resolution, pixel_width=pixel, span=span)
        pulse = normalize(gaussian_pulse(grid, fwhm))
        lo_in = to_spectrum(pulse)
        shaped_in = to_spectrum(achievable_lo(pulse, cfg))
        for preset in temperature_presets():
            out = transmit(lo_in, preset.params)
            mode = normalize(out.spectrum)
            own = _best_projection(to_spectrum(achievable_lo(out, cfg)), mode)
            losses.append(own - _best_projection(shaped_in, mode))
    assert len(losses) == 120
    assert min(losses) > 0.0


@pytest.fixture(scope="module")
def band_outs(real_input):
    _, lo_in = real_input
    return {i: transmit(lo_in, temperature_presets()[i].params) for i in (0, 2, 4)}


BAND_CASES = {"default": ShaperConfig(), "pixel2": ShaperConfig(pixel_width=2e-9), "span1": ShaperConfig(span=1e-9)}


@pytest.mark.parametrize("case", sorted(BAND_CASES))
@pytest.mark.parametrize("preset_idx", [0, 2, 4])
def test_band_rate_spectrum_is_the_full_rate_one(band_outs, preset_idx, case):
    # the LO's spectrum above B = span/2 + the window's reach + half the box is below e^-746 of its peak, so
    # the LO built at every D-th sample aliases nothing but round-off
    want = to_spectrum(achievable_lo(band_outs[preset_idx], BAND_CASES[case])).amp
    got = padded(_band_spectrum(band_outs[preset_idx], BAND_CASES[case]))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-14 * np.abs(want).max()


@pytest.mark.parametrize(
    "cfg", [ShaperConfig(span=None), ShaperConfig(resolution_fwhm=5e-9)], ids=["no-span", "resolution-5nm"]
)
def test_band_rate_without_a_bounded_band_is_to_spectrum(band_outs, cfg):
    # no span, or a window whose reach alone passes Nyquist: D = 1, and the bits of to_spectrum of achievable_lo
    got, want = _band_spectrum(band_outs[2], cfg).amp, to_spectrum(achievable_lo(band_outs[2], cfg)).amp
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


@pytest.mark.parametrize("cfg, step", [(ShaperConfig(), 2), (ShaperConfig(span=1e-9), 8)], ids=["default", "span1"])
def test_band_rate_is_the_largest_power_of_two_below_nyquist(monkeypatch, band_outs, cfg, step):
    # B = 19.7 THz at the default (below 25 THz, above 12.5 THz) and 5.1 THz at a 1 nm span (below 6.25 THz,
    # above 3.1 THz), against the 50 THz Nyquist of a 10 fs step: one rfft of n/D
    lengths = []
    rfft = np.fft.rfft
    monkeypatch.setattr(np.fft, "rfft", lambda x, *args, **kwargs: lengths.append(np.size(x)) or rfft(x, *args, **kwargs))
    _band_spectrum(band_outs[2], cfg)
    assert lengths == [band_outs[2].spectrum.grid.n // step]


@pytest.mark.parametrize("cfg", [ShaperConfig(), ShaperConfig(span=None)], ids=["span", "no-span"])
def test_efficiencies_build_no_mode(real_input, cfg):
    # both searches read the transmitted spectrum as it is and divide by its energy: no unit-energy copy is made,
    # and the efficiencies are those of the searches on that copy, to round-off
    _, lo_in = real_input
    out = transmit(lo_in, temperature_presets()[2].params)
    unshaped, shaped = _efficiencies(out, lo_in, 0.62, cfg)
    scale, mode = 0.62 * out.transmission, normalize(out.spectrum)
    assert unshaped == pytest.approx(scale * _best_projection(lo_in, mode), rel=1e-14, abs=0.0)
    shaped_lo = to_spectrum(achievable_lo(out, cfg))
    assert shaped == pytest.approx(scale * _best_projection(shaped_lo, mode), rel=1e-13, abs=0.0)


@pytest.fixture(scope="module")
def default_outs(default_mode_spec):
    return [transmit(default_mode_spec, preset.params) for preset in temperature_presets()]


def shaped_with_centre(monkeypatch, out, cfg, step):
    """``_shaped_lo(out, cfg, step)``, the full-grid sample its window was centred on, and whether it read the
    target's field."""
    centres = []
    window = zapsim.shaper._resolution_window
    with monkeypatch.context() as mp:
        spy = lambda grid, k, *rest: centres.append(k) or window(grid, k, *rest)
        mp.setattr(zapsim.shaper, "_resolution_window", spy)
        built = "field" in vars(out)
        lo = _shaped_lo(out, cfg, step)
    (centre,) = centres
    return lo, centre, not built and "field" in vars(out)


# each case's D: 19.7 THz and 20.4 THz of band at the default span without and with a 2 nm pixel (below 25 THz),
# 5.1 THz at a 1 nm span (below 6.25 THz), against the 50 THz Nyquist of a 10 fs step
STEP_CASES = {
    "default": (ShaperConfig(), 2),
    "pixel2": (ShaperConfig(pixel_width=2e-9), 2),
    "span1": (ShaperConfig(span=1e-9), 8),
}


@pytest.mark.parametrize("case", sorted(STEP_CASES))
@pytest.mark.parametrize("preset_idx", range(5))
def test_band_rate_lo_is_every_dth_sample_of_the_full_rate_one(default_outs, preset_idx, case):
    # on the default grid the cut fields' samples agree to the bit at D = 2, and the two normalizations, sums over
    # the step grid's and over every sample, to round-off: up to 1.4e-15 of the peak at D = 2 and 8.4e-15 at
    # D = 8, whose transform of n/8 rounds apart from the one of n
    cfg, step = STEP_CASES[case]
    out = default_outs[preset_idx]
    want = achievable_lo(out, cfg)
    got = _shaped_lo(out, cfg, step)
    assert got.grid == Grid(want.grid.n // step, step * want.grid.dt)
    assert got.amp.dtype == np.float64
    assert np.max(np.abs(got.amp - want.amp[::step])) <= 1e-14 * np.abs(want.amp).max()


def test_band_rate_centres_are_the_full_grid_peaks(monkeypatch, default_outs):
    # at D = 2 the centre is proven from the cut field's samples and the few in between summed exactly, with the
    # transmitted fields unbuilt: presets 3 and 4 peak on an odd sample, preset 5 on its negative lobe
    centres = [shaped_with_centre(monkeypatch, out, ShaperConfig(), 2)[1:] for out in default_outs]
    assert centres == [(65536, False), (65536, False), (65535, False), (65535, False), (65550, False)]
    for out, (centre, _) in zip(default_outs, centres):
        assert centre == np.argmax(np.abs(out.field.amp))  # the first of ties
    assert default_outs[4].field.amp[65550] < 0.0


def test_band_rate_centres_follow_the_target_at_every_offset(monkeypatch):
    # targets moved by r*dt for every r < D: the centre is the target's argmax |E|, first of ties, whether it is
    # proven (at D = 2, 4 and 8) or read from the target; the 1 nm span proves none and reads each target, and
    # the LO is every D-th sample of the full-rate one either way
    grid = make_grid(2**14, 10e-15)
    rng = np.random.default_rng(30)
    presets = temperature_presets()
    cases = [(60e-9, 2, (100e-15, 200e-15)), (20e-9, 4, (100e-15, 200e-15)), (4e-9, 8, (2e-12,)), (1e-9, 8, (2e-12,))]
    proven = {}
    for span, step, widths in cases:
        cfg = ShaperConfig(span=span)
        for _ in range(3):
            fwhm, params = rng.choice(widths), presets[rng.integers(5)].params
            first = grid.window / 8 + rng.integers(64) * grid.dt
            for r in range(step):
                out = transmit(to_spectrum(normalize(gaussian_pulse(grid, fwhm, first + r * grid.dt))), params)
                lo, centre, read = shaped_with_centre(monkeypatch, out, cfg, step)
                want = achievable_lo(out, cfg).amp
                assert centre == np.argmax(np.abs(out.field.amp))
                assert np.max(np.abs(lo.amp - want[::step])) <= 1e-15 * np.abs(want).max()
                proven.setdefault(span, []).append(not read)
    assert all(proven[60e-9]) and any(proven[20e-9]) and all(proven[4e-9])
    assert not any(proven[1e-9])


@pytest.mark.parametrize("step", [2, 4, 8])
def test_rise_bounds_every_sample_in_between(step):
    # band-limited fields below Nyquist/D: no sample between two of the step grid's rises above the larger of
    # them by more than _rise, for white spectra up to that band's edge and for smooth ones
    grid = make_grid(2**10, 10e-15)
    rng = np.random.default_rng(step)
    worst = 0.0
    for draw in range(40):
        bins = rng.integers(2, grid.n // (2 * step) + 1)
        amp = rng.normal(size=bins) + 1j * rng.normal(size=bins)
        if draw % 2:
            amp *= np.exp(-((np.arange(bins) / rng.uniform(1.0, bins)) ** 2))
        amp[0] = amp[0].real
        field = to_time(SpectralField(grid, amp, prefix=True)).amp
        ends = np.abs(field[::step])
        limit = np.maximum(ends, np.roll(ends, -1)) + _rise(amp, grid, step)
        between = np.abs(field).reshape(-1, step)[:, 1:].max(axis=1)
        worst = max(worst, float(np.max((between - limit) / np.abs(field).max())))
    assert worst <= 1e-15


def nm_config(span_nm, pixel_nm):
    """A shaper of the default resolution with the span and the pixel given in nm, None for none."""
    to_m = lambda nm: None if nm is None else nm * 1e-9
    return ShaperConfig(span=to_m(span_nm), pixel_width=to_m(pixel_nm))


def assert_full_rate_efficiencies(out, lo_in, cfg):
    """_efficiencies, whose shaped LO is built at its band's rate, against the searches with the full-rate LO."""
    unshaped = _detected(0.62, out, lo_in)
    want = (unshaped, max(unshaped, _detected(0.62, out, to_spectrum(achievable_lo(out, cfg)))))
    assert _efficiencies(out, lo_in, 0.62, cfg) == pytest.approx(want, rel=1e-13, abs=0.0)


@pytest.mark.parametrize(
    "span_nm, pixel_nm",
    [(60.0, None), (60.0, 2.0), (60.0, 3.0), (1.0, None), (None, None), (None, 2.0), (None, 3.0)],
)
@pytest.mark.parametrize("preset_idx", range(5))
def test_efficiencies_match_the_full_rate_lo(real_input, preset_idx, span_nm, pixel_nm):
    # the span and pixel of the shaped LO do not change what the searches find: presets x spans x pixels, where
    # the pixel is below the span
    _, lo_in = real_input
    out = transmit(lo_in, temperature_presets()[preset_idx].params)
    assert_full_rate_efficiencies(out, lo_in, nm_config(span_nm, pixel_nm))


@pytest.mark.parametrize("span_nm, pixel_nm", [(60.0, None), (60.0, 2.0), (60.0, 3.0), (None, None), (None, 3.0)])
def test_efficiencies_match_the_full_rate_lo_in_an_absorbing_medium(span_nm, pixel_nm):
    # depth 3000 at T2 0.5 ps on a 4096-sample grid, which the resolution window covers and wraps: it bounds no
    # band, so the LO is built at the full rate (D = 1)
    grid = make_grid(4096, 10e-15)
    lo_in = to_spectrum(normalize(gaussian_pulse(grid, 100e-15)))
    out = transmit(lo_in, MediumParams(depth=3000.0, t2=0.5e-12))
    cfg = nm_config(span_nm, pixel_nm)
    assert isinstance(_resolution_window(grid, 0, cfg.resolution_fwhm_hz)[0], slice)
    assert_full_rate_efficiencies(out, lo_in, cfg)


@pytest.mark.parametrize("preset_idx", range(5))
def test_a_window_over_the_whole_grid_shapes_at_the_full_rate(preset_idx):
    # at grid.n = 1024 the resolution window covers the grid and wraps there, with a kink at +-window/2: it bounds
    # no band, so D = 1 and the shaped efficiency is the full-rate LO's to the bit (at D = 2 the printed preset-4
    # eta_shaped was 0.560053471417 against the full-rate 0.56005347026)
    grid = make_grid(1024, 10e-15)
    lo_in = to_spectrum(normalize(gaussian_pulse(grid, 100e-15)))
    out = transmit(lo_in, temperature_presets()[preset_idx].params)
    cfg = ShaperConfig()
    assert isinstance(_resolution_window(grid, 0, cfg.resolution_fwhm_hz)[0], slice)
    unshaped = _detected(0.62, out, lo_in)
    shaped = _detected(0.62, out, to_spectrum(achievable_lo(out, cfg)))
    assert _efficiencies(out, lo_in, 0.62, cfg) == (unshaped, max(unshaped, shaped))
    assert _band_spectrum(out, cfg).amp.size == grid.n // 2 + 1


class TestNewtonStart:
    DT = 10e-15

    @staticmethod
    def coarse(n, m, vertex, dt=10e-15, curvature=-1e26):
        """Squared overlaps at the even lags of an n-point grid: a parabola with its vertex ``vertex`` seconds
        past the lag 2m*dt, stored at index m mod n/2."""
        lags = np.arange(n // 2)
        lags = np.where(lags <= n // 4, lags, lags - n // 2)
        return 1.0 + curvature * (2.0 * lags * dt - 2.0 * m * dt - vertex) ** 2

    @pytest.mark.parametrize("m", [0, 3, -5])
    @pytest.mark.parametrize("vertex", [0.0, 0.7e-15, -13e-15])
    def test_a_concave_triple_starts_at_its_vertex(self, m, vertex):
        coarse = self.coarse(64, m, vertex)
        got = _newton_start(coarse, m, 8, self.DT, -2 * self.DT, 2 * self.DT)
        assert got == pytest.approx(vertex, abs=1e-9 * self.DT)

    @pytest.mark.parametrize(
        "vertex, low, high, want",
        [(35e-15, -20e-15, 20e-15, 20e-15), (-35e-15, -20e-15, 20e-15, -20e-15), (15e-15, -20e-15, 5e-15, 5e-15)],
    )
    def test_the_vertex_is_clamped(self, vertex, low, high, want):
        assert _newton_start(self.coarse(64, 2, vertex), 2, 8, self.DT, low, high) == want

    def test_a_triple_that_is_not_concave_starts_at_the_sample(self):
        assert _newton_start(self.coarse(64, 1, 3e-15, curvature=1e26), 1, 8, self.DT, -2 * self.DT, 2 * self.DT) == 0.0
        flat = np.ones(32)
        assert _newton_start(flat, 1, 8, self.DT, -2 * self.DT, 2 * self.DT) == 0.0

    @pytest.mark.parametrize("n, m", [(64, 8), (64, -8), (8, 1), (8, -1), (4, 0), (2, 0)])
    def test_a_start_at_the_range_end_starts_at_the_sample(self, n, m):
        coarse = self.coarse(n, m, 5e-15)
        assert _newton_start(coarse, m, n // 8, self.DT, -2 * self.DT, 2 * self.DT) == 0.0
