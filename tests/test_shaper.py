import numpy as np
import pytest
from scipy.ndimage import uniform_filter1d
from scipy.optimize import minimize_scalar

from zapsim import (
    MediumParams,
    ShaperConfig,
    achievable_lo,
    delay_field,
    gaussian_pulse,
    make_grid,
    max_shaped_eta,
    max_unshaped_eta,
    normalize,
    overlap,
    propagate,
    resolution_kernel,
    temperature_presets,
    to_spectrum,
    to_time,
    transmit,
)
from zapsim.modes import _lattice_overlaps, _spectral_product, _support
from zapsim.shaper import _best_projection, _box_average

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

IDEAL = ShaperConfig(resolution_fwhm=1e-18, span=None)


def transmitted_mode(pulse, params):
    return normalize(to_time(propagate(to_spectrum(normalize(pulse)), params)))


@pytest.fixture(scope="module")
def preset_modes(mid_pulse):
    presets = temperature_presets()
    return {i: transmitted_mode(mid_pulse, presets[i].params) for i in (0, 2, 4)}


def brent_projection(lo_spec, sig_spec):
    """Oracle: the lattice maximum refined by bounded Brent within one time step."""
    grid = lo_spec.grid
    g = _spectral_product(lo_spec, sig_spec)
    corr = np.abs(_lattice_overlaps(g, grid))
    quarter = grid.n // 4
    corr[quarter + 1 : grid.n - quarter] = -1.0
    k = int(np.argmax(corr))
    tau = (k if k <= quarter else k - grid.n) * grid.dt
    g, freqs = _support(g, grid.freqs)

    def neg(t):
        return -np.abs(grid.df * np.sum(g * np.exp(-2j * np.pi * freqs * t))) ** 2

    res = minimize_scalar(neg, bounds=(tau - grid.dt, tau + grid.dt), method="bounded", options={"xatol": 1e-18})
    return max(-res.fun, corr[k] ** 2)


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


class TestResolutionKernel:
    def test_unit_area(self, mid_grid):
        k = resolution_kernel(mid_grid, ShaperConfig())
        area = mid_grid.df * np.sum(k.values.real)
        assert area == pytest.approx(1.0, abs=1e-9)
        assert np.all(k.values.imag == 0.0)

    def test_peak_at_zero_detuning(self, mid_grid):
        k = resolution_kernel(mid_grid, ShaperConfig())
        assert int(np.argmax(np.abs(k.values))) == mid_grid.zero_bin

    def test_sub_grid_kernel_rejected(self, mid_grid):
        lam = 780e-9
        dlam = 0.5 * mid_grid.df * lam**2 / 299792458.0
        with pytest.raises(ValueError):
            resolution_kernel(mid_grid, ShaperConfig(resolution_fwhm=dlam, span=None))

    def test_narrow_kernel_approaches_delta(self, mid_grid):
        lam = 780e-9
        dlam = 3.0 * mid_grid.df * lam**2 / 299792458.0
        k = resolution_kernel(mid_grid, ShaperConfig(resolution_fwhm=dlam, span=None))
        z = mid_grid.zero_bin
        mass = mid_grid.df * np.sum(k.values.real[z - 4 : z + 5])
        assert mass > 0.99


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
    out = transmit(to_spectrum(pulse), params)
    shaped_in = 0.62 * out.transmission * _best_projection(to_spectrum(achievable_lo(pulse, cfg)), out.mode)
    floor = max(max_unshaped_eta(pulse, params, 0.62), shaped_in)
    assert floor <= max_shaped_eta(pulse, params, cfg, 0.62) <= 0.62 * out.transmission + 1e-12
