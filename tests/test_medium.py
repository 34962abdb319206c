import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from zapsim import (
    GridAdequacyWarning,
    MediumParams,
    SpectralField,
    energy_transmission,
    gaussian_pulse,
    make_grid,
    normalize,
    propagate,
    pulse_energy,
    pulse_area,
    temperature_presets,
    to_spectrum,
    to_time,
    transfer_function,
    transmit,
)
from zapsim.fields import TemporalField
from zapsim.medium import _warn_window_edges

from conftest import full_freqs, full_spectrum

LN2 = np.log(2.0)


def transmission_oracle(depth, t2, fwhm_t):
    """Adaptive-quadrature oracle for the transmitted energy of a Gaussian.

    Integrates |H(nu)|^2 weighted by the closed-form Gaussian spectral
    intensity, independent of any FFT grid.
    """
    dnu = 2.0 * LN2 / (np.pi * fwhm_t)

    def weight(nu):
        return np.exp(-4.0 * LN2 * (nu / dnu) ** 2)

    def transmitted(nu):
        h = np.exp(-depth / (1.0 - 2j * np.pi * nu * t2))
        return weight(nu) * np.abs(h) ** 2

    bound = 6.0 * dnu
    hole = max(np.sqrt(2.0 * max(depth, 1.0)), 1.0) / (2.0 * np.pi * t2)
    pts = [p for p in (-50 * hole, -5 * hole, 0.0, 5 * hole, 50 * hole) if abs(p) < bound]
    num, _ = quad(transmitted, -bound, bound, points=pts, limit=800, epsabs=0.0, epsrel=1e-12)
    den, _ = quad(weight, -bound, bound, limit=200, epsabs=0.0, epsrel=1e-12)
    return num / den


def direct_transfer(grid, m):
    """H(nu) by the full-grid formula, every bin of the full layout evaluated."""
    x = 2.0 * np.pi * full_freqs(grid) * m.t2
    return np.exp(-m.depth / (1.0 - 1j * x))


def bits(a):
    return a.view(np.uint64)


HALF_BAND_MEDIA = [p.params for p in temperature_presets()] + [
    MediumParams(depth=1e4, t2=280e-12),
    MediumParams(depth=1e-300, t2=280e-12),
]


class TestMediumParams:
    def test_rejects_negative_depth(self):
        with pytest.raises(ValueError):
            MediumParams(depth=-1.0, t2=1e-12)

    def test_rejects_bad_t2(self):
        with pytest.raises(ValueError):
            MediumParams(depth=1.0, t2=0.0)

    def test_line_fwhm(self):
        m = MediumParams(depth=1.0, t2=270e-12)
        assert m.line_fwhm == pytest.approx(1.0 / (np.pi * 270e-12), rel=1e-12)
        assert m.line_fwhm == pytest.approx(1.179e9, rel=1e-3)


class TestTransferFunction:
    def test_zero_depth_is_identity(self, small_grid):
        filt = transfer_function(small_grid, MediumParams(depth=0.0, t2=1e-12))
        assert np.all(filt.amp == 1.0)

    def test_resonance_value(self, small_grid):
        filt = transfer_function(small_grid, MediumParams(depth=1.0, t2=1e-12))
        assert filt.amp[0] == pytest.approx(np.exp(-1.0), rel=1e-14)

    def test_unit_dimensionless_detuning_point(self):
        # choose T2 so the bin at nu = 0.25 Hz sits at 2*pi*nu*T2 = 1 exactly
        grid = make_grid(8, 1.0)
        t2 = 1.0 / (2.0 * np.pi * 0.25)
        filt = transfer_function(grid, MediumParams(depth=1.0, t2=t2))
        k = 2
        assert grid.half_freqs[k] == pytest.approx(0.25, rel=1e-15)
        expected = np.exp(-1.0 / (1.0 - 1j))  # = exp(-(1+i)/2)
        assert filt.amp[k] == pytest.approx(expected, rel=1e-12)
        assert abs(filt.amp[k]) == pytest.approx(np.exp(-0.5), rel=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_passivity(self, small_grid, seed):
        rng = np.random.default_rng(seed)
        m = MediumParams(
            depth=float(rng.uniform(0.0, 50.0)),
            t2=float(rng.uniform(1e-13, 1e-9)),
        )
        filt = transfer_function(small_grid, m)
        assert np.all(np.abs(filt.amp) <= 1.0 + 1e-15)

    def test_far_detuned_transparency(self, mid_grid):
        # |H| returns to 1 within 1e-6 at the grid edge (Nyquist, and the bin below it) for all presets
        for preset in temperature_presets():
            filt = transfer_function(mid_grid, preset.params)
            assert abs(abs(filt.amp[-1]) - 1.0) < 1e-6
            assert abs(abs(filt.amp[-2]) - 1.0) < 1e-6

    @pytest.mark.parametrize("n", [2, 2**10, 2**19])
    @pytest.mark.parametrize("m", HALF_BAND_MEDIA, ids=lambda m: f"depth{m.depth:g}")
    def test_half_band_is_bit_exact(self, n, m):
        # only nu >= 0 is evaluated; mirrored by H(-nu) = conj H(nu), it is the full-grid formula bit for bit
        grid = make_grid(n, 10e-15)
        assert np.array_equal(bits(full_spectrum(transfer_function(grid, m)).amp), bits(direct_transfer(grid, m)))

    def test_half_band_at_zero_depth_equals_in_value(self, default_grid):
        # -0/(1 - ix) and +0/(1 + ix) differ in the sign of a zero imaginary part, so only values match
        m = MediumParams(depth=0.0, t2=280e-12)
        assert np.array_equal(full_spectrum(transfer_function(default_grid, m)).amp, direct_transfer(default_grid, m))

    def test_overflowing_t2_rejected(self, small_grid):
        # 2*pi*nu*T2 would overflow to inf and 1 - i*inf is NaN; refused before any array is built
        m = MediumParams(depth=70.0, t2=np.float64(1e295))
        with pytest.raises(ValueError, match="T2 .* is too long for the grid"):
            transfer_function(small_grid, m)

    def test_deep_line_underflows_to_zero(self, small_grid):
        filt = transfer_function(small_grid, MediumParams(depth=2200.0, t2=1e-12))
        assert filt.amp[0] == 0.0


class TestPropagate:
    def test_zero_depth_identity(self, small_grid):
        f = to_spectrum(gaussian_pulse(small_grid, 100e-15))
        out = propagate(f, MediumParams(depth=0.0, t2=1e-12))
        assert np.array_equal(out.amp, f.amp)

    def test_mismatched_inputs_rejected(self, small_grid):
        with pytest.raises(ValueError):
            SpectralField(small_grid, np.ones(small_grid.n // 2))

    def test_energy_never_increases(self, small_grid):
        f = to_spectrum(gaussian_pulse(small_grid, 100e-15))
        from zapsim import pulse_energy

        out = propagate(f, MediumParams(depth=5.0, t2=1e-12))
        assert pulse_energy(out) <= pulse_energy(f)

    def test_input_energy_is_summed_once(self, small_grid, monkeypatch):
        # one sum for the shared input spectrum, one per output for T_E
        f = to_spectrum(gaussian_pulse(small_grid, 100e-15))
        sums = []
        np_sum = np.sum
        monkeypatch.setattr(np, "sum", lambda x, *a, **k: sums.append(np.size(x)) or np_sum(x, *a, **k))
        for depth in (1.0, 3.0, 5.0):
            transmit(f, MediumParams(depth=depth, t2=1e-12)).transmission
        assert sums == [small_grid.n // 2 + 1] * 4

    def test_warns_on_coarse_line_sampling(self, small_grid):
        f = to_spectrum(gaussian_pulse(small_grid, 100e-15, center_t=small_grid.window / 8))
        with pytest.warns(GridAdequacyWarning, match="window edges"):
            with pytest.warns(GridAdequacyWarning, match="frequency samples"):
                propagate(f, MediumParams(depth=1.0, t2=270e-12))

    def test_warns_on_window_wraparound(self):
        grid = make_grid(2**12, 10e-15)  # 41 ps window
        f = to_spectrum(gaussian_pulse(grid, 100e-15))
        with pytest.warns(GridAdequacyWarning, match="frequency samples"):
            with pytest.warns(GridAdequacyWarning, match="window edges"):
                propagate(f, MediumParams(depth=30.0, t2=100e-12))

    def test_clean_case_is_silent(self):
        grid = make_grid(2**12, 10e-15)
        f = to_spectrum(gaussian_pulse(grid, 100e-15))
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridAdequacyWarning)
            propagate(f, MediumParams(depth=5.0, t2=1e-12))


class TestEdgeCheck:
    """The window-edge warning compares |E| at the two edge samples of a real field with its peak |E(t)|,
    the largest |sample|."""

    grid = make_grid(2**12, 10e-15)

    def check(self, amp):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            _warn_window_edges(amp)
        return [str(w.message) for w in caught]

    def test_real_peak_is_exact(self):
        amp = np.zeros(self.grid.n)
        amp[self.grid.n // 2] = -2.0
        amp[-1] = 1.8e-6
        assert self.check(amp) == []
        amp[-1] = 2.2e-6
        assert self.check(amp) == ["field amplitude at the window edges is 1.10e-06 of peak (> 1e-06); the response wraps around the window"]

    @pytest.mark.parametrize("edge_index", [0, -1], ids=["first", "last"])
    @pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
    def test_either_edge_of_either_sign_is_read(self, edge_index, sign):
        # the peak is max(max, -min), so a positive peak with a negative lobe deeper than the edge, or a negative
        # one, is found; the edge is read as |sample| at either end
        amp = np.zeros(self.grid.n)
        amp[self.grid.n // 2] = 4.0 * sign
        amp[self.grid.n // 3] = -3.0 * sign
        amp[edge_index] = -3.6e-6 * sign
        assert self.check(amp) == []
        amp[edge_index] = -4.4e-6 * sign
        assert self.check(amp) == ["field amplitude at the window edges is 1.10e-06 of peak (> 1e-06); the response wraps around the window"]


class TestSpectralEdgeCheck:
    """transmit reads the two edge samples of a half spectrum's field from the spectrum and bounds the peak by
    the RMS; the field is built, for the exact check on its samples, only where that bound cannot clear the edges."""

    line = MediumParams(depth=0.0, t2=1e-12)  # H = 1 exactly, so the output field is the input's; no sampling warning

    def transmitted(self, n, amp_at_edge, at):
        # a 100 fs pulse of unit peak in mid-window, whose RMS is 0.051 over a 2^12 x 10 fs window (0.036 over
        # 2^13), and one edge value: only the smallest edges are cleared by the bound
        grid = make_grid(n, 10e-15)
        amp = gaussian_pulse(grid, 100e-15, center_t=grid.window / 2).amp
        amp[at] = amp_at_edge
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = transmit(to_spectrum(TemporalField(grid, amp)), self.line)
        return out, "field" in vars(out), [str(w.message) for w in caught]

    @pytest.mark.parametrize("n", [2**12, 2**13])
    @pytest.mark.parametrize("at", [0, -1])
    @pytest.mark.parametrize("edge, built", [(1e-8, False), (-1e-8, False), (0.9e-6, True), (-1.1e-6, True), (1e-4, True)])
    def test_warns_as_the_exact_check_on_the_built_field(self, n, at, edge, built):
        out, was_built, messages = self.transmitted(n, edge, at)
        assert was_built == built
        with warnings.catch_warnings(record=True) as exact:
            warnings.simplefilter("always")
            _warn_window_edges(out.field.amp)
        assert messages == [str(w.message) for w in exact]
        assert len(messages) == (abs(edge) > 1e-6)

    def test_a_clean_field_is_built_only_when_read(self):
        out, was_built, messages = self.transmitted(2**12, 0.0, 0)
        assert not was_built and messages == []
        field = out.field
        assert out.field is field and "field" in vars(out)


@pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")
class TestAreaTheorem:
    @pytest.mark.parametrize("depth", [0.5, 1.0, 5.0])
    def test_time_domain_ratio(self, mid_grid, depth):
        f = gaussian_pulse(mid_grid, 100e-15)
        spec = to_spectrum(f)
        out = to_time(propagate(spec, MediumParams(depth=depth, t2=270e-12)))
        ratio = pulse_area(out) / pulse_area(f)
        assert abs(ratio - np.exp(-depth)) <= 1e-9 * np.exp(-depth)

    @pytest.mark.parametrize("depth", [0.5, 1.0, 5.0, 20.0])
    def test_spectral_ratio_exact(self, mid_grid, depth):
        # the area is the zero-detuning spectral sample; evaluating it there
        # avoids the cancellation noise of the time-domain sum at high depth
        f = gaussian_pulse(mid_grid, 100e-15)
        spec = to_spectrum(f)
        out = propagate(spec, MediumParams(depth=depth, t2=270e-12))
        ratio = out.amp[0] / spec.amp[0]
        assert abs(ratio - np.exp(-depth)) <= 1e-12 * np.exp(-depth)

    def test_area_ratio_with_resonant_carrier_example(self, mid_grid):
        f = gaussian_pulse(mid_grid, 100e-15)
        out = to_time(propagate(to_spectrum(f), MediumParams(depth=5.0, t2=280e-12)))
        ratio = abs(pulse_area(out) / pulse_area(f))
        assert ratio == pytest.approx(6.737947e-3, rel=1e-6)

    def test_extreme_depth_underflows_cleanly(self, mid_grid):
        # exp(-2200) underflows; the residual time-domain area is pure
        # floating-point cancellation noise
        f = gaussian_pulse(mid_grid, 100e-15)
        spec = to_spectrum(f)
        out = propagate(spec, MediumParams(depth=2200.0, t2=260e-12))
        assert out.amp[0] == 0.0
        time_ratio = pulse_area(to_time(out)) / pulse_area(f)
        assert abs(time_ratio) < 1e-9


class TestEnergyTransmission:
    def test_zero_depth_unity(self, small_grid):
        f = to_spectrum(gaussian_pulse(small_grid, 100e-15))
        assert energy_transmission(f, MediumParams(depth=0.0, t2=1e-12)) == 1.0

    def test_zero_field_rejected(self, small_grid):
        f = SpectralField(small_grid, np.zeros(small_grid.n // 2 + 1))
        with pytest.raises(ValueError):
            energy_transmission(f, MediumParams(depth=1.0, t2=1e-12))

    def test_monotone_in_depth(self, small_grid):
        f = to_spectrum(gaussian_pulse(small_grid, 100e-15))
        vals = [
            energy_transmission(f, MediumParams(depth=d, t2=2e-12))
            for d in (0.0, 0.5, 1.0, 5.0, 50.0, 500.0)
        ]
        assert all(0.0 <= v <= 1.0 for v in vals)
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("preset_idx", [0, 2])
    def test_against_quadrature_oracle(self, mid_grid, preset_idx):
        preset = temperature_presets()[preset_idx]
        f = to_spectrum(normalize(gaussian_pulse(mid_grid, 100e-15)))
        grid_value = energy_transmission(f, preset.params)
        oracle = transmission_oracle(preset.params.depth, preset.params.t2, 100e-15)
        assert grid_value == pytest.approx(oracle, rel=1e-6)


class TestPresets:
    def test_five_presets(self):
        presets = temperature_presets()
        assert [p.params.depth for p in presets] == [70.0, 180.0, 440.0, 1000.0, 2200.0]
        assert [p.label for p in presets] == [f"preset{i}" for i in range(1, 6)]

    def test_t2_interpolation(self):
        presets = temperature_presets()
        expected = [280e-12, 275e-12, 270e-12, 265e-12, 260e-12]
        for p, t2 in zip(presets, expected):
            assert p.params.t2 == pytest.approx(t2, rel=1e-12)

    def test_named_temperatures(self):
        presets = temperature_presets()
        assert [p.temperature_c for p in presets] == [None, None, None, 100.0, 115.0]

    def test_endpoint_examples(self):
        presets = temperature_presets()
        assert presets[0].params.depth == 70.0
        assert presets[0].params.t2 == pytest.approx(280e-12)
        assert presets[4].params.depth == 2200.0
        assert presets[4].params.t2 == pytest.approx(260e-12)
        assert presets[2].params.depth == 440.0
        assert presets[2].params.t2 == pytest.approx(270e-12)


class TestLimits:
    def test_vanishing_t2_uniform_attenuation(self, small_grid):
        filt = transfer_function(small_grid, MediumParams(depth=3.0, t2=1e-20))
        assert np.max(np.abs(filt.amp - np.exp(-3.0))) < 1e-6

    def test_large_t2_transparent_off_resonance(self, small_grid):
        filt = transfer_function(small_grid, MediumParams(depth=1.0, t2=1.0))
        vals = filt.amp.copy()
        assert vals[0] == pytest.approx(np.exp(-1.0), rel=1e-12)
        off = vals[1:]
        assert np.max(np.abs(off - 1.0)) < 1e-6


class TestCausality:
    def test_impulse_response_is_causal(self, default_grid):
        # shallow line: the periodization seam at the Nyquist edge stays small
        filt = transfer_function(default_grid, MediumParams(depth=0.5, t2=280e-12))
        h = to_time(filt)
        mags = np.abs(h.amp)
        peak = mags.max()
        assert int(np.argmax(mags)) == 0
        # negative times wrap to the top half; allow the single sample at -dt
        pre = mags[default_grid.n // 2 : -1]
        assert pre.max() < 1e-6 * peak
        # the causal side carries a clearly resolvable free-induction tail
        assert mags[1:200].max() > 1e-5 * peak

    @pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")
    def test_gaussian_probe_sees_no_precursor(self, default_grid):
        center = default_grid.window / 8.0
        f = to_spectrum(gaussian_pulse(default_grid, 100e-15, center_t=center))
        out = to_time(propagate(f, MediumParams(depth=440.0, t2=270e-12)))
        mags = np.abs(out.amp)
        peak = mags.max()
        pre = mags[default_grid.t < center - 2e-12]
        post = mags[(default_grid.t > center + 0.2e-12) & (default_grid.t < center + 100e-12)]
        assert pre.max() < 1e-6 * peak
        assert post.max() > 1e-2 * peak


@pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")
class TestTransmit:
    @pytest.mark.parametrize("preset_idx", [0, 2, 4])
    def test_matches_the_separate_calls(self, mid_mode, preset_idx):
        params = temperature_presets()[preset_idx].params
        f = to_spectrum(mid_mode)
        out = transmit(f, params)
        assert np.array_equal(out.spectrum.amp, propagate(f, params).amp)
        assert np.array_equal(out.field.amp, to_time(out.spectrum).amp)
        assert out.transmission == pytest.approx(energy_transmission(f, params), rel=1e-12)
        assert pulse_energy(out.mode) == pytest.approx(1.0, abs=1e-12)
        round_trip = to_spectrum(normalize(to_time(propagate(f, params)))).amp
        assert np.max(np.abs(out.mode.amp - round_trip)) <= 1e-12 * np.max(np.abs(round_trip))

    def test_warns_like_propagate(self):
        grid = make_grid(2**12, 10e-15)
        f = to_spectrum(gaussian_pulse(grid, 100e-15))
        with pytest.warns(GridAdequacyWarning, match="window edges"):
            transmit(f, MediumParams(depth=30.0, t2=100e-12))

    def test_zero_field_has_no_transmission(self, small_grid):
        f = SpectralField(small_grid, np.zeros(small_grid.n // 2 + 1))
        out = transmit(f, MediumParams(depth=1.0, t2=1e-12))
        assert not np.any(out.spectrum.amp)
        with pytest.raises(ValueError, match="zero-energy"):
            out.transmission
