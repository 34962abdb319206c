import warnings

import numpy as np
import pytest
from scipy.integrate import quad

from zapsim import (
    GridAdequacyWarning,
    MediumParams,
    SpectralField,
    TemporalField,
    achievable_lo,
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
from zapsim.medium import MIN_BAND_TRANSMISSION, _wrap_error
from zapsim.shaper import ShaperConfig, _efficiencies

from conftest import full_freqs, full_spectrum, padded

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
        # H = 1 exactly: the output is the input's band, bit for bit
        f = to_spectrum(gaussian_pulse(small_grid, 100e-15))
        out = propagate(f, MediumParams(depth=0.0, t2=1e-12))
        assert np.array_equal(out.amp, f.amp[: f.band])

    def test_mismatched_inputs_rejected(self, small_grid):
        with pytest.raises(ValueError):
            SpectralField(small_grid, np.ones(small_grid.n // 2))

    def test_energy_never_increases(self, small_grid):
        f = to_spectrum(gaussian_pulse(small_grid, 100e-15))
        from zapsim import pulse_energy

        out = propagate(f, MediumParams(depth=5.0, t2=1e-12))
        assert pulse_energy(out) <= pulse_energy(f)

    def test_input_energy_is_summed_once(self, small_grid, monkeypatch):
        # one sum of all n/2 + 1 bins for the shared input spectrum, one per output, on the input's band, for T_E
        f = to_spectrum(gaussian_pulse(small_grid, 100e-15))
        sums = []
        np_sum = np.sum
        monkeypatch.setattr(np, "sum", lambda x, *a, **k: sums.append(np.size(x)) or np_sum(x, *a, **k))
        for depth in (1.0, 3.0, 5.0):
            transmit(f, MediumParams(depth=depth, t2=1e-12)).transmission
        assert f.band == 807
        assert sums == [small_grid.n // 2 + 1] + [f.band] * 3

    def test_warns_on_coarse_line_sampling(self, small_grid):
        # a 270 ps line is far narrower than this 41 ps window's 24 GHz bins: its tail wraps, and one warning
        # says so
        f = to_spectrum(gaussian_pulse(small_grid, 100e-15, center_t=small_grid.window / 8))
        with pytest.warns(GridAdequacyWarning, match="widen the window n") as caught:
            propagate(f, MediumParams(depth=1.0, t2=270e-12))
        assert len(caught) == 1

    def test_warns_on_window_wraparound(self):
        grid = make_grid(2**12, 10e-15)  # 41 ps window
        f = to_spectrum(gaussian_pulse(grid, 100e-15))
        with pytest.warns(GridAdequacyWarning, match="can move eta or T_E by up to") as caught:
            propagate(f, MediumParams(depth=30.0, t2=100e-12))
        assert len(caught) == 1

    def test_clean_case_is_silent(self):
        grid = make_grid(2**12, 10e-15)
        f = to_spectrum(gaussian_pulse(grid, 100e-15))
        with warnings.catch_warnings():
            warnings.simplefilter("error", GridAdequacyWarning)
            propagate(f, MediumParams(depth=5.0, t2=1e-12))


def _wrap_draws():
    """40 seeded configs: 2^10 to 2^13 samples of 10 fs, depth 1 to 3,160, T2 1 ps to 1 ns, pulse FWHM 40 to
    300 fs and the shaper's resolution, span and pixel."""
    rng = np.random.default_rng(7)
    draws = []
    for _ in range(40):
        n = 2 ** int(rng.integers(10, 14))
        m = MediumParams(depth=10 ** rng.uniform(0.0, 3.5), t2=10 ** rng.uniform(-12.0, -9.0))
        fwhm = rng.uniform(40e-15, 300e-15)
        resolution, span = [0.2e-9, 0.6e-9, 1.5e-9][rng.integers(3)], [None, 20e-9, 60e-9][rng.integers(3)]
        pixel = [None, 0.05e-9, 0.2e-9, 1e-9][rng.integers(4)]
        draws.append((n, m, fwhm, ShaperConfig(resolution, pixel, span)))
    return draws


class TestWrapEstimate:
    """The closed-form wrap bound against the same config on a window four times as long, at the same dt."""

    @staticmethod
    def measured(n, m, fwhm, cfg):
        """(bound, eta_unshaped, eta_shaped, T_E) at eta_base = 1 for the input pulse as signal."""
        grid = make_grid(n, 10e-15)
        lo = to_spectrum(normalize(gaussian_pulse(grid, fwhm, center_t=1.28e-12)))  # at the same time on every n
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", GridAdequacyWarning)
            out = transmit(lo, m)
            bound = _wrap_error(grid, m, lo.amp[0].real, lo.energy)
        return (bound, *_efficiencies(out, lo, 1.0, cfg), out.transmission)

    @pytest.mark.parametrize("draw", _wrap_draws(), ids=lambda draw: f"n{draw[0]}")
    def test_bounds_the_change_on_a_longer_window(self, draw):
        # 1e-12 covers round-off.  A span edge takes other bins on the finer spectrum, which moves the shaped
        # eta by quantisation, not wrap: that eta is held only without a span.  A pixel is a sinc at its own
        # width on every grid, so pixel draws are held too (they passed with the whole-bin box as well, whose
        # rounding moved them by less than their wide bounds)
        n, m, fwhm, cfg = draw
        bound, unshaped, shaped, t_e = self.measured(n, m, fwhm, cfg)
        _, unshaped_4n, shaped_4n, t_e_4n = self.measured(4 * n, m, fwhm, cfg)
        assert abs(unshaped - unshaped_4n) <= bound + 1e-12
        assert abs(t_e - t_e_4n) <= bound + 1e-12
        if cfg.span is None:
            assert abs(shaped - shaped_4n) <= bound + 1e-12

    def test_lossless_medium_reads_zero_silently(self):
        grid = make_grid(2**10, 10e-15)
        f = to_spectrum(gaussian_pulse(grid, 100e-15))
        m = MediumParams(depth=0.0, t2=1e-9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _wrap_error(grid, m, f.amp[0].real, f.energy) == 0.0
            transmit(f, m)

    def test_line_far_longer_than_the_window_reads_large_and_finite(self):
        # a 1 ms T2 on a 10 ps window: the tail has not begun to decay, and the bound reads order 1
        grid = make_grid(2**10, 10e-15)
        f = to_spectrum(gaussian_pulse(grid, 100e-15))
        with pytest.warns(GridAdequacyWarning) as caught:
            bound = _wrap_error(grid, MediumParams(depth=30.0, t2=1e-3), f.amp[0].real, f.energy)
        assert len(caught) == 1 and np.isfinite(bound) and bound > 1.0


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
        assert out.transmission == energy_transmission(f, params)
        mode = normalize(out.spectrum)
        assert pulse_energy(mode) == pytest.approx(1.0, abs=1e-12)
        round_trip = to_spectrum(normalize(to_time(propagate(f, params)))).amp
        assert np.max(np.abs(padded(mode) - round_trip)) <= 1e-12 * np.max(np.abs(round_trip))

    def test_warns_like_propagate(self):
        grid = make_grid(2**12, 10e-15)
        f = to_spectrum(gaussian_pulse(grid, 100e-15))
        with pytest.warns(GridAdequacyWarning, match="widen the window n") as caught:
            transmit(f, MediumParams(depth=30.0, t2=100e-12))
        assert len(caught) == 1

    @pytest.mark.parametrize("t2", [1e-12, 270e-12], ids=["decayed", "wrapped"])
    def test_builds_no_field(self, small_grid, t2):
        # the grid check reads the input's area and energy alone, so no field is built where the tail wraps
        # either; the field is built when read, once
        out = transmit(to_spectrum(gaussian_pulse(small_grid, 100e-15)), MediumParams(depth=30.0, t2=t2))
        assert "field" not in vars(out)
        field = out.field
        assert out.field is field and "field" in vars(out)

    def test_zero_field_has_no_transmission(self, small_grid):
        f = SpectralField(small_grid, np.zeros(small_grid.n // 2 + 1))
        out = transmit(f, MediumParams(depth=1.0, t2=1e-12))
        assert not np.any(out.spectrum.amp)
        with pytest.raises(ValueError, match="zero-energy"):
            out.transmission


BAND_GRIDS = [2**12, 2**13, 2**14, 2**15, 2**19]


@pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")
class TestBand:
    """transmit forms F*H on the input's band, the K bins up to the last where |F| > 1e-12 max|F|, and drops
    the bins above, which moves the field by at most 2 * df * sum |F| over them."""

    @pytest.mark.parametrize("n", BAND_GRIDS)
    @pytest.mark.parametrize("preset", range(5))
    def test_field_is_the_full_band_one(self, n, preset):
        # within 1e-12 of its peak, and within the stated bound plus the transforms' round-off (3e-16 of the peak)
        grid = make_grid(n, 10e-15)
        F = to_spectrum(normalize(gaussian_pulse(grid, 100e-15)))
        m = temperature_presets()[preset].params
        out = transmit(F, m)
        assert out.spectrum.amp.size == F.band < 0.4 * (n // 2 + 1)
        want = to_time(SpectralField(grid, np.multiply(F.amp, transfer_function(grid, m).amp))).amp
        gap, peak = np.max(np.abs(out.field.amp - want)), np.max(np.abs(want))
        assert gap <= 1e-12 * peak
        assert gap <= 2.0 * grid.df * np.abs(F.amp[F.band :]).sum() + 1e-15 * peak

    @pytest.mark.parametrize("kind", ["impulse", "noise"])
    def test_broadband_input_keeps_every_bin(self, small_grid, kind):
        n = small_grid.n
        amp = np.random.default_rng(41).normal(size=n) if kind == "noise" else np.eye(1, n)[0]
        F = to_spectrum(TemporalField(small_grid, amp))
        m = MediumParams(depth=70.0, t2=5e-12)
        out = transmit(F, m)
        assert F.band == n // 2 + 1
        assert np.array_equal(bits(out.spectrum.amp), bits(np.multiply(F.amp, transfer_function(small_grid, m).amp)))

    @pytest.mark.parametrize("t2, kept", [(10e-15, False), (20e-15, True)], ids=["absorbing", "transmitting"])
    def test_band_is_dropped_only_where_half_the_energy_passes(self, small_grid, t2, kept):
        # a line about as broad as the pulse's spectrum: at T2 = 10 fs the band keeps 37% of the input's energy,
        # and F*H is formed on every bin, to the bits of the full-band product; at 20 fs it keeps 57%
        F = to_spectrum(normalize(gaussian_pulse(small_grid, 100e-15)))
        m = MediumParams(depth={10e-15: 0.5, 20e-15: 0.3}[t2], t2=t2)
        out = transmit(F, m)
        full = np.multiply(F.amp, transfer_function(small_grid, m).amp)
        assert out.spectrum.amp.size == (F.band if kept else small_grid.n // 2 + 1)
        assert np.array_equal(bits(out.spectrum.amp), bits(full[: out.spectrum.amp.size]))
        assert (out.spectrum.energy >= MIN_BAND_TRANSMISSION * F.energy) == kept
        # a prefix input, such as a transmitted spectrum, falls back to its own bins
        short = SpectralField(small_grid, F.amp[:1500], prefix=True)
        assert transmit(short, m).spectrum.amp.size == (F.band if kept else 1500)

    @pytest.mark.parametrize("source", ["zero-input", "absorbed"])
    def test_zero_field_cannot_be_normalized(self, small_grid, source):
        # a zero input's band is its DC bin, and a medium that absorbs everything leaves a zero product on every
        # bin: either way the output mode, the shaped LO and the efficiencies raise as before
        pulse = to_spectrum(normalize(gaussian_pulse(small_grid, 100e-15)))
        if source == "zero-input":
            out = transmit(SpectralField(small_grid, np.zeros(small_grid.n // 2 + 1)), MediumParams(1.0, 1e-12))
        else:
            out = transmit(pulse, MediumParams(depth=1e300, t2=280e-12))
        assert out.spectrum.amp.size == (1 if source == "zero-input" else small_grid.n // 2 + 1)
        calls = [
            lambda: normalize(out.spectrum),
            lambda: achievable_lo(out, ShaperConfig()),
            lambda: achievable_lo(out, ShaperConfig(span=None)),
            lambda: _efficiencies(out, pulse, 1.0, ShaperConfig()),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="cannot normalize a zero field"):
                call()
