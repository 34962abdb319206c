import numpy as np
import pytest

from zapsim import (
    SpectralField,
    TemporalField,
    gaussian_pulse,
    make_grid,
    normalize,
    pulse_area,
    pulse_energy,
    to_spectrum,
    to_time,
)
from zapsim.fields import BAND_CUTOFF, _gaussian_spectrum, _real

from conftest import FullSpectrum, full_field, full_freqs, full_spectrum, padded, random_field, real_field

LN2 = np.log(2.0)


def measured_fwhm(x, y):
    """Half-max width of a sampled peak via linear interpolation."""
    half = y.max() / 2.0
    above = np.nonzero(y >= half)[0]
    lo, hi = above[0], above[-1]

    def cross(i, j):
        return x[i] + (half - y[i]) * (x[j] - x[i]) / (y[j] - y[i])

    left = cross(lo - 1, lo) if lo > 0 else x[0]
    right = cross(hi + 1, hi) if hi < len(x) - 1 else x[-1]
    return right - left


class TestMakeGrid:
    def test_df_small_example(self):
        grid = make_grid(8, 1.0)
        assert grid.df == pytest.approx(0.125, rel=1e-15)

    def test_default_grid_arithmetic(self):
        grid = make_grid(2**19, 10e-15)
        assert grid.window == pytest.approx(2**19 * 10e-15, rel=1e-15)
        assert grid.df == pytest.approx(1.0 / (2**19 * 10e-15), rel=1e-15)
        # sanity on the advertised scales
        assert grid.window == pytest.approx(5.24288e-9, rel=1e-9)
        assert grid.df == pytest.approx(190.7348e6, rel=1e-6)

    @pytest.mark.parametrize("n", [0, 1, 3, 7, 100])
    def test_rejects_non_power_of_two(self, n):
        with pytest.raises(ValueError):
            make_grid(n, 1.0)

    @pytest.mark.parametrize("dt", [0.0, -1e-15, np.nan])
    def test_rejects_bad_dt(self, dt):
        with pytest.raises(ValueError):
            make_grid(8, dt)

    def test_frequency_axis(self):
        grid = make_grid(16, 0.5)
        assert grid.half_freqs.shape == (9,)
        assert grid.half_freqs[0] == 0.0
        assert np.allclose(np.diff(grid.half_freqs), grid.df, rtol=1e-15)
        assert grid.half_freqs[-1] == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("n, dt", [(2, 1.0), (16, 0.5), (2**10, 2e-15), (2**19, 10e-15)])
    def test_frequency_axis_is_exactly_antisymmetric(self, n, dt):
        # in numpy's bin order the full axis is the half axis below Nyquist, then its exact negatives from
        # -Nyquist up: so mirroring a half-band H(nu) by conj(H[:0:-1]), as run_propagate does, puts every
        # bin at its own detuning bit for bit
        half = make_grid(n, dt).half_freqs
        f = np.fft.fftfreq(n, dt)
        assert np.array_equal(f[: n // 2].view(np.uint64), half[: n // 2].view(np.uint64))
        assert np.array_equal(f[n // 2 :].view(np.uint64), (-half[:0:-1]).view(np.uint64))

    @pytest.mark.parametrize(
        "n, dt", [(2, 1.0), (16, 0.5)] + [(2**p, dt) for dt in (10e-15, 3e-15, 0.7) for p in range(1, 21)]
    )
    def test_half_frequencies_are_the_nonnegative_ones(self, n, dt):
        # k * (1 / (n * dt)), as fftfreq scales its bin numbers, is the full axis's |nu| mirrored from the zero
        # bin, bit for bit
        grid = make_grid(n, dt)
        freqs = full_freqs(grid)
        mirrored = np.abs(freqs[n // 2 :: -1])
        assert np.array_equal(grid.half_freqs.view(np.uint64), mirrored.view(np.uint64))
        assert np.array_equal(grid.half_freqs[:-1], freqs[n // 2 :])
        assert grid.half_freqs[-1] == -freqs[0] == grid.nyquist


def full_grid_pulse(grid, fwhm_t, center_t):
    """The Gaussian pulse with every sample evaluated."""
    return np.exp(-2.0 * LN2 * ((grid.t - center_t) / fwhm_t) ** 2)


# pulse centers as a fraction of the window, within reach of either edge and beyond it
CENTERS = [0.125, 0.5, 0.0, 3e-4, -2e-3, 1.0 - 1e-4, 1.0 - 2e-4, 1.0 + 5e-4, 4.0, -4.0]


class TestGaussianPulse:
    @pytest.mark.parametrize("fwhm_t", [100e-15, 20e-15, 3e-11])
    @pytest.mark.parametrize("center", CENTERS)
    def test_span_equals_the_full_grid_formula(self, fwhm_t, center):
        # exp underflows to exactly 0 far from the center: evaluating only the span changes no bit
        grid = make_grid(2**16, 10e-15)
        center_t = center * grid.window
        f = gaussian_pulse(grid, fwhm_t, center_t)
        assert f.amp.dtype == np.float64
        expected = full_grid_pulse(grid, fwhm_t, center_t)
        assert np.array_equal(f.amp.view(np.uint64), expected.view(np.uint64))
        if 0.0 <= center <= 1.0:
            assert np.count_nonzero(f.amp) > 0

    @pytest.mark.parametrize("center_t", [np.nan, np.inf, -np.inf])
    def test_non_finite_center_rejected(self, small_grid, center_t):
        # a NaN center would fail in an integer cast and an infinite one give an all-zero pulse
        with pytest.raises(ValueError, match="pulse center .* must be finite"):
            gaussian_pulse(small_grid, 100e-15, center_t)

    def test_default_pulse_is_the_full_grid_formula(self, default_grid, default_pulse):
        expected = full_grid_pulse(default_grid, 100e-15, default_grid.window / 8.0)
        assert default_pulse.amp.dtype == np.float64
        assert np.array_equal(default_pulse.amp.view(np.uint64), expected.view(np.uint64))

    def test_intensity_fwhm_matches_request(self, small_grid):
        f = gaussian_pulse(small_grid, 100e-15)
        fwhm = measured_fwhm(small_grid.t, np.abs(f.amp) ** 2)
        assert abs(fwhm - 100e-15) <= small_grid.dt

    def test_peak_amplitude_one(self, small_grid):
        f = gaussian_pulse(small_grid, 100e-15)
        assert np.abs(f.amp).max() == pytest.approx(1.0, abs=1e-12)

    def test_zero_detuning_peaks_at_zero_bin(self, small_grid):
        spec = to_spectrum(gaussian_pulse(small_grid, 100e-15))
        assert int(np.argmax(np.abs(spec.amp))) == 0

    def test_spectral_fwhm_time_bandwidth(self, small_grid):
        # transform-limited Gaussian: dnu * dt_fwhm = 2 ln2 / pi = 0.4413
        spec = to_spectrum(gaussian_pulse(small_grid, 100e-15))
        dnu = measured_fwhm(full_freqs(small_grid), np.abs(full_spectrum(spec).amp) ** 2)
        expected = 2.0 * LN2 / (np.pi * 100e-15)
        assert expected == pytest.approx(4.4127e12, rel=1e-4)
        assert dnu == pytest.approx(expected, rel=1e-3)

    def test_unresolvable_pulse_rejected(self, small_grid):
        with pytest.raises(ValueError):
            gaussian_pulse(small_grid, small_grid.window * 1.5)


class TestGaussianSpectrum:
    """The input's unit-energy half spectrum in closed form (``fields._gaussian_spectrum``), which the scan and
    depth-scan runners read in place of the sampled pulse's transform."""

    @pytest.mark.parametrize("n", [2**19, 2**14])
    def test_matches_the_sampled_pulse(self, n):
        grid = make_grid(n, 10e-15)
        closed = _gaussian_spectrum(grid, 100e-15)
        sampled = to_spectrum(normalize(gaussian_pulse(grid, 100e-15))).amp
        held = closed.amp.size
        assert closed.prefix and held < sampled.size
        err = max(np.abs(closed.amp - sampled[:held]).max(), np.abs(sampled[held:]).max())
        assert err <= 3e-13 * np.abs(sampled).max()

    @pytest.mark.parametrize("n", [2**19, 2**14])
    def test_area_energy_and_bins_are_the_closed_forms(self, n):
        # the unit-energy pulse's area fwhm * sqrt(pi / (2 ln 2)) / sqrt(E), E = fwhm * sqrt(pi / (4 ln 2)); the
        # sampled pulse misses it by 1.1e-14 at 2^19, as its offsets k*dt - center_t cancel.  The band ends where
        # |F| / |F(0)| = exp(-rate nu^2) passes BAND_CUTOFF, and the bins held where it passes 1e-20
        grid, fwhm = make_grid(n, 10e-15), 100e-15
        f = _gaussian_spectrum(grid, fwhm)
        area = fwhm * np.sqrt(np.pi / (2.0 * LN2)) / np.sqrt(fwhm * np.sqrt(np.pi / (4.0 * LN2)))
        assert f.amp[0].imag == 0.0 and abs(f.amp[0].real / area - 1.0) <= 1e-15
        assert abs(f.energy - 1.0) <= 1e-15
        rate = (np.pi * fwhm) ** 2 / (2.0 * LN2)
        for cutoff, count in ((BAND_CUTOFF, f.band), (1e-20, f.amp.size)):
            assert count == int(np.sqrt(np.log(1.0 / cutoff) / rate) / grid.df) + 1

    def test_phase_is_an_exact_eighth_root_of_unity(self, default_grid):
        # nu * t_c = q/8 at bin q, with t_c = window/8: each bin is its modulus along e^{i pi q/4} with no phase
        # round-off, at the band edge too, where a phasor exp(2 pi i nu t_c) of ~1e5 rad errs by ~1e-11
        f = _gaussian_spectrum(default_grid, 100e-15).amp
        rows = f[: f.size // 8 * 8].reshape(-1, 8)
        roots = np.array([1, 1 + 1j, 1j, -1 + 1j, -1, -1 - 1j, -1j, 1 - 1j])
        assert np.array_equal(rows, np.maximum(np.abs(rows.real), np.abs(rows.imag)) * roots)

    def test_a_pulse_shorter_than_a_sample_holds_every_bin(self, small_grid):
        # the sampled pulse is one sample and its spectrum flat, as is the closed form's once its exponent rounds
        # to 0: every bin is held
        closed = _gaussian_spectrum(small_grid, 1e-160)
        sampled = to_spectrum(normalize(gaussian_pulse(small_grid, 1e-160))).amp
        assert closed.amp.size == sampled.size
        assert np.abs(closed.amp - sampled).max() <= 1e-15 * np.abs(sampled).max()

    def test_rejects_what_the_pulse_rejects(self, small_grid):
        with pytest.raises(ValueError, match="must lie in"):
            _gaussian_spectrum(small_grid, small_grid.window * 1.5)


class TestTransforms:
    def test_constant_field_concentrates_at_zero_bin(self):
        grid = make_grid(64, 1.0)
        spec = to_spectrum(TemporalField(grid, np.ones(64)))
        others = np.abs(spec.amp[1:])
        assert np.abs(spec.amp[0]) == pytest.approx(64.0, rel=1e-12)
        assert others.max() < 1e-12 * np.abs(spec.amp[0])

    def test_gaussian_maps_to_gaussian(self, small_grid):
        f = gaussian_pulse(small_grid, 200e-15)
        spec = np.abs(to_spectrum(f).amp)
        dnu = 2.0 * LN2 / (np.pi * 200e-15)
        expected = spec.max() * np.exp(-2.0 * LN2 * (small_grid.half_freqs / dnu) ** 2)
        assert np.max(np.abs(spec - expected)) < 1e-6 * spec.max()

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parseval_direct_sum(self, seed):
        grid = make_grid(2**10, 2e-15)
        f = real_field(grid, seed)
        e_time = grid.dt * sum(abs(v) ** 2 for v in f.amp)  # direct summation oracle
        e_freq = pulse_energy(to_spectrum(f))
        assert e_freq == pytest.approx(e_time, rel=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_round_trip(self, seed):
        grid = make_grid(2**11, 1e-15)
        f = real_field(grid, seed)
        back = to_time(to_spectrum(f))
        err = np.sqrt(np.mean(np.abs(back.amp - f.amp) ** 2))
        ref = np.sqrt(np.mean(np.abs(f.amp) ** 2))
        assert err / ref < 1e-12

    def test_single_bin_spectrum_gives_a_cosine(self):
        # the bin at +5 df and its mirror at -5 df: E(t) = 2 * df * cos(2*pi*5*t / window)
        grid = make_grid(128, 1.0)
        amp = np.zeros(grid.n // 2 + 1, complex)
        amp[5] = 1.0
        f = to_time(SpectralField(grid, amp))
        assert f.amp.dtype == np.float64
        expected = 2.0 * grid.df * np.cos(2.0 * np.pi * 5.0 * np.arange(grid.n) / grid.n)
        assert np.max(np.abs(f.amp - expected)) <= 1e-12 * 2.0 * grid.df

    def test_conjugate_symmetric_spectrum_is_real(self):
        # a random Hermitian spectrum in the full layout: its nu >= 0 half gives the real field that numpy's
        # complex transform of all n bins gives, whose imaginary part is round-off
        grid = make_grid(2**10, 1e-15)
        n = grid.n
        rng = np.random.default_rng(11)
        amp = np.zeros(n, complex)
        pos = rng.normal(size=n // 2 - 1) + 1j * rng.normal(size=n // 2 - 1)
        amp[n // 2 + 1 :] = pos
        amp[1 : n // 2] = np.conj(pos[::-1])
        amp[n // 2] = rng.normal()
        amp[0] = rng.normal()
        full = full_field(FullSpectrum(grid, amp)).amp
        half = to_time(SpectralField(grid, np.append(amp[n // 2 :], amp[0])))
        assert half.amp.dtype == np.float64
        assert np.abs(full.imag).max() < 1e-12 * np.abs(full).max()
        assert np.max(np.abs(half.amp - full.real)) <= 1e-12 * np.abs(full).max()


class TestHalfSpectrum:
    """The nu >= 0 half of a real field's spectrum, from one real transform each way."""

    @pytest.mark.parametrize("n", [2, 16, 2**10])
    def test_is_the_nonnegative_half_of_the_full_spectrum(self, n):
        grid = make_grid(n, 1e-15)
        f = real_field(grid, 12)
        full = full_spectrum(f)
        half = to_spectrum(f)
        assert half.amp.shape == (n // 2 + 1,)
        # the nu >= 0 bins, and the -Nyquist bin, which is also +Nyquist
        nonnegative = np.append(full.amp[n // 2 :], full.amp[0])
        assert np.max(np.abs(half.amp - nonnegative)) <= 1e-15 * np.abs(full.amp).max()
        assert half.energy == pytest.approx(full.energy, rel=1e-13)

    def test_round_trip_gives_the_real_field(self):
        grid = make_grid(2**11, 1e-15)
        f = real_field(grid, 13)
        back = to_time(to_spectrum(f))
        assert not np.any(back.amp.imag)
        assert np.max(np.abs(back.amp - f.amp)) <= 1e-13 * np.abs(f.amp).max()

    def test_imaginary_part_is_refused(self):
        # the real transform takes real envelopes only: a complex field's imaginary part is neither dropped
        # nor transformed, and its real part alone transforms as before
        grid = make_grid(64, 1e-15)
        f = random_field(grid, 14)
        with pytest.raises(ValueError, match="nonzero imaginary part"):
            to_spectrum(f)
        real = TemporalField(grid, f.amp.real)
        assert np.array_equal(to_spectrum(real).amp, to_spectrum(TemporalField(grid, real.amp + 0j)).amp)

    def test_layout_is_checked_and_kept(self, small_grid):
        amp = np.ones(small_grid.n // 2 + 1, complex)
        with pytest.raises(ValueError, match="shape"):
            SpectralField(small_grid, np.ones(small_grid.n))
        unit = normalize(SpectralField(small_grid, amp))
        assert unit.amp.shape == amp.shape and pulse_energy(unit) == pytest.approx(1.0, rel=1e-13)


class TestReal:
    """The one gate of mode analysis: a real envelope in any of its forms passes, anything else raises."""

    @pytest.mark.parametrize("form", ["float64"])
    def test_real_forms_pass_as_they_are(self, small_grid, form):
        f = real_field(small_grid, 15)
        assert _real(f) is f

    @pytest.mark.parametrize("zero", [0.0, -0.0], ids=["zero", "negative-zero"])
    def test_complex_with_a_zero_imaginary_part_becomes_float64(self, small_grid, zero):
        # a conjugated real field carries -0.0 imaginary parts, which are zero too
        f = real_field(small_grid, 16)
        got = _real(TemporalField(small_grid, f.amp + 1j * zero))
        assert got.amp.dtype == np.float64 and got.amp.flags.c_contiguous
        assert np.array_equal(got.amp.view(np.uint64), f.amp.view(np.uint64))

    def test_one_tiny_imaginary_sample_raises(self, small_grid):
        # no tolerance: the smallest subnormal imaginary part in one sample is a complex envelope
        amp = real_field(small_grid, 18).amp + 0j
        amp[small_grid.n // 3] += 5e-324j
        with pytest.raises(ValueError, match="nonzero imaginary part"):
            _real(TemporalField(small_grid, amp))


class TestAreaAndEnergy:
    def test_zero_field_zero_area(self, small_grid):
        f = TemporalField(small_grid, np.zeros(small_grid.n))
        assert pulse_area(f) == 0.0
        assert pulse_energy(f) == 0.0

    def test_gaussian_area_closed_form(self, small_grid):
        fwhm = 100e-15
        f = gaussian_pulse(small_grid, fwhm)
        # integral of exp(-2 ln2 (t/w)^2) dt = w sqrt(pi / (2 ln2))
        expected = fwhm * np.sqrt(np.pi / (2.0 * LN2))
        assert pulse_area(f) == pytest.approx(expected, rel=1e-6)

    def test_area_equals_zero_detuning_bin(self):
        grid = make_grid(2**10, 1e-15)
        f = real_field(grid, 7, offset=1.0)
        area = pulse_area(f)
        dc = to_spectrum(f).amp[0]
        assert abs(area - dc) <= 1e-12 * abs(area)

    def test_energy_quadratic_scaling(self, small_grid):
        f = gaussian_pulse(small_grid, 100e-15)
        doubled = TemporalField(small_grid, 2.0 * f.amp)
        assert pulse_energy(doubled) == pytest.approx(4.0 * pulse_energy(f), rel=1e-12)

    def test_energy_parseval(self):
        grid = make_grid(2**10, 1e-15)
        f = real_field(grid, 9)
        assert pulse_energy(to_spectrum(f)) == pytest.approx(pulse_energy(f), rel=1e-12)

    def test_field_validation(self, small_grid):
        with pytest.raises(ValueError):
            TemporalField(small_grid, np.ones(3))
        bad = np.ones(small_grid.n, complex)
        bad[5] = np.nan
        with pytest.raises(ValueError):
            TemporalField(small_grid, bad)
        with pytest.raises(TypeError):
            pulse_energy(np.ones(4))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, complex(0.0, np.inf), complex(np.nan, 0.0)])
    def test_non_finite_sample_rejected(self, small_grid, value):
        amp = np.ones(small_grid.n // 2 + 1, complex)
        amp[7] = value
        with pytest.raises(ValueError, match="non-finite"):
            SpectralField(small_grid, amp)

    def test_finite_samples_whose_sum_overflows_accepted(self, small_grid):
        amp = np.full(small_grid.n, complex(1e308, -1e308))
        assert np.array_equal(TemporalField(small_grid, amp).amp, amp)


def dyadic_half_spectrum(grid, seed, size):
    """``size`` complex bins whose parts are multiples of 1/16 below 4 in modulus: their squares and every sum
    of them are exact in float64, so sums over them do not depend on the order of the terms."""
    rng = np.random.default_rng(seed)
    return (rng.integers(-64, 64, size) + 1j * rng.integers(-64, 64, size)) / 16.0


class TestPrefix:
    """A half spectrum stored as its first bins (``prefix=True``), the bins above being exactly zero."""

    @pytest.mark.parametrize("size", [1, 700, 2**11, 2**11 + 1], ids=["dc", "below-nyquist", "one-below", "whole"])
    def test_energy_is_that_of_the_zero_padded_spectrum(self, small_grid, size):
        # a prefix below n/2 + 1 holds no Nyquist bin: its last bin is weighted 2, as in the padded spectrum
        amp = dyadic_half_spectrum(small_grid, 21, size)
        prefix = SpectralField(small_grid, amp, prefix=True)
        whole = SpectralField(small_grid, padded(prefix))
        assert prefix.energy == whole.energy
        assert np.float64(prefix.energy).view(np.uint64) == np.float64(whole.energy).view(np.uint64)

    @pytest.mark.parametrize("size", [1, 700, 2**11, 2**11 + 1])
    def test_to_time_is_that_of_the_zero_padded_spectrum(self, small_grid, size):
        rng = np.random.default_rng(22)
        amp = rng.normal(size=size) + 1j * rng.normal(size=size)
        prefix = SpectralField(small_grid, amp, prefix=True)
        got, want = to_time(prefix).amp, to_time(SpectralField(small_grid, padded(prefix))).amp
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_lengths_are_checked(self, small_grid):
        half = small_grid.n // 2 + 1
        for size in (1, half - 1, half):
            assert SpectralField(small_grid, np.ones(size), prefix=True).amp.shape == (size,)
        for size in (0, half + 1):
            with pytest.raises(ValueError, match="shape"):
                SpectralField(small_grid, np.ones(size), prefix=True)
        # without the flag a half spectrum holds all n/2 + 1 bins
        with pytest.raises(ValueError, match="shape"):
            SpectralField(small_grid, np.ones(half - 1))

    def test_normalize_keeps_the_prefix(self, small_grid):
        prefix = SpectralField(small_grid, np.ones(100), prefix=True)
        unit = normalize(prefix)
        assert unit.prefix and unit.amp.shape == (100,)
        assert pulse_energy(unit) == pytest.approx(1.0, rel=1e-13)
