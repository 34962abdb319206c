import numpy as np
import pytest

from zapsim import (
    MediumParams,
    ScanCurve,
    SpectralField,
    TemporalField,
    delay_field,
    eta_curve,
    gaussian_pulse,
    make_grid,
    normalize,
    overlap,
    peak_eta,
    propagate,
    pulse_energy,
    to_spectrum,
    to_time,
    visibility_curve,
)

from zapsim import ShaperConfig, achievable_lo
from zapsim.modes import _phasors, _time_support, delay_overlaps

from conftest import random_field

LN2 = np.log(2.0)
PRESET3 = MediumParams(depth=440.0, t2=270e-12)


@pytest.fixture(scope="module")
def lobed_signal(mid_grid, mid_pulse):
    """Strongly reshaped transmitted field (mid grid keeps this quick)."""
    with pytest.warns(Warning):
        spec = propagate(to_spectrum(normalize(mid_pulse)), PRESET3)
    return to_time(spec)


class TestNormalize:
    def test_unit_field_unchanged(self, small_grid):
        f = normalize(gaussian_pulse(small_grid, 100e-15))
        again = normalize(f)
        assert np.allclose(again.amp, f.amp, rtol=1e-12, atol=0.0)

    def test_scale_invariance(self, small_grid):
        f = gaussian_pulse(small_grid, 100e-15)
        tripled = TemporalField(small_grid, 3.0 * f.amp)
        assert np.allclose(normalize(tripled).amp, normalize(f).amp, rtol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_field_unit_energy(self, small_grid, seed):
        out = normalize(random_field(small_grid, seed))
        assert pulse_energy(out) == pytest.approx(1.0, abs=1e-12)

    def test_zero_field_rejected(self, small_grid):
        with pytest.raises(ValueError):
            normalize(TemporalField(small_grid, np.zeros(small_grid.n)))


class TestOverlap:
    def test_self_overlap_is_one(self, small_grid):
        f = normalize(random_field(small_grid, 3))
        assert overlap(f, f) == pytest.approx(1.0, abs=1e-12)

    def test_global_phase(self, small_grid):
        f = normalize(random_field(small_grid, 4))
        phi = 0.8
        g = TemporalField(small_grid, f.amp * np.exp(1j * phi))
        ov = overlap(f, g)
        assert abs(ov) == pytest.approx(1.0, abs=1e-12)
        assert np.angle(ov) == pytest.approx(phi, abs=1e-12)
        # unit overlap magnitude means equality after phase alignment
        aligned = g.amp * np.exp(-1j * np.angle(ov))
        assert np.max(np.abs(aligned - f.amp)) < 1e-9

    @pytest.mark.parametrize("seed", [5, 6])
    def test_cauchy_schwarz(self, small_grid, seed):
        a = normalize(random_field(small_grid, seed))
        b = normalize(random_field(small_grid, seed + 100))
        assert abs(overlap(a, b)) <= 1.0 + 1e-12
        assert abs(overlap(a, b)) < 1.0 - 1e-6  # distinct random modes

    @pytest.mark.parametrize("tau_fs", [37.0, 150.0, 400.0])
    def test_delayed_gaussian_closed_form(self, small_grid, tau_fs):
        # |<e|e_tau>|^2 = exp(-2 ln2 (tau/fwhm)^2) for matched Gaussians
        fwhm = 100e-15
        tau = tau_fs * 1e-15
        f = normalize(gaussian_pulse(small_grid, fwhm))
        g = delay_field(f, tau)
        expected = np.exp(-2.0 * LN2 * (tau / fwhm) ** 2)
        assert abs(overlap(f, g)) ** 2 == pytest.approx(expected, rel=1e-9)

    def test_grid_mismatch_rejected(self, small_grid):
        other = make_grid(small_grid.n * 2, small_grid.dt)
        a = normalize(gaussian_pulse(small_grid, 100e-15))
        b = normalize(gaussian_pulse(other, 100e-15))
        with pytest.raises(ValueError):
            overlap(a, b)

    def test_unnormalized_rejected(self, small_grid):
        a = normalize(gaussian_pulse(small_grid, 100e-15))
        b = gaussian_pulse(small_grid, 100e-15)
        with pytest.raises(ValueError):
            overlap(a, b)

    @pytest.mark.parametrize("tau_fs", [90.0, 700.0])
    def test_delay_covariance(self, small_grid, tau_fs):
        a = normalize(gaussian_pulse(small_grid, 100e-15))
        b = normalize(gaussian_pulse(small_grid, 170e-15, center_t=small_grid.window / 8 + 50e-15))
        shift = tau_fs * 1e-15
        before = abs(overlap(a, b))
        after = abs(overlap(delay_field(a, shift), delay_field(b, shift)))
        assert after == pytest.approx(before, abs=1e-9)


class TestDelayField:
    def test_matches_analytic_shift(self, small_grid):
        tau = 123.4e-15
        center = small_grid.window / 8
        f = gaussian_pulse(small_grid, 100e-15, center_t=center)
        shifted = delay_field(f, tau)
        expected = gaussian_pulse(small_grid, 100e-15, center_t=center + tau)
        assert np.max(np.abs(shifted.amp - expected.amp)) < 1e-12

    @staticmethod
    def full_grid_shift(f, tau):
        """The shift on the full spectrum, by one full-grid complex exponential."""
        F = to_spectrum(f)
        return to_time(SpectralField(F.grid, F.amp * np.exp(2j * np.pi * F.grid.freqs * tau))).amp

    @pytest.mark.parametrize("tau_steps", [37.0, -250.0, 37.3, -250.71, 0.5])
    @pytest.mark.parametrize("detuning", [0.0, 2e12], ids=["real", "complex"])
    def test_matches_the_full_grid_exponential(self, mid_grid, mid_mode, tau_steps, detuning):
        # on- and off-lattice delays, a real field on its half spectrum and a complex one on the full spectrum
        f = mid_mode if detuning == 0.0 else normalize(gaussian_pulse(mid_grid, 100e-15, detuning=detuning))
        tau = tau_steps * mid_grid.dt
        want = self.full_grid_shift(f, tau)
        got = delay_field(f, tau).amp
        assert np.max(np.abs(got - want)) <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("tau_steps", [37.0, 37.3])
    def test_real_field_stays_exactly_real(self, mid_mode, tau_steps):
        assert not np.any(mid_mode.amp.imag)
        assert not np.any(delay_field(mid_mode, tau_steps * mid_mode.grid.dt).amp.imag)

    def test_takes_a_spectrum(self, mid_mode):
        tau = 12.7 * mid_mode.grid.dt
        want = delay_field(mid_mode, tau).amp
        assert np.array_equal(delay_field(to_spectrum(mid_mode, half=True), tau).amp, want)


class TestScanCurve:
    def test_rejects_non_increasing(self):
        with pytest.raises(ValueError):
            ScanCurve(np.array([0.0, 0.0, 1.0]), np.zeros(3))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            ScanCurve(np.arange(3.0), np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            ScanCurve(np.arange(2.0), np.array([1.0, np.inf]))

    def test_rejects_empty(self):
        # so peak_eta never sees an empty curve
        with pytest.raises(ValueError, match="at least one point"):
            ScanCurve(np.array([]), np.array([]))

    def test_peak_normalized(self):
        c = ScanCurve(np.arange(3.0), np.array([1.0, 4.0, 2.0]))
        n = c.peak_normalized()
        assert n.ys.max() == 1.0
        assert n.meta["peak_normalized"] is True


class TestVisibilityCurve:
    def test_matched_pulses_peak_at_zero(self, small_grid):
        f = gaussian_pulse(small_grid, 100e-15)
        delays = np.linspace(-400e-15, 400e-15, 81)
        curve = visibility_curve(f, f, delays)
        k = int(np.argmax(curve.ys))
        assert curve.xs[k] == pytest.approx(0.0, abs=1e-18)
        assert curve.ys[k] == pytest.approx(1.0, abs=1e-9)

    def test_symmetric_autocorrelation(self, small_grid):
        f = gaussian_pulse(small_grid, 100e-15)
        delays = np.linspace(-300e-15, 300e-15, 61)
        curve = visibility_curve(f, f, delays)
        assert np.max(np.abs(curve.ys - curve.ys[::-1])) < 1e-9

    def test_delay_range_enforced(self, small_grid):
        f = gaussian_pulse(small_grid, 100e-15)
        with pytest.raises(ValueError):
            visibility_curve(f, f, np.array([0.0, small_grid.window / 2]))

    def test_against_time_domain_oracle(self, mid_grid, mid_pulse, lobed_signal):
        # direct Riemann-sum cross-correlation with an analytically shifted LO,
        # fully independent of the time-correlation and spectral scan paths;
        # delays on the lattice, then off it
        center = mid_grid.window / 8
        sig = normalize(lobed_signal)
        for offset in (0.0, 3.7e-15):
            taus = np.array([-0.2e-12, 0.1e-12, 0.27e-12, 1.0e-12, 2.26e-12]) + offset
            curve = visibility_curve(lobed_signal, mid_pulse, taus)
            for tau, got in zip(taus, curve.ys):
                lo = np.exp(-2.0 * LN2 * ((mid_grid.t - center - tau) / 100e-15) ** 2)
                lo = lo / np.sqrt(mid_grid.dt * np.sum(lo**2))
                want = abs(mid_grid.dt * np.sum(np.conj(lo) * sig.amp))
                assert got == pytest.approx(want, abs=1e-9)

    def test_lobes_align_with_field_envelope(self, mid_grid, mid_pulse, lobed_signal):
        center = mid_grid.window / 8
        delays = np.arange(0.05e-12, 6.0e-12, 10e-15)
        curve = visibility_curve(lobed_signal, mid_pulse, delays)
        vis = curve.ys
        vmax = vis.max()
        peaks = [
            k
            for k in range(1, len(vis) - 1)
            if vis[k] >= vis[k - 1] and vis[k] > vis[k + 1] and vis[k] > 0.02 * vmax
        ]
        assert len(peaks) >= 2
        env = np.abs(normalize(lobed_signal).amp)
        sel = (mid_grid.t > center) & (mid_grid.t < center + 7e-12)
        tt, ee = mid_grid.t[sel], env[sel]
        field_maxima = [
            tt[k] - center
            for k in range(1, len(ee) - 1)
            if ee[k] >= ee[k - 1] and ee[k] > ee[k + 1] and ee[k] > 0.005 * env.max()
        ]
        for k in peaks:
            # the probe has 100 fs duration; edge-like lobes shift by that scale
            assert min(abs(curve.xs[k] - tm) for tm in field_maxima) < 150e-15


class TestEtaCurve:
    def test_matched_lo_peak_equals_eta_base(self, mid_grid, mid_pulse):
        delays = np.linspace(-0.2e-12, 0.2e-12, 41)
        curve = eta_curve(mid_pulse, MediumParams(depth=0.0, t2=1e-12), mid_pulse, 0.62, delays)
        tau_star, eta_star = peak_eta(curve)
        assert tau_star == pytest.approx(0.0, abs=1e-18)
        assert eta_star == pytest.approx(0.62, abs=1e-6)

    def test_zero_eta_base_gives_zero_curve(self, mid_grid, mid_pulse):
        delays = np.linspace(-0.1e-12, 0.1e-12, 11)
        curve = eta_curve(mid_pulse, MediumParams(depth=0.0, t2=1e-12), mid_pulse, 0.0, delays)
        assert np.all(curve.ys == 0.0)

    def test_eta_base_range_enforced(self, mid_grid, mid_pulse):
        with pytest.raises(ValueError):
            eta_curve(mid_pulse, PRESET3, mid_pulse, 1.3, np.linspace(-1e-13, 1e-13, 3))

    @pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")
    def test_bounded_by_transmitted_fraction(self, mid_grid, mid_pulse):
        delays = np.linspace(-0.5e-12, 3e-12, 101)
        curve = eta_curve(mid_pulse, PRESET3, mid_pulse, 0.62, delays)
        cap = curve.meta["eta_base"] * curve.meta["transmission"]
        assert np.all(curve.ys <= cap + 1e-12)
        assert np.all(curve.ys >= 0.0)

    @pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")
    def test_fully_absorbing_medium_is_refused(self):
        grid = make_grid(4096, 10e-15)
        pulse = gaussian_pulse(grid, 100e-15)
        with pytest.raises(ValueError, match="cannot normalize a zero field"):
            eta_curve(pulse, MediumParams(depth=1e300, t2=280e-12), pulse, 0.62, np.linspace(-1e-13, 1e-13, 3))

    @pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")
    def test_off_lattice_delays_agree_with_the_lattice_scan(self, mid_grid, mid_pulse):
        # a 1e-9 dt shift leaves the lattice, so the scan takes the spectral path
        delays = np.arange(-20, 300) * 10e-15
        on = eta_curve(mid_pulse, PRESET3, mid_pulse, 0.62, delays)
        off = eta_curve(mid_pulse, PRESET3, mid_pulse, 0.62, delays + 1e-9 * mid_grid.dt)
        assert np.max(np.abs(off.ys - on.ys)) < 1e-9 * on.ys.max()


class TestPeakEta:
    def test_monotone_curves(self):
        up = ScanCurve(np.arange(4.0), np.array([0.0, 0.1, 0.2, 0.3]))
        assert peak_eta(up) == (3.0, 0.3)
        down = ScanCurve(np.arange(4.0), np.array([0.3, 0.2, 0.1, 0.0]))
        assert peak_eta(down) == (0.0, 0.3)

    def test_tie_breaks_to_smallest_delay(self):
        flat = ScanCurve(np.arange(5.0), np.array([0.1, 0.4, 0.2, 0.4, 0.1]))
        assert peak_eta(flat) == (1.0, 0.4)


class TestDeterminism:
    def test_results_identical_across_reruns(self, mid_grid, mid_pulse, lobed_signal):
        delays = np.linspace(-0.5e-12, 2e-12, 64)
        first = visibility_curve(lobed_signal, mid_pulse, delays).ys
        second = visibility_curve(lobed_signal, mid_pulse, delays).ys
        assert np.array_equal(first, second)


LATTICE_DELAYS = {
    "linspace": np.linspace(-1e-12, 8e-12, 451),
    "arange": np.arange(-0.5e-12, 3e-12, 10e-15),
    "unsorted": np.array([1.2e-12, -0.4e-12, 0.3e-12]),
    "single": np.array([0.3e-12]),
    "negative-start": np.arange(-0.6e-12, 2e-12, 30e-15),
}


class TestScanPaths:
    """Every delay_overlaps path against the plain direct-sum definition."""

    @pytest.fixture(scope="class")
    def fields(self):
        # 164 ps window, 1 ps line lifetime: reshaped yet quick to sum directly
        pulse = normalize(gaussian_pulse(make_grid(2**14, 10e-15), 100e-15))
        sig = normalize(to_time(propagate(to_spectrum(pulse), MediumParams(depth=30.0, t2=1e-12))))
        return pulse, sig

    @pytest.fixture(scope="class")
    def spectra(self, fields):
        pulse, sig = fields
        return to_spectrum(pulse), to_spectrum(sig)

    @staticmethod
    def direct_sum(lo_spec, sig_spec, delays):
        grid = lo_spec.grid
        g = np.conj(lo_spec.amp) * sig_spec.amp
        return np.array([grid.df * np.sum(g * np.exp(-2j * np.pi * grid.freqs * t)) for t in delays])

    @pytest.mark.parametrize(
        "delays, on_lattice",
        [
            (np.linspace(-1e-12, 8e-12, 451), True),
            (np.arange(-0.5e-12, 3e-12, 10e-15), True),
            (np.linspace(-1e-12 + 3.3e-15, 2e-12 + 3.3e-15, 151), True),
            (np.array([1.2e-12, -0.4e-12, 0.3e-12]), True),
            (np.array([0.3e-12]), True),
            (np.linspace(-1e-12, 8e-12, 400), False),
        ],
        ids=["linspace", "arange", "off-lattice-start", "unsorted", "single", "off-lattice-step"],
    )
    def test_matches_direct_sum(self, fields, spectra, delays, on_lattice):
        lo_spec, sig_spec = spectra
        steps = (delays - delays[0]) / lo_spec.grid.dt
        assert (np.max(np.abs(steps - np.rint(steps))) < 1e-10) == on_lattice
        want = self.direct_sum(lo_spec, sig_spec, delays)
        pulse, sig = fields
        got = delay_overlaps(_time_support(pulse), sig, delays, lo_spec, sig_spec)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("name", sorted(LATTICE_DELAYS))
    @pytest.mark.parametrize("detuning", [0.0, 2e12], ids=["real-lo", "complex-lo"])
    def test_time_correlation_matches_direct_sum(self, fields, name, detuning):
        pulse, sig = fields
        lo = normalize(gaussian_pulse(pulse.grid, 100e-15, detuning=detuning))
        delays = LATTICE_DELAYS[name]
        want = self.direct_sum(to_spectrum(lo), to_spectrum(sig), delays)
        got = delay_overlaps(_time_support(lo), sig, delays)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        spectra = to_spectrum(lo), to_spectrum(sig)
        assert np.array_equal(delay_overlaps(_time_support(lo), sig, delays, *spectra), got)

    def test_off_lattice_start_matches_direct_sum(self, fields, spectra):
        pulse, sig = fields
        delays = np.linspace(-1e-12 + 3.3e-15, 2e-12 + 3.3e-15, 151)
        want = self.direct_sum(*spectra, delays)
        got = delay_overlaps(_time_support(pulse), sig, delays)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "delays",
        [np.linspace(-1e-12 + 3.3e-15, 2e-12 + 3.3e-15, 151), np.linspace(-1e-12, 8e-12, 400)],
        ids=["off-lattice-start", "off-lattice-step"],
    )
    @pytest.mark.parametrize("detuning", [0.0, 2e12], ids=["real-lo", "complex-lo"])
    def test_half_signal_spectrum_matches_direct_sum(self, fields, delays, detuning):
        # a real signal's half spectrum; a complex LO makes g non-Hermitian, so the full spectra are summed
        pulse, sig = fields
        real = TemporalField(sig.grid, sig.amp.real)
        lo = normalize(gaussian_pulse(pulse.grid, 100e-15, detuning=detuning))
        want = self.direct_sum(to_spectrum(lo), to_spectrum(real), delays)
        got = delay_overlaps(_time_support(lo), real, delays, sig_spec=to_spectrum(real, half=True))
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("detuning", [0.0, 2e12], ids=["real-lo", "detuned-lo"])
    def test_both_paths_give_one_dtype(self, fields, detuning):
        # one delay off the lattice sends the whole set to the spectral sum: a real LO and a real signal give
        # real overlaps on both paths, a detuned LO complex ones
        pulse, sig = fields
        real = TemporalField(sig.grid, sig.amp.real)
        lo = normalize(gaussian_pulse(pulse.grid, 100e-15, detuning=detuning))
        lattice = LATTICE_DELAYS["linspace"]
        off = np.append(lattice, lattice[-1] + 3.3e-15)
        on_lattice = delay_overlaps(_time_support(lo), real, lattice)
        summed = delay_overlaps(_time_support(lo), real, off)
        assert on_lattice.dtype == summed.dtype == (np.float64 if detuning == 0.0 else np.complex128)
        assert np.max(np.abs(summed[:-1] - on_lattice)) <= 1e-12 * np.max(np.abs(on_lattice))

    @pytest.mark.parametrize("lo_kind", ["shaped", "centered-at-zero"])
    def test_wide_or_wrapping_lo_matches_direct_sum(self, fields, lo_kind):
        pulse, sig = fields
        delays = LATTICE_DELAYS["linspace"]
        if lo_kind == "shaped":
            lo = achievable_lo(sig, ShaperConfig())
        else:
            # the pulse peaks at sample n/8; rolled to sample 0 it wraps the window edge
            lo = TemporalField(pulse.grid, np.roll(pulse.amp, -pulse.grid.n // 8))
            delays = delays + pulse.grid.window / 8
        want = self.direct_sum(to_spectrum(lo), to_spectrum(sig), delays)
        got = delay_overlaps(_time_support(lo), sig, delays)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize(
        "delays", [LATTICE_DELAYS["linspace"], np.linspace(-1e-12, 8e-12, 400)], ids=["lattice", "off-lattice-step"]
    )
    def test_zero_lo_gives_zero_overlaps(self, fields, delays):
        pulse, sig = fields
        got = delay_overlaps(_time_support(TemporalField(pulse.grid, np.zeros(pulse.grid.n))), sig, delays)
        assert got.shape == delays.shape and not np.any(got)

    def test_no_delays_give_an_empty_result(self, fields):
        pulse, sig = fields
        assert delay_overlaps(_time_support(pulse), sig, np.array([])).shape == (0,)

    @pytest.mark.parametrize("tau, tol", [(3e-12, 1e-13), (2**19 * 10e-15 / 4, 1e-10)])
    def test_phasors_match_exp(self, tau, tol):
        # the support of the default 100 fs pulse's spectral product on the default grid
        freqs = make_grid(2**19, 10e-15).freqs
        band = freqs[np.abs(freqs) <= 18e12]
        df = freqs[1] - freqs[0]
        got = _phasors(band[0], df, band.size, tau)
        assert np.max(np.abs(got - np.exp(-2j * np.pi * band * tau))) <= tol
