"""Half and full spectral layouts give the same physics, over a seeded sweep of the config space.

A real input is transmitted on its nu >= 0 half spectrum (one rfft, the
half-band H, one irfft) or on the full one (complex transforms).  Each case
draws a grid of 2^10 - 2^13 samples, a pulse width, a preset or custom medium
and an on-lattice, off-lattice-start or off-lattice delay set from numpy's
seeded generator, and holds the two layouts to 1e-12 of the peak on the
transmitted field, T_E, the delay overlaps and the best-delay projection.

The same cases hold a real field stored as float64 and as complex128 with a
zero imaginary part to 1e-12 of each other on T_E, the delay overlaps and
the best-delay projection: the storage, like the layout, is not physics.

Mixed cases pair a half spectrum with a full one, which the library mirrors
into the full layout: a pixel box of an odd or even number of bins (a
complex LO against the real transmission), a detuned input against a real
LO, and a complex LO against a real signal.  The layouts the library picks
are held to 1e-12 of an all-full reference on the delay overlaps, the
best-delay projection and the shaped efficiency.
"""

import numpy as np
import pytest

from zapsim import (
    MediumParams,
    ShaperConfig,
    TemporalField,
    achievable_lo,
    energy_transmission,
    gaussian_pulse,
    make_grid,
    normalize,
    pulse_energy,
    temperature_presets,
    to_spectrum,
    transmit,
)
import zapsim.shaper
from zapsim.fields import _full, _spectrum
from zapsim.modes import _time_support, delay_overlaps
from zapsim.shaper import CENTER_WAVELENGTH, SPEED_OF_LIGHT, _best_projection, max_shaped_eta

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

TOL = 1e-12


def draw_case(rng, k: int) -> dict:
    n = int(2 ** rng.integers(10, 14))
    dt = float(rng.uniform(5e-15, 20e-15))
    window = n * dt
    fwhm = float(rng.uniform(3.0 * dt, window / 40.0))
    if rng.random() < 0.5:
        medium = temperature_presets()[int(rng.integers(5))].params
    else:
        medium = MediumParams(depth=float(rng.uniform(0.0, 500.0)), t2=float(rng.uniform(0.05, 0.5) * window))
    kind = ("on-lattice", "off-lattice-start", "off-lattice")[k % 3]
    first = int(rng.integers(-n // 16, 0))
    steps = int(rng.integers(1, 4))
    count_delays = int(rng.integers(20, 120))
    delays = (first + steps * np.arange(count_delays)) * dt
    if kind == "off-lattice-start":
        delays = delays + float(rng.uniform(0.05, 0.95)) * dt
    elif kind == "off-lattice":
        delays = np.linspace(delays[0], delays[-1] + float(rng.uniform(0.1, 0.9)) * dt, count_delays)
    return {"id": f"{k}-{kind}-n{n}", "n": n, "dt": dt, "fwhm": fwhm, "medium": medium, "delays": delays}


def draw_cases(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [draw_case(rng, k) for k in range(count)]


MIXES = ("pixel-odd", "pixel-even", "detuned-signal", "complex-lo")


def draw_mixed_cases(seed: int, count: int) -> list[dict]:
    """Cases of :func:`draw_case`, each with a mix of layouts, a pixel width in bins and a detuning;
    the mixes cycle with period 4 and the delay kinds with period 3, so 12 cases cover every pair."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        case = draw_case(rng, k)
        mix = MIXES[k % 4]
        bins = 2 * int(rng.integers(1, 4)) + (mix == "pixel-odd")
        # within the pulse's bandwidth 2*ln2/(pi*fwhm), so a detuned field still overlaps a resonant one
        detuning = float(rng.uniform(0.2, 1.0)) * 2.0 * np.log(2.0) / (np.pi * case["fwhm"])
        case.update(id=f"{case['id']}-{mix}", mix=mix, bins=bins, detuning=detuning)
        cases.append(case)
    return cases


CASES = draw_cases(seed=2015, count=24)
MIXED = draw_mixed_cases(seed=2015, count=24)


def peak_gap(a, b) -> float:
    """max |a - b| as a fraction of the peak of |b|."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_half_and_full_layouts_agree(case):
    grid = make_grid(case["n"], case["dt"])
    pulse = normalize(gaussian_pulse(grid, case["fwhm"]))
    m = case["medium"]
    spec = {half: to_spectrum(pulse, half=half) for half in (True, False)}
    out = {half: transmit(spec[half], m) for half in (True, False)}
    assert out[True].spectrum.half and not out[False].spectrum.half
    assert not np.any(out[True].field.amp.imag)

    assert peak_gap(out[True].field.amp, out[False].field.amp) <= TOL
    assert abs(out[True].transmission - out[False].transmission) <= TOL
    assert abs(energy_transmission(spec[True], m) - energy_transmission(spec[False], m)) <= TOL

    support = _time_support(pulse)
    delays = case["delays"]
    overlaps = {half: delay_overlaps(support, out[half].field, delays, spec[half], out[half].mode) for half in (True, False)}
    assert peak_gap(overlaps[True], overlaps[False]) <= TOL

    shaped = achievable_lo(out[False].field, ShaperConfig(), out[False].mode)
    for lo in (pulse, shaped):
        best = {half: _best_projection(to_spectrum(lo, half=half), out[half].mode) for half in (True, False)}
        assert abs(best[True] - best[False]) <= TOL


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_float64_and_complex128_storage_agree(case):
    grid = make_grid(case["n"], case["dt"])
    pulse = normalize(gaussian_pulse(grid, case["fwhm"]))
    m, delays = case["medium"], case["delays"]
    assert pulse.amp.dtype == np.float64

    def held(f, dtype):
        return TemporalField(grid, f.amp.astype(dtype))

    got = {}
    for dtype in (np.float64, np.complex128):
        lo = held(pulse, dtype)
        assert lo.amp.dtype == dtype
        out = {half: transmit(to_spectrum(lo, half=half), m) for half in (True, False)}
        assert _spectrum(lo).half  # a zero imaginary part is real data, whatever the storage
        sig = held(out[True].field, dtype)
        shaped = achievable_lo(sig, ShaperConfig(), out[True].mode)
        got[dtype] = {
            "transmission": [out[half].transmission for half in (True, False)],
            "overlaps": delay_overlaps(_time_support(lo), sig, delays) / np.sqrt(out[True].spectrum.energy),
            "best": [_best_projection(_spectrum(x), out[True].mode) for x in (lo, shaped)],
        }
    real, cplx = got[np.float64], got[np.complex128]
    assert np.max(np.abs(np.subtract(real["transmission"], cplx["transmission"]))) <= TOL
    assert real["overlaps"].dtype == np.float64
    assert peak_gap(real["overlaps"], cplx["overlaps"]) <= TOL
    assert np.max(np.abs(np.subtract(real["best"], cplx["best"]))) <= TOL


@pytest.mark.parametrize("case", CASES[:8], ids=[c["id"] for c in CASES[:8]])
def test_parseval_on_half_spectra(case):
    # df * (|F_0|^2 + 2 * sum |F_k|^2 + |F_{n/2}|^2) equals dt * sum |f|^2, before and after the medium
    grid = make_grid(case["n"], case["dt"])
    pulse = gaussian_pulse(grid, case["fwhm"])
    spec = to_spectrum(pulse, half=True)
    assert spec.energy == pytest.approx(pulse_energy(pulse), rel=TOL)
    out = transmit(spec, case["medium"])
    assert out.spectrum.energy == pytest.approx(pulse_energy(out.field), rel=TOL)
    assert out.mode.energy == pytest.approx(1.0, rel=TOL)


@pytest.mark.parametrize("case", CASES[:8], ids=[c["id"] for c in CASES[:8]])
def test_mirrored_half_spectrum_is_the_full_one(case):
    # the mirror E(-nu) = conj E(nu) of a real field's half spectrum, before and after the medium
    grid = make_grid(case["n"], case["dt"])
    pulse = gaussian_pulse(grid, case["fwhm"])
    for x in (pulse, transmit(to_spectrum(pulse, half=True), case["medium"]).field):
        full = to_spectrum(x)
        mirrored = _full(to_spectrum(x, half=True))
        assert not mirrored.half
        assert peak_gap(mirrored.amp, full.amp) <= 1e-15


@pytest.mark.parametrize("case", MIXED, ids=[c["id"] for c in MIXED])
def test_mixed_layouts_match_the_all_full_reference(monkeypatch, case):
    grid = make_grid(case["n"], case["dt"])
    m, delays, mix = case["medium"], case["delays"], case["mix"]
    detuning = case["detuning"] if mix == "detuned-signal" else 0.0
    pulse = normalize(gaussian_pulse(grid, case["fwhm"], detuning=detuning))
    cfg = ShaperConfig()
    if mix.startswith("pixel"):
        width = case["bins"] * grid.df * CENTER_WAVELENGTH**2 / SPEED_OF_LIGHT
        cfg = ShaperConfig(pixel_width=width)
        assert int(round(cfg.pixel_width_hz / grid.df)) == case["bins"]
    out = transmit(_spectrum(pulse), m)  # the library's layout, and the all-full reference
    ref = transmit(to_spectrum(pulse), m)
    if mix.startswith("pixel"):  # a complex LO from a real target's mirrored half spectrum
        lo, ref_lo = achievable_lo(out.field, cfg, out.mode), achievable_lo(ref.field, cfg, ref.mode)
    elif mix == "complex-lo":
        lo = ref_lo = normalize(gaussian_pulse(grid, case["fwhm"], detuning=case["detuning"]))
    else:  # a real LO against the detuned signal
        lo = ref_lo = normalize(gaussian_pulse(grid, case["fwhm"]))
    lo_spec, ref_spec = _spectrum(lo), to_spectrum(ref_lo)
    assert out.mode.half != lo_spec.half  # the two layouts meet
    assert not ref.mode.half and not ref_spec.half

    got = delay_overlaps(_time_support(lo), out.field, delays, lo_spec, out.mode)
    want = delay_overlaps(_time_support(ref_lo), ref.field, delays, ref_spec, ref.mode)
    assert peak_gap(got, want) <= TOL
    assert abs(_best_projection(lo_spec, out.mode) - _best_projection(ref_spec, ref.mode)) <= TOL

    eta = max_shaped_eta(pulse, m, cfg, 0.62)
    monkeypatch.setattr(zapsim.shaper, "_spectrum", to_spectrum)  # every spectrum in the full layout
    assert abs(eta - max_shaped_eta(pulse, m, cfg, 0.62)) <= TOL
