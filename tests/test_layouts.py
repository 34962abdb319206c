"""The library's half spectra give the physics of the full layout, over a seeded sweep of the config space.

Every spectrum the library holds is the nu >= 0 half of a real field's.  A
real input is transmitted on its half spectrum (one rfft, the half-band H,
one irfft); a test-side transmission in the full layout (``conftest``:
numpy's complex transforms, the half-band H mirrored) is the reference.
Each case draws a grid of 2^10 - 2^13 samples, a pulse width, a preset or
custom medium and an on-lattice, off-lattice-start or off-lattice delay set from numpy's seeded generator, and holds the two transmissions to
1e-12 of the peak on the field and T_E, and the delay overlaps and
best-delay projections computed on half spectra to 1e-12 of a test-side
reference from the full-layout transmission: the direct sum over all n bins
in extended precision, with the LO's half spectrum (itself held to 1e-12 of
the sum with the LO's full one), and that sum maximized over delay by
Brent's method polished by Newton steps.

The same cases hold a real field stored as float64 and as complex128 with a
zero imaginary part to 1e-12 of each other on T_E, the delay overlaps and
the best-delay projection: the storage, like the layout, is not physics.

Pixel cases add a pixel box of an odd or even number of bins.  The LO the
library shapes on half spectra is real and is held to 1e-12 of a test-side
full-layout one (the centred box over the full spectrum, a complex inverse
transform), and so are its delay overlaps, its best-delay projection and the
shaped efficiency.
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
from zapsim.modes import delay_overlaps
from zapsim.shaper import CENTER_WAVELENGTH, SPEED_OF_LIGHT, _best_projection, _efficiencies

from conftest import brent_projection, extended_overlaps, full_layout_lo, full_spectrum, full_transmit

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
    return {"id": f"{k}-{kind}-n{n}", "n": n, "dt": dt, "fwhm": fwhm, "medium": medium, "delays": delays, "kind": kind}


def draw_cases(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [draw_case(rng, k) for k in range(count)]


PIXELS = ("pixel-odd", "pixel-even")


def draw_pixel_cases(seed: int, count: int) -> list[dict]:
    """Cases of :func:`draw_case`, each with a pixel width in bins, odd or even; the parities cycle
    with period 2 and the delay kinds with period 3, so 6 cases cover every pair."""
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
        case = draw_case(rng, k)
        parity = PIXELS[k % 2]
        bins = 2 * int(rng.integers(1, 4)) + (parity == "pixel-odd")
        case.update(id=f"{case['id']}-{parity}", bins=bins)
        cases.append(case)
    return cases


CASES = draw_cases(seed=2015, count=24)
PIXEL_CASES = draw_pixel_cases(seed=2015, count=12)


def peak_gap(a, b) -> float:
    """max |a - b| as a fraction of the peak of |b|."""
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))) / np.max(np.abs(b)))


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_half_and_full_layouts_agree(case):
    grid = make_grid(case["n"], case["dt"])
    pulse = normalize(gaussian_pulse(grid, case["fwhm"]))
    m = case["medium"]
    spec = {True: to_spectrum(pulse), False: full_spectrum(pulse)}
    out = {True: transmit(spec[True], m), False: full_transmit(spec[False], m)}
    assert spec[True].amp.shape == (grid.n // 2 + 1,) and spec[False].amp.shape == (grid.n,)
    assert not np.any(out[True].field.amp.imag)

    assert peak_gap(out[True].field.amp, out[False].field.amp) <= TOL
    assert abs(out[True].transmission - out[False].transmission) <= TOL
    assert abs(energy_transmission(spec[True], m) - out[False].transmission) <= TOL

    delays = case["delays"]
    # the half path against the exact sum over the full-layout transmission, the LO's spectrum held fixed; and
    # that sum against the one over the LO's full spectrum (in case 1 the overlaps peak at 1e-5 of |lo|*|sig|,
    # where the LO's rfft and fft differ by 6e-13 of that peak)
    overlaps = delay_overlaps(spec[True], out[True].spectrum, delays)
    assert overlaps.dtype == np.float64
    reference = extended_overlaps(spec[True], out[False].spectrum, delays)
    assert peak_gap(overlaps, reference) <= TOL
    assert peak_gap(reference, extended_overlaps(spec[False], out[False].spectrum, delays)) <= TOL

    shaped = achievable_lo(out[True], ShaperConfig())
    for lo in (pulse, shaped):
        best = _best_projection(to_spectrum(lo), out[True].mode)
        assert abs(best - brent_projection(full_spectrum(lo), out[False].mode)) <= TOL


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
        out = {True: transmit(to_spectrum(lo), m), False: full_transmit(lo, m)}
        # a zero imaginary part is real data, whatever the storage
        assert to_spectrum(lo).amp.shape == (grid.n // 2 + 1,)
        sig = held(out[True].field, dtype)
        shaped = achievable_lo(normalize(sig), ShaperConfig())
        got[dtype] = {
            "transmission": [out[half].transmission for half in (True, False)],
            "overlaps": delay_overlaps(to_spectrum(lo), to_spectrum(sig), delays) / np.sqrt(out[True].spectrum.energy),
            "best": [_best_projection(to_spectrum(x), out[True].mode) for x in (lo, shaped)],
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
    spec = to_spectrum(pulse)
    assert spec.energy == pytest.approx(pulse_energy(pulse), rel=TOL)
    out = transmit(spec, case["medium"])
    assert out.spectrum.energy == pytest.approx(pulse_energy(out.field), rel=TOL)
    assert out.mode.energy == pytest.approx(1.0, rel=TOL)


@pytest.mark.parametrize("case", CASES[:8], ids=[c["id"] for c in CASES[:8]])
def test_mirrored_half_spectrum_is_the_full_one(case):
    # the mirror E(-nu) = conj E(nu) of a real field's half spectrum, before and after the medium, against
    # the complex transform of the field
    grid = make_grid(case["n"], case["dt"])
    pulse = gaussian_pulse(grid, case["fwhm"])
    for x in (pulse, transmit(to_spectrum(pulse), case["medium"]).field):
        mirrored = full_spectrum(to_spectrum(x))
        assert peak_gap(mirrored.amp, full_spectrum(x).amp) <= 1e-15


@pytest.mark.parametrize("case", PIXEL_CASES, ids=[c["id"] for c in PIXEL_CASES])
def test_pixel_box_matches_the_all_full_reference(case):
    grid = make_grid(case["n"], case["dt"])
    m, delays = case["medium"], case["delays"]
    pulse = normalize(gaussian_pulse(grid, case["fwhm"]))
    width = case["bins"] * grid.df * CENTER_WAVELENGTH**2 / SPEED_OF_LIGHT
    cfg = ShaperConfig(pixel_width=width)
    assert int(round(cfg.pixel_width_hz / grid.df)) == case["bins"]
    out = transmit(to_spectrum(pulse), m)  # the library's layout, and the all-full reference
    ref = full_transmit(pulse, m)
    lo, ref_lo = achievable_lo(out, cfg), full_layout_lo(ref.field, cfg)
    assert lo.amp.dtype == np.float64
    assert peak_gap(lo.amp, ref_lo.amp) <= TOL

    got = delay_overlaps(to_spectrum(lo), out.spectrum, delays)
    assert peak_gap(got, extended_overlaps(full_spectrum(ref_lo), ref.spectrum, delays)) <= TOL
    assert abs(_best_projection(to_spectrum(lo), out.mode) - brent_projection(full_spectrum(ref_lo), ref.mode)) <= TOL

    # the best of the input pulse, the LO shaped to the transmitted mode and the shaped input LO
    candidates = (pulse, ref_lo, full_layout_lo(pulse, cfg))
    want = 0.62 * ref.transmission * max(brent_projection(full_spectrum(x), ref.mode) for x in candidates)
    assert abs(_efficiencies(out, to_spectrum(pulse), 0.62, cfg)[1] - want) <= TOL
