"""Half and full spectral layouts give the same physics, over a seeded sweep of the config space.

A real input is transmitted on its nu >= 0 half spectrum (one rfft, the
half-band H, one irfft) or on the full one (complex transforms).  Each case
draws a grid of 2^10 - 2^13 samples, a pulse width, a preset or custom medium
and an on-lattice, off-lattice-start or off-lattice delay set from numpy's
seeded generator, and holds the two layouts to 1e-12 of the peak on the
transmitted field, T_E, the delay overlaps and the best-delay projection.
"""

import numpy as np
import pytest

from zapsim import (
    MediumParams,
    ShaperConfig,
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
from zapsim.modes import _time_support, delay_overlaps
from zapsim.shaper import _best_projection

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

TOL = 1e-12


def draw_cases(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    cases = []
    for k in range(count):
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
        cases.append({"id": f"{k}-{kind}-n{n}", "n": n, "dt": dt, "fwhm": fwhm, "medium": medium, "delays": delays})
    return cases


CASES = draw_cases(seed=2015, count=24)


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
