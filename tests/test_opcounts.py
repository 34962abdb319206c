"""Operation counts per medium: each medium is propagated once per verb.

Counts numpy FFTs, H(nu) evaluations, shaper LO builds, best-delay searches
and large complex exponentials while the four physics verbs run on a 2^14
grid, once with all five presets and once with preset 1; the difference
divided by four is the per-medium cost, free of the per-run set-up.  FFTs
are counted as work, m*log2(m) / (n*log2(n)) for a length-m transform on
the n-point grid, so a half-length transform counts as less than half of a
full one; an exponential counts as its size in full grids.  The peak memory
of one transmission is measured in full-grid complex arrays.
"""

import tracemalloc

import numpy as np
import pytest

import zapsim.medium
import zapsim.shaper
from zapsim import (
    MediumParams,
    eta_curve,
    gaussian_pulse,
    make_grid,
    to_spectrum,
    transfer_function,
    transmit,
    visibility_curve,
)
from zapsim.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

# most FFT work (in full-grid transforms) one medium may cost, per verb
FFT_BUDGET = {"propagate": 1, "xcorr": 1, "eta-scan": 1, "depth-scan": 4.0}

GRID_N = 16384


def _fft_work(x, *args, **kwargs):
    m = np.size(x)
    return m * np.log2(m) / (GRID_N * np.log2(GRID_N))


def _count_calls(monkeypatch, owner, name, counts, weight=lambda *args, **kwargs: 1):
    """Count calls of ``owner.name``, each adding ``weight(*args)``, through every binding of it in numpy.fft and zapsim."""
    import sys

    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += weight(*args, **kwargs)
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "numpy.fft" or mod_name.startswith("zapsim"):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counted)


def _count_large_exp(monkeypatch, counts):
    """Count numpy.exp calls on complex arrays of at least GRID_N / 8 elements, each weighted by its size in full grids."""
    exp = np.exp

    def counted(x, *args, **kwargs):
        if np.iscomplexobj(x) and np.size(x) >= GRID_N // 8:
            counts["exp"] += np.size(x) / GRID_N
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)


def _run_counted(monkeypatch, tmp_path, verb, preset):
    counts = dict.fromkeys(["fft", "ifft", "transfer_function", "achievable_lo", "_best_projection", "exp"], 0)
    with monkeypatch.context() as mp:
        _count_calls(mp, np.fft, "fft", counts, _fft_work)
        _count_calls(mp, np.fft, "ifft", counts, _fft_work)
        _count_calls(mp, zapsim.medium, "transfer_function", counts)
        _count_calls(mp, zapsim.shaper, "achievable_lo", counts)
        _count_calls(mp, zapsim.shaper, "_best_projection", counts)
        _count_large_exp(mp, counts)
        out = str(tmp_path / preset)
        code = main([verb, "--out", out, "--set", f"grid.n={GRID_N}", "--set", f"medium.preset={preset}"])
    assert code == 0
    return {
        "fft": counts["fft"] + counts["ifft"],
        "h": counts["transfer_function"],
        "lo": counts["achievable_lo"],
        "search": counts["_best_projection"],
        "exp": counts["exp"],
    }


@pytest.mark.parametrize("verb", sorted(FFT_BUDGET))
def test_one_propagation_per_medium(monkeypatch, tmp_path, verb):
    five = _run_counted(monkeypatch, tmp_path, verb, "all")
    one = _run_counted(monkeypatch, tmp_path, verb, "1")
    assert five["h"] == 5 and one["h"] == 1
    assert (five["fft"] - one["fft"]) / 4 <= FFT_BUDGET[verb]
    # H(nu) is the only large complex exponential (no delay phase ramp, no full-length Newton phasors),
    # and at zero line detuning it is evaluated on nu >= 0 and the -Nyquist bin only
    assert (five["exp"] - one["exp"]) / 4 <= (GRID_N // 2 + 1) / GRID_N
    if verb == "depth-scan":
        # one shaped LO per medium plus the medium-independent input LO
        assert five["lo"] == 5 + 1
        # the input LO and the own-mode LO; the shaped input LO provably loses at the default shaper
        assert (five["search"] - one["search"]) / 4 <= 2


def test_transmit_keeps_at_most_two_and_a_half_grids():
    # H is formed in place into F*H and transformed in place: the output spectrum,
    # the output field and |field| for the edge check, plus a few KiB of Python objects
    grid = make_grid(2**16, 10e-15)
    grid.freqs  # cached, as it is after the first medium
    spec = to_spectrum(gaussian_pulse(grid, 100e-15))
    m = MediumParams(depth=70.0, t2=280e-12)
    tracemalloc.start()
    try:
        out = transmit(spec, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(out.spectrum.amp.view(np.uint64), (spec.amp * transfer_function(grid, m).amp).view(np.uint64))
    assert peak <= 2.5 * grid.n * 16 + 16 * 1024


def test_lattice_curves_transform_only_the_propagation(monkeypatch):
    # a lattice scan is a time correlation: no LO or signal spectrum is built
    grid = make_grid(GRID_N, 10e-15)
    pulse = gaussian_pulse(grid, 100e-15)
    delays = np.arange(-40, 400) * 20e-15
    counts = dict.fromkeys(["fft", "ifft"], 0)
    with monkeypatch.context() as mp:
        _count_calls(mp, np.fft, "fft", counts)
        _count_calls(mp, np.fft, "ifft", counts)
        visibility_curve(pulse, pulse, delays)
        assert counts == {"fft": 0, "ifft": 0}
        eta_curve(pulse, MediumParams(depth=70.0, t2=280e-12), pulse, 0.62, delays)
    # the input spectrum and the transmitted field
    assert counts == {"fft": 1, "ifft": 1}
