"""Operation counts per medium: each medium is propagated once per verb.

Counts numpy FFTs, H(nu) evaluations, shaper LO builds, best-delay searches
and large complex exponentials while the four physics verbs run on a 2^14
grid, once with all five presets and once with preset 1; the difference
divided by four is the per-medium cost, free of the per-run set-up.  The
presets' free-induction tails wrap the 164 ps window of that grid, which
costs nothing: the one grid check reads no field.  FFTs
are counted as work, m*log2(m) / (n*log2(n)) for a length-m transform on
the n-point grid, so a half-length transform counts as less than half of a
full one, and a real transform (rfft, irfft) as half a complex one of its
length; an exponential counts as its size in full grids.  The peak memory
of one transmission and of one transform each way is measured in full-grid
complex arrays, the real path is checked to build no time axis and to run
no complex transform, propagate's complex pair to build no time axis either,
and the in-place product of a transmission is checked
to round alike at every alignment of its operands.
"""

import tracemalloc

import numpy as np
import pytest

import zapsim.fields
import zapsim.medium
import zapsim.runners
import zapsim.shaper
from zapsim import (
    Grid,
    MediumParams,
    ShaperConfig,
    TemporalField,
    achievable_lo,
    eta_curve,
    gaussian_pulse,
    make_grid,
    temperature_presets,
    to_spectrum,
    to_time,
    transfer_function,
    transmit,
    visibility_curve,
)
from zapsim.cli import main
from zapsim.config import ScenarioConfig, apply_overrides

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

# most FFT work (in full-grid complex transforms) one medium may cost, per verb.  propagate writes the
# imaginary part of the field, so it keeps a complex pair of its own, the only complex transforms of the
# package: one ifft of the input per run and one fft per medium, 1; every other verb transmits the input's
# half spectrum, and xcorr and eta-scan read their overlaps from one half-length irfft of the folded
# spectral product and build no field: 0.232; depth-scan reads no field and measures 0.929: the LO shaped to
# the transmitted mode is built at the rate of its band (D = 2 at the default span), one irfft of n/2 for the
# LO and one rfft of n/2 for its spectrum, and two half-length irffts serve the best-delay searches
# (4 x 0.232); it measured 1.196 while the LO took an irfft of n, and 1.464 while its spectrum took an rfft of n
FFT_BUDGET = {"propagate": 1, "xcorr": 0.233, "eta-scan": 0.233, "depth-scan": 0.929}

GRID_N = 16384


def _work(m):
    return m * np.log2(m) / (GRID_N * np.log2(GRID_N))


def _fft_work(x, *args, **kwargs):
    return _work(np.size(x))


def _rfft_work(x, n=None, *args, **kwargs):
    return 0.5 * _work(n or np.size(x))


def _irfft_work(x, n=None, *args, **kwargs):
    return 0.5 * _work(n or 2 * (np.size(x) - 1))


WORK = {"fft": _fft_work, "ifft": _fft_work, "rfft": _rfft_work, "irfft": _irfft_work}
TRANSFORMS = tuple(WORK)


def _count_calls(monkeypatch, owner, name, counts, weight=lambda *args, **kwargs: 1, key=None):
    """Count calls of ``owner.name``, each adding ``weight(*args)`` to ``counts[key or name]``, through every
    binding of it in numpy.fft and zapsim."""
    import sys

    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[key or name] += weight(*args, **kwargs)
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


def _count_transforms(monkeypatch, counts):
    """Count the work of every numpy FFT, complex and real, and large complex exponentials into ``counts``."""
    for name, weight in WORK.items():
        _count_calls(monkeypatch, np.fft, name, counts, weight)
    _count_large_exp(monkeypatch, counts)


def _run_counted(monkeypatch, tmp_path, verb, preset, *settings):
    """Op counts of one CLI run on the GRID_N grid with ``medium.preset`` and further ``--set`` values."""
    names = [*TRANSFORMS, "transfer_function", "_shaped_lo", "_best_projection", "fft_calls", "ifft_calls", "exp"]
    counts = dict.fromkeys(names, 0)
    with monkeypatch.context() as mp:
        _count_calls(mp, zapsim.medium, "transfer_function", counts)
        _count_calls(mp, zapsim.shaper, "_shaped_lo", counts)
        _count_calls(mp, zapsim.shaper, "_best_projection", counts)
        _count_transforms(mp, counts)
        for name in ("fft", "ifft"):
            _count_calls(mp, np.fft, name, counts, key=f"{name}_calls")
        out = str(tmp_path / preset)
        args = [verb, "--out", out, "--set", f"grid.n={GRID_N}", "--set", f"medium.preset={preset}"]
        code = main(args + [arg for value in settings for arg in ("--set", value)])
    assert code == 0
    return {
        "fft": sum(counts[name] for name in TRANSFORMS),
        "h": counts["transfer_function"],
        "lo": counts["_shaped_lo"],
        "search": counts["_best_projection"],
        "complex": (counts["ifft_calls"], counts["fft_calls"]),
        "exp": counts["exp"],
    }


def _length(name, x, n=None, *args, **kwargs):
    """The length of the transform ``np.fft.<name>(x, n)``: by default an irfft of m bins has 2 * (m - 1) points."""
    return n or (2 * (np.size(x) - 1) if name == "irfft" else np.size(x))


def _transforms(monkeypatch, run):
    """The numpy transforms that ``run()`` makes, as (name, length) in call order, and its result."""
    lengths = []
    with monkeypatch.context() as mp:
        for name in TRANSFORMS:
            record = lambda *args, name=name, **kwargs: lengths.append((name, _length(name, *args, **kwargs))) or 0
            _count_calls(mp, np.fft, name, {name: 0}, record)
        result = run()
    return lengths, result


@pytest.mark.parametrize("verb", sorted(FFT_BUDGET))
def test_one_propagation_per_medium(monkeypatch, tmp_path, verb):
    five = _run_counted(monkeypatch, tmp_path, verb, "all")
    one = _run_counted(monkeypatch, tmp_path, verb, "1")
    assert five["h"] == 5 and one["h"] == 1
    assert (five["fft"] - one["fft"]) / 4 <= FFT_BUDGET[verb]
    # H(nu) is the only large complex exponential (no delay phase ramp, no full-length Newton phasors): on the
    # input's band, 3,228 of the n/2 + 1 = 8,193 bins of nu >= 0, or on all of them in propagate's own pair
    bins = GRID_N // 2 + 1 if verb == "propagate" else 3228
    assert (five["exp"] - one["exp"]) / 4 == bins / GRID_N
    # complex transforms serve propagate alone: one ifft of the input per run and one fft per medium; every
    # other verb runs only rfft and irfft
    assert (five["complex"], one["complex"]) == (((1, 5), (1, 1)) if verb == "propagate" else ((0, 0), (0, 0)))
    if verb == "depth-scan":
        # one shaped LO per medium, built once at its band's rate, searched with the input LO
        assert five["lo"] == 5
        assert (five["search"] - one["search"]) / 4 == 2


@pytest.mark.parametrize(
    "verb, stem",
    [("depth-scan", "efficiency_vs_depth"), ("xcorr", "xcorr"), ("eta-scan", "eta_scan"), ("propagate", "propagate")],
)
def test_only_verbs_that_read_the_field_transform_it(monkeypatch, tmp_path, verb, stem):
    # depth-scan and the delay scans read the transmitted spectrum alone, and the grid check reads no field: no
    # transmitted field is built, though the presets' tails wrap this grid's window, and each medium's sidecar
    # lists the one wrap warning.  propagate writes the field, which its own complex pair transforms, and so
    # transmits nothing through the library
    outs = []
    transmit = zapsim.runners.transmit
    monkeypatch.setattr(zapsim.runners, "transmit", lambda *args: outs.append(transmit(*args)) or outs[-1])
    assert main([verb, "--out", str(tmp_path), "--set", f"grid.n={GRID_N}"]) == 0
    assert len(outs) == (0 if verb == "propagate" else 5)
    assert not any("field" in vars(out) for out in outs)
    sidecar = (tmp_path / f"{stem}_params.txt").read_text(encoding="utf-8").split("\n[")[2:]
    notes = [[line for line in body.splitlines() if line.startswith("warning = ")] for body in sidecar]
    assert [len(lines) for lines in notes] == [1] * 5
    assert all("widen the window n*dt" in line for (line,) in notes)


@pytest.mark.parametrize("verb", sorted(FFT_BUDGET))
def test_only_propagate_samples_the_input_pulse(monkeypatch, tmp_path, verb):
    # the other verbs take the input's half spectrum in closed form, with no field of n samples to build
    counts = {"gaussian_pulse": 0}
    _count_calls(monkeypatch, zapsim.fields, "gaussian_pulse", counts)
    assert main([verb, "--out", str(tmp_path), "--set", f"grid.n={GRID_N}"]) == 0
    assert counts["gaussian_pulse"] == (verb == "propagate")


@pytest.mark.parametrize("verb", ["xcorr", "eta-scan"])
def test_default_scans_transform_no_field(monkeypatch, tmp_path, verb):
    # at the default 2^19 x 10 fs grid the presets' tails decay within the window: the input's spectrum is in
    # closed form, so a run makes only, per medium, one half-length irfft of the folded spectral product for its
    # 451 even-lag delays
    lengths, code = _transforms(monkeypatch, lambda: main([verb, "--out", str(tmp_path)]))
    assert code == 0
    assert lengths == [("irfft", 2**18)] * 5


@pytest.mark.parametrize("pixel_nm", [None, 2, 3])
def test_default_depth_scan_transforms_no_field(monkeypatch, tmp_path, pixel_nm):
    # at the default 2^19 x 10 fs grid the presets' tails decay within the window: each medium's field stays
    # unbuilt through its efficiencies, with or without a pixel box, and the run makes 20 numpy transforms and
    # none of length n, as the input's spectrum is in closed form: per medium the LO is built on the grid of
    # every second sample (its band, 19.7 THz, is below half the 50 THz Nyquist), one irfft of n/2 and one rfft
    # of n/2, and two half-length irffts serve the searches
    built = []
    efficiencies = zapsim.runners._efficiencies

    def spy(out, *args):
        result = efficiencies(out, *args)
        built.append("field" in vars(out))
        return result

    monkeypatch.setattr(zapsim.runners, "_efficiencies", spy)
    settings = [] if pixel_nm is None else ["--set", f"shaper.pixel_nm={pixel_nm}"]
    lengths, code = _transforms(monkeypatch, lambda: main(["depth-scan", "--out", str(tmp_path), *settings]))
    assert code == 0
    assert built == [False] * 5
    n = 2**19
    assert sorted(lengths) == [("irfft", n // 2)] * 15 + [("rfft", n // 2)] * 5


def test_depth_scan_without_a_span_reads_each_lo_at_the_full_rate(monkeypatch, tmp_path):
    # with no aperture the LO's band is not bounded below Nyquist (D = 1): its spectrum is one rfft of n per
    # medium, as to_spectrum makes it; the LO is shaped from the field, which the shaper builds (one irfft of n)
    run = lambda: main(["depth-scan", "--out", str(tmp_path), "--set", f"grid.n={GRID_N}", "--set", "shaper.span_nm=none"])
    lengths, code = _transforms(monkeypatch, run)
    assert code == 0
    assert sorted(lengths) == [("irfft", GRID_N // 2)] * 10 + [("irfft", GRID_N)] * 5 + [("rfft", GRID_N)] * 5


def _fmt_calls(monkeypatch, tmp_path, verb, *settings):
    """Calls of the per-value formatter ``runners._fmt`` in one CLI run on the GRID_N grid."""
    counts = {"_fmt": 0}
    with monkeypatch.context() as mp:
        _count_calls(mp, zapsim.runners, "_fmt", counts)
        sets = [arg for value in settings for arg in ("--set", value)]
        assert main([verb, "--out", str(tmp_path / "_".join(settings)), "--set", f"grid.n={GRID_N}", *sets]) == 0
    return counts["_fmt"]


@pytest.mark.parametrize(
    "verb, small, large",
    [("wigner", "wigner.n_side=11", "wigner.n_side=121"), ("propagate", "scan.delay_max_ps=1", "scan.delay_max_ps=8")],
)
def test_data_rows_make_no_per_value_format_call(monkeypatch, tmp_path, verb, small, large):
    # a data file is formatted in one pass over its columns: _fmt is left to the header and sidecar lines, so its
    # count does not grow with the rows written (121 * 121 against 11 * 11 Wigner points, 901 against 201 samples
    # of each propagated envelope)
    assert _fmt_calls(monkeypatch, tmp_path, verb, small) == _fmt_calls(monkeypatch, tmp_path, verb, large)


@pytest.mark.parametrize("pixel_nm", [2, 3])
def test_pixel_box_transmits_on_half_spectra(monkeypatch, tmp_path, pixel_nm):
    five = _run_counted(monkeypatch, tmp_path, "depth-scan", "all", f"shaper.pixel_nm={pixel_nm}")
    one = _run_counted(monkeypatch, tmp_path, "depth-scan", "1", f"shaper.pixel_nm={pixel_nm}")
    # a pixel box is a real factor in time on the LO's window, which costs no transform
    assert (five["fft"] - one["fft"]) / 4 <= FFT_BUDGET["depth-scan"]
    # no complex transform runs
    assert five["complex"] == (0, 0)


def test_propagate_keeps_under_four_grids(tmp_path):
    # the runner's complex pair holds its complex spectrum of the input and, per medium, the full H and the
    # half-band H it is filled from: 2.77 grids, with the pulse freed before the transform and the output window's
    # times built from its own indices (3.8 grids while the pulse and the time axis, half a grid each, stayed
    # alive; 4.8 grids with an fftshift copy either way)
    cfg = apply_overrides(ScenarioConfig(), ["grid.n=65536", "medium.preset=1"])
    zapsim.runners.run_propagate(cfg, tmp_path)  # numpy's and the grid's one-off allocations
    tracemalloc.start()
    try:
        zapsim.runners.run_propagate(cfg, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.8 * 65536 * 16


def test_half_spectrum_keeps_half_a_grid():
    # one rfft of the real part, conjugated and scaled in place: n/2 + 1 complex bins
    grid = make_grid(2**16, 10e-15)
    pulse = gaussian_pulse(grid, 100e-15)
    tracemalloc.start()
    try:
        spec = to_spectrum(pulse)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert spec.amp.shape == (grid.n // 2 + 1,)
    assert peak <= 0.5 * grid.n * 16 + 16 * 1024


def test_transmit_of_a_half_spectrum_keeps_one_grid():
    # H on the input's band becomes F*H in place (0.2 of a grid), and nothing more but the |.| arrays of the
    # input's band, found once per input, and of the output's energy: 0.38 of a grid.  The grid check reads the
    # input's area and energy, and the field is not built; read later, it is to_time of F*H
    grid = make_grid(2**16, 10e-15)
    grid.half_freqs  # H's abscissae, cached as they are after the first medium
    spec = to_spectrum(gaussian_pulse(grid, 100e-15))
    m = MediumParams(depth=70.0, t2=5e-12)
    tracemalloc.start()
    try:
        out = transmit(spec, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "field" not in vars(out)
    # the in-place product rounds as a fresh one with F first: complex multiply is not commutative bit for bit,
    # and ``spec.amp * transfer_function(...).amp`` would let numpy reuse the temporary H as H*F.  On the band
    # it has the bits of the full-band product
    h = transfer_function(grid, m).amp
    want = np.multiply(spec.amp, h)[: spec.band]
    assert np.array_equal(out.spectrum.amp.view(np.uint64), want.view(np.uint64))
    assert out.field.amp.dtype == np.float64
    assert np.array_equal(out.field.amp.view(np.uint64), to_time(out.spectrum).amp.view(np.uint64))
    assert peak <= 0.4 * grid.n * 16 + 16 * 1024


@pytest.mark.parametrize("pixel_nm, grids", [(None, 1.0), (2, 1.1)], ids=["span", "pixel"])
def test_shaped_lo_keeps_one_grid(pixel_nm, grids):
    # with an aperture: the conjugated bins inside the span (0.15 of a grid here) and the irfft's float64
    # output (half a grid), which becomes the windowed LO in place; a pixel box adds only its Dirichlet factor
    # on the window's samples
    grid = make_grid(2**16, 10e-15)
    out = transmit(to_spectrum(gaussian_pulse(grid, 100e-15)), temperature_presets()[2].params)
    cfg = ShaperConfig(pixel_width=None if pixel_nm is None else pixel_nm * 1e-9)
    want = achievable_lo(out, cfg)
    tracemalloc.start()
    try:
        lo = achievable_lo(out, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.array_equal(lo.amp.view(np.uint64), want.amp.view(np.uint64))
    assert peak <= grids * grid.n * 16 + 16 * 1024


@pytest.mark.parametrize("pixel_nm", [None, 2], ids=["span", "pixel"])
def test_band_rate_lo_keeps_under_one_grid(pixel_nm):
    # at D = 2: the bins inside the span (0.15 of a grid here), their conjugated copy and the irfft's output of
    # n/2 samples (a quarter of a grid), which becomes the LO in place; the centre proof's few sums each hold one
    # array of phasors and numpy's 256 KiB iterator buffer (a quarter of this grid): 0.80 of a grid, against 0.88
    # for the LO of n samples (test_shaped_lo_keeps_one_grid)
    grid = make_grid(2**16, 10e-15)
    out = transmit(to_spectrum(gaussian_pulse(grid, 100e-15)), temperature_presets()[2].params)
    cfg = ShaperConfig(pixel_width=None if pixel_nm is None else pixel_nm * 1e-9)
    want = zapsim.shaper._shaped_lo(out, cfg, 2)
    tracemalloc.start()
    try:
        lo = zapsim.shaper._shaped_lo(out, cfg, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert lo.grid == Grid(grid.n // 2, 2 * grid.dt)
    assert np.array_equal(lo.amp.view(np.uint64), want.amp.view(np.uint64))
    assert peak <= 0.81 * grid.n * 16 + 16 * 1024


def test_default_depth_scan_newton_evaluations(monkeypatch, tmp_path):
    # each best-delay search starts Newton at the vertex of the parabola through its three coarse samples: a
    # default depth-scan evaluates the overlap and its derivatives 31 times over its 10 searches (42 when each
    # start was the sample itself); each evaluation is one product of g with the phasors
    counts = {"evaluations": 0}
    searching = []
    phasors, search = zapsim.shaper._phasors, zapsim.shaper._best_projection

    def counted_phasors(*args):
        counts["evaluations"] += bool(searching)
        return phasors(*args)

    def counted_search(*args):
        searching.append(True)
        try:
            return search(*args)
        finally:
            searching.pop()

    monkeypatch.setattr(zapsim.shaper, "_phasors", counted_phasors)
    monkeypatch.setattr(zapsim.shaper, "_best_projection", counted_search)
    assert main(["depth-scan", "--out", str(tmp_path)]) == 0
    assert counts["evaluations"] <= 31


def test_to_time_of_a_half_spectrum_keeps_one_grid():
    # the conjugated copy of the n/2 + 1 bins and the irfft's float64 output, half a grid each
    grid = make_grid(2**16, 10e-15)
    spec = to_spectrum(gaussian_pulse(grid, 100e-15))
    tracemalloc.start()
    try:
        field = to_time(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert field.amp.dtype == np.float64
    assert peak <= 1.0 * grid.n * 16 + 16 * 1024


@pytest.mark.parametrize(
    "verb, settings",
    [("xcorr", []), ("eta-scan", []), ("depth-scan", []), ("depth-scan", ["shaper.pixel_nm=2"])],
    ids=["xcorr", "eta-scan", "depth-scan", "depth-scan-pixel"],
)
def test_real_path_builds_no_full_grid_axis(monkeypatch, tmp_path, verb, settings):
    # a real field's spectra use Grid.half_freqs, computed from bin numbers, and the shaper window's times
    # come from sample indices: Grid.t is not filled, and no complex FFT runs
    read = []
    build = vars(Grid)["t"].func
    monkeypatch.setattr(Grid, "t", property(lambda grid: read.append("t") or build(grid)))
    counts = {"fft": 0, "ifft": 0}
    for name in ("fft", "ifft"):
        _count_calls(monkeypatch, np.fft, name, counts)
    sets = [arg for value in settings for arg in ("--set", value)]
    assert main([verb, "--out", str(tmp_path), "--set", f"grid.n={GRID_N}", *sets]) == 0
    assert read == []
    assert counts == {"fft": 0, "ifft": 0}


def test_propagate_builds_no_full_grid_axis(monkeypatch, tmp_path):
    # propagate keeps its complex pair, but the times of its output window come from sample indices, k*dt, the
    # bits of Grid.t[k]: Grid.t is not filled
    read = []
    build = vars(Grid)["t"].func
    monkeypatch.setattr(Grid, "t", property(lambda grid: read.append("t") or build(grid)))
    assert main(["propagate", "--out", str(tmp_path), "--set", f"grid.n={GRID_N}"]) == 0
    assert read == []


def _aligned_copy(x: np.ndarray, offset: int) -> np.ndarray:
    """A copy of x that starts ``offset`` bytes past a 64-byte boundary."""
    buf = np.empty(x.nbytes + 64, dtype=np.uint8)
    start = (offset - buf.ctypes.data) % 64
    out = buf[start : start + x.nbytes].view(x.dtype)
    out[...] = x
    return out


@pytest.mark.parametrize("h_offset", [0, 16, 32, 48])
def test_in_place_product_rounds_alike_at_every_alignment(h_offset):
    # transmit forms F*H in place into H's array, wherever the allocator put it: byte-identical reruns need
    # its bits to be those of a fresh product at every operand alignment
    grid = make_grid(2**16, 10e-15)
    spec = to_spectrum(gaussian_pulse(grid, 100e-15))
    for preset in temperature_presets():
        h = transfer_function(grid, preset.params).amp
        want = spec.amp * h
        for f_offset in (0, 16, 32, 48):
            f, got = _aligned_copy(spec.amp, f_offset), _aligned_copy(h, h_offset)
            assert (f.ctypes.data % 64, got.ctypes.data % 64) == (f_offset, h_offset)
            np.multiply(f, got, out=got)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_lattice_curves_transform_half_spectra_and_one_half_length_irfft(monkeypatch):
    # a lattice scan of even lags reads the half-length transform of the folded spectral product: the LO's and
    # the signal's half spectra, and one irfft of length n/2; eta_curve's signal is the transmitted spectrum
    grid = make_grid(GRID_N, 10e-15)
    pulse = gaussian_pulse(grid, 100e-15)
    delays = np.arange(-40, 400) * 20e-15
    half_irfft, rfft = ("irfft", GRID_N // 2), ("rfft", GRID_N)
    assert _transforms(monkeypatch, lambda: visibility_curve(pulse, pulse, delays))[0] == [rfft, rfft, half_irfft]
    m = MediumParams(depth=70.0, t2=5e-12)
    assert _transforms(monkeypatch, lambda: eta_curve(pulse, m, pulse, 0.62, delays))[0] == [rfft, rfft, half_irfft]
    # one odd lag reads the full-length irfft instead
    odd = np.append(delays, delays[-1] + 10e-15)
    assert _transforms(monkeypatch, lambda: visibility_curve(pulse, pulse, odd))[0] == [rfft, rfft, ("irfft", GRID_N)]


def _counted(monkeypatch, scan):
    """Full-grid FFT work and large complex exponentials of ``scan()``."""
    counts = dict.fromkeys([*TRANSFORMS, "exp"], 0)
    with monkeypatch.context() as mp:
        _count_transforms(mp, counts)
        scan()
    return sum(counts[name] for name in TRANSFORMS), counts["exp"]


@pytest.mark.parametrize("curve", ["visibility", "eta"])
def test_off_lattice_start_costs_no_extra_transform(monkeypatch, curve):
    # a lattice scan starting 3.3 fs off the dt lattice multiplies the spectral product by that offset's
    # phasors, built from two ~sqrt(n) exponentials: the transforms and the large exponentials (eta_curve's
    # H(nu) on nu >= 0 alone) of the on-lattice scan
    grid = make_grid(GRID_N, 10e-15)
    pulse = gaussian_pulse(grid, 100e-15)
    m = MediumParams(depth=70.0, t2=5e-12)

    def scan(delays):
        if curve == "visibility":
            return lambda: visibility_curve(pulse, pulse, delays)
        return lambda: eta_curve(pulse, m, pulse, 0.62, delays)

    on = np.arange(-40, 400) * 20e-15
    cost = _counted(monkeypatch, scan(on + 3.3e-15))
    assert cost == _counted(monkeypatch, scan(on))
    assert cost[1] == (0 if curve == "visibility" else to_spectrum(pulse).band / GRID_N)


def test_lo_wrapping_the_window_edge_costs_what_a_centred_lo_costs(monkeypatch):
    grid = make_grid(GRID_N, 10e-15)
    centred = gaussian_pulse(grid, 100e-15)
    wrapped = TemporalField(grid, np.roll(centred.amp, -GRID_N // 8))  # peaks at sample 0
    delays = np.arange(-40, 400) * 20e-15
    cost = _counted(monkeypatch, lambda: visibility_curve(centred, wrapped, delays))
    assert cost == _counted(monkeypatch, lambda: visibility_curve(centred, centred, delays))
    assert cost[1] == 0


def test_default_h_runs_on_the_input_band(monkeypatch, tmp_path):
    # each medium's H(nu) is sampled on the input's band alone, the 103,288 bins up to 19.7 THz where the 100 fs
    # pulse's closed-form half spectrum passes 1e-12 of its peak: 0.394 of the n/2 + 1 = 262,145 bins of nu >= 0;
    # the input holds 133,344 bins, down to 1e-20 of its peak
    sizes = []
    h = zapsim.medium.transfer_function

    def spy(*args, **kwargs):
        out = h(*args, **kwargs)
        sizes.append(out.amp.size)
        return out

    monkeypatch.setattr(zapsim.medium, "transfer_function", spy)
    assert main(["xcorr", "--out", str(tmp_path)]) == 0
    spec_in = zapsim.runners._input_lo(ScenarioConfig())
    assert sizes == [103_288] * 5
    assert (spec_in.band, spec_in.amp.size) == (103_288, 133_344)


# tracemalloc peaks of one default run after a warm-up run, as measured and rounded up, with the slack of the tests
# above (16 KiB): 10.84 MiB for either delay scan (12.79 MiB while the input's spectrum was the rfft of the sampled
# pulse's unit-energy copy, 4 MiB each, and 18.1 MiB while the transmitted spectra held all n/2 + 1 bins), 14.83 MiB
# for depth-scan (16.8 MiB with the sampled input, 19.0 MiB while each shaped LO held n samples, 23.9 MiB before
# that) and 22.1 MiB for propagate (30.6 MiB while the pulse and the time axis stayed alive through its transforms)
DEFAULT_PEAK_MIB = {"xcorr": 10.84, "eta-scan": 10.84, "depth-scan": 14.83, "propagate": 22.1}


@pytest.mark.parametrize("verb", sorted(DEFAULT_PEAK_MIB))
def test_default_run_peak_memory(tmp_path, verb):
    args = [verb, "--out", str(tmp_path)]
    assert main(args) == 0
    tracemalloc.start()
    try:
        assert main(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= DEFAULT_PEAK_MIB[verb] * 2**20 + 16 * 1024
