"""Grid-free reference values for what a default depth-scan prints.

For the Gaussian input pulse E(t) = exp(-2 ln2 t^2 / T^2) the spectral weight
w(nu) = |F(nu)|^2 is proportional to exp(-pi^2 T^2 nu^2 / ln2), and with the
input pulse as LO

    eta_unshaped = eta_base * max_tau [ int w Re(H e^{-2 pi i nu tau}) dnu / int w ]^2,
    T_E          = int w |H|^2 dnu / int w,

over nu >= 0, where H(nu) = exp[-depth / (1 - 2 pi i nu T2)].  These need no
time grid: ``scipy.integrate.quad`` evaluates them, with breakpoints at
multiples of the spectral hole's width sqrt(2 depth) / (2 pi T2), where
Re(H) oscillates fastest.  The best delay is bracketed by the peak of a
lattice scan of even lags near 0 (``delay_overlaps``) and refined by a
bounded scalar search on the quadrature itself.  A grid whose window wraps
the media's tails prints values off by more, and by no more than the wrap
bound that its sidecar warns of.

The transmitted field itself has a grid-free form in time.  The line's
impulse response is h = delta - k with

    k(s) = exp(-s/T2) a 2 J1(x)/x,    x = 2 sqrt(a s),  a = depth / T2,

(M. D. Crisp, Phys. Rev. A 1, 1604 (1970)), finite at s = 0, so
E_T(t) = E_in(t) - int_0^inf E_in(t - s) k(s) ds.  Gauss-Legendre nodes over
the input's times within 8 FWHM of its peak evaluate it with no transform,
which checks the sign, scale and time origin of the transform pair.

The same rule gives eta_shaped with no grid.  The shaper's LO is E_T times
the resolution window w, a Gaussian in time, and with a pixel of width P
times the box's sinc(pi P t), both centred on a time t_w: the peak t_c of E_T,
which ``brentq`` on E_T' (formed by the same rule from E_in') finds, or the
dt-lattice sample of largest |E_T|, where the shaper centres them.  With
u = t - t0 over t_w +- 15 ps and ||E_T||^2 = T_E ||E_in||^2,

    eta_shaped = eta_base * max_tau (int E_T(u) w(u - t_w) E_T(u + tau) du)^2
                 / (int (E_T w)^2 du * int E_in^2 du),

w including the sinc, the delay found by a bounded scalar search within
+-200 fs.  E_T(u + tau) is the response to the input moved earlier by tau,
so the kernel's nodes are formed once.  The shaper's 60 nm span is left out
of this model.
"""

import functools
import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar
from scipy.special import j1

import zapsim.shaper
from zapsim import GridAdequacyWarning, normalize, to_spectrum, transmit
from zapsim.cli import main
from zapsim.config import ScenarioConfig, apply_overrides
from zapsim.medium import _wrap_error
from zapsim.modes import delay_overlaps

CFG = ScenarioConfig()
# a 10 ps window, which wraps every preset's tail
COARSE = ["grid.n=1024", "scan.delay_min_ps=-1", "scan.delay_max_ps=1", "scan.delay_steps=11"]
# breakpoints at the first this many multiples of the hole width; beyond them the phase of H varies slowly
HOLE_WIDTHS = 32
# Gauss-Legendre rule of the time-domain referees: 16 nodes per panel, this many panels over the input's
# times within 8 FWHM of its peak and over the shaped LO's within LO_REACH_FS of its centre
NODES, WEIGHTS = np.polynomial.legendre.leggauss(16)
INPUT_PANELS, LO_PANELS = 60, 120
LO_REACH_FS = 15000.0  # the resolution window is below e^-70 beyond
DELAY_BOUND_FS = 200.0
# eta_shaped of presets 1-5 at the default config, grid-free
SHAPED_ETA = [0.599699156709, 0.591671715432, 0.581275812520, 0.558391428836, 0.532756044716]


class Reference:
    """The quadratures for one medium of depth ``depth`` and coherence time ``t2`` (s)."""

    def __init__(self, depth: float, t2: float):
        fwhm = CFG.pulse_fwhm_fs * 1e-15
        self.depth, self.t2 = depth, t2
        self.rate = math.pi**2 * fwhm**2 / math.log(2.0)  # w = exp(-rate * nu^2)
        self.top = math.sqrt(60.0 / self.rate)  # w < e^-60 beyond
        hole = math.sqrt(2.0 * depth) / (2.0 * math.pi * t2)
        self.edges = [0.0, *(k * hole for k in range(1, HOLE_WIDTHS + 1) if k * hole < self.top), self.top]
        # each piece to 1e-14 of int w = sqrt(pi / rate) / 2 absolute: a piece where Re(H) oscillates cancels
        # too far for a relative bound alone
        self.tol = 0.5e-14 * math.sqrt(math.pi / self.rate)
        self.total = self.integral(lambda nu: math.exp(-self.rate * nu * nu))

    def integral(self, f) -> float:
        pieces = zip(self.edges, self.edges[1:])
        return sum(quad(f, a, b, epsabs=self.tol, epsrel=1e-13, limit=200)[0] for a, b in pieces)

    def log_h(self, nu: float) -> tuple[float, float]:
        """log H(nu) = -depth (1 + i x) / (1 + x^2), x = 2 pi nu T2, as (real, imaginary)."""
        x = 2.0 * math.pi * nu * self.t2
        scale = -self.depth / (1.0 + x * x)
        return scale, scale * x

    def overlap(self, tau: float) -> float:
        """<lo(tau)|out> of the unit-energy input LO with the transmitted field, per unit input energy."""

        def f(nu):
            re, im = self.log_h(nu)
            return math.exp(re - self.rate * nu * nu) * math.cos(im - 2.0 * math.pi * nu * tau)

        return self.integral(f) / self.total

    def transmission(self) -> float:
        return self.integral(lambda nu: math.exp(2.0 * self.log_h(nu)[0] - self.rate * nu * nu)) / self.total

    def eta_unshaped(self, tau0: float, dt: float) -> float:
        best = minimize_scalar(
            lambda tau: -self.overlap(tau) ** 2, bounds=(tau0 - 2.0 * dt, tau0 + 2.0 * dt), method="bounded",
            options={"xatol": 1e-22},
        )
        return CFG.detection_eta_base * -best.fun


def depth_scan(out, settings=()) -> dict:
    """The rows of a depth-scan's CSV, by preset label."""
    assert main(["depth-scan", "--out", str(out), *(arg for value in settings for arg in ("--set", value))]) == 0
    lines = [l for l in (out / "efficiency_vs_depth.csv").read_text().splitlines() if not l.startswith("#")]
    names = lines[0].split(",")
    return {row[0]: dict(zip(names[1:], map(float, row[1:]))) for row in (l.split(",") for l in lines[1:])}


def lattice_peak(params) -> float:
    """The best of a default-grid lattice scan of even lags, -1 ps to 8 ps: the start of the delay search."""
    grid = CFG.make_grid()
    spec = to_spectrum(normalize(CFG.make_pulse(grid)))
    delays = np.arange(-50, 401) * 2.0 * grid.dt
    overlaps = delay_overlaps(spec, transmit(spec, params).spectrum, delays)
    return delays[int(np.argmax(overlaps**2))]


@pytest.fixture(scope="module")
def printed_with(tmp_path_factory):
    """The rows of a depth-scan's CSV with the given settings, by preset label, each run once."""
    runs = {}

    def rows(*settings):
        if settings not in runs:
            runs[settings] = depth_scan(tmp_path_factory.mktemp("depth"), settings)
        return runs[settings]

    return rows


@pytest.fixture(scope="module")
def printed(printed_with):
    """The rows of a default depth-scan's CSV, by preset label."""
    return printed_with()


@pytest.mark.parametrize("index", range(5))
def test_default_depth_scan_matches_the_quadrature(printed, index):
    entry = CFG.media()[index]
    ref = Reference(entry.params.depth, entry.params.t2)
    eta = ref.eta_unshaped(lattice_peak(entry.params), CFG.make_grid().dt)
    row = printed[entry.label]
    assert row["eta_unshaped"] == pytest.approx(eta, abs=1e-11, rel=0.0)
    assert row["transmission"] == pytest.approx(ref.transmission(), abs=1e-11, rel=0.0)


def test_wrapped_depth_scan_is_off_by_at_most_its_warned_bound(tmp_path):
    # preset 2 prints eta_unshaped 0.554076 for 0.540064 and preset 1 T_E 0.978898 for 0.994946: each medium's
    # sidecar carries the one wrap warning, and the bound it names covers the miss, eta_shaped's too
    rows = depth_scan(tmp_path, COARSE)
    cfg = apply_overrides(CFG, COARSE)
    spec = to_spectrum(normalize(cfg.make_pulse(cfg.make_grid())))
    sidecar = (tmp_path / "efficiency_vs_depth_params.txt").read_text(encoding="utf-8").split("\n[")[2:]
    for index, (entry, body) in enumerate(zip(cfg.media(), sidecar, strict=True)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GridAdequacyWarning)
            bound = _wrap_error(spec.grid, entry.params, spec.amp[0].real, spec.energy)
        notes = [line.removeprefix("warning = ") for line in body.splitlines() if line.startswith("warning = ")]
        assert notes == [str(caught[0].message)]
        ref = Reference(entry.params.depth, entry.params.t2)
        row = rows[entry.label]
        assert abs(row["eta_unshaped"] - ref.eta_unshaped(lattice_peak(entry.params), cfg.make_grid().dt)) <= bound
        assert abs(row["transmission"] - ref.transmission()) <= bound
        assert abs(row["eta_shaped"] - shaped_referee(index, peak_times(index)[1])) <= bound


def scan_rows(out, verb: str, stem: str, column: str) -> dict:
    """``column`` of a default ``verb`` run at the delays ``SCAN_ROWS``, by preset label."""
    assert main([verb, "--out", str(out)]) == 0
    rows = {}
    for entry in CFG.media():
        lines = [l for l in (out / f"{stem}_{entry.label}.csv").read_text().splitlines() if not l.startswith("#")]
        k = lines[0].split(",").index(column)
        rows[entry.label] = [float(lines[1 + i].split(",")[k]) for i in SCAN_ROWS]
    return rows


# rows of the default scan's 451 delays: -1, 0, +0.02, +4 and +8 ps, the peak, its neighbour and the tail
SCAN_ROWS = [0, 50, 51, 250, 450]


def test_default_scans_match_the_quadrature(tmp_path):
    # the unit-energy output mode's overlap with the delayed LO is ov / sqrt(T_E), ov the overlap per unit
    # input energy: xcorr prints |ov| / sqrt(T_E) and eta-scan eta_base * ov^2
    visibility = scan_rows(tmp_path / "xcorr", "xcorr", "xcorr", "visibility")
    eta = scan_rows(tmp_path / "eta", "eta-scan", "eta_scan", "eta")
    delays = CFG.delays()[SCAN_ROWS]
    for entry in CFG.media():
        ref = Reference(entry.params.depth, entry.params.t2)
        ov = np.array([ref.overlap(tau) for tau in delays])
        want_vis = np.abs(ov) / math.sqrt(ref.transmission())
        assert visibility[entry.label] == pytest.approx(want_vis, abs=1e-11, rel=0.0), entry.label
        assert eta[entry.label] == pytest.approx(CFG.detection_eta_base * ov**2, abs=1e-11, rel=0.0), entry.label


def crisp_kernel(s: np.ndarray, depth: float, t2: float) -> np.ndarray:
    """k(s) = exp(-s/T2) a 2 J1(x)/x, x = 2 sqrt(a s), a = depth/T2, for s >= 0; 2 J1(x)/x is 1 at x = 0."""
    a = depth / t2
    x = 2.0 * np.sqrt(a * s)
    ratio = np.divide(2.0 * j1(x), x, out=np.ones_like(x), where=x > 0.0)
    return a * np.exp(-s / t2) * ratio


def panels(start, stop, count: int):
    """Nodes and weights of ``count`` equal Gauss-Legendre panels over [start, stop], for arrays of ends: each of
    shape start.shape + (16 * count,)."""
    edges = np.linspace(start, stop, count + 1, axis=-1)
    half = 0.5 * np.diff(edges, axis=-1)[..., None]
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])[..., None]
    shape = np.shape(start) + (-1,)
    return (mid + half * NODES).reshape(shape), (half * WEIGHTS).reshape(shape)


def envelope(u, slope: bool = False):
    """E_in(u) = exp(-2 ln2 u^2 / FWHM^2) at times u (fs) from its peak, or with ``slope`` its derivative."""
    fwhm = CFG.pulse_fwhm_fs
    value = np.exp(-2.0 * math.log(2.0) * (u / fwhm) ** 2)
    return -4.0 * math.log(2.0) * u / fwhm**2 * value if slope else value


class Impulse:
    """E_T(u) = E_in(u) - int_0^inf E_in(u - s) k(s) ds of one medium at the times u (fs from the input's peak):
    the input times r = u - s and the weights times k(s) of the rule over s >= 0 within 8 FWHM of the input's
    peak, formed once."""

    def __init__(self, u: np.ndarray, depth: float, t2: float):
        fwhm = CFG.pulse_fwhm_fs
        start = np.maximum(u - 8.0 * fwhm, 0.0)
        s, w = panels(start, np.maximum(u + 8.0 * fwhm, start), INPUT_PANELS)
        self.u, self.r, self.wk = u, u[..., None] - s, w * crisp_kernel(s, depth, t2 * 1e15)

    def field(self, tau: float = 0.0, slope: bool = False) -> np.ndarray:
        """E_T(u + tau), or with ``slope`` E_T'(u + tau): the response to the input moved earlier by tau."""
        return envelope(self.u + tau, slope) - np.sum(self.wk * envelope(self.r + tau, slope), axis=-1)


@functools.cache
def peak_times(index: int) -> tuple[float, float]:
    """(the dt-lattice sample of largest |E_T|, the root t_c of E_T' within dt of it) of the default config's
    preset ``index``, in fs from the input's peak."""
    params, dt = CFG.media()[index].params, CFG.grid_dt_fs
    lattice = Impulse(np.arange(-30, 31) * dt, params.depth, params.t2)
    peak = float(lattice.u[int(np.argmax(np.abs(lattice.field())))])
    t_c = brentq(lambda t: Impulse(np.array([t]), params.depth, params.t2).field(slope=True)[0], peak - dt, peak + dt)
    return peak, t_c


@functools.cache
def shaped_referee(index: int, centre: float, pixel_hz: float | None = None) -> float:
    """eta_shaped of the default config's preset ``index`` with the LO E_T times the resolution window centred
    ``centre`` fs from the input's peak and, for a pixel ``pixel_hz`` wide, times the box's sinc centred there."""
    params = CFG.media()[index].params
    u, weights = panels(centre - LO_REACH_FS, centre + LO_REACH_FS, LO_PANELS)
    out = Impulse(u, params.depth, params.t2)
    dnu = CFG.shaper_config().resolution_fwhm_hz
    lo = out.field() * np.exp(-((math.pi * dnu * (u - centre) * 1e-15) ** 2) / (4.0 * math.log(2.0)))
    if pixel_hz is not None:
        lo *= np.sinc(pixel_hz * (u - centre) * 1e-15)
    norm = np.sum(weights * lo * lo) * CFG.pulse_fwhm_fs * math.sqrt(math.pi / (4.0 * math.log(2.0)))
    lo *= weights
    best = minimize_scalar(
        lambda tau: -np.dot(lo, out.field(tau)) ** 2, bounds=(-DELAY_BOUND_FS, DELAY_BOUND_FS), method="bounded",
        options={"xatol": 1e-7},
    )
    return CFG.detection_eta_base * -best.fun / norm


@pytest.mark.parametrize("index", [0, 2, 4])
def test_transmitted_field_matches_the_impulse_response(index):
    # E_T on the default grid, at about 350 times from -5 ps to +20 ps of the input's peak sample, against
    # the convolution with the closed-form response: they agree to about 1e-12 of the peak, while a sign,
    # scale or time-origin slip in the transform pair, or one sample of shift, shows far above 1e-11
    grid = CFG.make_grid()
    pulse = normalize(CFG.make_pulse(grid))
    centre = int(np.argmax(pulse.amp))
    lags = np.arange(-500, 2001, 7)
    params = CFG.media()[index].params
    field = transmit(to_spectrum(pulse), params).field.amp[centre + lags]
    want = pulse.amp[centre] * Impulse(lags * CFG.grid_dt_fs, params.depth, params.t2).field()
    assert np.max(np.abs(field - want)) <= 1e-11 * np.max(np.abs(want))


@pytest.mark.parametrize("index", range(5))
def test_default_depth_scan_shaped_matches_the_referee(printed, index):
    # the shaper centres its window on the sample nearest t_c, up to dt/2 from it, so the printed eta_shaped
    # carries the whole-sample centre's error, up to 1.0e-4 (preset 5), and is held at 1.5e-4; centring the window
    # at t_c itself would hold it at 1e-9
    eta = shaped_referee(index, peak_times(index)[1])
    assert eta == pytest.approx(SHAPED_ETA[index], abs=1e-10, rel=0.0)
    assert printed[CFG.media()[index].label]["eta_shaped"] == pytest.approx(eta, abs=1.5e-4, rel=0.0)


def test_window_centres_are_the_samples_nearest_the_peak(monkeypatch, tmp_path):
    # a default depth-scan centres each medium's window on the sample nearest the referee's t_c: -0.893097,
    # -2.304326, -5.549113, -12.037115 and +135.784657 fs from the input's peak sample, 0, 0, -1, -1 and +14
    # samples from it (preset 5 peaks on its negative lobe)
    centres = []
    window = zapsim.shaper._resolution_window

    def recorded(grid, k_center, *args):
        centres.append(k_center)
        return window(grid, k_center, *args)

    monkeypatch.setattr(zapsim.shaper, "_resolution_window", recorded)
    depth_scan(tmp_path)
    start = int(np.argmax(CFG.make_pulse(CFG.make_grid()).amp))
    peaks = [peak_times(index)[1] for index in range(5)]
    assert peaks == pytest.approx([-0.893097, -2.304326, -5.549113, -12.037115, 135.784657], abs=1e-6, rel=0.0)
    offsets = [round(t_c / CFG.grid_dt_fs) for t_c in peaks]
    assert offsets == [0, 0, -1, -1, 14]
    assert centres == [start + offset for offset in offsets] == [65536, 65536, 65535, 65535, 65550]


@pytest.mark.parametrize("pixel_nm", [None, 0.5, 2.0, 3.0])
def test_depth_scan_shaped_matches_the_sample_centred_referee(printed_with, pixel_nm):
    # the referee's window and sinc centred on the lattice sample, as the shaper centres them: the printed
    # eta_shaped is the referee's to 9e-13 with or without a pixel, as the box is the sinc of its own width; a
    # box rounded to whole bins misses it by up to 5.0e-6 at 0.5-3 nm
    settings = () if pixel_nm is None else (f"shaper.pixel_nm={pixel_nm}",)
    rows = printed_with(*settings)
    pixel_hz = apply_overrides(CFG, settings).shaper_config().pixel_width_hz
    for index, entry in enumerate(CFG.media()):
        eta = shaped_referee(index, peak_times(index)[0], pixel_hz)
        assert rows[entry.label]["eta_shaped"] == pytest.approx(eta, abs=1e-9, rel=0.0), entry.label


def test_pixel_depth_scan_converges_with_the_grid(printed_with):
    # a 2 nm pixel is 2,583.458 bins at 2^19 samples and half as many at 2^18: at its own width on both grids,
    # every preset's eta_shaped agrees to 6.3e-9, where a box rounded to whole bins moves it by 1.4e-5
    fine = printed_with("shaper.pixel_nm=2")
    coarse = printed_with("shaper.pixel_nm=2", f"grid.n={CFG.grid_n // 2}")
    for entry in CFG.media():
        assert coarse[entry.label]["eta_shaped"] == pytest.approx(fine[entry.label]["eta_shaped"], abs=1e-7, rel=0.0)
