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
the input's times within 6 FWHM of its peak evaluate it with no transform,
which checks the sign, scale and time origin of the transform pair.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import minimize_scalar
from scipy.special import j1

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
# Gauss-Legendre rule of the time-domain referee: nodes per panel and panels over the input pulse
NODES, WEIGHTS = np.polynomial.legendre.leggauss(32)
PANELS = 8


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
def printed(tmp_path_factory):
    """The rows of a default depth-scan's CSV, by preset label."""
    return depth_scan(tmp_path_factory.mktemp("depth"))


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
    # sidecar carries the one wrap warning, and the bound it names covers the miss
    rows = depth_scan(tmp_path, COARSE)
    cfg = apply_overrides(CFG, COARSE)
    spec = to_spectrum(normalize(cfg.make_pulse(cfg.make_grid())))
    sidecar = (tmp_path / "efficiency_vs_depth_params.txt").read_text(encoding="utf-8").split("\n[")[2:]
    for entry, body in zip(cfg.media(), sidecar, strict=True):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", GridAdequacyWarning)
            bound = _wrap_error(spec.grid, entry.params, spec.amp[0].real, spec.energy)
        notes = [line.removeprefix("warning = ") for line in body.splitlines() if line.startswith("warning = ")]
        assert notes == [str(caught[0].message)]
        ref = Reference(entry.params.depth, entry.params.t2)
        row = rows[entry.label]
        assert abs(row["eta_unshaped"] - ref.eta_unshaped(lattice_peak(entry.params), cfg.make_grid().dt)) <= bound
        assert abs(row["transmission"] - ref.transmission()) <= bound


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


def referee_field(times: np.ndarray, peak: float, depth: float, t2: float) -> np.ndarray:
    """E_T(t) = E_in(t) - int_0^inf E_in(t - s) k(s) ds for E_in(u) = peak exp(-2 ln2 u^2 / FWHM^2), at times t
    from its peak: Gauss-Legendre over the input times u = t - s within 6 FWHM of the peak and before t."""
    fwhm = CFG.pulse_fwhm_fs * 1e-15

    def env(u):
        return peak * np.exp(-2.0 * math.log(2.0) * (u / fwhm) ** 2)

    out = env(times)
    for i, t in enumerate(times):
        start, stop = -6.0 * fwhm, min(t, 6.0 * fwhm)
        if stop <= start:
            continue
        edges = np.linspace(start, stop, PANELS + 1)
        half, mid = 0.5 * np.diff(edges)[:, None], 0.5 * (edges[1:] + edges[:-1])[:, None]
        u = (mid + half * NODES).ravel()
        out[i] -= np.sum((half * WEIGHTS).ravel() * env(u) * crisp_kernel(t - u, depth, t2))
    return out


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
    want = referee_field(lags * grid.dt, pulse.amp[centre], params.depth, params.t2)
    assert np.max(np.abs(field - want)) <= 1e-11 * np.max(np.abs(want))
