"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Everything runs on the production default grid (2^19 samples,
10 fs step).
"""

import time

import numpy as np
import pytest
from scipy.integrate import quad

from zapsim import (
    GridAdequacyWarning,
    HeraldedState,
    MediumParams,
    ShaperConfig,
    energy_transmission,
    estimate_eta,
    eta_curve,
    is_nonclassical,
    max_shaped_eta,
    max_unshaped_eta,
    normalize,
    peak_eta,
    propagate,
    pulse_area,
    pulse_energy,
    quadrature_pdf,
    sample_quadratures,
    temperature_presets,
    to_spectrum,
    to_time,
    transfer_function,
    visibility_curve,
    wigner,
)
from zapsim.cli import main as cli_main

from conftest import real_field

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

LN2 = np.log(2.0)
ETA_BASE = 0.62
PRESETS = temperature_presets()

# Derived regression baselines, computed once from this pipeline at the
# default grid and frozen (quadrature oracle cross-checks the first).
PRESET3_TRANSMISSION = 0.986893760072331
PRESET4_SHAPED_ETA = 0.558428642716
PRESET1_SHAPED_ETA = 0.599703466713
PRESET1_UNSHAPED_ETA = 0.587984051564


def report(num: int, label: str) -> None:
    print(f"ACCEPTANCE {num} ({label}): PASS")


def lobe_structure(xs, ys, threshold_frac=0.03):
    """Split a scan into above-threshold lobes separated by sub-threshold nulls.

    Returns (lobes, nulls): lobes as (onset_x, peak_x, peak_y) for each
    above-threshold excursion after the first null, nulls as their boundary
    abscissae.
    """
    th = threshold_frac * ys.max()
    above = ys > th
    lobes, nulls = [], []
    k = int(np.argmax(ys))
    # walk right from the global peak
    i = k
    n = len(ys)
    while i < n:
        # descend into a null
        while i < n and above[i]:
            i += 1
        if i >= n:
            break
        nulls.append(xs[i])
        while i < n and not above[i]:
            i += 1
        if i >= n:
            break
        onset = xs[i]
        j = i
        while j < n and above[j]:
            j += 1
        seg = slice(i, j)
        peak = int(np.argmax(ys[seg])) + i
        lobes.append((onset, xs[peak], ys[peak]))
        i = j
    return lobes, nulls


@pytest.fixture(scope="module")
def setup(default_grid, default_pulse, default_mode, default_mode_spec):
    return default_grid, default_pulse, default_mode, default_mode_spec


def test_criterion_1_area_theorem(setup):
    grid, pulse, mode, spec = setup
    area_in_time = pulse_area(mode)
    # untimed warm-up: first transform at this size builds the FFT plan cache
    to_time(propagate(spec, MediumParams(depth=1.0, t2=270e-12)))
    for depth in (0.5, 1.0, 5.0, 20.0):
        start = time.perf_counter()
        params = MediumParams(depth=depth, t2=270e-12)
        out_spec = propagate(spec, params)
        # the pulse area is the zero-detuning spectral sample; reading it
        # there keeps the ratio exact where the time-domain sum would lose
        # digits to cancellation at high depth
        ratio = out_spec.amp[0] / spec.amp[0]
        target = np.exp(-depth)
        assert abs(ratio - target) < 1e-9 * target
        time_ratio = pulse_area(to_time(out_spec)) / area_in_time
        if depth <= 5.0:
            assert abs(time_ratio - target) < 1e-9 * target
        else:
            assert abs(time_ratio - target) < 1e-9
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"depth {depth} case took {elapsed:.2f} s"
    report(1, "area theorem e^-depth, < 1 s per case")


def test_criterion_2_transform_fidelity_and_causality(setup):
    grid, _, _, _ = setup
    f = real_field(grid, seed=20)
    back = to_time(to_spectrum(f))
    rms = np.sqrt(np.mean(np.abs(back.amp - f.amp) ** 2))
    ref = np.sqrt(np.mean(np.abs(f.amp) ** 2))
    assert rms / ref < 1e-12

    assert pulse_energy(to_spectrum(f)) == pytest.approx(pulse_energy(f), rel=1e-12)

    filt = transfer_function(grid, MediumParams(depth=0.5, t2=280e-12))
    h = np.abs(to_time(filt).amp)
    peak = h.max()
    assert int(np.argmax(h)) == 0
    pre_pulse = h[grid.n // 2 : -1]  # negative times, one grid step allowed
    assert pre_pulse.max() < 1e-6 * peak
    report(2, "round trip 1e-12, Parseval 1e-12, causal response")


def test_criterion_3_negligible_absorption_strong_reshaping(setup):
    grid, pulse, mode, spec = setup
    params = PRESETS[2].params
    assert params.depth == 440.0 and params.t2 == pytest.approx(270e-12)

    t_e = energy_transmission(spec, params)
    assert t_e > 0.9
    assert t_e == pytest.approx(PRESET3_TRANSMISSION, rel=1e-6)

    # independent adaptive-quadrature oracle over the closed-form spectrum
    dnu = 2.0 * LN2 / (np.pi * 100e-15)
    weight = lambda nu: np.exp(-4.0 * LN2 * (nu / dnu) ** 2)
    transmitted = lambda nu: weight(nu) * np.abs(
        np.exp(-params.depth / (1.0 - 2j * np.pi * nu * params.t2))
    ) ** 2
    hole = np.sqrt(2.0 * params.depth) / (2.0 * np.pi * params.t2)
    num, _ = quad(transmitted, -6 * dnu, 6 * dnu, points=[-5 * hole, 0.0, 5 * hole],
                  limit=800, epsabs=0.0, epsrel=1e-12)
    den, _ = quad(weight, -6 * dnu, 6 * dnu, limit=200, epsabs=0.0, epsrel=1e-12)
    assert t_e == pytest.approx(num / den, rel=1e-6)

    sig = to_time(propagate(spec, params))
    delays = np.arange(-0.2e-12, 4.0001e-12, 10e-15)
    curve = visibility_curve(sig, pulse, delays)
    lobes, nulls = lobe_structure(curve.xs, curve.ys)
    secondary = [l for l in lobes if l[0] <= 4e-12]
    assert len(secondary) >= 2, f"found lobes {lobes} with nulls {nulls}"
    assert len(nulls) >= 2
    assert nulls[0] < secondary[0][0] < nulls[1] < secondary[1][0]
    report(3, "preset 3: T_E > 0.9 yet >= 2 lobed visibility within 4 ps")


def test_criterion_4_lobe_crossover_at_highest_depth(setup):
    grid, pulse, mode, spec = setup
    params = PRESETS[4].params
    assert params.depth == 2200.0

    delays = np.arange(-0.5e-12, 8.0001e-12, 10e-15)
    curve = eta_curve(pulse, params, pulse, ETA_BASE, delays)
    tau_star, eta_star = peak_eta(curve)
    eta_unperturbed = curve.ys[int(np.argmin(np.abs(curve.xs)))]

    assert tau_star > 0.1e-12, "maximum should sit away from the unperturbed peak"
    assert eta_star > eta_unperturbed

    # the winning delay coincides with a secondary lobe of the field envelope
    out = normalize(to_time(propagate(spec, params)))
    env = np.abs(out.amp)
    center = grid.window / 8.0
    sel = (grid.t > center + 0.05e-12) & (grid.t < center + 8e-12)
    tt, ee = grid.t[sel], env[sel]
    lobe_times = [
        tt[k] - center
        for k in range(1, len(ee) - 1)
        if ee[k] >= ee[k - 1] and ee[k] > ee[k + 1] and ee[k] > 0.02 * env.max()
    ]
    assert min(abs(tau_star - lt) for lt in lobe_times) < 150e-15
    report(4, "preset 5: unshaped maximum moves to a secondary lobe")


def test_criterion_5_shaping_recovery(setup):
    grid, pulse, mode, spec = setup
    cfg = ShaperConfig()  # 0.6 nm at 780 nm
    shaped, unshaped = [], []
    for preset in PRESETS:
        shaped.append(max_shaped_eta(pulse, preset.params, cfg, ETA_BASE))
        unshaped.append(max_unshaped_eta(pulse, preset.params, ETA_BASE))

    for s, u in zip(shaped, unshaped):
        assert s >= u - 1e-12
    assert all(a >= b for a, b in zip(shaped, shaped[1:])), shaped
    assert shaped[3] > 0.5
    assert shaped[3] == pytest.approx(PRESET4_SHAPED_ETA, rel=1e-6)

    # low-depth limit: the first row stays near eta_base (frozen baselines)
    assert shaped[0] == pytest.approx(PRESET1_SHAPED_ETA, rel=1e-6)
    assert unshaped[0] == pytest.approx(PRESET1_UNSHAPED_ETA, rel=1e-6)
    assert unshaped[0] > unshaped[1]

    ideal = ShaperConfig(resolution_fwhm=1e-18, span=None)
    params = PRESETS[2].params
    cap = ETA_BASE * energy_transmission(spec, params)
    assert max_shaped_eta(pulse, params, ideal, ETA_BASE) == pytest.approx(cap, abs=1e-6)
    report(5, "shaped >= unshaped, non-increasing, ideal limit = eta_base*T_E")


def test_criterion_6_wigner_identities():
    for eta in (0.0, 0.5, 0.62, 1.0):
        state = HeraldedState(eta)
        expected = (1.0 - 2.0 * eta) / np.pi
        assert abs(wigner(state, 0.0, 0.0) - expected) <= 1e-12
        assert is_nonclassical(state) == (eta > 0.5)
        assert (wigner(state, 0.0, 0.0) < 0.0) == (eta > 0.5)

    xs = np.linspace(-6.0, 6.0, 601)
    for eta in (0.0, 0.62, 1.0):
        state = HeraldedState(eta)
        w = wigner(state, xs[:, None], xs[None, :])
        total = np.trapezoid(np.trapezoid(w, xs, axis=1), xs)
        assert total == pytest.approx(1.0, abs=1e-6)
        for x in (-1.5, 0.0, 0.7, 2.0):
            marg, _ = quad(lambda p: wigner(state, x, p), -np.inf, np.inf)
            assert marg == pytest.approx(quadrature_pdf(state, x), abs=1e-6)
    report(6, "Wigner origin/negativity/normalization/marginal identities")


def test_criterion_7_estimator_consistency():
    start = time.perf_counter()
    for k, eta in enumerate((0.0, 0.25, 0.5, 0.62, 1.0)):
        sample = sample_quadratures(HeraldedState(eta), 10**5, seed=1000 + k)
        est = estimate_eta(sample)
        assert abs(est.eta_hat - eta) < 3.0 * est.stderr, (eta, est)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"estimator run took {elapsed:.2f} s"
    report(7, "moment estimator within 3 sigma at n = 1e5, < 5 s")


def test_criterion_8_cli_determinism(tmp_path):
    scenario = tmp_path / "scenario.cfg"
    scenario.write_text(
        "grid.n = 16384\ngrid.dt_fs = 10\n"
        "medium.depth = 30\nmedium.t2_ps = 1\n"
        "scan.delay_min_ps = -0.2\nscan.delay_max_ps = 0.8\nscan.delay_steps = 51\n"
        "sampling.n_samples = 2000\nwigner.n_side = 15\n",
        encoding="utf-8",
    )
    out = tmp_path / "out"
    snapshots = []
    for _ in range(2):
        for verb in ("xcorr", "eta-scan", "depth-scan", "wigner", "sample"):
            args = [verb, "--config", str(scenario), "--out", str(out)]
            if verb == "wigner":
                args.append("--from-samples")
            assert cli_main(args) == 0
        snapshots.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert snapshots[0].keys() == snapshots[1].keys()
    for name in snapshots[0]:
        assert snapshots[0][name] == snapshots[1][name], f"{name} differs across runs"
    report(8, "byte-identical CLI outputs across reruns")
