import warnings
from dataclasses import replace

import numpy as np
import pytest

import zapsim.runners

from zapsim import (
    GridAdequacyWarning,
    TemporalField,
    energy_transmission,
    eta_curve,
    normalize,
    propagate,
    to_spectrum,
    to_time,
    transmit,
    visibility_curve,
)
from zapsim.config import parse_config_text
from zapsim.fields import _norm
from zapsim.modes import _eta, delay_overlaps
from zapsim.quantum import HeraldedState, estimate_eta, sample_quadratures, wigner_grid
from zapsim.runners import (
    _fmt,
    _mixture_eta,
    _texts,
    _write_csv,
    run_efficiency_vs_depth,
    run_eta_scan,
    run_propagate,
    run_sample,
    run_wigner,
    run_xcorr,
)

from conftest import direct_overlaps, efficiencies

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")


def read_rows(path):
    lines = [l for l in path.read_text().splitlines() if l and not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def column(path, name):
    header, rows = read_rows(path)
    k = header.index(name)
    return np.array([float(r[k]) for r in rows])


@pytest.fixture(scope="module")
def preset_scan_cfg():
    # default grid, short scan to keep the preset runs quick
    return parse_config_text(
        "scan.delay_min_ps = -0.2\nscan.delay_max_ps = 6\nscan.delay_steps = 311\n"
    )


class TestXcorrStructure:
    def test_preset1_secondary_lobes_stay_small(self, preset_scan_cfg, tmp_path):
        from dataclasses import replace

        cfg = replace(preset_scan_cfg, medium_preset="1", output_directory=str(tmp_path))
        (path,) = run_xcorr(cfg, tmp_path)
        delays = column(path, "delay_ps")
        vis = column(path, "visibility_norm")
        tail = vis[delays > 0.5]
        assert vis.max() == pytest.approx(1.0, abs=1e-9)
        assert tail.max() < 0.25

    def test_preset5_lobes_extend_past_two_ps(self, preset_scan_cfg, tmp_path):
        from dataclasses import replace

        cfg = replace(preset_scan_cfg, medium_preset="5", output_directory=str(tmp_path))
        (path,) = run_xcorr(cfg, tmp_path)
        delays = column(path, "delay_ps")
        vis = column(path, "visibility_norm")
        assert vis[delays > 2.0].max() > 0.05

    def test_sidecar_records_diagnostics(self, preset_scan_cfg, tmp_path):
        from dataclasses import replace

        cfg = replace(preset_scan_cfg, medium_preset="1", output_directory=str(tmp_path))
        run_xcorr(cfg, tmp_path)
        sidecar = (tmp_path / "xcorr_params.txt").read_text()
        assert "[preset1]" in sidecar
        assert "grid.df_mhz" in sidecar


class TestEtaScanRunner:
    def test_no_medium_peaks_at_eta_base(self, tmp_path):
        cfg = parse_config_text(
            "grid.n = 65536\nmedium.depth = 0\nmedium.t2_ps = 1\n"
            "scan.delay_min_ps = -0.3\nscan.delay_max_ps = 0.3\nscan.delay_steps = 61\n"
        )
        (path,) = run_eta_scan(cfg, tmp_path)
        delays = column(path, "delay_ps")
        eta = column(path, "eta")
        k = int(np.argmax(eta))
        assert delays[k] == pytest.approx(0.0, abs=1e-9)
        assert eta[k] == pytest.approx(0.62, abs=1e-6)

    def test_zero_eta_base_curve_is_clamped(self, tmp_path):
        cfg = parse_config_text(
            "grid.n = 16384\nmedium.depth = 5\nmedium.t2_ps = 1\n"
            "detection.eta_base = 0\n"
            "scan.delay_min_ps = -0.1\nscan.delay_max_ps = 0.1\nscan.delay_steps = 11\n"
        )
        (path,) = run_eta_scan(cfg, tmp_path)
        assert np.all(column(path, "eta") == 0.0)
        assert np.all(column(path, "log_clamped") == 1.0)
        assert np.all(column(path, "log10_eta") == -12.0)


class TestWignerRunner:
    def test_low_eta_flagged_classical(self, tmp_path):
        cfg = parse_config_text("wigner.n_side = 11\nwigner.half_width = 3\n")
        run_wigner(replace(cfg, wigner_eta=0.2), tmp_path)
        summary = (tmp_path / "wigner_summary.txt").read_text()
        assert "nonclassical = 0" in summary
        assert "w_origin = 0.19" in summary  # (1 - 0.4)/pi = 0.1909...


class TestPropagateRunner:
    def test_envelope_window_and_area_ratio(self, tmp_path):
        cfg = parse_config_text(
            "grid.n = 65536\nmedium.depth = 10\nmedium.t2_ps = 2\n"
            "scan.delay_min_ps = -0.5\nscan.delay_max_ps = 2\nscan.delay_steps = 11\n"
        )
        (path,) = run_propagate(cfg, tmp_path)
        t_ps = column(path, "t_ps")
        assert t_ps[0] >= -0.5 - 1e-9
        assert t_ps[-1] <= 2.0 + 1e-9
        header = [l for l in path.read_text().splitlines() if l.startswith("#")]
        area_line = next(l for l in header if "area_ratio" in l)
        assert float(area_line.split("=")[1]) == pytest.approx(np.exp(-10.0), rel=1e-6)


class TestRunnersMatchLibrary:
    """The runners share the library's code, so they print the library's numbers."""

    @pytest.fixture(scope="class")
    def small_cfg(self):
        return parse_config_text("grid.n = 32768\nscan.delay_steps = 91\n")

    def test_depth_scan_matches_max_eta(self, small_cfg, tmp_path):
        (path,) = run_efficiency_vs_depth(small_cfg, tmp_path)
        pulse = small_cfg.make_pulse(small_cfg.make_grid())
        eta_base = small_cfg.detection_eta_base
        media = small_cfg.media()
        assert len(media) == 5
        for k, entry in enumerate(media):
            unshaped, shaped = efficiencies(pulse, entry.params, eta_base, small_cfg.shaper_config())
            t_e = energy_transmission(to_spectrum(normalize(pulse)), entry.params)
            # printed with 12 significant digits
            assert column(path, "eta_unshaped")[k] == float(f"{unshaped:.12g}")
            assert column(path, "eta_shaped")[k] == float(f"{shaped:.12g}")
            assert column(path, "transmission")[k] == pytest.approx(t_e, rel=1e-12)

    @staticmethod
    def written(monkeypatch):
        """The header and columns each runner hands to ``_write_csv``, by file name, before they are printed."""
        files = {}
        monkeypatch.setattr(
            zapsim.runners, "_write_csv", lambda path, header, names, columns: files.update({path.name: (header, columns)})
        )
        return files

    def test_propagate_matches_transmit(self, small_cfg, tmp_path, monkeypatch):
        # the runner's own complex transform pair, kept for its amp_im column, gives the library's real
        # transmitted field: amp_re and amp_abs to 1e-12 of the amp_abs peak, amp_im below that, and T_E as printed
        files = self.written(monkeypatch)
        run_propagate(small_cfg, tmp_path)
        pulse = normalize(small_cfg.make_pulse(small_cfg.make_grid()))
        t = pulse.grid.t
        center = t[int(np.argmax(np.abs(pulse.amp)))]
        sel = (t >= center + small_cfg.scan_delay_min_ps * 1e-12) & (t <= center + small_cfg.scan_delay_max_ps * 1e-12)
        for entry in small_cfg.media():
            out = transmit(to_spectrum(pulse), entry.params)
            want = out.field.amp[sel]
            header, (_, amp_abs, amp_re, amp_im) = files[f"propagated_{entry.label}.csv"]
            peak = amp_abs.max()
            assert np.max(np.abs(amp_re - want)) <= 1e-12 * peak
            assert np.max(np.abs(amp_abs - np.abs(want))) <= 1e-12 * peak
            assert np.max(np.abs(amp_im)) <= 1e-12 * peak
            assert f"transmission = {_fmt(out.transmission)}" in header

    @pytest.mark.parametrize("wrapped", [True, False], ids=["presets", "short-line"])
    def test_propagate_warns_as_transmit(self, small_cfg, tmp_path, wrapped):
        # the runner bounds the wrap from its input's area and energy, as transmit does: its sidecar lists
        # transmit's grid-adequacy warnings, medium by medium, one per medium whose tail wraps.  The presets'
        # responses wrap around this 328 ps window; a 1 ps line decays inside it
        cfg = small_cfg if wrapped else parse_config_text("grid.n = 32768\nmedium.depth = 30\nmedium.t2_ps = 1\n")
        run_propagate(cfg, tmp_path)
        sidecar = (tmp_path / "propagate_params.txt").read_text().splitlines()
        got = [line.removeprefix("warning = ") for line in sidecar if line.startswith("warning = ")]
        pulse = normalize(cfg.make_pulse(cfg.make_grid()))
        want = []
        for entry in cfg.media():
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", GridAdequacyWarning)
                transmit(to_spectrum(pulse), entry.params)
            want += [str(w.message) for w in caught]
        assert got == want
        assert len(want) == (5 if wrapped else 0) and all("widen the window" in text for text in want)

    @pytest.mark.parametrize("preset", ["1", "3", "5"])
    def test_library_chain_matches_xcorr(self, small_cfg, tmp_path, monkeypatch, preset):
        # to_spectrum gives a real field's half spectrum, so the chain from a mode through propagate and to_time
        # is real and scans as xcorr does; a complex field with a nonzero imaginary part is refused, and a
        # complex128 one with a zero imaginary part transforms to the bits of its float64 form
        cfg = replace(small_cfg, medium_preset=preset)
        files = self.written(monkeypatch)
        run_xcorr(cfg, tmp_path)
        pulse = cfg.make_pulse(cfg.make_grid())
        mode = normalize(pulse)
        (entry,) = cfg.media()
        curve = visibility_curve(to_time(propagate(to_spectrum(mode), entry.params)), pulse, cfg.delays())
        want = files[f"xcorr_{entry.label}.csv"][1][1]
        assert np.max(np.abs(curve.ys - want)) <= 1e-12 * want.max()
        with pytest.raises(ValueError, match="nonzero imaginary part"):
            to_spectrum(TemporalField(mode.grid, mode.amp * np.exp(0.3j)))
        widened = to_spectrum(TemporalField(mode.grid, mode.amp.astype(np.complex128)))
        assert np.array_equal(widened.amp.view(np.uint64), to_spectrum(mode).amp.view(np.uint64))

    def test_eta_scan_matches_eta_curve(self, small_cfg, tmp_path):
        # the printed eta is the library's chain on the closed-form input spectrum, bit for bit: transmit,
        # delay_overlaps and _eta, as the runner calls them; eta_curve, which transforms the sampled pulse,
        # agrees to 1e-12 of the peak
        cfg = replace(small_cfg, medium_preset="2,5")
        paths = run_eta_scan(cfg, tmp_path)
        pulse = cfg.make_pulse(cfg.make_grid())
        spec_in = zapsim.runners._input_lo(cfg)
        for path, entry in zip(paths, cfg.media()):
            out = transmit(spec_in, entry.params)
            overlaps = delay_overlaps(spec_in, out.spectrum, cfg.delays()) / _norm(out.spectrum)
            eta = _eta(cfg.detection_eta_base, out, np.abs(overlaps) ** 2)
            assert np.array_equal(column(path, "eta"), np.array([float(f"{y:.12g}") for y in eta]))
            curve = eta_curve(pulse, entry.params, pulse, cfg.detection_eta_base, cfg.delays())
            assert np.max(np.abs(curve.ys - eta)) <= 1e-12 * curve.ys.max()


class TestOffLatticeScans:
    """Scans off the dt lattice run on half spectra and still print the exact overlaps."""

    @staticmethod
    def exact(cfg, params):
        """(visibility, eta) by the direct sum over the full spectrum, one delay at a time."""
        grid = cfg.make_grid()
        lo_spec = to_spectrum(normalize(cfg.make_pulse(grid)))
        out = transmit(lo_spec, params)
        a = direct_overlaps(lo_spec, normalize(out.spectrum), cfg.delays())
        return np.abs(a), cfg.detection_eta_base * out.transmission * np.abs(a) ** 2

    @pytest.mark.parametrize(
        "scan",
        ["scan.delay_steps = 333\n", "scan.delay_min_ps = -0.9967\nscan.delay_max_ps = 8.0033\n"],
        ids=["off-lattice-step", "off-lattice-start"],
    )
    def test_xcorr_and_eta_scan_match_the_exact_sum(self, scan, tmp_path, monkeypatch):
        # the rows are taken before they are printed to 12 digits, which alone moves a value by up to
        # 5e-12 of it
        cfg = parse_config_text("grid.n = 32768\nmedium.preset = 1,5\n" + scan)
        written = {}
        monkeypatch.setattr(
            zapsim.runners, "_write_csv", lambda path, header, names, columns: written.update({path.name: list(columns)})
        )
        run_xcorr(cfg, tmp_path)
        run_eta_scan(cfg, tmp_path)
        for entry in cfg.media():
            vis, eta = self.exact(cfg, entry.params)
            got_vis = np.asarray(written[f"xcorr_{entry.label}.csv"][1])
            got_eta = np.asarray(written[f"eta_scan_{entry.label}.csv"][1])
            assert np.max(np.abs(got_vis - vis)) <= 1e-12 * vis.max()
            assert np.max(np.abs(got_eta - eta)) <= 1e-12 * eta.max()


class TestOnePassFormatting:
    """The one-pass writers print every value as the per-value formatter ``_fmt`` does."""

    @staticmethod
    def per_value(header, names, rows):
        """The file text written one ``_fmt`` call per value, row by row."""
        text = "".join(f"# {line}\n" for line in header) + ",".join(names) + "\n"
        return text + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)

    @pytest.mark.parametrize("nrows", [6, 1], ids=["table", "single-row"])
    def test_write_csv_matches_the_per_value_writer(self, nrows, tmp_path):
        floats = np.array([-0.0, 5e-324, 1e-300, 1.5e300, 0.1 + 0.2, 70.0])[:nrows]
        flags = np.array([True, False, False, True, True, False])[:nrows]
        labels = ["preset1", "preset2", "custom", "a b", "x%sy", "7"][:nrows]
        columns = [labels, floats, -floats[::-1], flags]
        names = ["label", "v", "neg_v", "flag"]
        path = tmp_path / "table.csv"
        _write_csv(path, ["zapsim test", "k = 1"], names, columns)
        want = self.per_value(["zapsim test", "k = 1"], names, zip(*columns))
        assert path.read_bytes() == want.encode("utf-8")

    @pytest.mark.parametrize(
        "values",
        [
            np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 2.2250738585072014e-308, 0.1 + 0.2]),
            np.array([0, -3, 2**62]),
            np.array([0, 255], dtype=np.uint8),
            np.array([True, False, True]),
        ],
        ids=["floats", "ints", "uints", "bools"],
    )
    def test_texts_are_the_per_value_texts(self, values):
        got = _texts(values)
        assert got.dtype == object
        assert list(got) == [_fmt(v) for v in values]

    @staticmethod
    def raw_wigner_csv(monkeypatch, tmp_path, settings, from_samples):
        """The Wigner CSV run_wigner writes, and the one _write_csv writes from the raw float columns."""
        cfg = parse_config_text(settings)
        headers = []
        write = lambda path, header, *rest: headers.append(header) or _write_csv(path, header, *rest)
        monkeypatch.setattr(zapsim.runners, "_write_csv", write)
        (path, _) = run_wigner(cfg, tmp_path, from_samples)
        eta = _mixture_eta(cfg)
        if from_samples:
            eta = estimate_eta(sample_quadratures(HeraldedState(eta), cfg.sampling_n_samples, cfg.sampling_seed)).eta_hat
        n, half_width = cfg.wigner_n_side, cfg.wigner_half_width
        axis = np.linspace(-half_width, half_width, n)
        w = zapsim.runners.wigner_grid(HeraldedState(eta), half_width, n)
        raw = tmp_path / "raw.csv"
        _write_csv(raw, headers[0], ["x", "p", "w"], [np.repeat(axis, n), np.tile(axis, n), w.ravel()])
        return path.read_bytes(), raw.read_bytes(), w

    @pytest.mark.parametrize(
        "settings, from_samples, zeros",
        [
            ("", False, 0.0),
            ("", True, 0.0),
            ("wigner.n_side = 2\n", False, 0.0),
            ("wigner.eta = 1\nwigner.n_side = 200\n", False, 0.0),
            ("wigner.half_width = 60\n", False, 0.8),
        ],
        ids=["default", "from-samples", "two-side", "fock-200", "underflow"],
    )
    def test_wigner_csv_is_the_raw_float_columns_csv(self, monkeypatch, tmp_path, settings, from_samples, zeros):
        # each axis value and each distinct W value formatted once give the bytes of every value formatted in the
        # one-pass writer, also where exp underflows and W is exactly 0 on most of the map (half width 60)
        got, want, w = self.raw_wigner_csv(monkeypatch, tmp_path, settings, from_samples)
        assert got == want
        assert np.count_nonzero(w == 0.0) >= zeros * w.size

    def test_wigner_csv_keeps_signed_zeros_apart(self, monkeypatch, tmp_path):
        # the distinct W values are taken by bit pattern, so 0.0 and -0.0 keep their own texts
        def signed(s, half_width, n):
            w = wigner_grid(s, half_width, n)
            w[::2, ::3], w[1::4, ::5], w[3, 3] = -0.0, 0.0, np.nan
            return w

        monkeypatch.setattr(zapsim.runners, "wigner_grid", signed)
        got, want, w = self.raw_wigner_csv(monkeypatch, tmp_path, "wigner.n_side = 11\n", False)
        assert got == want
        assert b",-0\n" in got and b",0\n" in got and b",nan\n" in got

    def test_sample_body_matches_the_per_value_writer(self, tmp_path):
        cfg = parse_config_text("sampling.n_samples = 5000\nsampling.seed = 11\n")
        (path,) = run_sample(cfg, tmp_path)
        values = sample_quadratures(HeraldedState(cfg.detection_eta_base), 5000, 11).values
        body = path.read_text().split("\n", 1)[1]
        assert body == "".join(f"{v:.12g}\n" for v in values)



# the config echo that every sidecar prints before its sections, less its output.directory line: the defaults
# but for the fields named
ECHO = """\
detection.eta_base = 0.62
grid.dt_fs = 10
grid.n = {n}
medium.depth = {depth}
medium.preset = all
medium.t2_ps = {t2_ps}
pulse.fwhm_fs = 100
sampling.n_samples = 100000
sampling.seed = 12345
scan.delay_max_ps = {delay_max_ps}
scan.delay_min_ps = -1
scan.delay_steps = {delay_steps}
shaper.pixel_nm = none
shaper.resolution_nm = 0.6
shaper.span_nm = 60
wigner.eta = none
wigner.half_width = 4
wigner.n_side = 121
"""
DEFAULT_ECHO = ECHO.format(n=524288, depth="none", t2_ps="none", delay_max_ps=8, delay_steps=451)


class TestGoldenText:
    """The exact bytes of the ``key = value`` texts: the wigner summary, the sample header and a sidecar."""

    @staticmethod
    def text(path):
        """The file's text without its output.directory line, which names the run's directory."""
        lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
        return "".join(line for line in lines if not line.startswith("output.directory = "))

    def test_wigner_summary(self, tmp_path):
        run_wigner(parse_config_text(""), tmp_path)
        summary = "eta = 0.62\nrendered_eta = 0.62\nw_origin = -0.0763943726841\nnonclassical = 1\n"
        want = f"zapsim wigner parameters\n\n{DEFAULT_ECHO}\n[summary]\n{summary}"
        assert self.text(tmp_path / "wigner_summary.txt") == want

    def test_wigner_summary_from_samples(self, tmp_path):
        run_wigner(parse_config_text(""), tmp_path, from_samples=True)
        summary = (
            "eta = 0.62\neta_hat = 0.625286146308\nstderr = 0.00369356628822\nclamped = 0\nn_samples = 100000\n"
            "seed = 12345\nrendered_eta = 0.625286146308\nw_origin = -0.0797596379434\nnonclassical = 1\n"
        )
        want = f"zapsim wigner parameters\n\n{DEFAULT_ECHO}\n[summary]\n{summary}"
        assert self.text(tmp_path / "wigner_summary.txt") == want

    def test_sample_header(self, tmp_path):
        (path,) = run_sample(parse_config_text(""), tmp_path)
        first = path.read_bytes().split(b"\n", 1)[0]
        assert first == b"# vacuum_variance = 0.5, eta = 0.62, seed = 12345, n = 100000"

    @pytest.mark.parametrize(
        "n, scan, grid_lines, warning_lines",
        [
            (16384, {}, "grid.window_ns = 0.16384\ngrid.df_mhz = 6103.515625\n", ""),
            # a window too short for the line's tail: the one grid warning fires
            (
                1024,
                {"delay_max_ps": 1, "delay_steps": 11},
                "grid.window_ns = 0.01024\ngrid.df_mhz = 97656.25\n",
                "warning = the medium's tail beyond the window can move eta or T_E by up to 3.63e-06 (> 1e-09); "
                "widen the window n*dt\n",
            ),
        ],
        ids=["custom", "custom-warned"],
    )
    def test_custom_medium_xcorr_sidecar(self, tmp_path, n, scan, grid_lines, warning_lines):
        scan = {"delay_max_ps": 8, "delay_steps": 451, **scan}
        settings = f"grid.n = {n}\nmedium.depth = 30\nmedium.t2_ps = 1\n"
        settings += "".join(f"scan.{key} = {value}\n" for key, value in scan.items())
        run_xcorr(parse_config_text(settings), tmp_path)
        echo = ECHO.format(n=n, depth=30, t2_ps=1, **scan)
        medium = "depth = 30\nt2_ps = 1\ntemperature_c = none\n" + warning_lines
        want = f"zapsim xcorr parameters\n\n{echo}\n[grid]\n{grid_lines}\n[custom]\n{medium}"
        assert self.text(tmp_path / "xcorr_params.txt") == want
