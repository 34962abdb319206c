from dataclasses import replace

import numpy as np
import pytest

import zapsim.runners

from zapsim import (
    energy_transmission,
    eta_curve,
    max_shaped_eta,
    max_unshaped_eta,
    normalize,
    to_spectrum,
    transmit,
)
from zapsim.config import parse_config_text
from zapsim.runners import (
    run_efficiency_vs_depth,
    run_eta_scan,
    run_propagate,
    run_wigner,
    run_xcorr,
)

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
            unshaped = max_unshaped_eta(pulse, entry.params, eta_base)
            shaped = max_shaped_eta(pulse, entry.params, small_cfg.shaper_config(), eta_base)
            t_e = energy_transmission(to_spectrum(normalize(pulse)), entry.params)
            # printed with 12 significant digits
            assert column(path, "eta_unshaped")[k] == float(f"{unshaped:.12g}")
            assert column(path, "eta_shaped")[k] == float(f"{shaped:.12g}")
            assert column(path, "transmission")[k] == pytest.approx(t_e, rel=1e-12)

    def test_eta_scan_matches_eta_curve(self, small_cfg, tmp_path):
        cfg = replace(small_cfg, medium_preset="2,5")
        paths = run_eta_scan(cfg, tmp_path)
        pulse = cfg.make_pulse(cfg.make_grid())
        for path, entry in zip(paths, cfg.media()):
            curve = eta_curve(pulse, entry.params, pulse, cfg.detection_eta_base, cfg.delays())
            want = np.array([float(f"{y:.12g}") for y in curve.ys])
            assert np.array_equal(column(path, "eta"), want)


class TestOffLatticeScans:
    """Scans off the dt lattice run on half spectra and still print the exact overlaps."""

    @staticmethod
    def exact(cfg, params):
        """(visibility, eta) by the direct sum over the full spectrum, one delay at a time."""
        grid = cfg.make_grid()
        lo_spec = to_spectrum(normalize(cfg.make_pulse(grid)))
        out = transmit(lo_spec, params)
        g = np.conj(lo_spec.amp) * out.mode.amp
        a = np.array([grid.df * np.sum(g * np.exp(-2j * np.pi * grid.freqs * t)) for t in cfg.delays()])
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
            zapsim.runners, "_write_csv", lambda path, header, columns, rows: written.update({path.name: rows})
        )
        run_xcorr(cfg, tmp_path)
        run_eta_scan(cfg, tmp_path)
        for entry in cfg.media():
            vis, eta = self.exact(cfg, entry.params)
            got_vis = np.array([row[1] for row in written[f"xcorr_{entry.label}.csv"]])
            got_eta = np.array([row[1] for row in written[f"eta_scan_{entry.label}.csv"]])
            assert np.max(np.abs(got_vis - vis)) <= 1e-12 * vis.max()
            assert np.max(np.abs(got_eta - eta)) <= 1e-12 * eta.max()
