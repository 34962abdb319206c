import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zapsim.cli import _remove_empty, main

# small, fast, warning-free scenario: 164 ps window, 1 ps line lifetime
FAST_SCENARIO = """
grid.n = 16384
grid.dt_fs = 10
medium.depth = 30
medium.t2_ps = 1
scan.delay_min_ps = -0.2
scan.delay_max_ps = 0.8
scan.delay_steps = 51
sampling.n_samples = 5000
wigner.n_side = 21
wigner.half_width = 3
"""

# every bin of H underflows to 0: the transmitted field is zero and has no mode
ABSORBING = ["--set", "grid.n=4096", "--set", "medium.depth=1e300", "--set", "medium.t2_ps=280"]


@pytest.fixture()
def scenario(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(FAST_SCENARIO, encoding="utf-8")
    return path


def run(scenario, out_dir, verb, *extra):
    return main([verb, "--config", str(scenario), "--out", str(out_dir), *extra])


class TestVerbs:
    def test_propagate(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert run(scenario, out, "propagate") == 0
        csv = out / "propagated_custom.csv"
        assert csv.exists()
        assert (out / "propagate_params.txt").exists()
        lines = csv.read_text().splitlines()
        header_end = next(i for i, l in enumerate(lines) if not l.startswith("#"))
        assert lines[header_end] == "t_ps,amp_abs,amp_re,amp_im"
        assert any("medium.depth = 30" in l for l in lines[:header_end])

    def test_xcorr_columns_and_monotone_delay(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert run(scenario, out, "xcorr") == 0
        rows = [
            l.split(",")
            for l in (out / "xcorr_custom.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert rows[0] == ["delay_ps", "visibility", "visibility_norm"]
        delays = [float(r[0]) for r in rows[1:]]
        assert delays == sorted(delays)
        norm = [float(r[2]) for r in rows[1:]]
        assert max(norm) == pytest.approx(1.0, abs=1e-9)

    def test_off_lattice_delay_step(self, scenario, tmp_path):
        # 1 ps / 39 steps is not a multiple of dt: the scans take the direct sum
        out = tmp_path / "out"
        for verb, name in (("xcorr", "xcorr_custom.csv"), ("eta-scan", "eta_scan_custom.csv")):
            assert run(scenario, out, verb, "--set", "scan.delay_steps=40") == 0
            rows = [l for l in (out / name).read_text().splitlines() if l and not l.startswith("#")]
            assert len(rows) == 41

    def test_eta_scan_log_column(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert run(scenario, out, "eta-scan") == 0
        rows = [
            l.split(",")
            for l in (out / "eta_scan_custom.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert rows[0] == ["delay_ps", "eta", "log10_eta", "log_clamped"]
        for r in rows[1:]:
            eta, log_eta = float(r[1]), float(r[2])
            if r[3] == "0":
                assert log_eta == pytest.approx(np.log10(eta), rel=1e-9)
            else:
                assert log_eta == pytest.approx(-12.0)

    def test_depth_scan(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert run(scenario, out, "depth-scan") == 0
        rows = [
            l.split(",")
            for l in (out / "efficiency_vs_depth.csv").read_text().splitlines()
            if l and not l.startswith("#")
        ]
        assert rows[0] == ["preset", "depth", "t2_ps", "eta_unshaped", "eta_shaped", "transmission"]
        assert len(rows) == 2
        _, depth, _, unshaped, shaped, trans = rows[1]
        assert float(shaped) >= float(unshaped) - 1e-12
        assert 0.0 <= float(trans) <= 1.0

    def test_wigner_summary(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert run(scenario, out, "wigner", "--eta", "0.62") == 0
        summary = (out / "wigner_summary.txt").read_text()
        assert "nonclassical = 1" in summary
        assert "w_origin = -0.0763943726841" in summary
        rows = [
            l for l in (out / "wigner_grid.csv").read_text().splitlines() if not l.startswith("#")
        ]
        assert rows[0] == "x,p,w"
        assert len(rows) - 1 == 21 * 21

    def test_wigner_from_samples(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert run(scenario, out, "wigner", "--eta", "0.62", "--from-samples") == 0
        summary = (out / "wigner_summary.txt").read_text()
        assert "eta_hat = " in summary

    def test_sample_file_format(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert run(scenario, out, "sample", "--eta", "0.3") == 0
        lines = (out / "quadrature_samples.txt").read_text().splitlines()
        assert lines[0].startswith("# vacuum_variance = 0.5")
        assert "seed = 12345" in lines[0]
        values = [float(v) for v in lines[1:]]
        assert len(values) == 5000


class TestExitCodes:
    def test_validation_error_is_one(self, scenario, tmp_path, capsys):
        code = run(scenario, tmp_path / "out", "xcorr", "--set", "detection.eta_base=7")
        assert code == 1
        assert "detection.eta_base" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "verb, settings",
        [
            ("wigner", ["wigner.half_width=inf"]),
            ("depth-scan", ["shaper.pixel_nm=inf"]),
            ("propagate", ["medium.depth=none", "medium.t2_ps=none", "medium.preset=1,1"]),
            ("depth-scan", ["shaper.pixel_nm=100"]),
            ("depth-scan", ["shaper.pixel_nm=1e9", "shaper.span_nm=none"]),
            ("xcorr", ["sampling.seed=-1"]),
            ("propagate", ["grid.n=4096", "medium.depth=70", "medium.t2_ps=1e307"]),
        ],
    )
    def test_bad_value_is_one_and_writes_nothing(self, scenario, tmp_path, capsys, verb, settings):
        sets = [arg for s in settings for arg in ("--set", s)]
        assert run(scenario, tmp_path / "out", verb, *sets) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not list(tmp_path.rglob("*.csv"))

    @pytest.mark.parametrize("verb", ["xcorr", "eta-scan", "depth-scan"])
    def test_fully_absorbing_medium_is_one_and_writes_nothing(self, scenario, tmp_path, capsys, verb):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(scenario, tmp_path / "out", verb, *ABSORBING) == 1
        assert capsys.readouterr().err == "error: cannot normalize a zero field\n"
        assert not list(tmp_path.rglob("*.csv"))

    def test_fully_absorbing_medium_propagates_to_zero(self, scenario, tmp_path):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run(scenario, out, "propagate", *ABSORBING) == 0
        rows = [l for l in (out / "propagated_custom.csv").read_text().splitlines() if not l.startswith("#")]
        assert rows[0] == "t_ps,amp_abs,amp_re,amp_im" and len(rows) > 1
        assert all(float(v) == 0.0 for r in rows[1:] for v in r.split(",")[1:])

    def test_failed_run_removes_the_directory_it_created(self, scenario, tmp_path):
        sets = ["--set", "shaper.pixel_nm=1e9", "--set", "shaper.span_nm=none"]
        out = tmp_path / "new" / "out"
        assert run(scenario, out, "depth-scan", *sets) == 1
        assert not (tmp_path / "new").exists()
        kept = tmp_path / "kept"
        kept.mkdir()
        assert run(scenario, kept, "depth-scan", *sets) == 1
        assert kept.is_dir()
        created = tmp_path / "created"
        created.mkdir()
        (created / "partial.csv").write_text("t_ps\n", encoding="utf-8")
        _remove_empty([created, tmp_path])
        assert (created / "partial.csv").exists()

    def test_unknown_key_is_one(self, scenario, tmp_path):
        assert run(scenario, tmp_path / "out", "xcorr", "--set", "nope.nope=1") == 1

    def test_missing_config_is_two(self, tmp_path):
        assert main(["xcorr", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_out_keeps_a_hash(self, scenario, tmp_path):
        # --out is a path, not a config line: '#' does not start a comment there
        assert run(scenario, tmp_path / "run#1", "sample") == 0
        assert (tmp_path / "run#1" / "quadrature_samples.txt").exists()
        assert not (tmp_path / "run").exists()

    def test_output_collision_is_two(self, scenario, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("not a directory", encoding="utf-8")
        assert run(scenario, blocker / "sub", "sample") == 2


class TestDeterminism:
    def test_byte_identical_across_runs(self, scenario, tmp_path):
        out = tmp_path / "out"
        outputs = []
        for _ in range(2):
            assert run(scenario, out, "xcorr") == 0
            assert run(scenario, out, "eta-scan") == 0
            assert run(scenario, out, "wigner", "--from-samples") == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0].keys() == outputs[1].keys()
        for name in outputs[0]:
            assert outputs[0][name] == outputs[1][name], name

    def test_seed_changes_samples(self, scenario, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run(scenario, out_a, "sample") == 0
        assert run(scenario, out_b, "sample", "--set", "sampling.seed=999") == 0
        assert (out_a / "quadrature_samples.txt").read_bytes() != (
            out_b / "quadrature_samples.txt"
        ).read_bytes()


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = "import sys, zapsim.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
