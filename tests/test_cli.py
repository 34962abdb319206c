import ctypes
import os
import platform
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from zapsim.cli import _pin_malloc, _remove_empty, main
from zapsim.config import _PARSERS

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
        assert run(scenario, out, "wigner", "--set", "wigner.eta=0.62") == 0
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
        assert run(scenario, out, "wigner", "--set", "wigner.eta=0.62", "--from-samples") == 0
        summary = (out / "wigner_summary.txt").read_text()
        assert "eta_hat = " in summary

    def test_sample_file_format(self, scenario, tmp_path):
        out = tmp_path / "out"
        assert run(scenario, out, "sample", "--set", "wigner.eta=0.3") == 0
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

    @pytest.mark.parametrize(
        "argv",
        [["wigner", "--eta", "0.3"], ["bogus"], ["xcorr", "--bogus", "1"], []],
        ids=["removed-eta-option", "unknown-verb", "unknown-option", "no-verb"],
    )
    def test_usage_error_is_one_and_creates_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)] if argv else argv) == 1
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_help_is_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["wigner", "--help"])
        assert exc.value.code == 0
        assert "--from-samples" in capsys.readouterr().out

    def test_unknown_key_is_one(self, scenario, tmp_path, capsys):
        assert run(scenario, tmp_path / "out", "xcorr", "--set", "nope.nope=1") == 1
        # a key that has been removed is unknown: the pulse is resonant, with no carrier detuning to set
        config = tmp_path / "detuned.cfg"
        config.write_text(scenario.read_text(encoding="utf-8") + "pulse.detuning_ghz = 0\n", encoding="utf-8")
        capsys.readouterr()
        assert run(config, tmp_path / "out", "xcorr") == 1
        assert "unknown key 'pulse.detuning_ghz'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_override_error_names_the_override(self, tmp_path, capsys):
        # an override has no file line: the error quotes it, not "line 2"
        argv = ["xcorr", "--set", "grid.n=4096", "--set", "pulse.center_fs=3", "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: override 'pulse.center_fs=3': unknown key 'pulse.center_fs'\n"

    def test_empty_override_is_one(self, tmp_path, capsys):
        assert main(["xcorr", "--set", "", "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: empty override ''\n"
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")
    def test_rerun_from_the_echoed_config_reproduces_every_file(self, tmp_path):
        # the header of a verb's first CSV echoes every key of the run; a config built from it reproduces the run,
        # also for values that need all 12 echoed digits, or more (at 12 digits 0.5000000000001 renders W(0,0) = 0)
        digits = ["--set", "pulse.fwhm_fs=100.000000001", "--set", "detection.eta_base=0.620000000001"]
        runs = [
            ("propagate", []),
            ("xcorr", []),
            ("eta-scan", []),
            ("depth-scan", []),
            ("wigner", ["--set", "wigner.eta=0.3", "--from-samples"]),
            ("wigner", ["--set", "wigner.eta=0.5000000000001"]),
        ]
        for i, (verb, extra) in enumerate(runs):
            first = tmp_path / f"{i}" / "first"
            assert main([verb, "--out", str(first), "--set", "grid.n=16384", *digits, *extra]) == 0
            csv = sorted(first.glob("*.csv"))[0]
            echo = [line[2:] for line in csv.read_text(encoding="utf-8").splitlines() if line.startswith("# ")]
            keys = [line for line in echo if line.partition(" = ")[0] in _PARSERS]
            assert len(keys) == len(_PARSERS)
            cfg = tmp_path / f"{i}" / "echo.cfg"
            cfg.write_text("\n".join(keys) + "\n", encoding="utf-8")
            again = tmp_path / f"{i}" / "again"
            flags = [arg for arg in extra if arg == "--from-samples"]
            assert main([verb, "--config", str(cfg), "--out", str(again), *flags]) == 0
            names = sorted(p.name for p in first.iterdir())
            assert names == sorted(p.name for p in again.iterdir())
            for name in names:
                a, b = ((d / name).read_bytes().split(b"\n") for d in (first, again))
                differ = [x for x, y in zip(a, b) if x != y]
                assert len(a) == len(b) and all(b"output.directory = " in x for x in differ), (verb, name)

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


def _src_env():
    """The environment of a fresh interpreter that imports zapsim from this checkout, with no malloc setting of
    the user's (MALLOC_*_ variables, GLIBC_TUNABLES)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    return {**env, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}


def test_cli_import_sets_no_allocator():
    # importing the CLI, and the set-up a library user or the benchmark's set-up probe runs, opens no C library
    # handle: the allocator is pinned only when main runs.  (numpy imports ctypes itself, so whether ctypes is in
    # sys.modules says nothing.)
    code = (
        "import ctypes, numpy\n"
        "opened = []\n"
        "ctypes.CDLL = lambda *args, **kwargs: opened.append(args)\n"
        "import zapsim, zapsim.cli\n"
        "from zapsim.config import ScenarioConfig, apply_overrides\n"
        "cfg = apply_overrides(ScenarioConfig(), ['sampling.seed=1'])\n"
        "cfg.make_pulse(cfg.make_grid())\n"
        "print(opened)\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env=_src_env(), capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class TestAllocator:
    """main first sets glibc's mmap threshold to 32 MiB and its trim threshold to 64 MiB, unless the user has
    set either, so that the grid's arrays and pocketfft's scratch come from a heap that is reused."""

    @pytest.fixture()
    def unset(self, monkeypatch):
        """No malloc setting of the user's in the environment."""
        for name in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_", "GLIBC_TUNABLES"):
            monkeypatch.delenv(name, raising=False)

    @pytest.fixture()
    def calls(self, unset, monkeypatch):
        seen = []

        class Library:
            def __init__(self, name):
                seen.append(("CDLL", name))
                self.mallopt = lambda param, value: seen.append((param, value)) or 1

        monkeypatch.setattr(ctypes, "CDLL", Library)
        return seen

    def test_main_sets_both_thresholds(self, scenario, tmp_path, calls):
        assert run(scenario, tmp_path / "out", "wigner") == 0
        assert calls == [("CDLL", None), (-3, 32 * 2**20), (-1, 64 * 2**20)]  # M_MMAP_THRESHOLD, M_TRIM_THRESHOLD

    @pytest.mark.parametrize(
        "name, value",
        [
            ("MALLOC_TRIM_THRESHOLD_", "1048576"),
            ("MALLOC_MMAP_THRESHOLD_", "1048576"),
            ("GLIBC_TUNABLES", "glibc.malloc.trim_threshold=1048576"),
            ("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=512:glibc.malloc.mmap_threshold=1048576"),
        ],
        ids=["trim-variable", "mmap-variable", "trim-tunable", "mmap-tunable-second"],
    )
    def test_a_users_setting_is_left_alone(self, scenario, tmp_path, calls, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        assert run(scenario, tmp_path / "out", "wigner") == 0
        assert calls == []

    def test_an_unrelated_tunable_still_pins(self, scenario, tmp_path, calls, monkeypatch):
        monkeypatch.setenv("GLIBC_TUNABLES", "glibc.rtld.optional_static_tls=512")
        assert run(scenario, tmp_path / "out", "wigner") == 0
        assert [call[0] for call in calls] == ["CDLL", -3, -1]

    @pytest.mark.parametrize("verb", ["propagate", "sample"])
    def test_a_c_library_without_mallopt_changes_no_output(self, scenario, tmp_path, monkeypatch, verb):
        out = tmp_path / "out"
        assert run(scenario, out, verb) == 0
        pinned = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
        assert run(scenario, out, verb) == 0
        assert {p.name: p.read_bytes() for p in sorted(out.iterdir())} == pinned

    @pytest.mark.parametrize("error", [OSError, TypeError], ids=["no-handle", "no-dlopen-of-none"])
    def test_no_c_library_handle_still_runs(self, scenario, tmp_path, monkeypatch, error):
        def refuse(name):
            raise error("no C library")

        monkeypatch.setattr(ctypes, "CDLL", refuse)
        assert run(scenario, tmp_path / "out", "wigner") == 0

    def test_pinning_prints_nothing(self, unset, capfd):
        _pin_malloc()  # the C library's own mallopt, where there is one
        assert capfd.readouterr() == ("", "")

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds only")
    def test_a_complex_fft_after_main_reuses_the_heap(self, scenario, tmp_path):
        # under glibc's defaults each length-2^19 complex FFT maps its 16 MiB scratch afresh and faults about
        # 4,000 pages; after main has run, the second one in the process reuses the first one's memory
        code = (
            "import resource, sys\n"
            "import numpy as np\n"
            "from zapsim.cli import main\n"
            "assert main(['wigner', '--config', sys.argv[1], '--out', sys.argv[2]]) == 0\n"
            "x = np.ones(2**19, dtype=complex)\n"
            "np.fft.fft(x)\n"
            "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "np.fft.fft(x)\n"
            "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
        )
        argv = [sys.executable, "-c", code, str(scenario), str(tmp_path / "out")]
        done = subprocess.run(argv, env=_src_env(), capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert int(done.stdout.splitlines()[-1]) < 100
