import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from zapsim import ConfigError, ScenarioConfig
from zapsim.cli import main
from zapsim.config import apply_overrides, parse_config_text, validate


class TestParsing:
    def test_empty_text_gives_defaults(self):
        assert parse_config_text("") == ScenarioConfig()

    def test_comments_and_blanks_skipped(self):
        text = "\n# a comment\n\ngrid.n = 4096  # inline note\n"
        cfg = parse_config_text(text)
        assert cfg.grid_n == 4096

    def test_preset_selection(self):
        cfg = parse_config_text("medium.preset = 3\n")
        media = cfg.media()
        assert len(media) == 1
        assert media[0].params.depth == 440.0
        assert media[0].params.t2 == pytest.approx(270e-12)

    def test_preset_list(self):
        cfg = parse_config_text("medium.preset = 1,5\n")
        depths = [m.params.depth for m in cfg.media()]
        assert depths == [70.0, 2200.0]

    def test_all_presets_default(self):
        assert len(ScenarioConfig().media()) == 5

    def test_custom_medium(self):
        cfg = parse_config_text("medium.depth = 30\nmedium.t2_ps = 5\n")
        media = cfg.media()
        assert media[0].label == "custom"
        assert media[0].params.depth == 30.0
        assert media[0].params.t2 == pytest.approx(5e-12)

    def test_parse_error_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            parse_config_text("grid.n = 4096\nnot a key value pair\n")

    def test_unknown_key_reported(self):
        with pytest.raises(ConfigError, match="grid.m"):
            parse_config_text("grid.m = 12\n")

    def test_bad_value_reports_key_and_line(self):
        with pytest.raises(ConfigError, match="line 1.*grid.n"):
            parse_config_text("grid.n = twelve\n")

    def test_optional_float_none(self):
        cfg = parse_config_text("shaper.pixel_nm = none\nshaper.span_nm = none\n")
        assert cfg.shaper_pixel_nm is None
        assert cfg.shaper_span_nm is None


class TestValidation:
    def test_eta_base_range(self):
        with pytest.raises(ConfigError, match="detection.eta_base"):
            parse_config_text("detection.eta_base = 1.3\n")

    def test_grid_power_of_two(self):
        with pytest.raises(ConfigError, match="grid.n"):
            parse_config_text("grid.n = 1000\n")

    def test_depth_requires_t2(self):
        with pytest.raises(ConfigError, match="medium.depth"):
            parse_config_text("medium.depth = 30\n")

    def test_preset_index_range(self):
        with pytest.raises(ConfigError, match="medium.preset"):
            parse_config_text("medium.preset = 9\n")

    def test_delay_range_must_fit_window(self):
        text = "grid.n = 4096\nscan.delay_max_ps = 100000\n"
        with pytest.raises(ConfigError, match="delay"):
            parse_config_text(text)

    def test_span_must_exceed_resolution(self):
        with pytest.raises(ConfigError, match="shaper.span_nm"):
            parse_config_text("shaper.resolution_nm = 2\nshaper.span_nm = 1\n")

    def test_pixel_must_be_below_span(self):
        with pytest.raises(ConfigError, match="shaper.pixel_nm"):
            parse_config_text("shaper.pixel_nm = 60\n")

    def test_output_format(self):
        with pytest.raises(ConfigError, match="output.format"):
            parse_config_text("output.format = parquet\n")

    @pytest.mark.parametrize(
        "key",
        [
            "grid.dt_fs",
            "pulse.fwhm_fs",
            "medium.depth",
            "medium.t2_ps",
            "shaper.resolution_nm",
            "shaper.pixel_nm",
            "shaper.span_nm",
            "detection.eta_base",
            "scan.delay_min_ps",
            "scan.delay_max_ps",
            "wigner.half_width",
            "wigner.eta",
        ],
    )
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_float_rejected(self, key, value):
        with pytest.raises(ConfigError, match=re.escape(repr(key)) + ".*finite"):
            parse_config_text(f"{key} = {value}\n")

    def test_duplicate_preset_rejected(self):
        with pytest.raises(ConfigError, match="medium.preset.*twice"):
            parse_config_text("medium.preset = 2,4,2\n")


class TestBuilders:
    def test_grid_and_pulse(self):
        cfg = parse_config_text("grid.n = 8192\ngrid.dt_fs = 5\npulse.fwhm_fs = 80\n")
        grid = cfg.make_grid()
        assert grid.n == 8192
        assert grid.dt == pytest.approx(5e-15)
        pulse = cfg.make_pulse(grid)
        assert np.abs(pulse.amp).max() == pytest.approx(1.0, abs=1e-12)

    def test_delays_linspace(self):
        cfg = parse_config_text("scan.delay_min_ps = -1\nscan.delay_max_ps = 1\nscan.delay_steps = 5\n")
        taus = cfg.delays()
        assert taus.shape == (5,)
        assert taus[0] == pytest.approx(-1e-12)
        assert taus[-1] == pytest.approx(1e-12)

    def test_shaper_config(self):
        cfg = parse_config_text("shaper.resolution_nm = 1.2\nshaper.pixel_nm = 0.4\n")
        sc = cfg.shaper_config()
        assert sc.resolution_fwhm == pytest.approx(1.2e-9)
        assert sc.pixel_width == pytest.approx(0.4e-9)

    def test_echo_round_trips(self):
        cfg = parse_config_text("grid.n = 4096\ndetection.eta_base = 0.5\n")
        echoed = parse_config_text("\n".join(cfg.to_lines()))
        assert echoed == cfg


class TestOverridesAndFiles:
    def test_apply_overrides(self):
        cfg = apply_overrides(ScenarioConfig(), ["medium.preset=2", "detection.eta_base=0.5"])
        assert cfg.medium_preset == "2"
        assert cfg.detection_eta_base == 0.5

    def test_override_validation(self):
        with pytest.raises(ConfigError):
            apply_overrides(ScenarioConfig(), ["detection.eta_base=2"])

    def test_empty_file_gives_defaults(self, tmp_path):
        # a run from an empty scenario file writes the bytes of a run with no file
        path, out = tmp_path / "empty.cfg", tmp_path / "out"
        path.write_text("", encoding="utf-8")
        assert main(["wigner", "--config", str(path), "--out", str(out)]) == 0
        written = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["wigner", "--out", str(out)]) == 0
        assert {p.name: p.read_bytes() for p in out.iterdir()} == written


# (overrides, key the rejection names): every rule validate enforces
REJECTED = [
    (["grid.n=1000"], "grid.n"),
    (["grid.dt_fs=0"], "grid.dt_fs"),
    (["pulse.fwhm_fs=0"], "pulse.fwhm_fs"),
    (["medium.depth=30"], "medium.depth"),
    (["medium.t2_ps=5"], "medium.depth"),
    (["medium.depth=-1", "medium.t2_ps=5"], "medium.depth"),
    (["medium.depth=30", "medium.t2_ps=0"], "medium.t2_ps"),
    (["grid.n=4096", "medium.depth=70", "medium.t2_ps=1e307"], "medium.t2_ps"),
    (["medium.preset=0"], "medium.preset"),
    (["medium.preset=x"], "medium.preset"),
    (["medium.preset=6"], "medium.preset"),
    (["medium.preset=1,1"], "medium.preset"),
    (["shaper.resolution_nm=0"], "shaper.resolution_nm"),
    (["shaper.resolution_nm=2", "shaper.span_nm=1"], "shaper.span_nm"),
    (["shaper.pixel_nm=60"], "shaper.pixel_nm"),
    (["detection.eta_base=-0.1"], "detection.eta_base"),
    (["detection.eta_base=1.3"], "detection.eta_base"),
    (["scan.delay_min_ps=9"], "scan.delay_min_ps"),
    (["scan.delay_steps=1"], "scan.delay_steps"),
    (["grid.n=4096", "scan.delay_max_ps=100000"], "scan.delay_max_ps"),
    (["grid.n=4096", "scan.delay_min_ps=-100000"], "scan.delay_min_ps"),
    (["sampling.n_samples=0"], "sampling.n_samples"),
    (["sampling.seed=-1"], "sampling.seed"),
    (["sampling.n_samples=0", "sampling.seed=-1"], "sampling.n_samples"),
    (["wigner.half_width=0"], "wigner.half_width"),
    (["wigner.n_side=1"], "wigner.n_side"),
    (["wigner.eta=2"], "wigner.eta"),
]


class TestRejectionKeys:
    @pytest.mark.parametrize("settings, key", REJECTED, ids=[" ".join(s) for s, _ in REJECTED])
    def test_names_the_key(self, settings, key):
        with pytest.raises(ConfigError, match=f"^invalid {re.escape(repr(key))}: "):
            apply_overrides(ScenarioConfig(), settings)

    @pytest.mark.parametrize("settings", [["medium.preset=9", "medium.depth=30", "medium.t2_ps=5"], []])
    def test_accepted(self, settings):
        apply_overrides(ScenarioConfig(), settings)


class TestValidationGuards:
    @pytest.mark.parametrize(
        "changes",
        [{"grid_n": 2**30}, {"scan_delay_steps": 10**6}, {"sampling_n_samples": 10**9}, {"wigner_n_side": 10**6}],
    )
    def test_builds_no_arrays(self, changes):
        cfg = replace(ScenarioConfig(), **changes)
        tracemalloc.start()
        try:
            validate(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_does_not_list_the_media(self, monkeypatch):
        calls = []
        media = ScenarioConfig.media
        monkeypatch.setattr(ScenarioConfig, "media", lambda self: calls.append(self) or media(self))
        for settings in ([], ["medium.preset=2,4"], ["medium.depth=30", "medium.t2_ps=5"]):
            apply_overrides(ScenarioConfig(), settings)
        assert calls == []

    def test_media_rejects_an_unvalidated_preset(self):
        with pytest.raises(ValueError):
            ScenarioConfig(medium_preset="0").media()


def test_readme_lists_the_config_keys_and_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Configuration file", 1)[1].split("```", 2)[1]
    listed, uncommented = set(), []
    for line in block.strip().splitlines():
        commented = line.startswith("#")
        key, _, value = line.lstrip("#").split("#", 1)[0].partition("=")
        listed.add(key.strip())
        if not commented:
            uncommented.append(f"{key.strip()} = {value.strip()}")
    defaults = ScenarioConfig().to_lines()
    assert listed == {line.split(" = ")[0] for line in defaults}
    assert set(uncommented) <= set(defaults)
