"""Operation counts per medium: each medium is propagated once per verb.

Counts numpy FFTs, H(nu) evaluations and shaper LO builds while the four
physics verbs run on a 2^14 grid, once with all five presets and once with
preset 1; the difference divided by four is the per-medium cost, free of
the per-run set-up.
"""

import numpy as np
import pytest

import zapsim.medium
import zapsim.shaper
from zapsim.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

# most numpy FFTs one medium may cost, per verb
FFT_BUDGET = {"propagate": 1, "xcorr": 2, "eta-scan": 2, "depth-scan": 7}


def _count_calls(monkeypatch, owner, name, counts):
    """Count calls of ``owner.name`` through every binding of it in numpy.fft and zapsim."""
    import sys

    fn = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "numpy.fft" or mod_name.startswith("zapsim"):
            for attr, obj in list(vars(mod).items()):
                if obj is fn:
                    monkeypatch.setattr(mod, attr, counted)


def _run_counted(monkeypatch, tmp_path, verb, preset):
    counts = dict.fromkeys(["fft", "ifft", "transfer_function", "achievable_lo"], 0)
    with monkeypatch.context() as mp:
        _count_calls(mp, np.fft, "fft", counts)
        _count_calls(mp, np.fft, "ifft", counts)
        _count_calls(mp, zapsim.medium, "transfer_function", counts)
        _count_calls(mp, zapsim.shaper, "achievable_lo", counts)
        code = main([verb, "--out", str(tmp_path / preset), "--set", "grid.n=16384", "--set", f"medium.preset={preset}"])
    assert code == 0
    return {"fft": counts["fft"] + counts["ifft"], "h": counts["transfer_function"], "lo": counts["achievable_lo"]}


@pytest.mark.parametrize("verb", sorted(FFT_BUDGET))
def test_one_propagation_per_medium(monkeypatch, tmp_path, verb):
    five = _run_counted(monkeypatch, tmp_path, verb, "all")
    one = _run_counted(monkeypatch, tmp_path, verb, "1")
    assert five["h"] == 5 and one["h"] == 1
    assert (five["fft"] - one["fft"]) / 4 <= FFT_BUDGET[verb]
    if verb == "depth-scan":
        # one shaped LO per medium plus the medium-independent input LO
        assert five["lo"] == 5 + 1
