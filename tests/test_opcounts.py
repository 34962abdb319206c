"""Operation counts per medium: each medium is propagated once per verb.

Counts numpy FFTs, H(nu) evaluations, shaper LO builds and full-grid
complex exponentials while the four physics verbs run on a 2^14 grid, once
with all five presets and once with preset 1; the difference divided by
four is the per-medium cost, free of the per-run set-up.
"""

import numpy as np
import pytest

import zapsim.medium
import zapsim.shaper
from zapsim.cli import main

pytestmark = pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")

# most numpy FFTs one medium may cost, per verb
FFT_BUDGET = {"propagate": 1, "xcorr": 1, "eta-scan": 1, "depth-scan": 6}

GRID_N = 16384


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


def _count_full_grid_exp(monkeypatch, counts):
    """Count numpy.exp calls on complex arrays of at least GRID_N / 8 elements."""
    exp = np.exp

    def counted(x, *args, **kwargs):
        if np.iscomplexobj(x) and np.size(x) >= GRID_N // 8:
            counts["exp"] += 1
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counted)


def _run_counted(monkeypatch, tmp_path, verb, preset):
    counts = dict.fromkeys(["fft", "ifft", "transfer_function", "achievable_lo", "exp"], 0)
    with monkeypatch.context() as mp:
        _count_calls(mp, np.fft, "fft", counts)
        _count_calls(mp, np.fft, "ifft", counts)
        _count_calls(mp, zapsim.medium, "transfer_function", counts)
        _count_calls(mp, zapsim.shaper, "achievable_lo", counts)
        _count_full_grid_exp(mp, counts)
        out = str(tmp_path / preset)
        code = main([verb, "--out", out, "--set", f"grid.n={GRID_N}", "--set", f"medium.preset={preset}"])
    assert code == 0
    return {
        "fft": counts["fft"] + counts["ifft"],
        "h": counts["transfer_function"],
        "lo": counts["achievable_lo"],
        "exp": counts["exp"],
    }


@pytest.mark.parametrize("verb", sorted(FFT_BUDGET))
def test_one_propagation_per_medium(monkeypatch, tmp_path, verb):
    five = _run_counted(monkeypatch, tmp_path, verb, "all")
    one = _run_counted(monkeypatch, tmp_path, verb, "1")
    assert five["h"] == 5 and one["h"] == 1
    assert (five["fft"] - one["fft"]) / 4 <= FFT_BUDGET[verb]
    # H(nu) is the only full-grid complex exponential: no delay phase ramp, no full-length Newton phasors
    assert (five["exp"] - one["exp"]) / 4 == 1
    if verb == "depth-scan":
        # one shaped LO per medium plus the medium-independent input LO
        assert five["lo"] == 5 + 1
