import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import zapsim

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ["fields", "medium", "modes", "shaper", "quantum", "config", "runners"]


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


@pytest.mark.filterwarnings("ignore::zapsim.GridAdequacyWarning")
def test_readme_library_block_runs_as_written():
    block, stdout = library_block(), io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, str(README), "exec"), {})
    transmission, peak, shaped = stdout.getvalue().splitlines()
    # the printed values are the ones the block's comments state
    assert "T_E ~0.987" in block and round(float(transmission), 3) == 0.987
    assert "~0.58" in block and round(float(shaped), 2) == 0.58
    _, eta = ast.literal_eval(peak)
    assert 0.0 < eta <= 0.62 * float(transmission)


@pytest.mark.parametrize("name", ["zapsim"] + [f"zapsim.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
