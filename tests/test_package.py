import argparse
import ast
import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest

import zapsim
from zapsim.cli import build_parser

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


def readme_synopsis() -> dict[str, set[str]]:
    """verb -> options in the README's command-line synopsis; a line ending in ``...`` adds the first line's."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Command line\n\n```\n(.*?)```", text, re.S).group(1)
    lines = [line.split("#")[0].split(None, 2) for line in block.splitlines()]
    common = set(re.findall(r"--[a-z][a-z-]*", lines[0][2]))
    options = {}
    for _, verb, rest in lines:
        options[verb] = set(re.findall(r"--[a-z][a-z-]*", rest)) | (common if rest.rstrip().endswith("...") else set())
    return options


def parser_options() -> dict[str, set[str]]:
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {
        verb: {s for action in sub._actions for s in action.option_strings if s.startswith("--") and s != "--help"}
        for verb, sub in subparsers.choices.items()
    }


def test_readme_synopsis_lists_the_options_each_verb_accepts():
    assert readme_synopsis() == parser_options()


@pytest.mark.parametrize("name", ["zapsim"] + [f"zapsim.{m}" for m in MODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
