import argparse
import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import re
import sys
from pathlib import Path

import pytest

import zapsim
from zapsim.cli import _VERBS, build_parser, main
from zapsim.config import _PARSERS

README = Path(__file__).resolve().parents[1] / "README.md"
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
PROBE_SETUP = TRACING.with_name("probe_setup.py")
SOURCES = sorted(Path(zapsim.__file__).parent.glob("*.py"))
MODULES = ["fields", "medium", "modes", "shaper", "quantum", "config", "runners"]


def library_block() -> str:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library") :]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_block_runs_as_written(tmp_path):
    block, stdout = library_block(), io.StringIO()
    with contextlib.redirect_stdout(stdout):
        exec(compile(block, str(README), "exec"), {})
    transmission, peak = stdout.getvalue().splitlines()
    # the printed values are the ones the block's comments state
    assert "T_E ~0.987" in block and round(float(transmission), 3) == 0.987
    tau, eta = map(float, peak.split())
    assert "there, ~0.44" in block and round(eta, 2) == 0.44
    assert abs(tau) < 0.1e-12
    # and the eta_shaped it points to is depth-scan's, for the same preset
    assert main(["depth-scan", "--set", "medium.preset=3", "--out", str(tmp_path)]) == 0
    header, row = [l for l in (tmp_path / "efficiency_vs_depth.csv").read_text().splitlines() if not l.startswith("#")]
    shaped = float(dict(zip(header.split(","), row.split(",")))["eta_shaped"])
    assert "(~0.58 here)" in block and round(shaped, 2) == 0.58


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


def docstring_references(path: Path) -> list[str]:
    """The targets of the :func:, :meth: and :class: roles in a source file, and every double-backticked a.b."""
    text = path.read_text(encoding="utf-8")
    roles = re.findall(r":(?:func|meth|class):`([^`]+)`", text)
    return roles + re.findall(r"``([A-Za-z_]\w*(?:\.\w+)+)``", text)


def resolves(module, ref: str) -> bool:
    """``ref`` names a config key, or an attribute reached from the module's namespace or a zapsim module."""
    if ref in _PARSERS:
        return True
    missing = object()
    head, *rest = ref.split(".")
    obj = getattr(module, head, missing)
    if obj is missing and head in MODULES:
        obj = importlib.import_module(f"zapsim.{head}")
    for part in rest:
        obj = getattr(obj, part, missing)
    return obj is not missing


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_docstring_references_resolve(path):
    module = zapsim if path.stem == "__init__" else importlib.import_module(f"zapsim.{path.stem}")
    assert [ref for ref in docstring_references(path) if not resolves(module, ref)] == []


def unused_imports(path: Path) -> list[str]:
    """Names a module imports at its top level but neither reads nor re-exports through ``__all__``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_every_import_is_used(path):
    assert unused_imports(path) == []


def names_read(tree) -> set[str]:
    """The names a module reads: by name, as an attribute, or through an import (which the importer reads,
    :func:`test_every_import_is_used`)."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def unread_private_names(paths) -> list[str]:
    """``module.name`` for each private module-level function, class or constant of the source files ``paths``
    that no code among them reads (:func:`names_read`).  Dunders are exempt."""
    defined, read = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(path.stem, name) for name in names if name.startswith("_") and not name.endswith("__")]
        read |= names_read(tree)
    return [f"{module}.{name}" for module, name in defined if name not in read]


def test_every_private_name_is_read_by_package_code():
    assert unread_private_names(SOURCES) == []


def test_an_unread_private_helper_is_found(tmp_path):
    (tmp_path / "a.py").write_text("_LIMIT = 1\n_KEPT = 2\n\ndef _helper():\n    return _KEPT\n\nclass _Unused:\n    pass\n")
    (tmp_path / "b.py").write_text("from a import _helper\n\nVALUE = _helper()\n")
    assert unread_private_names([tmp_path / "a.py", tmp_path / "b.py"]) == ["a._LIMIT", "a._Unused"]


def unread_public_names(paths, layers, read_elsewhere) -> list[str]:
    """``module.name`` for each public module-level function or class of the modules ``layers`` among the
    source files ``paths`` that neither code among them (:func:`names_read`) nor ``read_elsewhere`` reads."""
    defined, read = [], set(read_elsewhere)
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if path.stem in layers:
            kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            defined += [(path.stem, node.name) for node in tree.body if isinstance(node, kinds) and node.name[0] != "_"]
        read |= names_read(tree)
    return [f"{module}.{name}" for module, name in defined if name not in read]


# public names that no package code, benchmark file or README library line reads, each kept for a reason
UNREAD_PUBLIC = {
    "config.parse_config_text": "a validated config from scenario text, with no file: the tests build theirs by it",
}


def test_every_public_name_is_read_by_package_code_the_benchmark_or_the_readme(monkeypatch):
    # the package's reads leave out __init__, whose imports only re-export; the CLI looks its runners up by
    # name, the benchmark's tracer by the names it lists, and its set-up probe imports what it times
    tracing = load_benchmark(monkeypatch)
    traced = {part for names in tracing.NAMED.values() for name in names for part in name.split(".")}
    elsewhere = (
        {runner for _, runner in _VERBS.values()}
        | traced
        | names_read(ast.parse(PROBE_SETUP.read_text(encoding="utf-8")))
        | names_read(ast.parse(library_block()))
    )
    paths = [path for path in SOURCES if path.stem != "__init__"]
    assert unread_public_names(paths, MODULES, elsewhere) == sorted(UNREAD_PUBLIC)


def test_an_unread_public_helper_is_found(tmp_path):
    (tmp_path / "a.py").write_text("def shared():\n    pass\n\ndef helper():\n    pass\n\nclass Listed:\n    pass\n")
    (tmp_path / "b.py").write_text("from a import shared\n\ndef main():\n    return shared()\n")
    paths = [tmp_path / "a.py", tmp_path / "b.py"]
    assert unread_public_names(paths, ["a"], {"Listed"}) == ["a.helper"]


def fft_references(path: Path) -> set[str]:
    """The top-level functions of a source file that reference ``numpy.fft``, by attribute or by import;
    ``<module>`` for a reference outside any function."""
    found = set()

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "fft" and isinstance(child.value, ast.Name):
                if child.value.id in ("np", "numpy"):
                    found.add(owner)
            elif isinstance(child, ast.ImportFrom) and (child.module or "").startswith("numpy"):
                if child.module.startswith("numpy.fft") or any(a.name == "fft" for a in child.names):
                    found.add(owner)
            elif isinstance(child, ast.Import) and any(a.name.startswith("numpy.fft") for a in child.names):
                found.add(owner)
            top = child.name if owner == "<module>" and isinstance(child, (ast.FunctionDef, ast.ClassDef)) else owner
            visit(child, top)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return {f"{path.stem}.{owner}" for owner in found}


def test_numpy_fft_is_called_only_by_the_transform_pair():
    # the sign, scale and time origin that tie a spectrum to its envelope live in fields.to_spectrum and
    # fields.to_time alone; run_propagate keeps a complex pair whose round-off the benchmark's amp_im column pins
    found = set().union(*(fft_references(path) for path in SOURCES))
    assert found == {"fields.to_spectrum", "fields.to_time", "runners.run_propagate"}


def test_fft_references_are_found_however_numpy_fft_is_reached(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import numpy as np\nimport numpy.fft\nfrom numpy import fft\n"
        "class C:\n    def m(self):\n        from numpy.fft import irfft\n"
        "def f():\n    def inner():\n        return np.fft.rfft\n"
        "def g():\n    return np.conj\n"
    )
    assert fft_references(path) == {"probe.<module>", "probe.C", "probe.f"}


BLAS_NAMES = {"dot", "vdot", "matmul", "inner", "tensordot", "linalg"}


def blas_uses(path: Path) -> list[str]:
    """``line: form`` for each way a source file reaches BLAS through numpy: the ``@`` and ``@=`` operators,
    a name among ``BLAS_NAMES`` read, reached as an attribute, imported or imported from, and ``einsum`` given
    ``optimize``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "@=" if isinstance(node, ast.AugAssign) else "@"))
        elif isinstance(node, ast.Name) and node.id in BLAS_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            found.append((node.lineno, node.attr))
        elif isinstance(node, ast.alias) and BLAS_NAMES & set(node.name.split(".")):
            found.append((node.lineno, node.name))
        elif isinstance(node, ast.ImportFrom) and BLAS_NAMES & set((node.module or "").split(".")):
            found.append((node.lineno, node.module))
        elif isinstance(node, ast.Call) and any(keyword.arg == "optimize" for keyword in node.keywords):
            name = getattr(node.func, "attr", getattr(node.func, "id", None))
            if name == "einsum":
                found.append((node.lineno, "einsum(optimize=)"))
    return [f"{line}: {form}" for line, form in sorted(found)]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.stem)
def test_no_module_calls_blas(path):
    # the package's import loads OpenBLAS with a one-thread pool (zapsim/__init__.py), which is right only
    # while no zapsim code hands numpy work that BLAS would run
    assert blas_uses(path) == []


def test_blas_uses_are_found_in_every_form(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text(
        "import numpy as np\nimport numpy.linalg\nfrom numpy import vdot\nfrom numpy.linalg import norm\n"
        "c = a @ b\nc @= a\nnp.dot(a, b)\na.dot(b)\nnp.matmul(a, b)\ninner(a, b)\nnp.tensordot(a, b)\n"
        "np.einsum('i,i->', a, b, optimize=True)\nnp.einsum('i,i->', a, b)\nnp.sum(a * b)\n"
    )
    assert blas_uses(path) == [
        "2: numpy.linalg", "3: vdot", "4: numpy.linalg", "5: @", "6: @=", "7: dot", "8: dot", "9: matmul",
        "10: inner", "11: tensordot", "12: einsum(optimize=)",
    ]


def load_benchmark(monkeypatch, path=TRACING):
    """A module of the benchmark, by default its tracer, loaded by path."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # the benchmark's directory stays as committed
    spec = importlib.util.spec_from_file_location(f"perfbench_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("verb", ["propagate", "xcorr", "eta-scan", "depth-scan", "wigner", "sample"])
def test_default_outputs_pass_the_benchmark_output_checks(monkeypatch, tmp_path, verb):
    # the benchmark counts a verb's run as failed when its files miss the reference outputs (each CSV column by
    # 1e-9 of its peak, propagate's round-off amp_im column too) or a frozen constant: the same check fails here
    # first, with the benchmark's own code
    checks = load_benchmark(monkeypatch, TRACING.with_name("checks.py"))
    seed = 7
    assert main([verb, "--out", str(tmp_path), "--set", f"sampling.seed={seed}"]) == 0
    assert checks.Reference().check(verb, tmp_path, seed) == []


def test_benchmark_tracer_finds_every_function_it_names(monkeypatch):
    # a traced benchmark run leaves out each per-layer metric whose function the tracer cannot find, or whose
    # per-call argument it cannot read by name: a renamed function or parameter drops metrics silently
    tracing = load_benchmark(monkeypatch)
    assert {layer: tracing._targets(layer)[1] for layer in tracing.LAYERS} == dict.fromkeys(tracing.LAYERS, [])
    for name, parameter in [(tracing.DELAY_SCAN, "delays"), ("runners._write_csv", "path")]:
        assert name in tracing.VALUES
        layer, _, attr = name.partition(".")
        assert parameter in inspect.signature(getattr(sys.modules[f"zapsim.{layer}"], attr)).parameters


def test_benchmark_tracer_sees_every_real_transform(monkeypatch, tmp_path):
    # the tracer counts FFTs at fields.to_spectrum and fields.to_time, the only real transforms: none as set-up,
    # as the input's spectrum is in closed form, then per medium xcorr's even-lag scan, and depth-scan's two
    # searches, its LO and the LO's band-rate spectrum
    tracing = load_benchmark(monkeypatch)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for verb in ("xcorr", "depth-scan"):
            with tracer.invocation(verb):
                assert main([verb, "--out", str(tmp_path / verb), "--set", "grid.n=16384"]) == 0
    finally:
        tracer.remove()
    counts = {row["verb"]: row for row in tracing.verb_counts(tracer.spans, tracer.invocations)}
    read = {verb: (row["media"], row["fft_setup"], row["fft_per_medium"]) for verb, row in counts.items()}
    assert read == {"xcorr": (5, 0, 1.0), "depth-scan": (5, 0, 4.0)}
