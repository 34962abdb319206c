"""Command-line interface.

Verbs: propagate, xcorr, eta-scan, depth-scan, wigner, sample.  Each takes
``--config PATH``, repeatable ``--set section.key=value`` overrides, and
``--out DIR``, and ``wigner`` also ``--from-samples``; a value such as
``wigner.eta`` is set as a config key.
Exit codes: 0 success, 1 configuration or usage error, 2 I/O error; a failed
run removes the output directories it created while they are empty.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from .config import ConfigError, ScenarioConfig, _assign, validate
from . import runners


# verb -> (help text, runner in zapsim.runners, looked up when the verb runs)
_VERBS = {
    "propagate": ("transmitted envelope per medium", "run_propagate"),
    "xcorr": ("fringe-visibility delay scans", "run_xcorr"),
    "eta-scan": ("homodyne efficiency delay scans", "run_eta_scan"),
    "depth-scan": ("peak efficiency versus optical depth", "run_efficiency_vs_depth"),
    "wigner": ("Wigner map of the measured mixture", "run_wigner"),
    "sample": ("synthetic quadrature samples", "run_sample"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is reported like a configuration error, not by argparse's exit 2
        raise ConfigError(message)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", metavar="PATH", help="scenario file (defaults apply if omitted)")
    sub.add_argument(
        "--set",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        dest="overrides",
        help="override a config key, e.g. --set medium.preset=3",
    )
    sub.add_argument("--out", metavar="DIR", help="output directory (overrides output.directory)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="zapsim", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, (help_text, _) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        _add_common(p)
        if verb == "wigner":
            p.add_argument(
                "--from-samples",
                action="store_true",
                help="estimate eta from synthetic quadratures before rendering",
            )
    return parser


def _load(args) -> ScenarioConfig:
    text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    cfg = _assign(_assign(ScenarioConfig(), text.splitlines()), args.overrides, overrides=True)
    if args.out:  # a path, not a config line: a '#' in it is no comment
        cfg = replace(cfg, output_directory=args.out)
    return validate(cfg)


def _remove_empty(created: list[Path]) -> None:
    """Remove the directories a failed run created, deepest first, stopping at one that is not empty."""
    for path in created:
        try:
            path.rmdir()
        except OSError:
            return


def _pin_malloc() -> None:
    """Keep glibc's heap for the grid's 8-16 MiB arrays and pocketfft's scratch, not fresh mmaps faulted on every
    call: the thresholds glibc's own rule reaches once a 32 MiB chunk is freed.  A user's setting is left alone."""
    names = ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_")
    if any(name in os.environ for name in names) or "glibc.malloc." in os.environ.get("GLIBC_TUNABLES", ""):
        return
    import ctypes  # here, so that importing the CLI loads and sets nothing
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc: no C library handle, or no mallopt in it
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)  # and restype c_int, ctypes' default
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD: glibc's DEFAULT_MMAP_THRESHOLD_MAX
    mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD: twice that, as glibc's dynamic rule sets it


def main(argv=None) -> int:
    _pin_malloc()
    created: list[Path] = []
    try:
        args = build_parser().parse_args(argv)
        cfg = _load(args)
        out_dir = Path(cfg.output_directory)
        created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        options = {"from_samples": args.from_samples} if "from_samples" in args else {}
        paths = getattr(runners, _VERBS[args.verb][1])(cfg, out_dir, **options)
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        code = 2
    else:
        for path in paths:
            print(path)
        return 0
    _remove_empty(created)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
