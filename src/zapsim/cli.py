"""Command-line interface.

Verbs: propagate, xcorr, eta-scan, depth-scan, wigner, sample.  Each takes
``--config PATH``, repeatable ``--set section.key=value`` overrides, and
``--out DIR``.  Exit codes: 0 success, 1 configuration error, 2 I/O error;
a failed run removes the output directories it created while they are empty.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig, apply_overrides, load_config
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
    parser = argparse.ArgumentParser(prog="zapsim", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb, (help_text, _) in _VERBS.items():
        p = sub.add_parser(verb, help=help_text)
        _add_common(p)
        if verb in ("wigner", "sample"):
            p.add_argument("--eta", type=float, help="single-photon fraction (default from config)")
        if verb == "wigner":
            p.add_argument(
                "--from-samples",
                action="store_true",
                help="estimate eta from synthetic quadratures before rendering",
            )
    return parser


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config) if args.config else ScenarioConfig()
    if args.overrides:
        cfg = apply_overrides(cfg, args.overrides)
    if args.out:
        cfg = apply_overrides(cfg, [f"output.directory={args.out}"])
    return cfg


def _remove_empty(created: list[Path]) -> None:
    """Remove the directories a failed run created, deepest first, stopping at one that is not empty."""
    for path in created:
        try:
            path.rmdir()
        except OSError:
            return


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    created: list[Path] = []
    try:
        cfg = _load(args)
        out_dir = Path(cfg.output_directory)
        created = [p for p in (out_dir, *out_dir.parents) if not p.exists()]
        out_dir.mkdir(parents=True, exist_ok=True)
        options = {k: v for k, v in vars(args).items() if k in ("eta", "from_samples")}
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
