"""Command-line interface.

Verbs: propagate, xcorr, eta-scan, depth-scan, wigner, sample.  Each takes
``--config PATH``, repeatable ``--set section.key=value`` overrides, and
``--out DIR``.  Exit codes: 0 success, 1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ConfigError, ScenarioConfig, apply_overrides, load_config
from . import runners


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

    for verb, help_text in [
        ("propagate", "transmitted envelope per medium"),
        ("xcorr", "fringe-visibility delay scans"),
        ("eta-scan", "homodyne efficiency delay scans"),
        ("depth-scan", "peak efficiency versus optical depth"),
        ("wigner", "Wigner map of the measured mixture"),
        ("sample", "synthetic quadrature samples"),
    ]:
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _load(args)
        out_dir = Path(cfg.output_directory)
        out_dir.mkdir(parents=True, exist_ok=True)
        if args.verb == "propagate":
            paths = runners.run_propagate(cfg, out_dir)
        elif args.verb == "xcorr":
            paths = runners.run_xcorr(cfg, out_dir)
        elif args.verb == "eta-scan":
            paths = runners.run_eta_scan(cfg, out_dir)
        elif args.verb == "depth-scan":
            paths = runners.run_efficiency_vs_depth(cfg, out_dir)
        elif args.verb == "wigner":
            paths = runners.run_wigner(cfg, out_dir, eta=args.eta, from_samples=args.from_samples)
        elif args.verb == "sample":
            paths = runners.run_sample(cfg, out_dir, eta=args.eta)
        else:  # pragma: no cover - argparse enforces the verb set
            raise ConfigError(f"unknown verb {args.verb!r}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    for path in paths:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
