"""Set-up time as a user pays it: import zapsim, load the config, build grid and pulse.

    PYTHONPATH=src python3 perfbench/probe_setup.py --seed N

Run in a fresh interpreter.  The last line it prints holds two figures: the
wall seconds from the first statement on, and the CPU seconds the process has
used since it started, interpreter start-up included.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402

import zapsim.cli  # noqa: E402,F401  (the CLI imports numpy, scipy and every layer)
from zapsim.config import ScenarioConfig, apply_overrides  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    cfg = apply_overrides(ScenarioConfig(), [f"sampling.seed={args.seed}"])
    cfg.make_pulse(cfg.make_grid())
    print(time.perf_counter() - START, time.process_time())


if __name__ == "__main__":
    main()
