"""Command-line front end: one command per experiment recipe.

Exit codes: 0 success, 2 configuration error (or no gcc to build the
laser integrator), 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import replace

from .config import ExperimentConfig, load_config
from .errors import IntegrationDivergedError, PreconditionError
from .experiments import (
    run_phase_voltage,
    run_randomization,
    run_stability,
    run_sweep,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGED = 3

# each command runs the experiment of its name with "_" for "-"
_RECIPES = {
    "phase-voltage": run_phase_voltage,
    "randomization": run_randomization,
    "bb84-sweep": run_sweep,
    "dps-sweep": run_sweep,
    "stability": run_stability,
}


@functools.cache  # built at the first call, not at import; parsing leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chirplink",
        description="Simulate the phase-chirp QKD light source and its BB84/DPS links.",
    )
    parser.add_argument("command", choices=_RECIPES, help="the experiment to run")
    parser.add_argument("--config", help="flat key-value configuration file")
    parser.add_argument("--seed", type=int, default=None, help="override rng_seed")
    parser.add_argument("--out", default=None, help="override output_path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    experiment = args.command.replace("-", "_")
    try:
        if args.config:
            cfg = load_config(args.config, experiment)
        else:
            cfg = ExperimentConfig(experiment=experiment)
        if args.seed is not None:
            cfg = replace(cfg, rng_seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, output_path=args.out)
        _RECIPES[args.command](cfg)
    except IntegrationDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except (PreconditionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    if cfg.output_path:
        print(f"wrote {cfg.output_path}")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
