"""Command-line front end.

Subcommands: synth, solve, phase-grid, netflow-sweep, burst-compare, diagnose.
Exit codes: 0 success, 2 configuration/parse error or an all-zero ground
truth, 3 solver divergence, 4 size guard exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__, pipelines
from .diagnostics import SizeGuardError
from .fileio import ConfigError, ParseError, parse_config
from .model import DegenerateTruthError, DivergenceError
from .pipelines import CONFIG_KEYS, ExperimentConfig, config_help

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_SIZE_GUARD = 4

# Each flag sets the config key named by its dest.
FLAGS = {
    "--seed": {"dest": "seed", "type": int, "help": "override the base seed"},
    "--solver": {"dest": "solver.kind", "choices": ("p1", "p2", "p5", "p6"),
                 "help": "override solver.kind"},
    "--threads": {"dest": "threads", "type": int, "help": "worker threads for grids/sweeps"},
}

# subcommand -> (the pipelines function that runs it, help text, the flags
# whose config keys it reads).  The function is looked up by name on each
# run, so a wrapper set on the pipelines module (say, a tracer) is the one called.
COMMANDS = {
    "synth": ("cmd_synth", "generate a synthetic scenario directory", ("--seed",)),
    "solve": ("cmd_solve", "run one estimator on a scenario directory", ("--solver",)),
    "phase-grid": ("cmd_phase_grid", "rank/sparsity phase-transition grid (CSV + PGM)",
                   ("--seed", "--threads")),
    "netflow-sweep": ("cmd_netflow_sweep", "estimation error versus flow-sampling rate",
                      ("--seed", "--solver", "--threads")),
    "burst-compare": ("cmd_burst_compare",
                      "correlation-aware versus plain estimation under bursts", ("--seed",)),
    "diagnose": ("cmd_diagnose", "incoherence measures, lambda range, and dual certificate", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficmaps",
        description="Estimate nominal-traffic and anomaly maps from link and flow counts.",
        epilog=config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--out", required=True, help="output directory")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def load_config(args) -> ExperimentConfig:
    """The config file's values with the command's flags set over them."""
    values = parse_config(args.config) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None}
    return ExperimentConfig({**values, **flags})


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        getattr(pipelines, COMMANDS[args.command][0])(load_config(args), args.out)
    except (ConfigError, ParseError, DegenerateTruthError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DivergenceError as exc:
        print(f"solver divergence: {exc}", file=sys.stderr)
        return EXIT_DIVERGENCE
    except SizeGuardError as exc:
        print(f"size guard: {exc}", file=sys.stderr)
        return EXIT_SIZE_GUARD
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
