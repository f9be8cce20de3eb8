"""Command-line front end.

Subcommands: synth, solve, phase-grid, netflow-sweep, burst-compare, diagnose.
Exit codes: 0 success, 2 configuration/parse error or an all-zero ground
truth, 3 solver divergence, 4 size guard exceeded.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .diagnostics import SizeGuardError
from .fileio import ConfigError, ParseError, parse_config
from .model import DegenerateTruthError, DivergenceError
from .pipelines import (
    ExperimentConfig,
    cmd_burst_compare,
    cmd_diagnose,
    cmd_netflow_sweep,
    cmd_phase_grid,
    cmd_solve,
    cmd_synth,
    config_help,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DIVERGENCE = 3
EXIT_SIZE_GUARD = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trafficmaps",
        description="Estimate nominal-traffic and anomaly maps from link and flow counts.",
        epilog=config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "synth": "generate a synthetic scenario directory",
        "solve": "run one estimator on a scenario directory",
        "phase-grid": "rank/sparsity phase-transition grid (CSV + PGM)",
        "netflow-sweep": "estimation error versus flow-sampling rate",
        "burst-compare": "correlation-aware versus plain estimation under bursts",
        "diagnose": "incoherence measures, lambda range, and dual certificate",
    }
    for name, help_text in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value configuration file")
        p.add_argument("--seed", type=int, help="override the base seed")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--solver", choices=("p1", "p2", "p5", "p6"),
                       help="override solver.kind")
        p.add_argument("--threads", type=int, help="worker threads for grids/sweeps")
    return parser


def load_config(args) -> ExperimentConfig:
    values = parse_config(args.config) if args.config else {}
    cfg = ExperimentConfig(values)
    cfg.override("seed", args.seed)
    cfg.override("solver.kind", args.solver)
    cfg.override("threads", args.threads)
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        threads = cfg.get("threads")
        if args.command == "synth":
            cmd_synth(cfg, args.out)
        elif args.command == "solve":
            cmd_solve(cfg, args.out)
        elif args.command == "phase-grid":
            cmd_phase_grid(cfg, args.out, threads=threads)
        elif args.command == "netflow-sweep":
            cmd_netflow_sweep(cfg, args.out, threads=threads)
        elif args.command == "burst-compare":
            cmd_burst_compare(cfg, args.out)
        elif args.command == "diagnose":
            cmd_diagnose(cfg, args.out)
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
