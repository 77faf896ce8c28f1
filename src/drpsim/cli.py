"""Command-line experiment runner.

Subcommands:
    offline    print the committed capacity and optimal price path as CSV
    simulate   run one online episode, writing what regret --reps 1 writes
    regret     run a replication sweep, write analysis CSVs + summary.json
    sweep      run the whole experiment grid into per-kind subdirectories

Settings come from (in increasing precedence) built-in defaults, the
--config file, command-line flags, and finally the environment
variables DRPSIM_SEED and DRPSIM_OUT, which override the seed and the
output directory no matter where they were set.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .experiments import (
    ExperimentConfig,
    parse_config,
    run_experiment,
    scenario_and_capacity,
    write_table,
)
from .model import aggregate_from_noise
from .offline import lambda_star_path

__all__ = ["main"]

SWEEP_GRID = (
    "baseline",
    "paramset2",
    "repeated-dt:0.2",
    "repeated-dt:0.3",
    "repeated-dt:0.4",
    "blocked-dt:4",
)

#: each override flag, the ExperimentConfig field it sets and its metavar; its help is the field's
FLAGS = {
    "--seed": ("seed", "U64"),
    "--reps": ("reps", "INT"),
    "--out": ("out_dir", "DIR"),
    "--experiment": ("experiment", "KIND"),
    "--y-capacity": ("y_capacity", "FLOAT"),
}


def _config_help() -> str:
    """The --help epilog: every ExperimentConfig field, its default and description."""
    lines = []
    for key in fields(ExperimentConfig):
        shown = "unset" if key.default is None else str(key.default)
        lines.append(f"  {key.name:<13} {f'({shown})':<11} {key.metadata['help']}")
    return (
        "config file format: one 'key = value' per line, '#' starts a comment.\n"
        "keys (defaults in parentheses):\n" + "\n".join(lines) + "\n\n"
        "environment: DRPSIM_SEED and DRPSIM_OUT override seed and output\n"
        "directory over any file or flag value.\n"
    )


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults <- config file <- flags <- environment into one config."""
    text = Path(args.config).read_text() if args.config is not None else ""
    overrides = [(flag, key, getattr(args, key)) for flag, (key, _) in FLAGS.items()]
    for var, key in (("DRPSIM_SEED", "seed"), ("DRPSIM_OUT", "out_dir")):
        overrides.append((var, key, os.environ.get(var)))
    return parse_config(text, [entry for entry in overrides if entry[2] is not None])


def cmd_offline(args: argparse.Namespace) -> int:
    config = _load_config(args)
    scenario, y = scenario_and_capacity(config)
    lam = lambda_star_path(scenario, y)
    pop = scenario.population
    keys = ["y_capacity", "alpha_rev", "gamma1", "gamma2", "lambda_star_min", "lambda_star_max"]
    values = [y, scenario.alpha_rev, pop.gamma1, pop.gamma2, lam.min(), lam.max()]
    write_table(sys.stdout, {"key": np.array(keys), "value": np.array(values, dtype=float)})
    print()
    t = np.arange(1, scenario.horizon + 1)
    q = aggregate_from_noise(scenario, lam, 0.0)
    write_table(sys.stdout, {"t": t, "d_t": scenario.demand, "lambda_star": lam, "q_star": q})
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    # one episode is a one-replication run: it writes what `regret --reps 1` writes
    config = replace(_load_config(args), reps=1)
    run_experiment(config)
    print(f"wrote {Path(config.out_dir) / 'trajectory.csv'}")
    return 0


def cmd_regret(args: argparse.Namespace) -> int:
    config = _load_config(args)
    summary = run_experiment(config)
    analysis = summary["analysis"]
    print(f"experiment: {summary['experiment']}")
    print(f"y_capacity: {summary['y_capacity']}")
    if analysis is None:
        print(f"analysis: {summary['analysis_note']}")
    else:
        print(f"decay_slope: {analysis['decay_slope']}")
        print(f"log_bound: k1={analysis['k1']} k2={analysis['k2']}")
        for name, ok in analysis["checks"].items():
            print(f"{name}: {ok}")
    print(f"outputs in {config.out_dir}")
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    config = _load_config(args)
    base_out = Path(config.out_dir)
    any_failed = False
    configs = [
        replace(config, experiment=kind, out_dir=str(base_out / kind.replace(":", "-")))
        for kind in SWEEP_GRID
    ]
    # kinds with equal intervals draw one population from substream (seed, 0),
    # so they share its draws; a kind alone with its population keeps none
    populations = Counter(c.intervals() for c in configs)
    shared_draws: dict = {}
    for sub_config in configs:
        store = shared_draws if populations[sub_config.intervals()] > 1 else None
        summary = run_experiment(sub_config, shared_draws=store)
        analysis = summary["analysis"]
        if analysis is None:
            status = summary["analysis_note"]
            any_failed = True
        else:
            checks = analysis["checks"]
            failed = [k for k, v in checks.items() if v is False]
            status = "ok" if not failed else "FAIL " + ",".join(failed)
            any_failed = any_failed or bool(failed)
        print(f"{sub_config.experiment}: {status}")
    print(f"outputs in {base_out}")
    return 1 if any_failed else 0


#: each subcommand, its handler and its --help line, in --help order
COMMANDS = {
    "offline": (cmd_offline, "print capacity and optimal price path"),
    "simulate": (cmd_simulate, "run one episode, write per-slot CSV"),
    "regret": (cmd_regret, "replication sweep + regret analysis"),
    "sweep": (cmd_sweep, "run the full experiment grid"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drpsim",
        description="Online demand-response pricing simulator.",
        epilog=_config_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    settings = {key.name: key for key in fields(ExperimentConfig)}
    for flag, (key, metavar) in FLAGS.items():
        common.add_argument(flag, dest=key, metavar=metavar, help=settings[key].metadata["help"])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text) in COMMANDS.items():
        sub.add_parser(name, parents=[common], help=text).set_defaults(handler=handler)

    args = parser.parse_args(argv)
    try:
        status = args.handler(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return status
    except BrokenPipeError:
        # the reader left (`drpsim offline | head -1`): end quietly, and send
        # what is still buffered to devnull so the final flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
