"""Command-line experiment runner.

Subcommands:
    offline    print the committed capacity and optimal price path as CSV
    simulate   run one online episode and emit its per-slot CSV
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
from dataclasses import replace
from pathlib import Path

import numpy as np

from .experiments import (
    ExperimentConfig,
    _parse_number,
    parse_config,
    run_experiment,
    scenario_and_capacity,
    write_table,
    write_trajectory_csv,
)
from .model import aggregate_from_noise
from .offline import lambda_star_path
from .online import run_replications

__all__ = ["main"]

SWEEP_GRID = (
    "baseline",
    "paramset2",
    "repeated-dt:0.2",
    "repeated-dt:0.3",
    "repeated-dt:0.4",
    "blocked-dt:4",
)

_CONFIG_HELP = """\
config file format: one 'key = value' per line, '#' starts a comment.
keys (defaults in parentheses):
  experiment    (baseline)  baseline | paramset2 | repeated-dt:P | blocked-dt:B
  n_users       (100)       population size N
  horizon       (100)       number of slots T
  reps          (1000)      Monte Carlo replications
  seed          (42)        master seed; every stream derives from it
  c_rev         (1.0)       revenue price constant: alpha_rev = c_rev * max d_t
  ridge         (0.001)     estimator regularization weight
  noise_sd      (1.0)       per-user response noise standard deviation
  coupled_noise (false)     counterfactual costs reuse the online noise draws
  y_capacity    (unset)     committed capacity override (default: closed form)
  alpha_low/alpha_high, beta_low/beta_high, d_low/d_high
                (unset)     sampling-interval overrides for the chosen kind
  out_dir       (results)   output directory

environment: DRPSIM_SEED and DRPSIM_OUT override seed and output
directory over any file or flag value.
"""


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults <- config file <- flags <- environment."""
    config = parse_config(Path(args.config).read_text() if args.config is not None else "")
    flags = dict(
        seed=args.seed,
        reps=args.reps,
        out_dir=args.out,
        experiment=args.experiment,
        y_capacity=args.y_capacity,
        coupled_noise=True if args.coupled_noise else None,
    )
    config = replace(config, **{k: v for k, v in flags.items() if v is not None})
    env_seed = os.environ.get("DRPSIM_SEED")
    if env_seed is not None:
        config = replace(config, seed=_parse_number(int, env_seed, "DRPSIM_SEED"))
    env_out = os.environ.get("DRPSIM_OUT")
    if env_out is not None:
        config = replace(config, out_dir=env_out)
    return config


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
    config = _load_config(args)
    scenario, y = scenario_and_capacity(config)
    # replication 0 of a sweep is the episode; only online knows its stream
    traj = run_replications(
        scenario, y, 1, config.seed, ridge_param=config.ridge, coupled_noise=config.coupled_noise
    ).first_trajectory
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "trajectory.csv"
    write_trajectory_csv(path, traj)
    print(f"wrote {path}")
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
    for kind in SWEEP_GRID:
        sub_dir = base_out / kind.replace(":", "-")
        sub_config = replace(config, experiment=kind, out_dir=str(sub_dir))
        summary = run_experiment(sub_config)
        analysis = summary["analysis"]
        if analysis is None:
            status = summary["analysis_note"]
            any_failed = True
        else:
            checks = analysis["checks"]
            failed = [k for k, v in checks.items() if v is False]
            status = "ok" if not failed else "FAIL " + ",".join(failed)
            any_failed = any_failed or bool(failed)
        print(f"{kind}: {status}")
    print(f"outputs in {base_out}")
    return 1 if any_failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="drpsim",
        description="Online demand-response pricing simulator.",
        epilog=_CONFIG_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="key = value config file")
    common.add_argument("--seed", type=int, metavar="U64", help="master seed")
    common.add_argument("--reps", type=int, metavar="INT", help="replication count")
    common.add_argument("--out", metavar="DIR", help="output directory")
    common.add_argument(
        "--experiment",
        metavar="KIND",
        help="baseline | paramset2 | repeated-dt:P | blocked-dt:B",
    )
    common.add_argument(
        "--coupled-noise",
        action="store_true",
        help="couple counterfactual costs to the online noise draws",
    )
    common.add_argument(
        "--y-capacity", type=float, metavar="FLOAT", help="override committed capacity"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser(
        "offline", parents=[common], help="print capacity and optimal price path"
    ).set_defaults(handler=cmd_offline)
    sub.add_parser(
        "simulate", parents=[common], help="run one episode, write per-slot CSV"
    ).set_defaults(handler=cmd_simulate)
    sub.add_parser(
        "regret", parents=[common], help="replication sweep + regret analysis"
    ).set_defaults(handler=cmd_regret)
    sub.add_parser(
        "sweep", parents=[common], help="run the full experiment grid"
    ).set_defaults(handler=cmd_sweep)

    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
