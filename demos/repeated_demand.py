"""Stress the estimator with repeated and blocked demand profiles.

Identification relies on price variation, and the online price moves
with d_t. This demo reruns the pipeline with 20/30/40% of the demand
slots forced to share one value, and with demand constant on blocks of
four slots, and prints each kind's tracking and regret diagnostics with
the verdict of every check. It exits 1 when any check fails.

Run:  python3 demos/repeated_demand.py
"""

import sys

import numpy as np

from drpsim import build_regret_report, run_replications
from drpsim.analysis import (
    GAP_SLOPE_BAND,
    LOG_BOUND_RATIO_CAP,
    TRACKING_FROM,
    TRACKING_TOL,
    summarize,
)
from drpsim.experiments import ExperimentConfig, scenario_and_capacity


def run_kind(kind: str, reps: int = 300) -> list[str]:
    """Print one kind's diagnostics and checks; return the names of failed checks."""
    cfg = ExperimentConfig(experiment=kind, reps=reps)
    scenario, y = scenario_and_capacity(cfg)
    _, counts = np.unique(scenario.demand, return_counts=True)
    sweep = run_replications(scenario, y, reps, cfg.seed)
    report = build_regret_report(sweep)
    print(
        f"  {kind:<16} distinct d_t: {counts.size:>3}   "
        f"tracking(t>={TRACKING_FROM}): {report.tracking_max:6.2%}   "
        f"slope: {report.decay_slope:+.3f}   "
        f"k2/k1: {report.k2 / report.k1:5.2f}   "
        f"identification failures: {sweep.fallback_events + sweep.degenerate_events}"
    )
    checks = summarize(report)["checks"]
    print("    " + "  ".join(f"{name}: {ok}" for name, ok in checks.items()))
    return [name for name, ok in checks.items() if ok is False]


def main() -> int:
    print("demand-profile robustness, N=100, T=100, 300 replications each")
    print(f"(thresholds: tracking < {TRACKING_TOL:.0%}, slope in [{GAP_SLOPE_BAND[0]}, "
          f"{GAP_SLOPE_BAND[1]}], k2/k1 <= {LOG_BOUND_RATIO_CAP:.0f})")
    print()
    failed = []
    for kind in (
        "baseline",
        "repeated-dt:0.2",
        "repeated-dt:0.3",
        "repeated-dt:0.4",
        "blocked-dt:4",
    ):
        failed += [f"{kind}:{name}" for name in run_kind(kind)]
    print()
    print("failed checks: " + (", ".join(failed) if failed else "none"))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
