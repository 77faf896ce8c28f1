"""Watch the online price converge to the optimal price path.

Runs a single noisy episode of the iterative pricing loop on the
baseline scenario, printing the broadcast price against the optimal
price for a handful of slots, then a 200-replication sweep: the median
relative tracking error at a few slots and the verdict of every regret
check. It exits 1 when any check fails.

Run:  python3 demos/online_tracking.py
"""

import sys

from drpsim import (
    OnlineConfig,
    build_regret_report,
    median_tracking_error,
    run_episode,
    run_replications,
)
from drpsim.analysis import summarize
from drpsim.experiments import ExperimentConfig, scenario_and_capacity
from drpsim.rng import substream


def main() -> int:
    cfg = ExperimentConfig()
    scenario, y = scenario_and_capacity(cfg)
    print(f"baseline scenario: N={scenario.population.n}, "
          f"T={scenario.horizon}, committed capacity y={y:.4f}")
    print()

    traj = run_episode(
        OnlineConfig(scenario=scenario, y_capacity=y), substream(cfg.seed, 1, 0)
    )
    print("single episode (prices learned from noisy aggregate responses):")
    print("  t    lambda_t     lambda*_t    rel err    gamma1_hat")
    for t in (1, 2, 3, 5, 10, 25, 50, 100):
        i = t - 1
        rel = abs(traj.lambda_online[i] - traj.lambda_star[i]) / traj.lambda_star[i]
        print(
            f"  {t:>3}  {traj.lambda_online[i]:.6f}   {traj.lambda_star[i]:.6f}"
            f"   {rel:8.2%}   {traj.gamma1_hat[i]:.4f}"
        )
    print(f"true gamma1 = {scenario.population.gamma1:.4f}")
    print()

    reps = 200
    sweep = run_replications(scenario, y, reps, cfg.seed)
    med = median_tracking_error(sweep)
    print(f"{reps}-replication sweep, median over replications of "
          "|lambda_t - lambda*_t| / lambda*_t:")
    for t in (2, 5, 10, 20, 50, 100):
        print(f"  t={t:>3}: {med[t - 1]:7.2%}")
    print()
    checks = summarize(build_regret_report(sweep))["checks"]
    for name, ok in checks.items():
        print(f"{name}: {ok}")
    return 1 if False in checks.values() else 0


if __name__ == "__main__":
    sys.exit(main())
