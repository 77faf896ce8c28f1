"""Reproduce the regret anatomy: 1/t gap decay and log-t cumulative growth.

Runs a 500-replication baseline sweep and prints the three headline
diagnostics the test suite pins down:

  * the per-slot optimality gap decays like 1/t (log-log slope near -1),
  * cumulative regret stays inside constant multiples of log t,
  * the squared price bias sits below the price variance from slot 10.

It then prints the verdict of every check and exits 1 when any fails.

Run:  python3 demos/regret_analysis.py
"""

import sys

import numpy as np

from drpsim import build_regret_report, run_replications
from drpsim.analysis import DECAY_WINDOW, LOG_BOUND_RATIO_CAP, LOG_BOUND_T0, summarize
from drpsim.experiments import ExperimentConfig, scenario_and_capacity


def main() -> int:
    cfg = ExperimentConfig(reps=500)
    scenario, y = scenario_and_capacity(cfg)
    sweep = run_replications(scenario, y, cfg.reps, cfg.seed)
    report = build_regret_report(sweep)

    print(f"baseline, N={scenario.population.n}, T={scenario.horizon}, "
          f"{cfg.reps} replications")
    print(f"gap constants: C1={report.c1:.4f}  C2={report.c2:.4f}")
    print()

    print("per-slot expected gap, variance-reduced estimate C1*E[(lambda-lambda*)^2]:")
    print("  t     gap          gap * t")
    for t in (5, 10, 20, 40, 80, 100):
        g = report.gap_quadratic[t - 1]
        print(f"  {t:>3}  {g:.6e}  {g * t:.4f}")
    print(f"log-log decay slope over t in [{DECAY_WINDOW[0]:g}, {DECAY_WINDOW[1]:g}]: "
          f"{report.decay_slope:.3f} "
          "(pure 1/t would be -1.000)")
    print()

    print("cumulative regret against log t:")
    print("  t     cum regret   cum / log t")
    for t in (10, 25, 50, 100):
        c = report.cum_regret[t - 1]
        print(f"  {t:>3}  {c:10.4f}   {c / np.log(t):8.4f}")
    print(f"envelope constants on [t0={LOG_BOUND_T0}, T]: "
          f"k1={report.k1:.3f}, k2={report.k2:.3f} "
          f"(ratio {report.k2 / report.k1:.2f}, cap {LOG_BOUND_RATIO_CAP:.0f}) -> "
          f"{'log-bounded' if report.log_bound_passed else 'NOT log-bounded'}")
    print()

    checks = summarize(report)["checks"]
    for name, ok in checks.items():
        print(f"{name}: {ok}")
    return 1 if False in checks.values() else 0


if __name__ == "__main__":
    sys.exit(main())
