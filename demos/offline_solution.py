"""Walk through the full-information benchmark on one drawn scenario.

Draws the default baseline scenario (N=100 users, T=100 slots), solves
for the optimal committed capacity y* and the per-slot optimal prices
in closed form, and cross-checks both against the slower numerical
oracles (the exact vertex of the reduced capacity objective, a parabola
in y, and a dense KKT solve per slot).

Run:  python3 demos/offline_solution.py
"""

import numpy as np

from drpsim import closed_form_solve, oracle_solve, oracle_y_star, reduced_objective
from drpsim.experiments import ExperimentConfig, scenario_and_capacity


def main() -> None:
    cfg = ExperimentConfig()  # baseline: alpha~U[1,2], beta~U[4,8], d~U[3,6]
    scenario, y_closed = scenario_and_capacity(cfg)
    pop = scenario.population

    print(f"scenario: N={pop.n} users, T={scenario.horizon} slots")
    print(f"aggregates: gamma1={pop.gamma1:.4f}  gamma2={pop.gamma2:.4f}")
    print(f"revenue price: alpha_rev={scenario.alpha_rev:.4f}")
    print()

    print(f"closed-form optimal capacity y* = {y_closed:.6f}")
    y_oracle = oracle_y_star(scenario)
    print(f"vertex oracle                y* = {y_oracle:.6f}")
    print(f"agreement: |diff| = {abs(y_closed - y_oracle):.2e}")
    print()

    sol = closed_form_solve(scenario, y_closed)
    print(f"optimal prices: min={sol.lambda_star.min():.6f}  "
          f"max={sol.lambda_star.max():.6f}")
    print("first five slots (closed form vs per-slot KKT oracle):")
    kkt = oracle_solve(scenario, y_closed)
    print("  t   d_t      lambda*      lambda*_kkt   q*")
    for t in range(5):
        print(
            f"  {t + 1}   {scenario.demand[t]:.3f}   "
            f"{sol.lambda_star[t]:.8f}   {kkt.lambda_star[t]:.8f}   "
            f"{sol.q_star[t]:.4f}"
        )
    worst = float(np.max(np.abs(sol.lambda_star - kkt.lambda_star)))
    print(f"max |closed - kkt| over all slots: {worst:.2e}")
    print()

    # the reduced objective is a parabola in y; show the vertex is y*
    for y in (y_closed - 0.5, y_closed, y_closed + 0.5):
        print(f"reduced objective at y={y:+.4f}: {reduced_objective(scenario, y):.6f}")


if __name__ == "__main__":
    main()
