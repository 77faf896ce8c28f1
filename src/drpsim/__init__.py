"""Online demand-response pricing: offline optima, online learning, regret.

A numpy library plus a small CLI. The model module holds the
population and demand as arrays, user responses, and stage costs;
offline computes the full-information optimum (with independent
numerical oracles); online implements the iterative-linear-regression
pricing loop, its state, update and solve included; analysis turns
replication sweeps into regret, bias/variance, and decay-rate reports;
experiments/cli reproduce the named experiment families end to end.

The names below are the common entry points; everything else is
imported from its submodule (drpsim.model, drpsim.offline, ...).
"""

from .analysis import (
    analytic_gap,
    build_regret_report,
    empirical_gap,
    fit_decay,
    median_tracking_error,
    regret_constants,
)
from .model import Population, Scenario
from .offline import (
    closed_form_solve,
    compute_y_star,
    oracle_solve,
    oracle_y_star,
    reduced_objective,
)
from .online import OnlineConfig, run_episode, run_replications

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # model
    "Population",
    "Scenario",
    # offline
    "compute_y_star",
    "closed_form_solve",
    "oracle_solve",
    "oracle_y_star",
    "reduced_objective",
    # online
    "OnlineConfig",
    "run_episode",
    "run_replications",
    # analysis
    "regret_constants",
    "analytic_gap",
    "empirical_gap",
    "fit_decay",
    "median_tracking_error",
    "build_regret_report",
]
