"""Closed-loop pricing: estimate, price, broadcast, observe, repeat.

Slot 1 broadcasts an initial price (given, or drawn uniformly from
[0, 2*alpha_rev/N]). Every later slot first estimates (gamma1, gamma2)
from the accumulated history, then prices by certainty equivalence
(offline.next_price),

    lambda_t = (y*d_t - gamma2_hat) / (N*gamma1_hat + N)

which equals the offline optimal price when the estimates are exact
(gamma2_hat estimates the intercept -sum alpha_i/beta_i). Recovery is
never fatal: a degenerate denominator reuses the previous price, and an
estimator failure (possible only with ridge_param = 0) falls back to
the prior mean (0, 0); both event kinds are counted on the Trajectory.

Each slot also realizes the counterfactual outcome at the optimal price
so that online and optimal stage costs are recorded side by side. The
counterfactual uses fresh independent noise by default; coupled_noise
reuses the online draws (common random numbers) for lower-variance gap
estimates. The counterfactual draw is consumed from the stream either
way, so the flag changes nothing about the online path itself.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .estimator import EstimatorError, EstimatorState, estimate, init, update
from .model import Scenario, realize_outcome, stage_cost
from .offline import DegenerateEstimateError, lambda_star_path, next_price
from .rng import substream

__all__ = [
    "OnlineConfig",
    "Trajectory",
    "SweepResult",
    "run_episode",
    "run_replications",
]


@dataclass(frozen=True)
class OnlineConfig:
    """Inputs of one online episode.

    Attributes:
        scenario: population, demand, noise level.
        y_capacity: committed capacity (offline Y* or externally chosen).
        lambda_init: slot-1 price; None draws U[0, 2*alpha_rev/N].
        ridge_param: estimator regularization weight.
        coupled_noise: counterfactual costs reuse the online noise draws.
        initial_estimator: start from this estimator state instead of a
            fresh init(ridge_param, N); its own ridge/n_scale govern.
    """

    scenario: Scenario
    y_capacity: float
    lambda_init: Optional[float] = None
    ridge_param: float = 0.001
    coupled_noise: bool = False
    initial_estimator: Optional[EstimatorState] = None

    def __post_init__(self):
        if not np.isfinite(self.y_capacity):
            raise ValueError("y_capacity must be finite")
        if self.lambda_init is not None and not np.isfinite(self.lambda_init):
            raise ValueError("lambda_init must be finite")


@dataclass
class Trajectory:
    """Per-slot record of one episode plus the terminal estimator state.

    All arrays have length T; gamma columns hold the estimate used to
    price the slot (slot 1 prices from the prior mean, recorded (0, 0)).
    """

    t: NDArray[np.int64]
    d: NDArray[np.float64]
    lambda_online: NDArray[np.float64]
    lambda_star: NDArray[np.float64]
    gamma1_hat: NDArray[np.float64]
    gamma2_hat: NDArray[np.float64]
    q_online: NDArray[np.float64]
    q_star: NDArray[np.float64]
    cost_online: NDArray[np.float64]
    cost_star: NDArray[np.float64]
    estimator: EstimatorState
    degenerate_events: int = 0
    fallback_events: int = 0


def run_episode(config: OnlineConfig, rng: np.random.Generator) -> Trajectory:
    """Run the T-slot pricing loop and record both cost streams.

    Deterministic given (config, rng state). The stream is consumed in a
    fixed order: the slot-1 draw (only if lambda_init is None), then per
    slot the online noise vector followed by the counterfactual one.
    """
    scenario = config.scenario
    n = scenario.n
    t_hor = scenario.horizon
    y = config.y_capacity
    demand = scenario.demand.tolist()
    noise_sd = scenario.noise_sd
    lam_star = lambda_star_path(scenario, y)
    residual_var = n * noise_sd * noise_sd

    if config.initial_estimator is not None:
        est_state = config.initial_estimator
    else:
        est_state = init(config.ridge_param, n)

    if config.lambda_init is not None:
        lam = float(config.lambda_init)
    else:
        lam = float(rng.uniform(0.0, 2.0 * scenario.alpha_rev / n))

    lam_path = np.empty(t_hor)
    g1_path = np.empty(t_hor)
    g2_path = np.empty(t_hor)
    q_online = np.empty(t_hor)
    q_star = np.empty(t_hor)
    cost_online = np.empty(t_hor)
    cost_star = np.empty(t_hor)
    degenerate_events = 0
    fallback_events = 0
    g1, g2 = 0.0, 0.0
    zero_eps = np.zeros(n)

    for t in range(1, t_hor + 1):
        if t > 1:
            try:
                gam = estimate(est_state, residual_var)
                g1, g2 = gam.gamma1_hat, gam.gamma2_hat
            except EstimatorError:
                g1, g2 = 0.0, 0.0
                fallback_events += 1
            try:
                lam = next_price(g1, g2, y, demand[t - 1], n)
            except DegenerateEstimateError:
                degenerate_events += 1
                warnings.warn(
                    "degenerate estimate: reusing previous price", RuntimeWarning
                )

        if noise_sd == 0.0:
            eps_online = zero_eps
            eps_cf = zero_eps
        else:
            eps_online = rng.normal(0.0, noise_sd, n)
            eps_cf = rng.normal(0.0, noise_sd, n)
            if config.coupled_noise:
                eps_cf = eps_online

        x_online = realize_outcome(scenario, lam, eps_online)
        x_cf = realize_outcome(scenario, float(lam_star[t - 1]), eps_cf)

        lam_path[t - 1] = lam
        g1_path[t - 1] = g1
        g2_path[t - 1] = g2
        q, cost_online[t - 1] = stage_cost(scenario, y, t, x_online)
        q_online[t - 1] = q
        q_star[t - 1], cost_star[t - 1] = stage_cost(scenario, y, t, x_cf)

        update(est_state, lam, q)

    return Trajectory(
        t=np.arange(1, t_hor + 1, dtype=np.int64),
        d=scenario.demand.copy(),
        lambda_online=lam_path,
        lambda_star=lam_star,
        gamma1_hat=g1_path,
        gamma2_hat=g2_path,
        q_online=q_online,
        q_star=q_star,
        cost_online=cost_online,
        cost_star=cost_star,
        estimator=est_state,
        degenerate_events=degenerate_events,
        fallback_events=fallback_events,
    )


@dataclass
class SweepResult:
    """Replication-major matrices from a Monte Carlo sweep.

    All matrices have shape (reps, T). first_trajectory is replication
    0 in full, kept for per-slot CSV output.
    """

    scenario: Scenario
    y_capacity: float
    lambda_star: NDArray[np.float64]
    lambda_online: NDArray[np.float64]
    gamma1_hat: NDArray[np.float64]
    gamma2_hat: NDArray[np.float64]
    cost_online: NDArray[np.float64]
    cost_star: NDArray[np.float64]
    first_trajectory: Trajectory
    degenerate_events: int
    fallback_events: int

    @property
    def reps(self) -> int:
        return self.lambda_online.shape[0]


def run_replications(
    scenario: Scenario,
    y: float,
    reps: int,
    master_seed: int,
    ridge_param: float = 0.001,
    lambda_init: Optional[float] = None,
    coupled_noise: bool = False,
) -> SweepResult:
    """Independent episodes on one scenario, one substream per replication.

    Replication r uses substream (1, r) of the master seed, so results
    are independent of execution order and reproducible rep by rep.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    config = OnlineConfig(
        scenario=scenario,
        y_capacity=y,
        lambda_init=lambda_init,
        ridge_param=ridge_param,
        coupled_noise=coupled_noise,
    )
    t_hor = scenario.horizon
    lam = np.empty((reps, t_hor))
    g1 = np.empty((reps, t_hor))
    g2 = np.empty((reps, t_hor))
    c_on = np.empty((reps, t_hor))
    c_st = np.empty((reps, t_hor))
    first = None
    degenerate = 0
    fallback = 0
    for r in range(reps):
        traj = run_episode(config, substream(master_seed, 1, r))
        lam[r] = traj.lambda_online
        g1[r] = traj.gamma1_hat
        g2[r] = traj.gamma2_hat
        c_on[r] = traj.cost_online
        c_st[r] = traj.cost_star
        degenerate += traj.degenerate_events
        fallback += traj.fallback_events
        if first is None:
            first = traj
    return SweepResult(
        scenario=scenario,
        y_capacity=y,
        lambda_star=first.lambda_star,
        lambda_online=lam,
        gamma1_hat=g1,
        gamma2_hat=g2,
        cost_online=c_on,
        cost_star=c_st,
        first_trajectory=first,
        degenerate_events=degenerate,
        fallback_events=fallback,
    )
