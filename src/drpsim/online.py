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

The operator observes only the aggregate response, and the loop forms
it from the slot's noise sum by the identity
Q_t = N*gamma1*lambda_t + gamma2 + sum_i eps_it
(model.aggregate_from_noise); the N individual responses are never
built. The noise is reduced to per-slot statistics before the loop, so
the recursion itself is scalar work only.

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

from .estimator import UnidentifiableError, init, solve_normal_equations, update
from .model import Scenario, aggregate_from_noise, stage_costs_from_noise
from .offline import DegenerateEstimateError, lambda_star_path, next_price
from .rng import substream

__all__ = [
    "OnlineConfig",
    "Trajectory",
    "SweepResult",
    "run_episode",
    "run_replications",
]

#: most normals drawn per call (4 MB); a block holds at least one slot's
#: 2*N. At N = 1e5 a block holds two slots: with one-slot (1.6 MB) blocks
#: glibc trimmed the heap after every episode, and the next scenario build
#: page-faulted all of its arrays again.
NOISE_BLOCK = 1 << 19


@dataclass(frozen=True)
class OnlineConfig:
    """Inputs of one online episode.

    Attributes:
        scenario: population, demand, noise level.
        y_capacity: committed capacity (offline Y* or externally chosen).
        lambda_init: slot-1 price; None draws U[0, 2*alpha_rev/N].
        ridge_param: estimator regularization weight.
        coupled_noise: counterfactual costs reuse the online noise draws.
    """

    scenario: Scenario
    y_capacity: float
    lambda_init: Optional[float] = None
    ridge_param: float = 0.001
    coupled_noise: bool = False

    def __post_init__(self):
        if not np.isfinite(self.y_capacity):
            raise ValueError("y_capacity must be finite")
        if self.lambda_init is not None and not np.isfinite(self.lambda_init):
            raise ValueError("lambda_init must be finite")


@dataclass
class Trajectory:
    """Per-slot record of one episode and its recovery-event counts.

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
    degenerate_events: int = 0
    fallback_events: int = 0


def run_episode(config: OnlineConfig, rng: np.random.Generator) -> Trajectory:
    """Run the T-slot pricing loop and record both cost streams.

    Deterministic given (config, rng state). The stream is consumed in a
    fixed order: the slot-1 draw (only if lambda_init is None), then per
    slot the online noise vector followed by the counterfactual one.
    Those vectors are drawn as (k, 2, N) blocks of consecutive slots,
    which yields the same values as slot-by-slot draws.

    The episode runs in three steps:

    1. Noise statistics: each block is reduced at once to sum_i eps_i
       and sum_i beta_i*eps_i^2 of both rows, and then dropped.
    2. Recursion: estimate, price and observe on plain floats, O(1) per
       slot. The observed aggregate is model.aggregate_from_noise's
       Q_t = N*lambda_t*gamma1 + gamma2 + sum_i eps_it, so the loop never
       forms the N responses.
    3. Costs: the stage costs and the counterfactual aggregates are
       formed after the loop (model.stage_costs_from_noise,
       model.aggregate_from_noise).

    Degenerate prices are counted and reported by one RuntimeWarning per
    episode.
    """
    scenario = config.scenario
    n = scenario.n
    t_hor = scenario.horizon
    y = config.y_capacity
    lam_star = lambda_star_path(scenario, y)
    est_state = init(config.ridge_param, n)

    if config.lambda_init is not None:
        lam = float(config.lambda_init)
    else:
        lam = float(rng.uniform(0.0, 2.0 * scenario.alpha_rev / n))

    eps_sum, beta_eps2_sum = _noise_statistics(scenario, rng)

    lam_path = []
    g1_path = []
    g2_path = []
    q_path = []
    degenerate_events = 0
    fallback_events = 0
    g1, g2 = 0.0, 0.0
    for t, (d_t, eps_sum_t) in enumerate(zip(scenario.demand.tolist(), eps_sum[:, 0].tolist())):
        if t > 0:
            try:
                g1, g2 = solve_normal_equations(est_state)
            except UnidentifiableError:
                g1, g2 = 0.0, 0.0
                fallback_events += 1
            try:
                lam = next_price(g1, g2, y, d_t, n)
            except DegenerateEstimateError:
                degenerate_events += 1
        q = aggregate_from_noise(scenario, lam, eps_sum_t)
        lam_path.append(lam)
        g1_path.append(g1)
        g2_path.append(g2)
        q_path.append(q)
        update(est_state, lam, q)

    if degenerate_events:
        warnings.warn(
            "degenerate estimate: reusing previous price "
            f"in {degenerate_events} of {t_hor} slots",
            RuntimeWarning,
            stacklevel=2,
        )

    lambda_online = np.array(lam_path)
    q_online = np.array(q_path)
    cf = 0 if config.coupled_noise else 1
    q_star = aggregate_from_noise(scenario, lam_star, eps_sum[:, cf])
    return Trajectory(
        t=np.arange(1, t_hor + 1, dtype=np.int64),
        d=scenario.demand.copy(),
        lambda_online=lambda_online,
        lambda_star=lam_star,
        gamma1_hat=np.array(g1_path),
        gamma2_hat=np.array(g2_path),
        q_online=q_online,
        q_star=q_star,
        cost_online=stage_costs_from_noise(
            scenario, y, lambda_online, q_online, eps_sum[:, 0], beta_eps2_sum[:, 0]
        ),
        cost_star=stage_costs_from_noise(
            scenario, y, lam_star, q_star, eps_sum[:, cf], beta_eps2_sum[:, cf]
        ),
        degenerate_events=degenerate_events,
        fallback_events=fallback_events,
    )


def _noise_statistics(
    scenario: Scenario, rng: np.random.Generator
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """(T, 2) arrays of sum_i eps_i and sum_i beta_i*eps_i^2 per slot and row.

    Row 0 is the online noise vector, row 1 the counterfactual one. The
    normals are drawn in (k, 2, N) blocks of at most NOISE_BLOCK values
    (or one slot), each reduced before the next is drawn. With noise_sd
    = 0 nothing is drawn and both statistics are zero.
    """
    n = scenario.n
    t_hor = scenario.horizon
    eps_sum = np.zeros((t_hor, 2))
    beta_eps2_sum = np.zeros((t_hor, 2))
    if scenario.noise_sd == 0.0:
        return eps_sum, beta_eps2_sum
    betas = scenario.population.betas
    block = max(1, NOISE_BLOCK // (2 * n))
    for start in range(0, t_hor, block):
        k = min(block, t_hor - start)
        eps = rng.normal(0.0, scenario.noise_sd, (k, 2, n))
        eps_sum[start : start + k] = eps.sum(axis=2)
        np.square(eps, out=eps)
        eps *= betas
        beta_eps2_sum[start : start + k] = eps.sum(axis=2)
    return eps_sum, beta_eps2_sum


@dataclass
class SweepResult:
    """Replication-major matrices from a Monte Carlo sweep.

    All matrices have shape (reps, T). first_trajectory is replication
    0 in full, gamma2_hat included, kept for per-slot CSV output.
    """

    scenario: Scenario
    lambda_star: NDArray[np.float64]
    lambda_online: NDArray[np.float64]
    gamma1_hat: NDArray[np.float64]
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
        ridge_param=ridge_param,
        coupled_noise=coupled_noise,
    )
    t_hor = scenario.horizon
    lam = np.empty((reps, t_hor))
    g1 = np.empty((reps, t_hor))
    c_on = np.empty((reps, t_hor))
    c_st = np.empty((reps, t_hor))
    first = None
    degenerate = 0
    fallback = 0
    for r in range(reps):
        traj = run_episode(config, substream(master_seed, 1, r))
        lam[r] = traj.lambda_online
        g1[r] = traj.gamma1_hat
        c_on[r] = traj.cost_online
        c_st[r] = traj.cost_star
        degenerate += traj.degenerate_events
        fallback += traj.fallback_events
        if first is None:
            first = traj
    return SweepResult(
        scenario=scenario,
        lambda_star=first.lambda_star,
        lambda_online=lam,
        gamma1_hat=g1,
        cost_online=c_on,
        cost_star=c_st,
        first_trajectory=first,
        degenerate_events=degenerate,
        fallback_events=fallback,
    )
