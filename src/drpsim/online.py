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
the recursion itself is scalar work only. run_replications draws several
replications' noise at once on worker threads and runs their recursions
in replication order, so its outputs do not depend on the thread count.

Each slot also realizes the counterfactual outcome at the optimal price
so that online and optimal stage costs are recorded side by side. The
counterfactual uses fresh independent noise by default; coupled_noise
reuses the online draws (common random numbers) for lower-variance gap
estimates. The counterfactual draw is consumed from the stream either
way, so the flag changes nothing about the online path itself.
"""

from __future__ import annotations

import os
import queue
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from .estimator import UnidentifiableError, init, solve_normal_equations, update
from .model import Scenario, _check_finite, aggregate_from_noise, stage_costs_from_noise
from .offline import DegenerateEstimateError, lambda_star_path, next_price
from .rng import substream

__all__ = [
    "OnlineConfig",
    "Trajectory",
    "SweepResult",
    "run_episode",
    "run_replications",
]

#: most normals the noise buffers of one run_episode or run_replications
#: call hold between them (4 MB), or one slot's 2*N when that is more:
#: the cap on the memory a call's noise takes, whatever its worker count.
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
        _check_finite("y_capacity", self.y_capacity)
        if not isinstance(self.coupled_noise, bool):
            raise TypeError(f"coupled_noise must be bool, got {self.coupled_noise!r}")
        if self.lambda_init is not None:
            _check_finite("lambda_init", self.lambda_init)


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

    1. Noise statistics: each block is drawn into one buffer of at most
       NOISE_BLOCK normals, reused across the episode (standard normals
       scaled by noise_sd in place), and reduced at once to sum_i eps_i
       and sum_i beta_i*eps_i^2 of both rows before the next block
       overwrites it.
    2. Recursion: estimate, price and observe on plain floats, O(1) per
       slot. The observed aggregate is model.aggregate_from_noise's
       Q_t = N*lambda_t*gamma1 + gamma2 + sum_i eps_it, so the loop never
       forms the N responses.
    3. Costs: the stage costs and the counterfactual aggregates are
       formed after the loop (model.stage_costs_from_noise,
       model.aggregate_from_noise).

    Steps 2 and 3 are the code run_replications runs on each
    replication's draws, so a sweep's replication r equals
    run_episode(config, substream(seed, 1, r)) bit for bit. Degenerate
    prices are counted and reported by one RuntimeWarning per episode.
    """
    (buffer,) = _noise_buffers(config.scenario, 1)
    return _finish_episode(config, *_draw(config, rng, buffer), stacklevel=3)


def _draw(
    config: OnlineConfig, rng: np.random.Generator, buffer: NDArray[np.float64]
) -> tuple[float, NDArray[np.float64], NDArray[np.float64]]:
    """An episode's random inputs: the slot-1 price and its noise statistics.

    Consumes the stream in run_episode's order and touches nothing but
    rng and buffer, so draws on different streams may run concurrently.
    """
    scenario = config.scenario
    if config.lambda_init is not None:
        lam = float(config.lambda_init)
    else:
        lam = float(rng.uniform(0.0, 2.0 * scenario.alpha_rev / scenario.n))
    return (lam, *_noise_statistics(scenario, rng, buffer))


def _finish_episode(
    config: OnlineConfig,
    lam: float,
    eps_sum: NDArray[np.float64],
    beta_eps2_sum: NDArray[np.float64],
    stacklevel: int,
) -> Trajectory:
    """Steps 2 and 3 of run_episode from slot-1 price lam and the noise statistics.

    The degenerate-price warning is attributed stacklevel frames up.
    """
    scenario = config.scenario
    n = scenario.n
    t_hor = scenario.horizon
    y = config.y_capacity
    lam_star = lambda_star_path(scenario, y)
    est_state = init(config.ridge_param, n)

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
            stacklevel=stacklevel,
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


def _noise_buffers(scenario: Scenario, count: int) -> NDArray[np.float64]:
    """count (k, 2, N) noise buffers in one array, splitting one episode's buffer.

    An episode's buffer holds NOISE_BLOCK normals, or T slots when fewer,
    or one slot when 2*N is more; count buffers split it, with at least
    one slot each. k is 0 when noise_sd = 0: then nothing is drawn.
    """
    n = scenario.n
    if scenario.noise_sd == 0.0:
        return np.empty((count, 0, 2, n))
    episode_slots = min(max(1, NOISE_BLOCK // (2 * n)), scenario.horizon)
    return np.empty((count, max(1, episode_slots // count), 2, n))


def _noise_statistics(
    scenario: Scenario, rng: np.random.Generator, buffer: NDArray[np.float64]
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """(T, 2) arrays of sum_i eps_i and sum_i beta_i*eps_i^2 per slot and row.

    Row 0 is the online noise vector, row 1 the counterfactual one. The
    normals fill leading (k, 2, N) views of buffer (from _noise_buffers),
    k slots at a time: each view is filled with standard normals, scaled
    by noise_sd in place and reduced before the next is filled. That
    gives the same values and consumes the same stream as
    rng.normal(0, noise_sd, (k, 2, N)), which forms 0 + noise_sd*z over
    the same z, for any k: each slot's row is reduced on its own. With
    noise_sd = 0 nothing is drawn; both statistics are zero.
    """
    t_hor = scenario.horizon
    eps_sum = np.zeros((t_hor, 2))
    beta_eps2_sum = np.zeros((t_hor, 2))
    if scenario.noise_sd == 0.0:
        return eps_sum, beta_eps2_sum
    betas = scenario.population.betas
    block = buffer.shape[0]
    for start in range(0, t_hor, block):
        k = min(block, t_hor - start)
        eps = buffer[:k]
        rng.standard_normal(out=eps)
        eps *= scenario.noise_sd
        eps.sum(axis=2, out=eps_sum[start : start + k])
        np.square(eps, out=eps)
        eps *= betas
        eps.sum(axis=2, out=beta_eps2_sum[start : start + k])
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

    Each replication's draw (run_episode's slot-1 price and step 1) runs
    on a pool of up to one worker thread per usable CPU; numpy releases
    the GIL while it fills and reduces the noise. Steps 2 and 3 run here,
    in replication order, while later replications are drawn, so every
    output equals the sequential run_episode loop bit for bit, whatever
    the worker count. The workers split one episode's noise buffer
    between them (fewer workers are used when NOISE_BLOCK has no slot
    for each), and at most two draws per worker are in flight. No thread
    outlives the call; an error in a draw is raised here once the earlier
    replications are done, and the draws not yet started are cancelled.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    config = OnlineConfig(
        scenario=scenario,
        y_capacity=y,
        ridge_param=ridge_param,
        coupled_noise=coupled_noise,
    )
    workers = min(reps, _usable_cpus(), max(1, NOISE_BLOCK // (2 * scenario.n)))
    buffers = queue.SimpleQueue()
    for buffer in _noise_buffers(scenario, workers):
        buffers.put(buffer)

    def draw(rng: np.random.Generator) -> tuple[float, NDArray[np.float64], NDArray[np.float64]]:
        # at most `workers` draws run at once, so a buffer is always free
        buffer = buffers.get()
        try:
            return _draw(config, rng, buffer)
        finally:
            buffers.put(buffer)

    t_hor = scenario.horizon
    lam = np.empty((reps, t_hor))
    g1 = np.empty((reps, t_hor))
    c_on = np.empty((reps, t_hor))
    c_st = np.empty((reps, t_hor))
    first = None
    degenerate = 0
    fallback = 0
    window = 2 * workers
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        # substreams are opened here, in replication order
        pending = deque(
            pool.submit(draw, substream(master_seed, 1, r)) for r in range(min(reps, window))
        )
        for r in range(reps):
            if r + window < reps:
                pending.append(pool.submit(draw, substream(master_seed, 1, r + window)))
            traj = _finish_episode(config, *pending.popleft().result(), stacklevel=2)
            lam[r] = traj.lambda_online
            g1[r] = traj.gamma1_hat
            c_on[r] = traj.cost_online
            c_st[r] = traj.cost_star
            degenerate += traj.degenerate_events
            fallback += traj.fallback_events
            if first is None:
                first = traj
    finally:
        pool.shutdown(cancel_futures=True)
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1
