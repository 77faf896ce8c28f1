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

The estimate is an iterative linear regression of the aggregate
response on the price. Each slot adds one pair (u_s, Z_s) with
regressor u_s = N*lambda_s and Z_s = gamma1*u_s + gamma2 + noise. The
state is the sample count m, four running sums and the ridge weight r,
six plain numbers (m, sum u, sum u^2, sum Z, sum u*Z, r):

    X'X = [[sum u^2, sum u], [sum u, m]]      X'Z = [sum u*Z, sum Z]

_finish_episode keeps the state in locals, starts it with no
observations and adds each observation in O(1); solve_normal_equations
takes the six in that order and solves (X'X + r*I) theta = X'Z in
closed form. With r = 0 this is plain least squares and needs two
distinct prices; with r > 0 it is defined from zero data and shrinks
toward the prior mean (0, 0).

The operator observes only the aggregate response, and the loop forms
it from the slot's noise sum by the identity
Q_t = N*gamma1*lambda_t + gamma2 + sum_i eps_it
(model.aggregate_from_noise); the N individual responses are never
built. The noise is reduced to per-slot statistics before the loop, so
the recursion is one kernel over local floats (_finish_episode) that
calls only solve_normal_equations and the price rule each slot.
run_replications draws several replications' noise at once on worker
threads and runs their recursions in replication order, so its outputs
do not depend on the thread count.

An episode's draw (_draw) is the unit uniform u behind the slot-1 price
and the noise statistics. It depends on the population's betas,
noise_sd, T and the stream, not on alpha_rev or the demand, so scenarios
that share a population share their draws: run_replications can reuse
the draws of an earlier call through a store its caller owns
(shared_draws), and drpsim sweep passes one store to the kinds that
share a population.

Each slot also realizes the counterfactual outcome at the optimal price
so that online and optimal stage costs are recorded side by side. The
counterfactual faces its own noise vector, drawn after the online one
from the same stream and independent of it.
"""

from __future__ import annotations

import math
import numbers
import os
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from numpy.typing import NDArray

from .model import Scenario, _check_finite, _check_scale, aggregate_from_noise
from .model import stage_costs_from_noise
from .offline import DegenerateEstimateError, lambda_star_path, next_price
from .rng import substream

__all__ = [
    "UnidentifiableError",
    "solve_normal_equations",
    "OnlineConfig",
    "Trajectory",
    "SweepResult",
    "run_episode",
    "run_replications",
]

#: normals (4 MB) in one episode's noise buffer, which _noise_buffers splits
#: between run_replications' worker threads; a call holds at most
#: max(NOISE_BLOCK, workers * 2*N), since each buffer holds one slot at least.
NOISE_BLOCK = 1 << 19

#: condition numbers beyond this are treated as rank deficiency
COND_LIMIT = 1e12


class UnidentifiableError(RuntimeError):
    """Normal matrix numerically singular (not enough price variation)."""


def solve_normal_equations(
    m: int, su: float, suu: float, sz: float, suz: float, ridge: float
) -> tuple[float, float]:
    """(gamma1_hat, gamma2_hat) solving (X'X + ridge*I) theta = X'Z in closed form.

    Scalar arithmetic on the regression state (m, sum u, sum u^2, sum Z,
    sum u*Z, ridge), cheap enough for the online kernel to call every
    slot; gamma2_hat estimates -sum_i alpha_i/beta_i.

    Raises:
        UnidentifiableError: condition number of the regularized normal
            matrix exceeds COND_LIMIT (prices carry too little variation)
            or the matrix is zero (no samples and ridge == 0).
    """
    a00 = suu + ridge
    a11 = m + ridge

    # condition number from the closed-form symmetric 2x2 eigenvalues
    mean = 0.5 * (a00 + a11)
    disc = math.hypot(0.5 * (a00 - a11), su)
    lo = mean - disc
    if lo <= 0.0 or (mean + disc) > COND_LIMIT * lo:
        raise UnidentifiableError("unidentifiable: insufficient price variation")

    det = a00 * a11 - su * su
    g1 = (a11 * suz - su * sz) / det
    g2 = (a00 * sz - su * suz) / det
    return g1, g2


@dataclass(frozen=True)
class OnlineConfig:
    """Inputs of one online episode.

    Attributes:
        scenario: population, demand, noise level.
        y_capacity: committed capacity (offline Y* or externally chosen).
        lambda_init: slot-1 price; None draws U[0, 2*alpha_rev/N].
        ridge_param: estimator regularization weight, >= 0.

    Construction applies the scale contract (model._check_scale) to these
    against the scenario, the ridge weight's domain included, so
    run_replications fails before any stream opens.
    """

    scenario: Scenario
    y_capacity: float
    lambda_init: Optional[float] = None
    ridge_param: float = 0.001

    def __post_init__(self):
        _check_finite("y_capacity", self.y_capacity)
        if self.lambda_init is not None:
            _check_finite("lambda_init", self.lambda_init)
        _check_finite("ridge_param", self.ridge_param)
        _check_scale(self.scenario._scales(), self.y_capacity, self.lambda_init, self.ridge_param)


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
    2. Recursion: estimate, price and observe in one kernel over local
       floats, O(1) per slot. The observed aggregate is
       model.aggregate_from_noise's Q_t = N*lambda_t*gamma1 + gamma2 +
       sum_i eps_it, so the loop never forms the N responses.
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
) -> tuple[Optional[float], NDArray[np.float64], NDArray[np.float64]]:
    """An episode's random inputs: the slot-1 unit uniform and the noise statistics.

    The uniform u = rng.random() sets the slot-1 price h*u with
    h = 2*alpha_rev/N (_finish_episode). numpy forms rng.uniform(0, h) as
    0 + h*u over the same u and the same stream position, so the price has
    the bits of a U[0, h] draw, while the draw itself does not depend on
    alpha_rev. u is None, and not drawn, when lambda_init sets the price.

    Consumes the stream in run_episode's order and touches nothing but
    rng and buffer, so draws on different streams may run concurrently.
    """
    u = rng.random() if config.lambda_init is None else None
    return (u, *_noise_statistics(config.scenario, rng, buffer))


def _finish_episode(
    config: OnlineConfig,
    u: Optional[float],
    eps_sum: NDArray[np.float64],
    beta_eps2_sum: NDArray[np.float64],
    stacklevel: int,
) -> Trajectory:
    """Steps 2 and 3 of run_episode from one _draw's uniform and noise statistics.

    Step 2 is one kernel over locals (the regression state, N,
    gamma1, gamma2, y, the price) that calls only solve_normal_equations and
    next_price each slot, through this module's globals, and forms Q_t in
    model.aggregate_from_noise's operation order. A non-finite Q_t raises
    ValueError (gamma1 > 0, so a non-finite price gives one). The
    degenerate-price warning is attributed stacklevel frames up.
    """
    scenario = config.scenario
    pop = scenario.population
    n = pop.n
    gamma1, gamma2 = pop.gamma1, pop.gamma2
    t_hor = scenario.horizon
    y = float(config.y_capacity)
    lam = float(config.lambda_init) if u is None else float(2.0 * scenario.alpha_rev / n) * u
    lam_star = lambda_star_path(scenario, y)
    m, su, suu, sz, suz, ridge = 0, 0.0, 0.0, 0.0, 0.0, float(config.ridge_param)

    lam_path = [0.0] * t_hor
    g1_path = [0.0] * t_hor
    g2_path = [0.0] * t_hor
    q_path = [0.0] * t_hor
    degenerate_events = fallback_events = 0
    g1 = g2 = 0.0
    inf = math.inf
    for t, d_t, s_t in zip(range(t_hor), scenario.demand.tolist(), eps_sum[:, 0].tolist()):
        if t:
            try:
                g1, g2 = solve_normal_equations(m, su, suu, sz, suz, ridge)
            except UnidentifiableError:
                g1 = g2 = 0.0
                fallback_events += 1
            try:
                lam = next_price(g1, g2, y, d_t, n)
            except DegenerateEstimateError:
                degenerate_events += 1
        u_t = n * lam
        q = u_t * gamma1 + gamma2 + s_t
        if not -inf < q < inf:
            raise ValueError(f"observation must be finite, got ({lam}, {q})")
        lam_path[t] = lam
        g1_path[t] = g1
        g2_path[t] = g2
        q_path[t] = q
        m += 1
        su += u_t
        suu += u_t * u_t
        sz += q
        suz += u_t * q

    if degenerate_events:
        warnings.warn(
            "degenerate estimate: reusing previous price "
            f"in {degenerate_events} of {t_hor} slots",
            RuntimeWarning,
            stacklevel=stacklevel,
        )

    lambda_online = np.array(lam_path)
    q_online = np.array(q_path)
    q_star = aggregate_from_noise(scenario, lam_star, eps_sum[:, 1])
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
            scenario, y, lam_star, q_star, eps_sum[:, 1], beta_eps2_sum[:, 1]
        ),
        degenerate_events=degenerate_events,
        fallback_events=fallback_events,
    )


def _noise_buffers(scenario: Scenario, count: int) -> NDArray[np.float64]:
    """count (k, 2, N) noise buffers in one array, splitting one episode's buffer.

    An episode's buffer holds NOISE_BLOCK normals, or T slots when fewer,
    or one slot when 2*N is more. Each buffer gets an equal share of its
    slots, but one slot at least (k is 0 when noise_sd = 0: then nothing
    is drawn), so count buffers hold more than the episode's buffer only
    when it has fewer than count slots, and then count slots of 2*N.
    """
    n = scenario.n
    episode_slots = min(max(1, NOISE_BLOCK // (2 * n)), scenario.horizon)
    k = 0 if scenario.noise_sd == 0.0 else max(1, episode_slots // count)
    return np.empty((count, k, 2, n))


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
    ridge_param: float = OnlineConfig.ridge_param,
    *,
    shared_draws: Optional[dict] = None,
) -> SweepResult:
    """Independent episodes on one scenario, one substream per replication.

    Replication r uses substream (1, r) of the master seed, so results
    are independent of execution order and reproducible rep by rep.

    Each replication's draw (run_episode's slot-1 uniform and step 1) runs
    on a pool of worker threads (_draw_pool); numpy releases the GIL while
    it fills and reduces the noise. Steps 2 and 3 run here, in replication
    order, while later replications are drawn, so every output equals the
    sequential run_episode loop bit for bit, whatever the worker count.
    Substreams are opened here, in replication order; each worker thread
    draws into its own share of one episode's noise buffer
    (_noise_buffers), and a finished draw holds only its (T, 2) statistics
    until its turn. No thread outlives the call; an error in
    a draw is raised here once the earlier replications are done, and
    the draws not yet started are cancelled.

    shared_draws is a dict the caller owns and passes to every call that
    may share draws; drpsim sweep passes one to the kinds that share a
    population. A draw depends only on the population's betas, noise_sd,
    T and its substream, so the store keys its entries by betas (by
    content), noise_sd, T, reps and master_seed; alpha_rev, the demand, y
    and ridge_param may differ. A call that finds its entry runs steps 2
    and 3 over the stored draws, in replication order, and starts no
    thread: its outputs are those of a fresh draw, bit for bit.
    A call that misses draws as above and stores its draws once every
    replication has been drawn and finished, so a call that raises
    stores nothing. An entry holds 32*T + 8 bytes of statistics per
    replication.
    """
    if isinstance(reps, bool) or not isinstance(reps, numbers.Integral):
        raise TypeError(f"reps must be an integer, got {reps!r}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    config = OnlineConfig(scenario=scenario, y_capacity=y, ridge_param=ridge_param)
    stored = kept = None
    if shared_draws is not None:
        betas = scenario.population.betas.tobytes()
        key = (betas, scenario.noise_sd, scenario.horizon, reps, master_seed)
        stored = shared_draws.get(key)
        kept = [] if stored is None else None

    t_hor = scenario.horizon
    lam = np.empty((reps, t_hor))
    g1 = np.empty((reps, t_hor))
    c_on = np.empty((reps, t_hor))
    c_st = np.empty((reps, t_hor))
    first = None
    degenerate = 0
    fallback = 0
    pool = None
    try:
        if stored is None:
            pool, draw = _draw_pool(config, reps)
            # map reads the generator here: substreams open in this thread, in order
            draws = pool.map(draw, (substream(master_seed, 1, r) for r in range(reps)))
        else:
            draws = stored
        for r, drawn in enumerate(draws):
            traj = _finish_episode(config, *drawn, stacklevel=2)
            lam[r] = traj.lambda_online
            g1[r] = traj.gamma1_hat
            c_on[r] = traj.cost_online
            c_st[r] = traj.cost_star
            degenerate += traj.degenerate_events
            fallback += traj.fallback_events
            if first is None:
                first = traj
            if kept is not None:
                kept.append(drawn)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    if kept is not None:
        shared_draws[key] = kept
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


def _draw_pool(
    config: OnlineConfig, reps: int
) -> tuple[ThreadPoolExecutor, Callable[[np.random.Generator], tuple]]:
    """A thread pool for reps draws, and the function its threads draw with.

    The pool has one thread per replication when reps < 2 * usable CPUs,
    else one per usable CPU. With C CPUs and C <= reps < 2C, a thread per
    CPU would draw the last reps - C replications in a second wave with
    CPUs idle; one per replication shares every CPU among all the draws,
    which then take about reps/C draw-times instead of 2 (README,
    Simulation engine).

    Each pool thread takes one of the buffers _noise_buffers splits one
    episode's buffer into when it starts, and draws only into it. The
    buffers are allocated once per call, here in the calling thread;
    allocating each draw's block on its pool thread measured slower to
    set up on large-pop (README, Simulation engine).
    """
    cpus = _usable_cpus()
    free = list(_noise_buffers(config.scenario, reps if reps < 2 * cpus else cpus))
    local = threading.local()

    def claim_buffer() -> None:
        # runs once in each pool thread; the pool starts at most one per buffer
        local.buffer = free.pop()

    def draw(rng: np.random.Generator) -> tuple:
        return _draw(config, rng, local.buffer)

    return ThreadPoolExecutor(max_workers=len(free), initializer=claim_buffer), draw


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1
