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

The kernel (_run_draws) keeps the state in locals, starts it with no
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
the recursion is one kernel over local floats (_run_draws) that calls
only solve_normal_equations and the price rule each slot; it holds N
and m as floats, which keeps every bit (_run_draws says why).
Every run draws first, then runs its kernels: run_replications takes
its draws from draw_replications (worker threads) and runs their
recursions in replication order, so its outputs do not depend on the
thread count; run_episode is the one-replication case of the same code.

An episode's draw (_draw) is the unit uniform u behind the slot-1 price
and the noise statistics. It depends on N, noise_sd, T and the stream,
not on alpha_rev, the demand or the alphas, and the betas enter only
sum_i beta_i*eps_i^2. So one pass over a replication's normals serves
every population that shares N, noise_sd and T: draw_replications
reduces each fill against several betas arrays, and run_replications
runs a scenario over those draws (draws=...) in place of its own.
drpsim sweep draws its kinds' noise once this way.

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
from typing import Optional, Sequence

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
    "Draws",
    "run_episode",
    "draw_replications",
    "run_replications",
]

#: normals (4 MB) in one episode's noise buffer, which _noise_buffers splits
#: between draw_replications' worker threads; a call holds at most
#: max(NOISE_BLOCK, workers * 2*N), since each buffer holds one slot at least.
NOISE_BLOCK = 1 << 19

#: condition numbers beyond this are treated as rank deficiency
COND_LIMIT = 1e12


class UnidentifiableError(RuntimeError):
    """Normal matrix numerically singular (not enough price variation)."""


def solve_normal_equations(
    m: float, su: float, suu: float, sz: float, suz: float, ridge: float
) -> tuple[float, float]:
    """(gamma1_hat, gamma2_hat) solving (X'X + ridge*I) theta = X'Z in closed form.

    Scalar arithmetic on the regression state (m, sum u, sum u^2, sum Z,
    sum u*Z, ridge), cheap enough for the online kernel to call every
    slot; gamma2_hat estimates -sum_i alpha_i/beta_i. The sample count m
    may be an int or a float holding one (the kernel's): m + ridge is
    the same float either way.

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

    Steps 2 and 3 are _run_draws, the code run_replications runs on
    every replication's draw, here on one; so a sweep's replication r
    equals run_episode(config, substream(seed, 1, r)) bit for bit.
    Degenerate prices are counted and reported by one RuntimeWarning per
    episode.
    """
    scenario = config.scenario
    (buffer,) = _noise_buffers(scenario, 1)
    betas = (scenario.population.betas,)
    draw = _draw(scenario, betas, rng, buffer, uniform=config.lambda_init is None)
    return _run_draws(config, (draw,), 0, stacklevel=3).first_trajectory


def _draw(
    scenario: Scenario,
    betas: Sequence[NDArray[np.float64]],
    rng: np.random.Generator,
    buffer: NDArray[np.float64],
    products: Optional[NDArray[np.float64]] = None,
    uniform: bool = True,
) -> tuple[Optional[float], NDArray[np.float64], NDArray[np.float64]]:
    """An episode's random inputs: the slot-1 unit uniform and the noise statistics.

    The uniform u = rng.random() sets the slot-1 price h*u with
    h = 2*alpha_rev/N (_run_draws). numpy forms rng.uniform(0, h) as
    0 + h*u over the same u and the same stream position, so the price has
    the bits of a U[0, h] draw, while the draw itself does not depend on
    alpha_rev. u is None, and not drawn, when uniform is False (lambda_init
    sets the price). The statistics are _noise_statistics' against the
    P betas arrays.

    Consumes the stream in run_episode's order and touches nothing but
    rng, buffer and products, so draws on different streams may run
    concurrently.
    """
    u = rng.random() if uniform else None
    return (u, *_noise_statistics(scenario, betas, rng, buffer, products))


def _run_draws(
    config: OnlineConfig, drawn: tuple[tuple, ...], row: int, stacklevel: int
) -> SweepResult:
    """Steps 2 and 3 of run_episode on each draw, in order, as a sweep.

    row picks the config's population among the betas the draws were
    reduced against. N as a float, the slot-1 scale h = 2*alpha_rev/N,
    the demand as floats and lambda* are formed once per call. Each
    replication runs one kernel over locals (the regression state, N,
    gamma1, gamma2, y, the price) that calls only solve_normal_equations
    and next_price each slot, through this module's globals, and forms
    Q_t in model.aggregate_from_noise's operation order. A non-finite
    Q_t raises ValueError (gamma1 > 0, so a non-finite price gives one).

    N and the sample count m are floats (nf, m += 1.0), since CPython
    specialises arithmetic on two floats only. The bits are those of
    ints: an int operand of a float operation is converted with
    PyLong_AsDouble, as float(N) is, and m counts exactly below 2**53.

    A replication keeps only its rows and event counts; replication 0
    alone is kept whole, as first_trajectory. Each replication with
    degenerate prices warns when it ends, attributed stacklevel frames up.
    """
    scenario = config.scenario
    pop = scenario.population
    nf = float(pop.n)
    gamma1, gamma2 = pop.gamma1, pop.gamma2
    t_hor = scenario.horizon
    y = float(config.y_capacity)
    ridge = float(config.ridge_param)
    h = float(2.0 * scenario.alpha_rev / pop.n)
    demand = scenario.demand.tolist()
    lam_star = lambda_star_path(scenario, y)

    reps = len(drawn)
    lam_rows = np.empty((reps, t_hor))
    g1_rows = np.empty((reps, t_hor))
    c_on = np.empty((reps, t_hor))
    c_st = np.empty((reps, t_hor))
    first = None
    degenerate = fallback = 0
    inf = math.inf
    for r, (u, eps_sum, beta_eps2_sums) in enumerate(drawn):
        lam = float(config.lambda_init) if u is None else h * u
        m, su, suu, sz, suz = 0.0, 0.0, 0.0, 0.0, 0.0
        lam_path = [0.0] * t_hor
        g1_path = [0.0] * t_hor
        g2_path = [0.0] * t_hor
        q_path = [0.0] * t_hor
        degenerate_events = fallback_events = 0
        g1 = g2 = 0.0
        for t, d_t, s_t in zip(range(t_hor), demand, eps_sum[:, 0].tolist()):
            if t:
                try:
                    g1, g2 = solve_normal_equations(m, su, suu, sz, suz, ridge)
                except UnidentifiableError:
                    g1 = g2 = 0.0
                    fallback_events += 1
                try:
                    lam = next_price(g1, g2, y, d_t, nf)
                except DegenerateEstimateError:
                    degenerate_events += 1
            u_t = nf * lam
            q = u_t * gamma1 + gamma2 + s_t
            if not -inf < q < inf:
                raise ValueError(f"observation must be finite, got ({lam}, {q})")
            lam_path[t] = lam
            g1_path[t] = g1
            g2_path[t] = g2
            q_path[t] = q
            m += 1.0
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
        degenerate += degenerate_events
        fallback += fallback_events

        beta_eps2_sum = beta_eps2_sums[row]
        lambda_online = np.array(lam_path)
        q_online = np.array(q_path)
        q_star = aggregate_from_noise(scenario, lam_star, eps_sum[:, 1])
        cost_online = stage_costs_from_noise(
            scenario, y, lambda_online, q_online, eps_sum[:, 0], beta_eps2_sum[:, 0]
        )
        cost_star = stage_costs_from_noise(
            scenario, y, lam_star, q_star, eps_sum[:, 1], beta_eps2_sum[:, 1]
        )
        lam_rows[r] = lambda_online
        g1_rows[r] = g1_path
        c_on[r] = cost_online
        c_st[r] = cost_star
        if r == 0:
            first = Trajectory(
                t=np.arange(1, t_hor + 1, dtype=np.int64),
                d=scenario.demand.copy(),
                lambda_online=lambda_online,
                lambda_star=lam_star,
                gamma1_hat=np.array(g1_path),
                gamma2_hat=np.array(g2_path),
                q_online=q_online,
                q_star=q_star,
                cost_online=cost_online,
                cost_star=cost_star,
                degenerate_events=degenerate_events,
                fallback_events=fallback_events,
            )
    return SweepResult(
        scenario=scenario,
        lambda_star=lam_star,
        lambda_online=lam_rows,
        gamma1_hat=g1_rows,
        cost_online=c_on,
        cost_star=c_st,
        first_trajectory=first,
        degenerate_events=degenerate,
        fallback_events=fallback,
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
    scenario: Scenario,
    betas: Sequence[NDArray[np.float64]],
    rng: np.random.Generator,
    buffer: NDArray[np.float64],
    products: Optional[NDArray[np.float64]] = None,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Per-slot noise sums: (T, 2) of sum_i eps_i, (P, T, 2) of sum_i beta_i*eps_i^2.

    Row 0 is the online noise vector, row 1 the counterfactual one; the
    second array's [p] is reduced against betas[p], one of P arrays of N.
    The scenario gives noise_sd and T. The normals fill leading (k, 2, N)
    views of buffer (from _noise_buffers), k slots at a time: each view
    is filled with standard normals, scaled by noise_sd in place, reduced
    to sum_i eps_i, squared in place and reduced against each beta before
    the next is filled. That gives the same values and consumes the same
    stream as rng.normal(0, noise_sd, (k, 2, N)), which forms
    0 + noise_sd*z over the same z, for any k: each slot's row is reduced
    on its own. The last beta multiplies the squares in place, so P = 1
    allocates nothing but the statistics; the others' products go to the
    same view of products, a block of buffer's shape. Each product and
    sum is the one a call with that beta alone makes, so every
    population's statistics are bit-equal to its own call's. With
    noise_sd = 0 nothing is drawn; both are zero.
    """
    t_hor = scenario.horizon
    last = len(betas) - 1
    eps_sum = np.zeros((t_hor, 2))
    beta_eps2_sum = np.zeros((last + 1, t_hor, 2))
    if scenario.noise_sd == 0.0:
        return eps_sum, beta_eps2_sum
    block = buffer.shape[0]
    for start in range(0, t_hor, block):
        k = min(block, t_hor - start)
        eps = buffer[:k]
        rng.standard_normal(out=eps)
        eps *= scenario.noise_sd
        eps.sum(axis=2, out=eps_sum[start : start + k])
        np.square(eps, out=eps)
        for p, beta in enumerate(betas):
            product = eps if p == last else products[:k]
            np.multiply(eps, beta, out=product)
            product.sum(axis=2, out=beta_eps2_sum[p, start : start + k])
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


@dataclass(frozen=True, eq=False)
class Draws:
    """Every replication's draw, reduced against several populations' betas.

    draw_replications makes them; every run_replications call runs over
    its own or over draws=.... replications[r] is replication r's draw:
    the slot-1 unit uniform, the (T, 2) array of sum_i eps_i and the
    (P, T, 2) array of sum_i beta_i*eps_i^2, whose [p] is reduced against
    betas[p]. They hold 16*(P + 1)*T + 8 bytes of statistics per replication.
    """

    betas: tuple[NDArray[np.float64], ...]
    noise_sd: float
    horizon: int
    master_seed: int
    replications: tuple[tuple[float, NDArray[np.float64], NDArray[np.float64]], ...]

    def row(self, scenario: Scenario, reps: int, master_seed: int) -> int:
        """The index of scenario's betas in self.betas.

        Raises:
            ValueError: the draws were made for another N, noise_sd, T,
                replication count or master seed (the message names it),
                or no array of self.betas equals the scenario's.
        """
        made = (
            ("N", len(self.betas[0]), scenario.n),
            ("noise_sd", self.noise_sd, scenario.noise_sd),
            ("horizon", self.horizon, scenario.horizon),
            ("reps", len(self.replications), reps),
            ("master_seed", self.master_seed, master_seed),
        )
        for name, drawn, wanted in made:
            if drawn != wanted:
                raise ValueError(f"draws were made for {name} = {drawn}, not {wanted}")
        for p, betas in enumerate(self.betas):
            if np.array_equal(betas, scenario.population.betas):
                return p
        raise ValueError("draws were not made for the scenario's betas")


def _check_reps(reps: int) -> None:
    if isinstance(reps, bool) or not isinstance(reps, numbers.Integral):
        raise TypeError(f"reps must be an integer, got {reps!r}")
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")


def draw_replications(scenarios: Sequence[Scenario], reps: int, master_seed: int) -> Draws:
    """Draw each replication once for every distinct population of scenarios.

    The scenarios must share N, noise_sd and T, else ValueError names
    the first that differs; alpha_rev, the demand and the alphas may
    differ. Their distinct betas (compared by content, in first-seen
    order) form Draws.betas, and replication r's draw is run_episode's
    slot-1 uniform and noise statistics on substream (seed, 1, r),
    reduced against each of them: one fill of the normals serves all.

    The draws run on a thread pool: one thread per replication when
    reps < 2 * usable CPUs, so that C <= reps < 2C draws share all C CPUs
    instead of leaving reps - C to a second wave, else one per CPU. One
    episode's buffer, allocated here and split by _noise_buffers, gives
    each pool thread a share (two with several betas, the second for
    _noise_statistics' products) that it claims when it starts; README,
    Simulation engine, measures both rules. The substreams open here, in
    replication order. A failed draw is raised here, shutdown cancels the
    draws not yet started, and no thread outlives the call.
    """
    _check_reps(reps)
    first = scenarios[0]
    betas: list[NDArray[np.float64]] = []
    for scenario in scenarios:
        for name, attr in (("N", "n"), ("noise_sd", "noise_sd"), ("horizon", "horizon")):
            if getattr(scenario, attr) != getattr(first, attr):
                raise ValueError(f"scenarios to draw for must share {name}")
        own = scenario.population.betas
        if not any(np.array_equal(own, seen) for seen in betas):
            betas.append(own)
    cpus = _usable_cpus()
    threads = reps if reps < 2 * cpus else cpus
    per_thread = 1 if len(betas) == 1 else 2
    buffers = _noise_buffers(first, threads * per_thread)
    free = list(buffers.reshape(threads, per_thread, *buffers.shape[1:]))
    local = threading.local()

    def claim_buffers() -> None:
        # runs once in each pool thread; the pool starts at most one per share
        local.buffers = free.pop()

    def draw(rng: np.random.Generator) -> tuple:
        return _draw(first, betas, rng, *local.buffers)

    pool = ThreadPoolExecutor(max_workers=threads, initializer=claim_buffers)
    try:
        futures = [pool.submit(draw, substream(master_seed, 1, r)) for r in range(reps)]
        replications = tuple(future.result() for future in futures)
    finally:
        pool.shutdown(cancel_futures=True)
    return Draws(tuple(betas), first.noise_sd, first.horizon, master_seed, replications)


def run_replications(
    scenario: Scenario,
    y: float,
    reps: int,
    master_seed: int,
    ridge_param: float = OnlineConfig.ridge_param,
    *,
    draws: Optional[Draws] = None,
) -> SweepResult:
    """Independent episodes on one scenario, one substream per replication.

    Replication r uses substream (1, r) of the master seed, so results
    are independent of execution order and reproducible rep by rep.

    Every replication is drawn first (run_episode's slot-1 uniform and
    step 1, by draw_replications on its thread pool); then steps 2 and 3
    run here (_run_draws), in replication order, so every output equals
    the sequential run_episode loop bit for bit, whatever the worker
    count. An error in a draw is raised before any replication runs.

    draws, from draw_replications, replaces the call's own: steps 2 and
    3 run over their rows for the scenario's betas (Draws.row, which
    raises ValueError when they were made for another N, noise_sd, T,
    reps or master_seed, or lack the betas), and no thread starts. A
    draw does not depend on alpha_rev, the demand, y or ridge_param, so
    the outputs are those of a fresh draw, bit for bit.
    """
    config = OnlineConfig(scenario=scenario, y_capacity=y, ridge_param=ridge_param)
    if draws is None:
        draws = draw_replications([scenario], reps, master_seed)
    else:
        _check_reps(reps)
    row = draws.row(scenario, reps, master_seed)
    return _run_draws(config, draws.replications, row, stacklevel=2)


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1
