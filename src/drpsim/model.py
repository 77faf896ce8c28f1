"""Population and demand as arrays, user responses, and the stage cost.

The operator broadcasts a price signal lambda_t each slot. User i holds a
quadratic cost u_i(x) = 0.5*beta_i*x^2 + alpha_i*x for reducing consumption
by x and is paid N*lambda_t per unit, so its noiseless best response is

    x_i(lambda) = (N*lambda - alpha_i) / beta_i

observed by the operator only in aggregate and corrupted by i.i.d. Gaussian
noise per user. Everything the operator must learn about the population is
carried by two aggregates:

    gamma1 = sum_i 1/beta_i        gamma2 = -sum_i alpha_i/beta_i

so that E[Q_t] = N*gamma1*lambda_t + gamma2. The realized stage cost for
committed capacity Y and demand level d_t is

    C_t = (1/N) * sum_i [0.5*beta_i*x_i^2 + alpha_i*x_i]
        + (1/(2N)) * (Q_t - Y*d_t)^2

The operator's revenue term -alpha_rev*Y*T/N is constant in lambda and is
excluded here (it cancels in every cost difference); totals that include it
can be formed by the caller.

stage_cost evaluates C_t from the N responses of one slot.
aggregate_from_noise (one slot or a whole horizon) and
stage_costs_from_noise evaluate Q_t and C_t from two statistics of each
slot's noise vector, sum_i eps_i and sum_i beta_i*eps_i^2, through
algebraic identities derived in their docstrings.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import ArrayLike, NDArray

__all__ = [
    "Population",
    "Scenario",
    "realize_outcome",
    "stage_cost",
    "aggregate_from_noise",
    "stage_costs_from_noise",
]


def _check_finite(name: str, value: object) -> None:
    """Raise TypeError or ValueError naming name unless value is a finite real, not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"{name} must be finite, got an int too large for a float") from None
    if not finite:
        raise ValueError(f"{name} must be finite, got {value}")


#: largest |value| accepted for a key whose costs grow as its square (see _check_range)
SCALE_MAX = 1e60


def _check_range(name: str, value: float, low: float = -SCALE_MAX) -> None:
    """Raise ValueError naming name unless low <= value <= SCALE_MAX.

    Costs grow as the square of noise_sd (through beta_i*eps_i^2 and the
    squared imbalance; the prices follow the noisy aggregates), of a set
    capacity y (through the imbalance Q_t - y*d_t) and of c_rev (the
    closed-form capacity is about c_rev * (1 + gamma1), which grows with
    N). The analysis squares cost differences, so each key's fourth
    power must fit below float64's 1.8e308 with room for beta_i, N, T,
    reps and the squared draws: 1e60^4 = 1e240 leaves a factor of about
    1e68. A config's alpha_rev is c_rev * max_t d_t, so Scenario holds
    alpha_rev to SCALE_MAX * max_t d_t, the alpha_rev of c_rev = SCALE_MAX:
    the slot-1 price and the closed-form capacity grow with it as with c_rev.
    Only user-set keys are bounded: at c_rev = 1e60 the closed-form
    capacity is about 5e60 at N = 100 and 5e63 at N = 1e5, where the
    cumulative regret is about 1e133 and its square still fits.
    """
    if not low <= value <= SCALE_MAX:
        raise ValueError(f"{name} must be in [{low:g}, {SCALE_MAX:g}], got {value}")


def _checked_array(name: str, values: ArrayLike, positive: bool) -> NDArray[np.float64]:
    """Read-only 1-D float64 copy of values, each finite and > 0 (or >= 0).

    Raises:
        ValueError: an entry is not a number or an int too large for a
            float, the array is empty or not 1-D, or an entry is out of
            range; the message names the array.
    """
    try:
        arr = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name} must hold numbers: {exc}") from None
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-D array, got shape {arr.shape}")
    ok = np.isfinite(arr) & ((arr > 0.0) if positive else (arr >= 0.0))
    if not ok.all():
        i = int(np.argmin(ok))
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name}[{i}]={float(arr[i])} must be finite and {bound}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class Population:
    """N users' cost coefficients, with cached aggregates.

    Attributes:
        alphas: linear coefficients alpha_i (currency per unit response),
            finite and >= 0; a read-only float64 array of length N.
        betas: quadratic coefficients beta_i (currency per unit squared),
            finite and > 0; a read-only float64 array of length N.
    """

    alphas: NDArray[np.float64]
    betas: NDArray[np.float64]

    def __post_init__(self):
        alphas = _checked_array("alphas", self.alphas, positive=False)
        betas = _checked_array("betas", self.betas, positive=True)
        if alphas.shape != betas.shape:
            raise ValueError(
                f"alphas and betas must have equal length, got {alphas.size} and {betas.size}"
            )
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)

    @property
    def n(self) -> int:
        return self.alphas.shape[0]

    @cached_property
    def gamma1(self) -> float:
        """sum_i 1/beta_i."""
        return float(np.sum(1.0 / self.betas))

    @cached_property
    def gamma2(self) -> float:
        """-sum_i alpha_i/beta_i (the intercept of the aggregate response)."""
        return float(-np.sum(self.alphas / self.betas))


@dataclass(frozen=True, eq=False)
class Scenario:
    """One simulation instance: who responds, to what demand, at what noise.

    Attributes:
        population: the N users.
        demand: normalized per-slot demand-reduction requirements d_t,
            finite and > 0; a read-only float64 array of length T.
        alpha_rev: revenue price per standardized unit of reduction, > 0
            and at most SCALE_MAX * max_t d_t.
        noise_sd: per-user response noise standard deviation, 0..SCALE_MAX.
    """

    population: Population
    demand: NDArray[np.float64]
    alpha_rev: float
    noise_sd: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "demand", _checked_array("demand", self.demand, positive=True))
        _check_finite("alpha_rev", self.alpha_rev)
        _check_finite("noise_sd", self.noise_sd)
        if self.alpha_rev <= 0:
            raise ValueError(f"alpha_rev must be > 0, got {self.alpha_rev}")
        # the product experiments.build_scenario forms at c_rev = SCALE_MAX
        bound = SCALE_MAX * float(self.demand.max())
        if float(self.alpha_rev) > bound:  # a float32 would cast the bound and overflow
            raise ValueError(
                f"alpha_rev must be <= {bound:g}, {SCALE_MAX:g} times the largest demand, "
                f"got {self.alpha_rev}"
            )
        _check_range("noise_sd", self.noise_sd, 0)

    @property
    def n(self) -> int:
        return self.population.n

    @property
    def horizon(self) -> int:
        return self.demand.shape[0]


def realize_outcome(
    scenario: Scenario, lambda_t: ArrayLike, eps: ArrayLike
) -> NDArray[np.float64]:
    """Responses (N*lambda_t - alpha_i)/beta_i + eps_i of every user to price lambda_t.

    eps is an explicit noise vector of length N (or a scalar); with
    eps = 0 each entry is the exact minimizer of u_i(x) - N*lambda_t*x.
    A (T, 1) column of prices gives the (T, N) responses of T slots.
    """
    pop = scenario.population
    return (scenario.n * lambda_t - pop.alphas) / pop.betas + eps


def stage_cost(
    scenario: Scenario, y: float, t: int, x: NDArray[np.float64]
) -> tuple[float, float]:
    """Aggregate Q_t and realized operating cost C_t of responses x in slot t.

    Q_t = sum_i x_i is numpy's deterministic reduction over the fixed user
    order, and C_t = (1/N) sum_i [0.5*beta_i*x_i^2 + alpha_i*x_i]
    + (1/(2N)) (Q_t - y*d_t)^2 under capacity y, with t 1-based. The
    constant revenue term is excluded (see module docstring).
    """
    if not 1 <= t <= scenario.horizon:
        raise ValueError(f"slot index {t} out of range 1..{scenario.horizon}")
    pop = scenario.population
    n = scenario.n
    q = float(x.sum())
    user_term = float((0.5 * pop.betas * x + pop.alphas) @ x) / n
    imbalance = q - y * scenario.demand.item(t - 1)
    return q, user_term + imbalance * imbalance / (2.0 * n)


def aggregate_from_noise(
    scenario: Scenario, lam: ArrayLike, eps_sum: ArrayLike
) -> float | NDArray[np.float64]:
    """Aggregate Q_t = N*gamma1*lambda_t + gamma2 + sum_i eps_it of a price or price path.

    Summing realize_outcome's x_i = (N*lambda_t - alpha_i)/beta_i + eps_i
    over users gives this identity, so Q_t needs the per-slot noise sum
    eps_sum instead of the N responses. It agrees with the summed
    responses up to rounding, not bit for bit. Given arrays it evaluates
    the expression elementwise; the online kernel writes it out for each
    slot in this operation order, so the two agree bit for bit.
    """
    pop = scenario.population
    return scenario.n * lam * pop.gamma1 + pop.gamma2 + eps_sum


def stage_costs_from_noise(
    scenario: Scenario,
    y: float,
    lam: NDArray[np.float64],
    q: NDArray[np.float64],
    eps_sum: NDArray[np.float64],
    beta_eps2_sum: NDArray[np.float64],
) -> NDArray[np.float64]:
    """Stage cost C_t of every slot from two noise statistics per slot.

    The cost stage_cost gives to the responses realize_outcome(scenario,
    lam[t], eps_t) with aggregate q[t], for all T slots at once. Writing
    x_i = m_i + eps_i with m_i = (N*lambda - alpha_i)/beta_i, so that
    beta_i*m_i = N*lambda - alpha_i, each user's cost is

        0.5*beta_i*x_i^2 + alpha_i*x_i
            = (N^2*lambda^2 - alpha_i^2)/(2*beta_i) + N*lambda*eps_i + 0.5*beta_i*eps_i^2

    and the user term of C_t is therefore

        (N^2*lambda^2*gamma1 - sum_i alpha_i^2/beta_i)/(2N)
            + lambda*sum_i eps_i + sum_i beta_i*eps_i^2/(2N),

    which needs only eps_sum = sum_i eps_it and beta_eps2_sum =
    sum_i beta_i*eps_it^2. The imbalance term (q - y*d_t)^2/(2N) is
    stage_cost's. The result agrees with stage_cost up to rounding.
    """
    pop = scenario.population
    n = scenario.n
    a2_over_b = float(np.sum(pop.alphas * pop.alphas / pop.betas))
    user = (
        (n * n * pop.gamma1 * lam * lam - a2_over_b) / (2.0 * n)
        + lam * eps_sum
        + beta_eps2_sum / (2.0 * n)
    )
    imbalance = q - y * scenario.demand
    return user + imbalance * imbalance / (2.0 * n)
