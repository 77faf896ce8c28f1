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

One scale contract guards every run: Scenario, online.OnlineConfig and
experiments.ExperimentConfig call _check_scale, which holds the magnitudes
a run forms (gamma1, gamma2, the capacity, the prices, C1 and the stage
cost's terms) where their squares, summed over replications and slots,
stay a factor SCALE_MARGIN below float64's largest value. A ValueError at
construction names the input that breaks it.
"""

from __future__ import annotations

import math
import numbers
import sys
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


#: factor of float64's range that _check_scale keeps free, for the sums of squared
#: costs over replications and slots and the online prices' excursions
SCALE_MARGIN = 1e30


def _check_scale(scales: tuple, y=None, lambda_init=None, ridge=0.0, names=None) -> None:
    """Raise ValueError naming the input that takes a run's magnitude out of float64's range.

    scales is a Scenario's _scales(), y the capacity (None: a bound on
    compute_y_star's closed form) and lambda_init the slot-1 price (None:
    2*alpha_rev/N, the top of its draw). Each row below is a magnitude the
    engine or the analysis forms. The prices range up to the larger of the
    slot-1 price and (|y|*max d_t + |gamma2| + noise_sd*sqrt(N))/N, the
    price set from an estimate between the prior mean (0, 0) and the truth
    whose intercept is off by the noise sum's scale. A linear row must be
    at most top = (1.8e308/SCALE_MARGIN)^(1/4) = 3.7e69 and a quadratic one
    (C1 and the stage cost's terms) at most top^2: costs and the
    regression's sums are products of two linear magnitudes, and the
    analysis squares costs. compute_y_star's divisor must be a normal float
    and every row >= 0 (noise_sd's domain check). The message names the
    input of the first row out of range (of a product, the larger factor),
    through names for a caller that keys it otherwise. Python floats
    overflow to inf silently, and inf and nan fail every row.
    """
    n, horizon, gamma1, gamma2, alpha_max, beta_max, d_max, d2_sum, alpha_rev, noise_sd = scales
    ridge, g, names = float(ridge), 1.0 + gamma1, names or {}
    if y is None:  # sum d_t <= T*max d_t; d2_sum = 0 fails the demand row
        y = horizon * (alpha_rev * g + abs(gamma2) * d_max) / (d2_sum or math.nan)
        y_name = "alpha_rev"
    else:
        y, y_name = abs(float(y)), "y_capacity"
    yd_name = y_name if y >= d_max else "demand"
    slot1 = ((2.0 * alpha_rev, "alpha_rev") if lambda_init is None
             else (n * abs(float(lambda_init)), "lambda_init"))
    terms = ((y * d_max, yd_name), (abs(gamma2), "alphas"), (noise_sd * math.sqrt(n), "noise_sd"))
    u, u_name = max(slot1, (sum(t for t, _ in terms), max(terms)[1]))
    c1, lam, sd2 = 0.5 * n * (gamma1 + gamma1 * gamma1), u / n, noise_sd * noise_sd
    top = (sys.float_info.max / SCALE_MARGIN) ** 0.25
    top2 = top * top
    for name, what, value, low, high in (
        ("betas", "gamma1 = sum_i 1/beta_i", gamma1, 0.0, top),
        ("alphas", "max_i alpha_i", alpha_max, 0.0, top),
        ("alphas", "|gamma2| = sum_i alpha_i/beta_i", abs(gamma2), 0.0, top),
        ("demand", "sum_t d_t^2 * (1 + gamma1)", d2_sum * g, sys.float_info.min, top2),
        ("noise_sd", "the noise level sigma", noise_sd, 0.0, top),
        ("ridge_param", "the ridge weight", ridge, 0.0, top),
        (y_name, "the capacity |y|", y, 0.0, top),
        (u_name, "the regressor N*lambda", u, 0.0, top),
        ("betas", "C1 = N*(gamma1 + gamma1^2)/2", c1, 0.0, top2),
        ("betas" if c1 > lam * lam else u_name, "C1*lambda^2", c1 * lam * lam, 0.0, top2),
        ("alphas", "max_i alpha_i * |gamma2|", alpha_max * abs(gamma2), 0.0, top2),
        ("noise_sd" if sd2 >= beta_max else "betas", "sigma^2*max beta", sd2 * beta_max, 0, top2),
        (yd_name, "(|y| * max_t d_t)^2 / N", y * d_max * y * d_max / n, 0.0, top2),
    ):
        if not low <= value <= high:
            raise ValueError(f"{names.get(name, name)} out of range: {what} is {value:.3g}, "
                             f"outside [{low:.3g}, {high:.3g}]")


def _checked_array(name: str, values: ArrayLike, positive: bool) -> tuple:
    """Read-only 1-D float64 copy of values, each finite and > 0 (or >= 0), its min and max.

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
    lo, hi = float(arr.min()), float(arr.max())  # a nan makes both nan
    if not ((lo > 0.0 if positive else lo >= 0.0) and hi < math.inf):
        i = int(np.argmin(np.isfinite(arr) & ((arr > 0.0) if positive else (arr >= 0.0))))
        bound = "> 0" if positive else ">= 0"
        raise ValueError(f"{name}[{i}]={float(arr[i])} must be finite and {bound}")
    arr.flags.writeable = False
    return arr, lo, hi


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
        alphas, _, a_max = _checked_array("alphas", self.alphas, positive=False)
        betas, b_min, b_max = _checked_array("betas", self.betas, positive=True)
        if alphas.shape != betas.shape:
            raise ValueError(
                f"alphas and betas must have equal length, got {alphas.size} and {betas.size}"
            )
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "betas", betas)
        object.__setattr__(self, "_extremes", (a_max, b_min, b_max))  # for _check_scale

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

    Construction applies the scale contract (_check_scale) with the
    closed-form capacity and a drawn slot-1 price: a ValueError names the
    input that takes a magnitude of the run out of float64's range.

    Attributes:
        population: the N users.
        demand: normalized per-slot demand-reduction requirements d_t,
            finite and > 0; a read-only float64 array of length T.
        alpha_rev: revenue price per standardized unit of reduction, > 0; a float.
        noise_sd: per-user response noise standard deviation, >= 0; a float.
    """

    population: Population
    demand: NDArray[np.float64]
    alpha_rev: float
    noise_sd: float = 1.0

    def __post_init__(self):
        demand, _, d_max = _checked_array("demand", self.demand, positive=True)
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "_d_max", d_max)  # for _check_scale
        for name in ("alpha_rev", "noise_sd"):
            _check_finite(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.alpha_rev <= 0:
            raise ValueError(f"alpha_rev must be > 0, got {self.alpha_rev}")
        _check_scale(self._scales())

    def _scales(self) -> tuple:
        """N, T, gamma1, gamma2, max alpha_i and beta_i, max d_t, sum d_t^2, alpha_rev, noise_sd.

        A sum that could overflow (gamma1 <= N/min beta_i, |gamma2| <= N*max alpha_i/min
        beta_i, sum d_t^2 <= T*max d_t^2) is not formed: its inf fails _check_scale.
        """
        pop, d = self.population, self.demand
        n, (a_max, b_min, b_max), d_max = pop.n, pop._extremes, self._d_max
        g1 = pop.gamma1 if n / b_min <= 1e300 else math.inf
        g2 = pop.gamma2 if n * a_max / b_min <= 1e300 else -math.inf
        d2 = float(np.dot(d, d)) if self.horizon * d_max * d_max <= 1e300 else math.inf
        return n, self.horizon, g1, g2, a_max, b_max, d_max, d2, self.alpha_rev, self.noise_sd

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
