"""Regret, bias/variance, and decay-rate analysis of replication sweeps.

The expected one-step excess cost at price lambda_t is an exact quadratic
around the optimal price,

    E[cost_online - cost_star | lambda_t] = C1*(lambda_t - lambda_star_t)^2
    C1 = (N/2)*(gamma1 + gamma1^2)

because the additive response noise inflates both cost streams by the
same constant and the linear term vanishes at the optimum. Two
estimators of the per-slot gap are therefore available from a sweep:

  * the raw cost difference averaged over replications (empirical_gap),
    unbiased but noisy since the noise-only cost variation survives in
    each replication;
  * C1 times the mean squared price deviation (the gap_quadratic series
    of RegretReport), the same expectation with the observation noise
    integrated out analytically, hence far tighter at equal replication
    counts. Decay-slope fits use it; cumulative regret stays on the raw
    series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
from numpy.typing import NDArray

from .model import Population
from .online import SweepResult

__all__ = [
    "LogBoundResult",
    "RegretReport",
    "regret_constants",
    "analytic_gap",
    "empirical_gap",
    "fit_decay",
    "log_bound_check",
    "price_bias_variance",
    "median_tracking_error",
    "build_regret_report",
    "summarize",
]

#: optimal prices smaller than this in magnitude have no relative error
LAMBDA_STAR_TOL = 1e-12

#: first slot and largest k2/k1 of the log-t regret envelope check
LOG_BOUND_T0 = 10
LOG_BOUND_RATIO_CAP = 20.0

#: slots [lo, hi] of the gap_quadratic decay-slope fit, and the band the
#: slope must fall in (1/t decay reads -1)
DECAY_WINDOW = (10.0, 100.0)
GAP_SLOPE_BAND = (-1.3, -0.7)

#: from this slot on, the median relative price error must stay below the tolerance
TRACKING_FROM = 50
TRACKING_TOL = 0.05

#: from this slot on, the squared price bias must stay below the price variance
BIAS_FROM = 10

#: a check whose window holds fewer slots than this reads None, not pass/fail
MIN_CHECK_SLOTS = 10


def regret_constants(population: Population) -> tuple[float, float]:
    """Constants (C1, C2) of the one-step gap expansion.

    C1 = (N/2)(gamma1 + gamma1^2) is half the curvature of the noiseless
    stage cost in lambda and is >= 0. C2 = (sum alpha_i/beta_i)(gamma1 - 1)
    multiplies the price bias in the first-order gap approximation; the
    exact expansion has no linear term (the stage cost is minimized at
    lambda_star), so C2 only matters to callers using the approximate
    form with a nonzero bias.
    """
    g1 = population.gamma1
    s = -population.gamma2
    c1 = 0.5 * population.n * (g1 + g1 * g1)
    c2 = s * (g1 - 1.0)
    return c1, c2


def analytic_gap(
    c1: float,
    c2: float,
    lambda_moments: tuple[float, float],
    lambda_star_t: float,
) -> float:
    """One-step gap from the first two moments of the price.

    Args:
        c1, c2: constants from regret_constants.
        lambda_moments: (E[lambda_t], E[lambda_t^2]), e.g. Monte Carlo
            moments across replications at a fixed slot.
        lambda_star_t: optimal price of the slot.

    Returns:
        c1*Var(lambda) + c1*bias^2 + c2*bias with bias = E[lambda] - lambda_star.
    """
    m1, m2 = lambda_moments
    var = m2 - m1 * m1
    if var < 0.0:
        if var < -1e-12 * max(1.0, abs(m2)):
            raise ValueError(f"second moment below squared mean: {m2} < {m1}^2")
        var = 0.0
    bias = m1 - lambda_star_t
    return c1 * var + c1 * bias * bias + c2 * bias


def _gap_mean_se(sweep: SweepResult) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Per-slot mean and standard error of cost_online - cost_star over replications."""
    if sweep.reps < 2:
        raise ValueError("need >= 2 replications")
    diffs = sweep.cost_online - sweep.cost_star
    return diffs.mean(axis=0), diffs.std(axis=0, ddof=1) / np.sqrt(sweep.reps)


def empirical_gap(sweep: SweepResult, t: int) -> tuple[float, float]:
    """Mean and standard error of cost_online - cost_star at slot t (1-based)."""
    gap_mean, gap_se = _gap_mean_se(sweep)
    if not 1 <= t <= gap_mean.shape[0]:
        raise ValueError(f"slot index {t} out of range 1..{gap_mean.shape[0]}")
    return float(gap_mean[t - 1]), float(gap_se[t - 1])


def fit_decay(
    t: NDArray, values: NDArray, window: tuple[float, float]
) -> float:
    """Least-squares slope of log(value) against log(t) inside the window.

    A pure power law value = a*t^p returns p up to float rounding.

    Raises:
        ValueError: fewer than two slots fall in the window, or any value
            in the window is nonpositive (log undefined).
    """
    t = np.asarray(t, dtype=float)
    values = np.asarray(values, dtype=float)
    lo, hi = window
    mask = (t >= lo) & (t <= hi)
    if mask.sum() < 2:
        raise ValueError(f"window {window} selects fewer than two slots")
    v = values[mask]
    if np.any(v <= 0.0):
        raise ValueError("nonpositive value inside the fit window")
    slope, _ = np.polyfit(np.log(t[mask]), np.log(v), 1)
    return float(slope)


class LogBoundResult(NamedTuple):
    """Envelope constants of cum_regret/log(t) over t >= t0."""

    k1: float
    k2: float
    passed: bool


def log_bound_check(cum_regret: NDArray) -> LogBoundResult:
    """Test whether cumulative regret stays within constant log-t bounds.

    Computes k1 = min and k2 = max of R(t)/log(t) over t in [t0, T] with
    t0 = LOG_BOUND_T0 (natural log; cum_regret[i] is R at t = i+1).
    Passes iff 0 < k1 <= k2 < inf and k2/k1 <= LOG_BOUND_RATIO_CAP: a
    genuine log curve gives k2/k1 near 1, while linear regret makes the
    ratio grow with the window.
    """
    t0 = LOG_BOUND_T0
    cum = np.asarray(cum_regret, dtype=float)
    t_hor = cum.shape[0]
    if t_hor < t0:
        raise ValueError(f"horizon {t_hor} does not reach t0 = {t0}")
    t = np.arange(t0, t_hor + 1)
    ratios = cum[t0 - 1 :] / np.log(t)
    k1 = float(ratios.min())
    k2 = float(ratios.max())
    passed = bool(0.0 < k1 <= k2 < np.inf and k2 <= LOG_BOUND_RATIO_CAP * k1)
    return LogBoundResult(k1=k1, k2=k2, passed=passed)


def price_bias_variance(
    sweep: SweepResult,
) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    """Per-slot bias mean(lambda_t) - lambda_star_t and sample variance."""
    if sweep.reps < 2:
        raise ValueError("need >= 2 replications")
    bias = sweep.lambda_online.mean(axis=0) - sweep.lambda_star
    var = sweep.lambda_online.var(axis=0, ddof=1)
    return bias, var


def median_tracking_error(sweep: SweepResult) -> NDArray[np.float64]:
    """Per-slot median over replications of |lambda_t - lambda_star_t|/|lambda_star_t|.

    Raises:
        ValueError: some |lambda_star_t| < LAMBDA_STAR_TOL, where a
            relative error is undefined; the message names the first
            such slot (1-based).
    """
    scale = np.abs(sweep.lambda_star)
    small = np.flatnonzero(~(scale >= LAMBDA_STAR_TOL))
    if small.size:
        t = int(small[0])
        raise ValueError(
            f"lambda_star at slot {t + 1} is {float(sweep.lambda_star[t])!r}, "
            f"below {LAMBDA_STAR_TOL} in magnitude: relative tracking error undefined"
        )
    rel = np.abs(sweep.lambda_online - sweep.lambda_star) / scale
    return np.median(rel, axis=0)


@dataclass
class RegretReport:
    """Per-slot gap series, price/estimator diagnostics, and bound fits.

    gap_mean/gap_se are the raw replication averages of the cost
    difference; cum_regret is their running sum. gap_quadratic is
    c1 * mean((lambda_t - lambda_star_t)^2), the variance-reduced gap
    estimate whose log-log slope over DECAY_WINDOW is decay_slope; k1
    and k2 are log_bound_check's envelope constants. tracking_max is the
    largest median_tracking_error from slot TRACKING_FROM on, None when
    the horizon is shorter.
    """

    t: NDArray[np.int64]
    gap_mean: NDArray[np.float64]
    gap_se: NDArray[np.float64]
    cum_regret: NDArray[np.float64]
    gap_quadratic: NDArray[np.float64]
    c1: float
    c2: float
    lambda_bias: NDArray[np.float64]
    lambda_var: NDArray[np.float64]
    gamma1_bias: NDArray[np.float64]
    gamma1_var: NDArray[np.float64]
    decay_slope: float
    k1: float
    k2: float
    log_bound_passed: bool
    tracking_max: Optional[float]


def build_regret_report(sweep: SweepResult) -> RegretReport:
    """Full regret/bias/variance analysis of one replication sweep."""
    gap_mean, gap_se = _gap_mean_se(sweep)
    scenario = sweep.scenario
    c1, c2 = regret_constants(scenario.population)
    t = np.arange(1, gap_mean.shape[0] + 1, dtype=np.int64)
    cum_regret = np.cumsum(gap_mean)

    dev = sweep.lambda_online - sweep.lambda_star
    gap_quadratic = c1 * np.mean(dev * dev, axis=0)

    lambda_bias, lambda_var = price_bias_variance(sweep)
    gamma1_bias = sweep.gamma1_hat.mean(axis=0) - scenario.population.gamma1
    gamma1_var = sweep.gamma1_hat.var(axis=0, ddof=1)

    decay_slope = fit_decay(t, gap_quadratic, DECAY_WINDOW)
    bound = log_bound_check(cum_regret)
    # after the fit and the bound, so their errors take precedence
    tracking_max = None
    if t.shape[0] >= TRACKING_FROM:
        tracking_max = float(median_tracking_error(sweep)[TRACKING_FROM - 1 :].max())

    return RegretReport(
        t=t,
        gap_mean=gap_mean,
        gap_se=gap_se,
        cum_regret=cum_regret,
        gap_quadratic=gap_quadratic,
        c1=c1,
        c2=c2,
        lambda_bias=lambda_bias,
        lambda_var=lambda_var,
        gamma1_bias=gamma1_bias,
        gamma1_var=gamma1_var,
        decay_slope=decay_slope,
        k1=bound.k1,
        k2=bound.k2,
        log_bound_passed=bound.passed,
        tracking_max=tracking_max,
    )


def summarize(report: RegretReport) -> dict:
    """The analysis block of summary.json: headline numbers and pass/fail checks.

    tracking_pass is None when report.tracking_max is, and every other check
    is None when its window of slots holds fewer than MIN_CHECK_SLOTS.
    """
    t = report.t
    tracking = report.tracking_max
    slope_lo, slope_hi = GAP_SLOPE_BAND
    b2 = report.lambda_bias[BIAS_FROM - 1 :] ** 2
    bias_below_var = bool(np.all(b2 < report.lambda_var[BIAS_FROM - 1 :]))

    def decided(passed: bool, lo: float, hi: float = np.inf) -> Optional[bool]:
        return passed if np.count_nonzero((t >= lo) & (t <= hi)) >= MIN_CHECK_SLOTS else None

    return {
        "c1": float(report.c1),
        "c2": float(report.c2),
        "decay_slope": float(report.decay_slope),
        "decay_window": list(DECAY_WINDOW),
        "k1": float(report.k1),
        "k2": float(report.k2),
        "t0": LOG_BOUND_T0,
        "ratio_cap": LOG_BOUND_RATIO_CAP,
        "cum_regret_final": float(report.cum_regret[-1]),
        f"tracking_median_max_from_{TRACKING_FROM}": tracking,
        "checks": {
            "tracking_pass": None if tracking is None else tracking < TRACKING_TOL,
            "gap_slope_pass": decided(slope_lo <= report.decay_slope <= slope_hi, *DECAY_WINDOW),
            "log_bound_pass": decided(bool(report.log_bound_passed), LOG_BOUND_T0),
            f"bias_squared_below_variance_from_{BIAS_FROM}": decided(bias_below_var, BIAS_FROM),
        },
    }
