"""Iterative linear regression of aggregate response on price.

Each slot the operator observes one pair (lambda_s, Z_s) where

    Z_s = N*gamma1*lambda_s + gamma2 + noise

so the unknown aggregates are the slope and intercept of an ordinary
linear model with regressor u_s = N*lambda_s. The state keeps the sample
count and the 2x2 normal-equation sufficient statistics, updated in O(1)
per observation:

    X'X = [[sum u^2, sum u], [sum u, m]]      X'Z = [sum u*Z, sum Z]

solve_normal_equations() solves (X'X + ridge*I) theta = X'Z in closed
form for the point estimate the pricing rule uses. With ridge = 0 this
is plain least squares and needs two distinct prices; with ridge > 0
it is well-defined from zero data and shrinks toward the prior mean
(0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import _check_finite

__all__ = [
    "UnidentifiableError",
    "EstimatorState",
    "init",
    "update",
    "solve_normal_equations",
]

#: condition numbers beyond this are treated as rank deficiency
COND_LIMIT = 1e12


class UnidentifiableError(RuntimeError):
    """Normal matrix numerically singular (not enough price variation)."""


@dataclass
class EstimatorState:
    """Sample count and sufficient statistics of the price-response regression.

    Attributes:
        ridge_param: l2 penalty weight, >= 0.
        n_scale: N used to form the regressor u = N*lambda.
        n_samples: number of (lambda_s, Z_s) observations absorbed.
    """

    ridge_param: float
    n_scale: int = 1
    n_samples: int = 0
    suu: float = 0.0
    su: float = 0.0
    sz: float = 0.0
    suz: float = 0.0


def init(ridge_param: float, n_scale: int = 1) -> EstimatorState:
    """Fresh estimator with no observations.

    Args:
        ridge_param: regularization weight, >= 0. With a positive weight
            the zero-data estimate is the prior mean (0, 0); with 0 the
            estimator refuses to produce estimates until the data
            identify the line.
        n_scale: population size N entering the regressor N*lambda.
    """
    _check_finite("ridge_param", ridge_param)
    if ridge_param < 0:
        raise ValueError(f"ridge_param must be >= 0, got {ridge_param}")
    if n_scale < 1:
        raise ValueError(f"n_scale must be >= 1, got {n_scale}")
    return EstimatorState(ridge_param=float(ridge_param), n_scale=int(n_scale))


def update(state: EstimatorState, lambda_t: float, z_t: float) -> EstimatorState:
    """Absorb one observation (price, aggregate response) in O(1).

    Mutates and returns the same state object.
    """
    lambda_t = float(lambda_t)
    z_t = float(z_t)
    if not (math.isfinite(lambda_t) and math.isfinite(z_t)):
        raise ValueError(f"observation must be finite, got ({lambda_t}, {z_t})")
    u = state.n_scale * lambda_t
    state.n_samples += 1
    state.suu += u * u
    state.su += u
    state.sz += z_t
    state.suz += u * z_t
    return state


def solve_normal_equations(state: EstimatorState) -> tuple[float, float]:
    """(gamma1_hat, gamma2_hat) solving (X'X + ridge*I) theta = X'Z in closed form.

    Scalar arithmetic only, cheap enough for the online loop to call
    every slot; gamma2_hat estimates the intercept -sum_i alpha_i/beta_i.

    Raises:
        UnidentifiableError: condition number of the regularized normal
            matrix exceeds COND_LIMIT (prices carry too little variation)
            or the matrix is zero (no samples and ridge_param == 0).
    """
    r = state.ridge_param
    a00 = state.suu + r
    a01 = state.su
    a11 = state.n_samples + r

    # condition number from the closed-form symmetric 2x2 eigenvalues
    mean = 0.5 * (a00 + a11)
    disc = math.hypot(0.5 * (a00 - a11), a01)
    lo = mean - disc
    if lo <= 0.0 or (mean + disc) > COND_LIMIT * lo:
        raise UnidentifiableError("unidentifiable: insufficient price variation")

    det = a00 * a11 - a01 * a01
    g1 = (a11 * state.suz - a01 * state.sz) / det
    g2 = (a00 * state.sz - a01 * state.suz) / det
    return g1, g2

