"""Iterative linear regression of aggregate response on price.

Each slot the operator observes one pair (lambda_s, Z_s) where

    Z_s = N*gamma1*lambda_s + gamma2 + noise

so the unknown aggregates are the slope and intercept of an ordinary
linear model with regressor u_s = N*lambda_s. The state is the sample
count m, four sufficient statistics and the ridge weight r, as a tuple
of plain numbers (m, sum u, sum u^2, sum Z, sum u*Z, r):

    X'X = [[sum u^2, sum u], [sum u, m]]      X'Z = [sum u*Z, sum Z]

init gives the state with no observations; the online kernel
(online._finish_episode) keeps it in locals and adds each observation
in O(1). solve_normal_equations(*state) solves (X'X + r*I) theta = X'Z
in closed form. With r = 0 this is plain least squares and needs two
distinct prices; with r > 0 it is well-defined from zero data and
shrinks toward the prior mean (0, 0).
"""

from __future__ import annotations

import math

from .model import _check_finite

__all__ = [
    "UnidentifiableError",
    "init",
    "solve_normal_equations",
]

#: condition numbers beyond this are treated as rank deficiency
COND_LIMIT = 1e12


class UnidentifiableError(RuntimeError):
    """Normal matrix numerically singular (not enough price variation)."""


def init(ridge_param: float) -> tuple[int, float, float, float, float, float]:
    """State with no observations: (m, sum u, sum u^2, sum Z, sum u*Z, ridge).

    ridge_param is the regularization weight, >= 0. With a positive
    weight the zero-data estimate is the prior mean (0, 0); with 0 the
    estimator refuses to produce estimates until the data identify the
    line.
    """
    _check_finite("ridge_param", ridge_param)
    if ridge_param < 0:
        raise ValueError(f"ridge_param must be >= 0, got {ridge_param}")
    return 0, 0.0, 0.0, 0.0, 0.0, float(ridge_param)


def solve_normal_equations(
    m: int, su: float, suu: float, sz: float, suz: float, ridge: float
) -> tuple[float, float]:
    """(gamma1_hat, gamma2_hat) solving (X'X + ridge*I) theta = X'Z in closed form.

    Scalar arithmetic on the state init gives, cheap enough for the online
    kernel to call every slot; gamma2_hat estimates -sum_i alpha_i/beta_i.

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
