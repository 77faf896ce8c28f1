"""Full-information optimum: capacity Y*, price path lambda*_t, allocations.

Closed forms (with gamma1 = sum 1/beta_i, S = sum_i alpha_i/beta_i = -gamma2):

    lambda*_t = (Y*d_t + S) / (N + N*gamma1)
    x*_i      = (N*lambda* - alpha_i) / beta_i
    Y*        = [T*a*(1+gamma1)^2 - S*(1+gamma1)*sum_t d_t] / [sum_t d_t^2 * (1+gamma1)]

where a is the revenue price. lambda*_t is evaluated by next_price, the
certainty-equivalent price the online loop sets from estimated
aggregates, at the true (gamma1, gamma2). Two independent numerical
oracles validate the closed forms: a per-slot dense KKT solve, and a
golden-section minimization of the reduced capacity objective.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import ArrayLike, NDArray

from .model import Scenario, aggregate_from_noise, realize_outcome, stage_cost

__all__ = [
    "DegenerateEstimateError",
    "OfflineSolution",
    "compute_y_star",
    "next_price",
    "lambda_star_path",
    "closed_form_solve",
    "oracle_solve",
    "oracle_y_star",
    "reduced_objective",
]


#: denominators smaller than this (in magnitude) are degenerate
DENOM_TOL = 1e-9


class DegenerateEstimateError(RuntimeError):
    """Certainty-equivalent price undefined: N*gamma1_hat + N is ~ 0."""


@dataclass(frozen=True)
class OfflineSolution:
    """Capacity, price path, allocations, and aggregates of the optimum.

    x_star has shape (N, T); lambda_star and q_star have length T.
    """

    y_star: float
    lambda_star: NDArray[np.float64]
    x_star: NDArray[np.float64]
    q_star: NDArray[np.float64]


def compute_y_star(scenario: Scenario) -> float:
    """Optimal committed capacity for the scenario's demand profile.

    The value can be negative when the revenue price is small relative
    to the population's fixed willingness to respond. That is a
    legitimate optimum of the quadratic objective, so it is returned
    like any other value, without a warning.
    """
    pop = scenario.population
    d = scenario.demand
    g1 = pop.gamma1
    s = -pop.gamma2  # sum alpha_i/beta_i
    t_hor = scenario.horizon
    a = scenario.alpha_rev
    num = t_hor * a * (1.0 + g1) ** 2 - s * (1.0 + g1) * float(d.sum())
    den = float((d * d).sum()) * (1.0 + g1)
    return num / den


def next_price(
    gamma1_hat: float, gamma2_hat: float, y: float, d_t: ArrayLike, n: int
) -> float | NDArray[np.float64]:
    """Certainty-equivalent price (y*d_t - gamma2_hat)/(N*gamma1_hat + N).

    At the true aggregates this is the optimal price lambda*_t; d_t may
    be one demand level or an array of them.

    Raises:
        DegenerateEstimateError: |N*gamma1_hat + N| < DENOM_TOL; the
            online loop substitutes the previous slot's price.
    """
    denom = n * gamma1_hat + n
    if abs(denom) < DENOM_TOL:
        raise DegenerateEstimateError("degenerate estimate")
    return (y * d_t - gamma2_hat) / denom


def lambda_star_path(scenario: Scenario, y: float) -> NDArray[np.float64]:
    """Optimal price of every slot under capacity y: next_price at the true aggregates."""
    pop = scenario.population
    return next_price(pop.gamma1, pop.gamma2, y, scenario.demand, scenario.n)


def closed_form_solve(scenario: Scenario, y: float | None = None) -> OfflineSolution:
    """Assemble the full offline solution from the closed forms.

    If y is None the capacity is computed via compute_y_star. x_star is the
    noiseless (T, N) realize_outcome grid stored as C-ordered (N, T); q_star
    is aggregate_from_noise at zero noise, x_star's column sums to rounding.
    """
    if y is None:
        y = compute_y_star(scenario)
    lam = lambda_star_path(scenario, y)
    x = np.ascontiguousarray(realize_outcome(scenario, lam[:, None], 0.0).T)
    q = aggregate_from_noise(scenario, lam, 0.0)
    return OfflineSolution(y_star=float(y), lambda_star=lam, x_star=x, q_star=q)


def oracle_solve(scenario: Scenario, y: float) -> OfflineSolution:
    """Independent per-slot optimum via a dense KKT linear solve.

    For each slot the strictly convex quadratic program is solved through
    its stationarity system in the N+1 unknowns (x_1..x_N, lambda):

        beta_i * x_i - N*lambda = -alpha_i      (i = 1..N)
        sum_i x_i   + N*lambda = y*d_t

    Raises RuntimeError if the system is singular (impossible for beta > 0)
    or if the solution fails to satisfy the KKT residual bound 1e-10.
    """
    pop = scenario.population
    n = scenario.n
    t_hor = scenario.horizon
    kkt = np.zeros((n + 1, n + 1))
    kkt[np.arange(n), np.arange(n)] = pop.betas
    kkt[:n, n] = -n
    kkt[n, :n] = 1.0
    kkt[n, n] = n
    x_star = np.empty((n, t_hor))
    lam_star = np.empty(t_hor)
    rhs = np.empty(n + 1)
    rhs[:n] = -pop.alphas
    for j, d_t in enumerate(scenario.demand):
        rhs[n] = y * d_t
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - beta>0 forbids it
            raise RuntimeError("singular KKT system") from exc
        resid = float(np.max(np.abs(kkt @ sol - rhs)))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        if resid > 1e-10 * scale:  # pragma: no cover - dense solve is exact here
            raise RuntimeError(f"KKT residual {resid:g} above bound")
        x_star[:, j] = sol[:n]
        lam_star[j] = sol[n]
    return OfflineSolution(
        y_star=float(y), lambda_star=lam_star, x_star=x_star, q_star=x_star.sum(axis=0)
    )


def reduced_objective(scenario: Scenario, y: float) -> float:
    """Total offline cost as a function of the capacity alone.

    Per-slot costs are evaluated at the optimal noiseless responses for the
    candidate y, and the revenue term -alpha_rev*y*T/N (constant in lambda
    but not in y) is included; minimizing this over y yields Y*.
    """
    total = 0.0
    for t, lam in enumerate(lambda_star_path(scenario, y).tolist(), start=1):
        x = realize_outcome(scenario, lam, 0.0)
        total += stage_cost(scenario, y, t, x)[1]
    total -= scenario.alpha_rev * y * scenario.horizon / scenario.n
    return total


def oracle_y_star(scenario: Scenario) -> float:
    """Independent capacity optimum via golden-section search.

    The reduced objective is a strictly convex parabola in y, so a
    data-independent bracket around the closed-form magnitude bound
    suffices. Golden section alone stalls once the parabola is flat to
    rounding (location error ~ sqrt(eps)), so the result is refined by
    one exact parabolic-vertex step through three well-separated
    evaluations, which pins the minimizer of a true quadratic to near
    machine precision.
    """
    # scipy.optimize takes ~45 MB and ~0.7 s to import and nothing else
    # in the package needs it, so only this oracle pays for it
    from scipy.optimize import minimize_scalar

    pop = scenario.population
    d = scenario.demand
    magnitude = (
        scenario.horizon * scenario.alpha_rev * (1.0 + pop.gamma1)
        + abs(pop.gamma2) * float(d.sum())
    ) / float((d * d).sum())
    bound = 2.0 * magnitude + 1.0  # keeps |y*| < bound/2 so (-b, 0, b) brackets
    res = minimize_scalar(
        lambda y: reduced_objective(scenario, y),
        bracket=(-bound, 0.0, bound),
        method="golden",
        options={"xtol": 1e-10},
    )
    y0 = float(res.x)
    h = 0.5 * max(1.0, abs(y0))
    f_lo = reduced_objective(scenario, y0 - h)
    f_mid = reduced_objective(scenario, y0)
    f_hi = reduced_objective(scenario, y0 + h)
    denom = f_hi - 2.0 * f_mid + f_lo  # = 2*A*h^2 > 0 for a strictly convex parabola
    if denom <= 0.0:  # pragma: no cover - curvature is strictly positive
        return y0
    return y0 - 0.5 * h * (f_hi - f_lo) / denom
