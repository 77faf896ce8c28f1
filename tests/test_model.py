import math
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drpsim import online
from drpsim.analysis import build_regret_report, summarize
from drpsim.experiments import write_regret_csv, write_trajectory_csv
from drpsim.model import (
    Population,
    Scenario,
    aggregate_from_noise,
    realize_outcome,
    stage_cost,
    stage_costs_from_noise,
)
from drpsim.offline import closed_form_solve, compute_y_star
from drpsim.online import OnlineConfig, run_episode, run_replications
from drpsim.rng import substream


# ------------------------------------------------ per-user oracle (plain Python)


def oracle_responses(alphas, betas, lambda_t, eps):
    """x_i = (N*lambda - alpha_i)/beta_i + eps_i, one user at a time."""
    n = len(alphas)
    return [(n * lambda_t - a) / b + e for a, b, e in zip(alphas, betas, eps)]


def oracle_stage_cost(alphas, betas, y, d_t, x):
    """(Q_t, C_t) with exactly rounded sums (math.fsum)."""
    n = len(x)
    q = math.fsum(x)
    user = math.fsum(0.5 * b * xi * xi + a * xi for a, b, xi in zip(alphas, betas, x))
    return q, user / n + (q - y * d_t) ** 2 / (2.0 * n)


def _uniform_scenario(alpha, beta, n):
    """n identical users and d = (1,): the array form of one (alpha, beta) user at size N."""
    return Scenario(Population([alpha] * n, [beta] * n), (1.0,), alpha_rev=1.0, noise_sd=0.0)


def _cost(sc, y, t, x):
    return stage_cost(sc, y, t, np.asarray(x, dtype=float))[1]


# ------------------------------------------------------------- responses


def test_user_response_pinned_values():
    # alpha=1, beta=2, N=10, lambda=0.5: x = (10*0.5 - 1)/2 = 2.0
    sc = _uniform_scenario(1.0, 2.0, 10)
    x = realize_outcome(sc, 0.5, np.zeros(10))
    assert x == pytest.approx(np.full(10, 2.0), abs=1e-15)
    assert realize_outcome(_uniform_scenario(0.0, 1.0, 1), 0.0, np.zeros(1))[0] == 0.0
    # additive noise enters unscaled
    x = realize_outcome(sc, 0.5, np.full(10, 0.25))
    assert x == pytest.approx(np.full(10, 2.25), abs=1e-15)


def test_user_response_matches_grid_argmin():
    # Brute-force the surrogate objective u_i(x) - N*lambda*x on a fine grid.
    alpha, beta, n, lam = 1.0, 4.0, 100, 0.37
    x_closed = realize_outcome(_uniform_scenario(alpha, beta, n), lam, np.zeros(n))[0]
    grid = np.arange(x_closed - 1.0, x_closed + 1.0, 1e-4)
    values = 0.5 * beta * grid**2 + alpha * grid - n * lam * grid
    x_grid = grid[np.argmin(values)]
    assert abs(x_grid - x_closed) <= 1e-4


def test_user_response_monotone_in_price(rng):
    for _ in range(20):
        sc = _uniform_scenario(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.5, 5.0)), 50)
        lams = np.sort(rng.uniform(0.0, 2.0, 5))
        xs = [realize_outcome(sc, float(l), np.zeros(50))[0] for l in lams]
        assert all(b > a for a, b in zip(xs, xs[1:]))


def test_user_cost_pinned_and_convex(rng):
    # one user, d=1, y=x: the imbalance vanishes and C_t is the user cost
    # alpha=1, beta=2, x=3: 0.5*2*9 + 1*3 = 12
    assert _cost(_uniform_scenario(1.0, 2.0, 1), 3.0, 1, [3.0]) == pytest.approx(12.0, abs=1e-15)
    assert _cost(_uniform_scenario(2.0, 4.0, 1), 0.0, 1, [0.0]) == 0.0
    for _ in range(20):
        sc = _uniform_scenario(float(rng.uniform(0.0, 3.0)), float(rng.uniform(0.5, 5.0)), 1)
        y = float(rng.uniform(-2.0, 2.0))
        a, b = rng.uniform(-4.0, 4.0, 2)
        mid = _cost(sc, y, 1, [0.5 * (a + b)])
        avg = 0.5 * (_cost(sc, y, 1, [a]) + _cost(sc, y, 1, [b]))
        assert mid <= avg + 1e-12


def test_aggregate_response_noiseless_single_user(unit_scenario):
    x = realize_outcome(unit_scenario, 1.0, np.zeros(1))
    assert stage_cost(unit_scenario, 0.0, 1, x)[0] == 1.0
    assert x.shape == (1,)


def test_aggregate_response_noiseless_matches_per_user_sum(scenario_factory, rng):
    sc = scenario_factory(rng, n=6, t=2, noise_sd=0.0)
    lam = 0.8
    x = realize_outcome(sc, lam, np.zeros(sc.n))
    pop = sc.population
    per_user = np.array(oracle_responses(pop.alphas, pop.betas, lam, [0.0] * sc.n))
    assert np.array_equal(x, per_user)
    assert stage_cost(sc, 1.0, 1, x)[0] == float(per_user.sum())


def test_aggregate_response_noise_moments():
    # With noise_sd=1 and N=100 the aggregate has variance N = 100.  Sample
    # moments over 1e5 draws concentrate well inside these fixed-seed bands.
    pop_rng = np.random.default_rng(7)
    pop = Population(pop_rng.uniform(1.0, 2.0, 100), pop_rng.uniform(4.0, 8.0, 100))
    sc = Scenario(pop, (1.0,), alpha_rev=1.0, noise_sd=1.0)
    lam = 0.4
    draws_rng = np.random.default_rng(99)
    m = 100_000
    totals = np.array(
        [realize_outcome(sc, lam, draws_rng.normal(0.0, 1.0, pop.n)).sum() for _ in range(m)]
    )
    expected_mean = pop.n * pop.gamma1 * lam + pop.gamma2
    mean_tol = 4.0 * np.sqrt(pop.n) / np.sqrt(m)
    assert abs(totals.mean() - expected_mean) <= mean_tol
    var_tol = 5.0 * pop.n * np.sqrt(2.0 / m)
    assert abs(totals.var(ddof=1) - pop.n) <= var_tol


def test_realize_outcome_explicit_noise(scenario_factory, rng):
    sc = scenario_factory(rng, n=5, t=2, noise_sd=0.0)
    eps = np.zeros(5)
    a = realize_outcome(sc, 0.7, eps)
    pop = sc.population
    assert np.array_equal(a, oracle_responses(pop.alphas, pop.betas, 0.7, eps))
    shifted = realize_outcome(sc, 0.7, eps + 0.5)
    assert np.allclose(shifted - a, 0.5, atol=1e-15)


# ------------------------------------------------------------ stage cost


def test_stage_cost_pinned_values(unit_scenario):
    assert stage_cost(unit_scenario, 2.0, 1, np.array([1.0])) == pytest.approx((1.0, 1.0), abs=1e-15)
    assert stage_cost(unit_scenario, 0.0, 1, np.array([0.0])) == (0.0, 0.0)


def test_stage_cost_minimized_by_offline_responses(scenario_factory, rng):
    # Perturbing the offline-optimal response vector can only raise the cost.
    for _ in range(10):
        sc = scenario_factory(rng, n=4, t=3)
        y = float(rng.uniform(0.1, 2.0))
        sol = closed_form_solve(sc, y)
        for t in range(1, sc.horizon + 1):
            x = sol.x_star[:, t - 1]
            base = _cost(sc, y, t, x)
            for _ in range(5):
                perturbed = _cost(sc, y, t, x + rng.normal(0.0, 0.1, x.shape))
                assert perturbed >= base - 1e-12


def test_stage_cost_user_permutation_invariant(scenario_factory, rng):
    sc = scenario_factory(rng, n=6, t=2)
    x = rng.uniform(-1.0, 3.0, 6)
    base = _cost(sc, 1.0, 1, x)
    perm = rng.permutation(6)
    sc_p = Scenario(
        population=Population(sc.population.alphas[perm], sc.population.betas[perm]),
        demand=sc.demand,
        alpha_rev=sc.alpha_rev,
        noise_sd=sc.noise_sd,
    )
    permuted = _cost(sc_p, 1.0, 1, x[perm])
    assert permuted == pytest.approx(base, rel=1e-12)


def test_stage_cost_slot_out_of_range(unit_scenario):
    x = np.array([1.0])
    with pytest.raises(ValueError, match=r"slot index 0 out of range 1\.\.1"):
        stage_cost(unit_scenario, 1.0, 0, x)
    with pytest.raises(ValueError, match=r"slot index 2 out of range 1\.\.1"):
        stage_cost(unit_scenario, 1.0, 2, x)


def test_stage_cost_at_lambda_star_matches_offline_value(scenario_factory, rng):
    # Noiseless realization at the optimal price reproduces the optimal
    # stage value assembled independently from the offline solution arrays.
    for _ in range(5):
        sc = scenario_factory(rng, n=5, t=3, noise_sd=0.0)
        y = float(rng.uniform(0.2, 2.0))
        sol = closed_form_solve(sc, y)
        pop = sc.population
        for t in range(1, sc.horizon + 1):
            x_t = realize_outcome(sc, float(sol.lambda_star[t - 1]), np.zeros(sc.n))
            realized = stage_cost(sc, y, t, x_t)[1]
            x = sol.x_star[:, t - 1]
            expected = float((0.5 * pop.betas * x + pop.alphas) @ x) / sc.n
            expected += (sol.q_star[t - 1] - y * sc.demand[t - 1]) ** 2 / (2.0 * sc.n)
            assert realized == pytest.approx(expected, rel=1e-10)


# ------------------------------------------------------ population, demand


def test_parameter_validation():
    with pytest.raises(ValueError, match=r"alphas\[0\]=-0.5 must be finite and >= 0"):
        Population([-0.5], [1.0])
    with pytest.raises(ValueError, match=r"betas\[0\]=0.0 must be finite and > 0"):
        Population([1.0], [0.0])
    with pytest.raises(ValueError, match="alphas must be a non-empty 1-D array"):
        Population([], [])
    with pytest.raises(ValueError, match="equal length"):
        Population([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match=r"demand\[1\]=0.0 must be finite and > 0"):
        Scenario(Population([1.0], [2.0]), (1.0, 0.0), alpha_rev=1.0)
    with pytest.raises(ValueError, match="demand must be a non-empty 1-D array"):
        Scenario(Population([1.0], [2.0]), (), alpha_rev=1.0)
    pop = Population([1.0], [2.0])
    with pytest.raises(ValueError):
        Scenario(pop, (1.0,), alpha_rev=0.0)
    with pytest.raises(ValueError):
        Scenario(pop, (1.0,), alpha_rev=1.0, noise_sd=-1.0)
    # noise past the scale contract would overflow the analysis's squared cost differences
    assert Scenario(pop, (1.0,), alpha_rev=1.0, noise_sd=1e60).noise_sd == 1e60
    with pytest.raises(ValueError, match=r"^noise_sd out of range: the noise level sigma is 1e\+300, "):
        Scenario(pop, (1.0,), alpha_rev=1.0, noise_sd=1e300)
    # alpha_rev = 1e300 used to run until the kernel met a non-finite observation
    with pytest.raises(ValueError) as caught:
        Scenario(Population([1.5] * 2, [6.0] * 2), np.full(20, 4.0), alpha_rev=1e300)
    assert str(caught.value) == (
        "alpha_rev out of range: the capacity |y| is 8.33e+298, outside [0, 3.66e+69]"
    )
    with pytest.raises(ValueError, match="alphas must hold numbers"):
        Population(["a"], [1.0])
    with pytest.raises(ValueError, match="betas must hold numbers"):
        Population([1.0], [[1.0], 2.0])
    # an int past the float range names its key or array, not a bare OverflowError
    with pytest.raises(ValueError, match="^alphas must hold numbers: int too large"):
        Population([10**400], [1.0])
    with pytest.raises(ValueError, match="^demand must hold numbers: int too large"):
        Scenario(pop, (10**400,), alpha_rev=1.0)
    for key in ("alpha_rev", "noise_sd"):
        kwargs = {"alpha_rev": 1.0, key: 10**400}
        with pytest.raises(ValueError, match=f"^{key} must be finite, got an int too large"):
            Scenario(pop, (1.0,), **kwargs)
    for key, value in (("alpha_rev", "1"), ("noise_sd", None), ("noise_sd", True)):
        kwargs = {"alpha_rev": 1.0, key: value}
        with pytest.raises(TypeError, match=rf"^{key} must be a real number, got {value!r}$"):
            Scenario(pop, (1.0,), **kwargs)


def test_float32_inputs_run_in_float64():
    # float32 products overflow near alpha_rev = 3e38; the run must compute in float64
    pop = Population([1.5] * 2, [6.0] * 2)
    sc = Scenario(pop, np.full(20, 4.0), alpha_rev=np.float32(3e38), noise_sd=np.float32(0.5))
    assert type(sc.alpha_rev) is float and type(sc.noise_sd) is float
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = compute_y_star(sc)
        sweep = run_replications(sc, 1.0, 3, 42)
    assert math.isfinite(y)
    assert np.isfinite(sweep.cost_online).all() and np.isfinite(sweep.lambda_online).all()


def test_population_cached_aggregates(rng):
    alphas = rng.uniform(0.5, 2.0, 8)
    betas = rng.uniform(1.0, 5.0, 8)
    pop = Population(alphas, betas)
    assert pop.gamma1 == pytest.approx(float(np.sum(1.0 / betas)), rel=1e-15)
    assert pop.gamma2 == pytest.approx(float(-np.sum(alphas / betas)), rel=1e-15)
    assert pop.n == 8


def test_arrays_are_read_only_copies():
    alphas, betas, d = np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0])
    sc = Scenario(Population(alphas, betas), d, alpha_rev=1.0)
    alphas[0] = d[0] = 9.0  # the caller's arrays stay writable and detached
    assert sc.population.alphas[0] == 1.0 and sc.demand[0] == 5.0
    for arr in (sc.population.alphas, sc.population.betas, sc.demand):
        assert arr.dtype == np.float64
        with pytest.raises(ValueError):
            arr[0] = 0.0
    assert sc.horizon == 1 and sc.n == 2


# --------------------------------------------------------- property tests

@st.composite
def _instances(draw):
    n = draw(st.integers(1, 12))
    alphas = draw(st.lists(st.floats(0.0, 10.0), min_size=n, max_size=n))
    betas = draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n))
    demand = draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=4))
    eps = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n))
    lam = draw(st.floats(-5.0, 5.0))
    y = draw(st.floats(-10.0, 10.0))
    t = draw(st.integers(1, len(demand)))
    return alphas, betas, demand, eps, lam, y, t


#: an instance whose costs are subnormal: the oracle's rounds to 5e-324 and
#: the engine's to 0, a 1-ulp gap no relative bound can allow
_SUBNORMAL_COSTS = ([9.918215306330048e-161], [1.0], [1.0], [0.0], 0.0, 0.0, 1)


@settings(max_examples=150, deadline=None)
@given(_instances())
@example(_SUBNORMAL_COSTS)
def test_outcome_and_cost_match_per_user_oracle(instance):
    alphas, betas, demand, eps, lam, y, t = instance
    sc = Scenario(Population(alphas, betas), demand, alpha_rev=1.0)
    x = realize_outcome(sc, lam, np.array(eps))
    # elementwise float64 arithmetic: bit-equal to the scalar loop
    assert x.tolist() == oracle_responses(alphas, betas, lam, eps)
    q, cost = stage_cost(sc, y, t, x)
    q_ref, cost_ref = oracle_stage_cost(alphas, betas, y, demand[t - 1], x.tolist())
    size = math.fsum(abs(v) for v in x) + abs(y * demand[t - 1])
    assert abs(q - q_ref) <= 1e-13 * size
    scale = math.fsum(
        abs(0.5 * b * v * v) + abs(a * v) for a, b, v in zip(alphas, betas, x)
    ) / len(x) + size * size / (2.0 * len(x))
    # Below the normal range rounding is absolute, up to ulp(0)/2 an
    # operation, and the relative bound underflows. The user term rounds N
    # products (the oracle 2N) that its division by N averages, then the
    # division; the imbalance term rounds the square and its division. So
    # stage_cost is off by up to 2 ulp(0) there and the oracle by 2.5.
    assert abs(cost - cost_ref) <= 1e-12 * scale + 4.5 * math.ulp(0.0)


@settings(max_examples=150, deadline=None)
@given(_instances())
@example(_SUBNORMAL_COSTS)
def test_costs_from_noise_statistics_match_per_user_oracle(instance):
    alphas, betas, demand, eps, lam, y, _ = instance
    sc = Scenario(Population(alphas, betas), demand, alpha_rev=1.0)
    t_hor = sc.horizon
    lam_path = np.full(t_hor, lam)
    eps_sum = np.full(t_hor, math.fsum(eps))
    beta_eps2_sum = np.full(t_hor, math.fsum(b * e * e for b, e in zip(betas, eps)))
    q = aggregate_from_noise(sc, lam_path, eps_sum)
    cost = stage_costs_from_noise(sc, y, lam_path, q, eps_sum, beta_eps2_sum)
    x = oracle_responses(alphas, betas, lam, eps)
    n = len(x)
    # rounding is relative to the identities' terms, which can cancel
    terms = math.fsum(abs(n * lam / b) + a / b + abs(e) for a, b, e in zip(alphas, betas, eps))
    user_terms = math.fsum(
        ((n * lam) ** 2 + a * a) / (2.0 * b) + abs(n * lam * e) + 0.5 * b * e * e
        for a, b, e in zip(alphas, betas, eps)
    ) / n
    # Subnormal rounding, as in the test above: the oracle is off by up to
    # 2.5 ulp(0). The engine rounds alpha_i^2 before dividing by beta_i, so
    # sum alpha_i^2/beta_i over 2N is off by up to (1/beta + 1)/4 ulp(0),
    # and its division by 0.5 more; N^2*gamma1*lambda^2 over 2N (0.25),
    # lambda*sum eps (0.5), sum beta*eps^2 over 2N (its products and the
    # division, 0.75) and the imbalance's square and division (0.75) add 2.25.
    tiny = (5.5 + 0.25 / min(betas)) * math.ulp(0.0)
    for t in range(t_hor):
        q_ref, cost_ref = oracle_stage_cost(alphas, betas, y, demand[t], x)
        size = terms + abs(y * demand[t])
        assert abs(q[t] - q_ref) <= 1e-13 * size
        assert abs(cost[t] - cost_ref) <= 1e-12 * (user_terms + size * size / (2.0 * n)) + tiny


_bad_entries = st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -1e-300, 0.0, -0.0])


def _first_bad(values, positive):
    for i, v in enumerate(values):
        if not (math.isfinite(v) and (v > 0 if positive else v >= 0)):
            return i
    return None


@st.composite
def _arrays(draw):
    """alphas, betas, demand: valid values, each list sometimes with one entry replaced."""

    def values(size, lo):
        out = draw(st.lists(st.floats(lo, 5.0), min_size=size, max_size=size))
        if out and draw(st.booleans()):
            out[draw(st.integers(0, size - 1))] = draw(_bad_entries)
        return out

    n = draw(st.integers(0, 4))
    return values(n, 0.0), values(n + draw(st.sampled_from([0, 0, 0, 1])), 1e-3), values(
        draw(st.integers(0, 4)), 1e-3
    )


@settings(max_examples=200, deadline=None)
@given(_arrays())
def test_population_and_scenario_accept_exactly_valid_arrays(arrays):
    alphas, betas, demand = arrays
    bad_a, bad_b, bad_d = _first_bad(alphas, False), _first_bad(betas, True), _first_bad(demand, True)
    valid_pop = alphas and bad_a is None and bad_b is None and len(alphas) == len(betas)
    if not valid_pop:
        with pytest.raises(ValueError) as info:
            Population(alphas, betas)
        if not alphas:
            assert "alphas must be a non-empty" in str(info.value)
        elif bad_a is not None:
            assert str(info.value).startswith(f"alphas[{bad_a}]=")
        elif bad_b is not None:
            assert str(info.value).startswith(f"betas[{bad_b}]=")
        return
    pop = Population(alphas, betas)
    assert pop.alphas.tolist() == alphas and pop.betas.tolist() == betas
    if not demand or bad_d is not None:
        with pytest.raises(ValueError) as info:
            Scenario(pop, demand, alpha_rev=1.0)
        if demand:
            assert str(info.value).startswith(f"demand[{bad_d}]=")
        return
    sc = Scenario(pop, demand, alpha_rev=1.0)
    assert sc.demand.tolist() == demand and sc.horizon == len(demand)


# ---------------------------------------------------------- scale contract

#: every input a scale-contract message may name
_INPUTS = ("alphas", "betas", "demand", "alpha_rev", "noise_sd", "y_capacity", "lambda_init",
           "ridge_param")


class _StreamOpened(Exception):
    """A patched-in substream was called: construction finished without an error."""


def _refuse(*args):
    raise _StreamOpened


def _scale(zero=False, signed=False):
    """Unit scale or log-uniform over [1e-300, 1e300], with 0 and -x where the input allows."""
    value = st.floats(0.5, 2.0) | st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
    if zero:
        value |= st.just(0.0)
    if signed:
        value = st.tuples(value, st.booleans()).map(lambda v: -v[0] if v[1] else v[0])
    return value


@st.composite
def _runs(draw):
    """One library run: every input of Scenario, OnlineConfig and run_replications."""
    n, t_hor = draw(st.integers(1, 5)), draw(st.integers(11, 60))

    def array(scale, size):
        return scale * np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=size, max_size=size)))

    return {
        "alphas": array(draw(_scale(zero=True)), n),
        "betas": array(draw(_scale()), n),
        "demand": array(draw(_scale()), t_hor),
        "alpha_rev": draw(_scale()),
        "noise_sd": draw(_scale(zero=True)),
        "y": draw(st.none() | _scale(zero=True, signed=True)),
        "lambda_init": draw(st.none() | _scale(zero=True, signed=True)),
        "ridge": draw(_scale(zero=True)),
        "reps": draw(st.integers(2, 3)),
    }


def _run(**moved):
    """Two users, T = 20, 3 reps: alpha 1.5, beta 6, d 4, alpha_rev 2d, noise 1; moved inputs."""
    base = {"alphas": np.full(2, 1.5), "betas": np.full(2, 6.0), "demand": np.full(20, 4.0)}
    base |= {"alpha_rev": 8.0, "noise_sd": 1.0, "y": None, "lambda_init": None, "ridge": 0.001}
    return base | {"reps": 3} | moved


#: runs that end in an error naming no input, or in a warning, without the scale contract:
#: one input moved from _run (with alpha_rev = 2d), demand under a set capacity, the
#: capacity and the slot-1 price of library calls
_OUT_OF_SCALE = (
    _run(alphas=np.full(2, 1e300)),
    _run(demand=np.full(20, 1e300), alpha_rev=2e300),
    _run(betas=np.full(2, 1e-100)),
    _run(betas=np.full(2, 1e300)),
    _run(demand=np.full(20, 1e100), alpha_rev=2e100),
    _run(betas=np.full(2, 1e-300)),
    _run(demand=np.full(20, 1e-300), alpha_rev=2e-300),
    _run(demand=np.full(20, 1e300), alpha_rev=1.0, y=1.0),
    _run(demand=np.full(20, 1e100), alpha_rev=1.0, y=1.0),
    _run(y=1e300),
    _run(y=-1e300),
    _run(y=1e100),
    _run(lambda_init=1e300),
)


def _construct(run):
    """The run's scenario, capacity and OnlineConfig, built while every stream is refused.

    Without lambda_init the run is the library call run_replications, which
    must build its own OnlineConfig and reach its first stream.
    """
    with mock.patch.object(online, "substream", _refuse):
        pop = Population(run["alphas"], run["betas"])
        sc = Scenario(pop, run["demand"], alpha_rev=run["alpha_rev"], noise_sd=run["noise_sd"])
        y = compute_y_star(sc) if run["y"] is None else run["y"]
        if run["lambda_init"] is None:
            with pytest.raises(_StreamOpened):
                run_replications(sc, y, run["reps"], 7, run["ridge"])
        return sc, y, OnlineConfig(sc, y, run["lambda_init"], run["ridge"])


def _names_one_input(exc):
    named = [k for k in _INPUTS if re.search(rf"\b{k}\b", str(exc))]
    return len(named) == 1


@pytest.mark.parametrize("run", _OUT_OF_SCALE, ids=range(len(_OUT_OF_SCALE)))
def test_out_of_scale_inputs_fail_by_name_before_any_stream(run):
    with pytest.raises(ValueError) as caught:
        _construct(run)
    assert _names_one_input(caught.value), caught.value


@settings(max_examples=200, deadline=None)
@given(_runs())
@example(_run())
@example(_run(noise_sd=1e60))
@example(_run(y=-1e60))
@example(_run(alpha_rev=4e60))
@example(_run(alpha_rev=8e-100, demand=np.full(20, 1e-100)))
def test_every_input_is_refused_by_name_or_runs_finite(run):
    # the contract's specification: a named error at construction, or finite outputs;
    # the CSV writer refuses a non-finite cell, so writing each table checks every column
    try:
        sc, y, config = _construct(run)
    except (ValueError, TypeError) as exc:
        assert _names_one_input(exc), exc
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if run["lambda_init"] is not None:
            for r in range(run["reps"]):
                traj = run_episode(config, substream(7, 1, r))
                write_trajectory_csv(os.devnull, traj)
            return
        sweep = run_replications(sc, y, run["reps"], 7, run["ridge"])
        for name in ("lambda_online", "lambda_star", "gamma1_hat", "cost_online", "cost_star"):
            assert np.isfinite(getattr(sweep, name)).all(), name
        write_trajectory_csv(os.devnull, sweep.first_trajectory)
        try:
            report = build_regret_report(sweep)
        except ValueError as exc:  # run_experiment records these as analysis_note
            assert re.search("nonpositive value|tracking error undefined", str(exc)), exc
            return
        write_regret_csv(os.devnull, report)
        summary = summarize(report)
    assert all(math.isfinite(v) for v in summary.values() if isinstance(v, float)), summary
