import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpsim import offline
from drpsim.model import Population, Scenario
from drpsim.offline import (
    OfflineSolution,
    closed_form_solve,
    compute_y_star,
    lambda_star_path,
    oracle_solve,
    oracle_y_star,
    reduced_objective,
)


def test_y_star_unit_case(unit_scenario):
    # T*a*(1+g1)^2 / (sum d^2 * (1+g1)) = 1*1*4/(1*2) = 2
    assert compute_y_star(unit_scenario) == pytest.approx(2.0, abs=1e-15)


def test_y_star_zero_alpha_reduction(rng):
    # With every alpha_i = 0 the formula collapses to T*a*(1+g1)/sum(d^2).
    betas = rng.uniform(1.0, 6.0, 7)
    pop = Population(np.zeros(7), betas)
    d = tuple(float(v) for v in rng.uniform(0.5, 3.0, 4))
    sc = Scenario(pop, d, alpha_rev=1.7)
    g1 = pop.gamma1
    expected = 4 * 1.7 * (1.0 + g1) / float(np.sum(np.square(d)))
    assert compute_y_star(sc) == pytest.approx(expected, rel=1e-12)


def test_y_star_negative_is_returned_silently():
    # Large baseline willingness (alpha_i >> revenue price) drives Y* < 0,
    # a legitimate optimum that the outputs report like any other value.
    pop = Population([50.0, 60.0], [1.0, 1.0])
    sc = Scenario(pop, (1.0, 1.0), alpha_rev=0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        y = compute_y_star(sc)
    assert y == pytest.approx(oracle_y_star(sc), rel=1e-6)
    assert y < 0


def test_y_star_vertex_oracle_table1_style():
    rng = np.random.default_rng(42)
    pop = Population(rng.uniform(1.0, 2.0, 100), rng.uniform(4.0, 8.0, 100))
    d = tuple(float(v) for v in rng.uniform(3.0, 6.0, 100))
    sc = Scenario(pop, d, alpha_rev=1.0 * max(d))
    y_closed = compute_y_star(sc)
    y_oracle = oracle_y_star(sc)
    assert abs(y_oracle - y_closed) <= 1e-6 * abs(y_closed)


def test_y_star_stationarity_finite_difference(scenario_factory, rng):
    for _ in range(10):
        sc = scenario_factory(rng, n=6, t=4)
        y = compute_y_star(sc)
        h = 1e-4 * max(1.0, abs(y))
        f_lo = reduced_objective(sc, y - h)
        f_mid = reduced_objective(sc, y)
        f_hi = reduced_objective(sc, y + h)
        slope = (f_hi - f_lo) / (2.0 * h)
        curvature = (f_hi - 2.0 * f_mid + f_lo) / (h * h)
        assert curvature > 0
        assert abs(slope) <= 1e-4 * curvature * max(1.0, abs(y))


def test_lambda_star_unit_case(unit_scenario):
    assert lambda_star_path(unit_scenario, 2.0)[0] == pytest.approx(1.0, abs=1e-15)


def test_lambda_star_homogeneous_in_demand(rng):
    # alpha_i = 0 makes lambda* proportional to d_t.
    pop = Population(np.zeros(5), rng.uniform(1.0, 4.0, 5))
    sc1 = Scenario(pop, (1.0, 2.5), alpha_rev=1.0)
    sc2 = Scenario(pop, (2.0, 5.0), alpha_rev=1.0)
    y = 1.3
    assert lambda_star_path(sc2, y) == pytest.approx(2.0 * lambda_star_path(sc1, y), rel=1e-14)


def test_lambda_star_affine_in_demand_sorts_identically(scenario_factory, rng):
    sc = scenario_factory(rng, n=6, t=5)
    y = float(rng.uniform(0.2, 2.0))
    lam = lambda_star_path(sc, y)
    d = sc.demand
    order_d = np.argsort(d)
    assert np.array_equal(order_d, np.argsort(lam))
    # affine with positive slope: lambda = y*d/(N+N*g1) + const
    slope = np.polyfit(d, lam, 1)[0]
    assert slope > 0
    assert np.allclose(lam, slope * d + (lam - slope * d).mean(), rtol=0, atol=1e-12)


def test_x_star_unit_and_boundary(unit_scenario):
    # unit case: y = 2 gives lambda* = 1 and x* = (1*1 - 0)/1
    assert closed_form_solve(unit_scenario, 2.0).x_star[0, 0] == pytest.approx(1.0, abs=1e-15)
    # N*lambda equal to alpha_i pins the response at zero: two users with
    # alpha = 3, beta = 2 and y*d = 3 price at lambda* = 1.5
    sc = Scenario(Population([3.0, 3.0], [2.0, 2.0]), (1.0,), alpha_rev=1.0)
    sol = closed_form_solve(sc, 3.0)
    assert sol.lambda_star[0] == 1.5
    assert np.all(sol.x_star == 0.0)


def test_oracle_solve_unit_case(unit_scenario):
    sol = oracle_solve(unit_scenario, 2.0)
    assert sol.lambda_star[0] == pytest.approx(1.0, abs=1e-12)
    assert sol.x_star[0, 0] == pytest.approx(1.0, abs=1e-12)
    assert sol.q_star[0] == pytest.approx(1.0, abs=1e-12)


def test_oracle_solve_symmetric_pair():
    # Two identical users, y*d_t = 2: the 3x3 stationarity system gives
    # x = (2/3, 2/3) with multiplier N*lambda = 2/3, i.e. price lambda = 1/3.
    pop = Population([0.0, 0.0], [1.0, 1.0])
    sc = Scenario(pop, (1.0,), alpha_rev=1.0)
    sol = oracle_solve(sc, 2.0)
    assert sol.x_star[:, 0] == pytest.approx([2.0 / 3.0, 2.0 / 3.0], rel=1e-12)
    assert sol.lambda_star[0] == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert sc.n * sol.lambda_star[0] == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_oracle_matches_closed_form_n5(scenario_factory, rng):
    sc = scenario_factory(rng, n=5, t=3)
    y = float(rng.uniform(0.3, 2.0))
    closed = closed_form_solve(sc, y)
    oracle = oracle_solve(sc, y)
    assert np.max(np.abs(oracle.x_star - closed.x_star)) <= 1e-8
    assert np.max(np.abs(oracle.lambda_star - closed.lambda_star)) <= 1e-8


def test_aggregate_first_order_condition(scenario_factory, rng):
    # Q*_t from the closed form equals the oracle aggregate on small instances.
    for _ in range(5):
        sc = scenario_factory(rng, n=3, t=2)
        y = float(rng.uniform(0.3, 2.0))
        closed = closed_form_solve(sc, y)
        oracle = oracle_solve(sc, y)
        assert np.allclose(closed.q_star, oracle.q_star, rtol=0, atol=1e-8)
        assert np.allclose(closed.q_star, closed.x_star.sum(axis=0), rtol=0, atol=1e-12)


def test_dual_consistency(scenario_factory, rng):
    for _ in range(10):
        sc = scenario_factory(rng)
        y = float(rng.uniform(0.2, 2.0))
        sol = closed_form_solve(sc, y)
        pop = sc.population
        residual = (
            pop.betas[:, None] * sol.x_star
            + pop.alphas[:, None]
            - sc.n * sol.lambda_star[None, :]
        )
        assert np.max(np.abs(residual)) <= 1e-10


def test_closed_form_solve_defaults_to_y_star(scenario_factory, rng):
    sc = scenario_factory(rng, n=4, t=3)
    sol = closed_form_solve(sc)
    assert sol.y_star == compute_y_star(sc)
    explicit = closed_form_solve(sc, sol.y_star)
    assert np.array_equal(sol.lambda_star, explicit.lambda_star)


def test_oracle_y_star_matches_closed_random(scenario_factory, rng):
    checked = 0
    while checked < 20:
        sc = scenario_factory(rng)
        y_closed = compute_y_star(sc)
        if abs(y_closed) < 0.05:
            continue  # relative comparison is meaningless at a near-zero optimum
        y_oracle = oracle_y_star(sc)
        assert abs(y_oracle - y_closed) <= 1e-6 * abs(y_closed)
        checked += 1


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1e3, 1e8])
def test_oracle_y_star_matches_closed_far_from_unit_scale(scenario_factory, rng, scale):
    # Y* is linear in (alpha_i, alpha_rev), so scaling both puts |y*| far from
    # the first vertex step's points {-1, 0, 1}
    base = scenario_factory(rng, n=6, t=4)
    pop = base.population
    sc = Scenario(Population(pop.alphas * scale, pop.betas), base.demand, base.alpha_rev * scale)
    y_closed = compute_y_star(sc)
    assert abs(y_closed) == pytest.approx(scale * abs(compute_y_star(base)), rel=1e-12)
    assert abs(oracle_y_star(sc) - y_closed) <= 1e-6 * abs(y_closed)


def test_oracle_y_star_rejects_a_non_convex_objective(monkeypatch, unit_scenario):
    monkeypatch.setattr(offline, "reduced_objective", lambda scenario, y: -y * y)
    with pytest.raises(RuntimeError, match="second difference"):
        oracle_y_star(unit_scenario)


@st.composite
def offline_scenarios(draw):
    """Valid scenarios over the whole coefficient range, N <= 12 and T <= 8."""
    n = draw(st.integers(1, 12))
    t_hor = draw(st.integers(1, 8))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a_hi = draw(st.floats(0.0, 5.0))
    b_lo = draw(st.floats(0.1, 5.0))
    b_hi = b_lo * draw(st.floats(1.0, 10.0))
    d = g.uniform(0.2, 6.0, t_hor)
    return Scenario(
        Population(g.uniform(0.0, a_hi, n), g.uniform(b_lo, b_hi, n)),
        d,
        alpha_rev=draw(st.floats(0.1, 3.0)) * float(d.max()),
    )


@settings(max_examples=60, deadline=None)
@given(offline_scenarios(), st.floats(-3.0, 3.0))
def test_closed_form_matches_oracles_property(sc, y):
    closed = closed_form_solve(sc, y)
    kkt = oracle_solve(sc, y)
    for key in ("lambda_star", "x_star", "q_star"):
        want, got = getattr(kkt, key), getattr(closed, key)
        assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want))), key
    y_closed = compute_y_star(sc)
    assert abs(oracle_y_star(sc) - y_closed) <= 1e-6 * max(1.0, abs(y_closed))


def test_reduced_objective_is_quadratic_in_y(scenario_factory, rng):
    # Second differences of a quadratic are constant; check three spacings.
    sc = scenario_factory(rng, n=4, t=3)
    f = lambda y: reduced_objective(sc, y)
    second = [f(y + 1.0) - 2.0 * f(y) + f(y - 1.0) for y in (-2.0, 0.0, 3.0)]
    assert second[0] == pytest.approx(second[1], rel=1e-9)
    assert second[1] == pytest.approx(second[2], rel=1e-9)
    assert second[1] > 0


def test_offline_solution_shapes(scenario_factory, rng):
    sc = scenario_factory(rng, n=7, t=4)
    sol = closed_form_solve(sc, 1.0)
    assert isinstance(sol, OfflineSolution)
    assert sol.x_star.shape == (7, 4)
    assert sol.lambda_star.shape == (4,)
    assert sol.q_star.shape == (4,)
