"""run_episode against the plain per-slot loop it replaced.

loop_episode is the slot-by-slot body of run_episode before noise was
drawn in blocks and costs were formed from noise statistics: one noise
vector per call, realize_outcome and stage_cost on the N responses of
both streams, and a regression state the loop starts and sums itself,
so of the recursion it shares only solve_normal_equations and next_price
with the engine. The estimator observes
Q_t = N*lambda_t*gamma1 + gamma2 + sum_i eps_it, the identity
run_episode uses, and each slot checks that Q_t against the summed
responses. Prices, gamma estimates and Q_online must agree bit
for bit; stage costs and Q_star come from algebraically equal formulas
and agree to rounding.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpsim.experiments import ExperimentConfig, build_scenario
from drpsim.model import Population, Scenario, aggregate_from_noise, realize_outcome, stage_cost
from drpsim.offline import DegenerateEstimateError, compute_y_star, lambda_star_path, next_price
from drpsim.online import (
    NOISE_BLOCK,
    OnlineConfig,
    UnidentifiableError,
    run_episode,
    solve_normal_equations,
)
from drpsim.rng import substream

#: stage costs and Q_star: |engine - loop| <= COST_RTOL * max(1, |loop|); also
#: the observed Q_t against the summed responses, per slot
COST_RTOL = 1e-12


def loop_episode(config, rng):
    """The per-slot loop: returns a dict of the Trajectory's arrays and counters."""
    scenario = config.scenario
    pop = scenario.population
    n = scenario.n
    t_hor = scenario.horizon
    y = config.y_capacity
    noise_sd = scenario.noise_sd
    lam_star = lambda_star_path(scenario, y)
    m, su, suu, sz, suz, ridge = 0, 0.0, 0.0, 0.0, 0.0, float(config.ridge_param)
    if config.lambda_init is not None:
        lam = float(config.lambda_init)
    else:
        lam = float(rng.uniform(0.0, 2.0 * scenario.alpha_rev / n))
    out = {k: np.empty(t_hor) for k in (
        "lambda_online", "gamma1_hat", "gamma2_hat", "q_online", "q_star",
        "cost_online", "cost_star", "eps_sum",
    )}
    degenerate = fallback = 0
    g1, g2 = 0.0, 0.0
    zero_eps = np.zeros(n)
    for t in range(1, t_hor + 1):
        if t > 1:
            try:
                g1, g2 = solve_normal_equations(m, su, suu, sz, suz, ridge)
            except UnidentifiableError:
                g1, g2 = 0.0, 0.0
                fallback += 1
            try:
                lam = next_price(g1, g2, y, float(scenario.demand[t - 1]), n)
            except DegenerateEstimateError:
                degenerate += 1
        if noise_sd == 0.0:
            eps_online = eps_cf = zero_eps
        else:
            eps_online = rng.normal(0.0, noise_sd, n)
            eps_cf = rng.normal(0.0, noise_sd, n)
        x_online = realize_outcome(scenario, lam, eps_online)
        x_cf = realize_outcome(scenario, float(lam_star[t - 1]), eps_cf)
        out["lambda_online"][t - 1] = lam
        out["gamma1_hat"][t - 1] = g1
        out["gamma2_hat"][t - 1] = g2
        q_summed, out["cost_online"][t - 1] = stage_cost(scenario, y, t, x_online)
        out["eps_sum"][t - 1] = eps_sum = float(eps_online.sum())
        q = n * lam * pop.gamma1 + pop.gamma2 + eps_sum
        assert abs(q - q_summed) <= COST_RTOL * max(1.0, abs(q_summed)), (t, q, q_summed)
        out["q_online"][t - 1] = q
        out["q_star"][t - 1], out["cost_star"][t - 1] = stage_cost(scenario, y, t, x_cf)
        u = n * lam
        m += 1
        su += u
        suu += u * u
        sz += q
        suz += u * q
    out["degenerate_events"] = degenerate
    out["fallback_events"] = fallback
    return out


def assert_engine_matches_loop(config, seed):
    """Run both on substream(seed, 1, 0)."""
    want = loop_episode(config, substream(seed, 1, 0))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = run_episode(config, substream(seed, 1, 0))
    for key in ("lambda_online", "gamma1_hat", "gamma2_hat", "q_online"):
        assert np.array_equal(getattr(got, key), want[key]), key
    q_identity = aggregate_from_noise(config.scenario, got.lambda_online, want["eps_sum"])
    assert np.array_equal(got.q_online, q_identity)
    for key in ("cost_online", "cost_star", "q_star"):
        err = np.abs(getattr(got, key) - want[key])
        assert np.all(err <= COST_RTOL * np.maximum(1.0, np.abs(want[key]))), (key, err.max())
    assert got.degenerate_events == want["degenerate_events"]
    assert got.fallback_events == want["fallback_events"]
    degenerate_warnings = [w for w in caught if "degenerate estimate" in str(w.message)]
    assert len(degenerate_warnings) == (1 if want["degenerate_events"] else 0)


@st.composite
def episodes(draw):
    n = draw(st.integers(1, 40))
    t_hor = draw(st.integers(1, 40))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scenario = Scenario(
        Population(g.uniform(0.0, 3.0, n), g.uniform(0.5, 10.0, n)),
        g.uniform(0.5, 6.0, t_hor),
        alpha_rev=float(g.uniform(0.5, 10.0)),
        noise_sd=draw(st.one_of(st.just(0.0), st.floats(1e-3, 3.0))),
    )
    config = OnlineConfig(
        scenario=scenario,
        y_capacity=float(g.uniform(-1.0, 3.0)),
        lambda_init=draw(st.one_of(st.none(), st.floats(-1.0, 2.0))),
        ridge_param=draw(st.one_of(st.just(0.0), st.floats(1e-6, 1.0))),
    )
    return config, draw(st.integers(0, 2**63 - 1))


@settings(max_examples=150, deadline=None)
@given(episodes())
def test_engine_matches_per_slot_loop(case):
    config, seed = case
    assert_engine_matches_loop(config, seed)


def test_engine_matches_loop_across_noise_blocks():
    # N=4000 puts 65 slots in a noise block, so T=100 spans two blocks
    cfg = ExperimentConfig(n_users=4000, horizon=100, seed=5)
    scenario = build_scenario(cfg, substream(cfg.seed, 0))
    assert NOISE_BLOCK // (2 * scenario.n) == 65
    y = compute_y_star(scenario)
    assert_engine_matches_loop(OnlineConfig(scenario, y), seed=5)
