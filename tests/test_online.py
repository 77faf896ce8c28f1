import inspect
import itertools
import math
import re
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpsim import online
from drpsim.experiments import ExperimentConfig, build_scenario
from drpsim.model import Population, Scenario
from drpsim.offline import (
    DegenerateEstimateError,
    closed_form_solve,
    compute_y_star,
    lambda_star_path,
    next_price,
)
from drpsim.online import (
    OnlineConfig,
    UnidentifiableError,
    run_episode,
    run_replications,
    solve_normal_equations,
)
from drpsim.rng import substream


def _noiseless_table_scenario():
    """N=4, T=10 instance from the baseline intervals, noise turned off."""
    g = np.random.default_rng(11)
    pop = Population(g.uniform(1.0, 2.0, 4), g.uniform(4.0, 8.0, 4))
    d = tuple(float(v) for v in g.uniform(3.0, 6.0, 10))
    return Scenario(pop, d, alpha_rev=6.0, noise_sd=0.0)


def test_next_price_unit_case():
    assert next_price(1.0, 0.0, 2.0, 1.0, 1) == 1.0


def test_next_price_degenerate():
    with pytest.raises(DegenerateEstimateError, match="degenerate estimate"):
        next_price(-1.0, 0.0, 2.0, 1.0, 7)
    # just inside the tolerance band still raises; just outside does not
    with pytest.raises(DegenerateEstimateError):
        next_price(-1.0 + 5e-10, 0.0, 2.0, 1.0, 1)
    assert np.isfinite(next_price(-1.0 + 5e-9, 0.0, 2.0, 1.0, 1))


def test_next_price_at_truth_equals_lambda_star(scenario_factory, rng):
    # the scalar evaluation at one d_t agrees with the path over the array
    for _ in range(100):
        sc = scenario_factory(rng)
        y = float(rng.uniform(-1.0, 2.0))
        pop = sc.population
        path = lambda_star_path(sc, y)
        for t in range(1, sc.horizon + 1):
            lam = next_price(pop.gamma1, pop.gamma2, y, float(sc.demand[t - 1]), sc.n)
            assert lam == pytest.approx(path[t - 1], rel=1e-12)



def _solve(u, z, ridge):
    """solve_normal_equations on the pairs (u, z), their sums formed by numpy."""
    return solve_normal_equations(
        len(u), float(u.sum()), float(u @ u), float(z.sum()), float(u @ z), ridge
    )


def test_zero_data_ridge_returns_prior_mean():
    g1, g2 = solve_normal_equations(0, 0.0, 0.0, 0.0, 0.0, 0.001)
    assert g1 == 0.0
    assert g2 == 0.0


def test_zero_data_no_ridge_is_insufficient():
    # the normal matrix is zero, so the condition test rejects it
    with pytest.raises(UnidentifiableError, match="unidentifiable"):
        solve_normal_equations(0, 0.0, 0.0, 0.0, 0.0, 0.0)


def test_single_sample_ridge_solve():
    # one pair (u=1, Z=1), ridge 0.001: ([[1,1],[1,1]] + 0.001*I) beta = [1,1]
    # has the symmetric solution 1/(2.001) in both components.  The closed-form
    # 2x2 solve may lose cond*eps ~ 4e-13 here (cond ~ 2e3); it is off by 4.1e-14
    # against an exact rational solve.  Pin at 1e-11 relative, so a relative
    # 1e-9 error in the determinant fails.
    g1, g2 = solve_normal_equations(1, 1.0, 1.0, 1.0, 1.0, 0.001)
    assert g1 == pytest.approx(1.0 / 2.001, rel=1e-11)
    assert g2 == pytest.approx(1.0 / 2.001, rel=1e-11)


def test_single_sample_no_ridge_unidentifiable():
    with pytest.raises(UnidentifiableError, match="unidentifiable: insufficient price variation"):
        solve_normal_equations(1, 1.0, 1.0, 1.0, 1.0, 0.0)


def test_two_point_exact_ols():
    # Noiseless line Z = 2u - 1 through (1, 1) and (2, 3): X'X = [[5, 3], [3, 2]],
    # X'Z = [7, 4]; integer arithmetic, exact.
    g1, g2 = solve_normal_equations(2, 3.0, 5.0, 4.0, 7.0, 0.0)
    assert g1 == 2.0
    assert g2 == -1.0


def test_identical_prices_unidentifiable():
    # three pairs (1, 1)
    with pytest.raises(UnidentifiableError, match="insufficient price variation"):
        solve_normal_equations(3, 3.0, 3.0, 3.0, 3.0, 0.0)


def test_exact_recovery_random_design(rng):
    for _ in range(10):
        n = int(rng.integers(2, 20))
        g1 = float(rng.uniform(0.5, 5.0))
        g2 = float(rng.uniform(-3.0, 0.0))
        lams = rng.uniform(0.1, 1.0, 6)
        g1_hat, g2_hat = _solve(n * lams, g1 * n * lams + g2, 0.0)
        assert g1_hat == pytest.approx(g1, rel=1e-10)
        assert g2_hat == pytest.approx(g2, rel=1e-10, abs=1e-10)


def test_ridge_shrinkage_bound_and_explicit_solution():
    # Noiseless Z = 2u - 1, 50 prices spread over [0.3, 0.6], ridge 0.001:
    # shrinkage moves the estimate by well under 1% of the truth, and the
    # closed-form solve matches the explicit dense ridge solution.
    lams = np.linspace(0.3, 0.6, 50)
    z = 2.0 * lams - 1.0
    g1, g2 = _solve(lams, z, 0.001)
    assert abs(g1 - 2.0) <= 1e-2 * 2.0
    assert abs(g2 - (-1.0)) <= 1e-2 * 1.0
    x = np.column_stack([lams, np.ones_like(lams)])
    dense = np.linalg.solve(x.T @ x + 0.001 * np.eye(2), x.T @ z)
    assert g1 == pytest.approx(dense[0], rel=1e-9)
    assert g2 == pytest.approx(dense[1], rel=1e-9)


def test_ridge_to_ols_monotone_approach(rng):
    lams = rng.uniform(0.2, 0.8, 30)
    zs = 3.0 * lams - 0.5
    errs = []
    for ridge in (1e-3, 1e-6, 1e-9):
        g1, g2 = _solve(lams, zs, ridge)
        errs.append(abs(g1 - 3.0) + abs(g2 + 0.5))
    assert errs[0] > errs[1] > errs[2]
    g1, g2 = _solve(lams, zs, 0.0)
    assert abs(g1 - 3.0) + abs(g2 + 0.5) <= 1e-10


def test_fixed_design_unbiasedness():
    # OLS on a fixed (non-adaptive) design is unbiased; the Monte Carlo mean
    # over 1e4 draws stays within 4 standard errors of the truth.
    rng = np.random.default_rng(314)
    lams = np.linspace(0.1, 1.0, 10)
    g1, g2 = 2.5, -1.5
    m = 10_000
    draws = np.empty((m, 2))
    for i in range(m):
        draws[i] = _solve(lams, g1 * lams + g2 + rng.normal(size=lams.size), 0.0)
    se = draws.std(axis=0, ddof=1) / np.sqrt(m)
    assert abs(draws[:, 0].mean() - g1) <= 4.0 * se[0]
    assert abs(draws[:, 1].mean() - g2) <= 4.0 * se[1]

def test_noiseless_identification_from_arbitrary_init():
    sc = _noiseless_table_scenario()
    y = compute_y_star(sc)
    assert sc.demand[0] != sc.demand[1]
    traj = run_episode(
        OnlineConfig(scenario=sc, y_capacity=y, lambda_init=0.05, ridge_param=0.0),
        np.random.default_rng(0),
    )
    rel = np.abs(traj.lambda_online[2:] - traj.lambda_star[2:]) / np.abs(traj.lambda_star[2:])
    assert rel.max() <= 1e-10
    # slot 2 has one sample and no ridge: the estimator falls back to the
    # prior mean once, and the two opening prices are distinct
    assert traj.fallback_events == 1
    assert traj.degenerate_events == 0
    assert traj.lambda_online[0] != traj.lambda_online[1]
    g1 = sc.population.gamma1
    g2 = sc.population.gamma2
    assert np.allclose(traj.gamma1_hat[2:], g1, rtol=1e-10)
    assert np.allclose(traj.gamma2_hat[2:], g2, rtol=1e-10)


def test_noiseless_identification_from_lambda_star_init():
    sc = _noiseless_table_scenario()
    y = compute_y_star(sc)
    lam1 = float(lambda_star_path(sc, y)[0])
    traj = run_episode(
        OnlineConfig(scenario=sc, y_capacity=y, lambda_init=lam1, ridge_param=0.0),
        np.random.default_rng(0),
    )
    rel = np.abs(traj.lambda_online[2:] - traj.lambda_star[2:]) / np.abs(traj.lambda_star[2:])
    assert rel.max() <= 1e-10


def test_true_estimate_is_fixed_point(monkeypatch):
    sc = _noiseless_table_scenario()
    y = compute_y_star(sc)
    pop = sc.population
    solve = online.solve_normal_equations  # the original, before the patch

    def solve_with_true_history(m, su, suu, sz, suz, ridge):
        # the episode's observations plus two exact ones on the true line
        for lam in (0.5, 1.0):
            u = sc.n * lam
            z = sc.n * pop.gamma1 * lam + pop.gamma2
            m, su, suu, sz, suz = m + 1, su + u, suu + u * u, sz + z, suz + u * z
        return solve(m, su, suu, sz, suz, ridge)

    monkeypatch.setattr(online, "solve_normal_equations", solve_with_true_history)
    traj = run_episode(
        OnlineConfig(
            scenario=sc,
            y_capacity=y,
            lambda_init=float(lambda_star_path(sc, y)[0]),
            ridge_param=0.0,
        ),
        np.random.default_rng(0),
    )
    rel = np.abs(traj.lambda_online - traj.lambda_star) / np.abs(traj.lambda_star)
    assert rel.max() <= 1e-12


def test_episode_determinism():
    sc = _noiseless_table_scenario()
    noisy = Scenario(sc.population, sc.demand, sc.alpha_rev, noise_sd=1.0)
    config = OnlineConfig(scenario=noisy, y_capacity=0.5)
    a = run_episode(config, substream(77, 1, 0))
    b = run_episode(config, substream(77, 1, 0))
    for field in ("lambda_online", "gamma1_hat", "gamma2_hat", "q_online", "q_star",
                  "cost_online", "cost_star"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


def test_replication_sweep_determinism_and_layout():
    sc = _noiseless_table_scenario()
    noisy = Scenario(sc.population, sc.demand, sc.alpha_rev, noise_sd=1.0)
    a = run_replications(noisy, 0.5, 7, master_seed=99)
    b = run_replications(noisy, 0.5, 7, master_seed=99)
    assert np.array_equal(a.lambda_online, b.lambda_online)
    assert np.array_equal(a.cost_star, b.cost_star)
    assert a.reps == 7
    assert a.lambda_online.shape == (7, 10)
    # replication 0 of the sweep is reproducible standalone from substream (1, 0)
    solo = run_episode(
        OnlineConfig(scenario=noisy, y_capacity=0.5), substream(99, 1, 0)
    )
    assert np.array_equal(a.lambda_online[0], solo.lambda_online)
    assert np.array_equal(a.first_trajectory.lambda_online, solo.lambda_online)


def test_lambda_star_column_and_counterfactual_aggregate():
    sc = _noiseless_table_scenario()
    y = 0.8
    traj = run_episode(
        OnlineConfig(scenario=sc, y_capacity=y, lambda_init=0.1, ridge_param=0.0),
        np.random.default_rng(0),
    )
    assert np.array_equal(traj.lambda_star, lambda_star_path(sc, y))
    sol = closed_form_solve(sc, y)
    assert np.allclose(traj.q_star, sol.q_star, rtol=1e-12)


def test_slot1_draw_range_and_override():
    sc = _noiseless_table_scenario()
    hi = 2.0 * sc.alpha_rev / sc.n
    firsts = [
        run_episode(OnlineConfig(scenario=sc, y_capacity=0.5), substream(3, 1, r)).lambda_online[0]
        for r in range(100)
    ]
    assert all(0.0 <= lam <= hi for lam in firsts)
    assert len(set(firsts)) > 90  # genuinely random across replications
    pinned = run_episode(
        OnlineConfig(scenario=sc, y_capacity=0.5, lambda_init=0.042), substream(3, 1, 0)
    )
    assert pinned.lambda_online[0] == 0.042


def _bits(x):
    return np.float64(x).view(np.int64)


@settings(max_examples=300, deadline=None)
@given(
    st.floats(0.5, 1.0, exclude_max=True),
    st.integers(-1000, 1000),
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**63 - 1),
)
def test_scaled_unit_uniform_is_the_uniform_draw(mantissa, exponent, seed, r):
    # _draw stores rng.random() and prices slot 1 at h*u; numpy forms
    # uniform(0, h) as 0 + h*u over the same u, so the bits and the
    # stream position are those of a U[0, h] draw
    h = math.ldexp(mantissa, exponent)
    uniform, unit = substream(seed, 1, r), substream(seed, 1, r)
    for _ in range(3):
        assert _bits(uniform.uniform(0.0, h)) == _bits(h * unit.random())
    assert _same_state(uniform.bit_generator.state, unit.bit_generator.state)


@pytest.mark.parametrize("alpha_rev", [6.0, 7, np.float32(5.3), np.float64(2.0 / 3.0)])
def test_slot1_price_keeps_the_bits_of_a_uniform_draw(alpha_rev):
    sc = replace(_noise_scenario(7, 5, 0.8), alpha_rev=alpha_rev)
    config = OnlineConfig(scenario=sc, y_capacity=0.5)
    for r in range(20):
        lam = run_episode(config, substream(12, 1, r)).lambda_online[0]
        # Scenario stores alpha_rev as float, so a float32 input prices in float64
        want = float(substream(12, 1, r).uniform(0.0, 2.0 * float(alpha_rev) / sc.n))
        assert _bits(lam) == _bits(want)


def _same_state(a, b):
    """Bit-generator states equal, nested dicts of scalars and arrays compared entrywise."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_state(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


def test_zero_noise_draws_only_the_slot1_price():
    sc = _noiseless_table_scenario()
    rng = substream(8, 1, 0)
    run_episode(OnlineConfig(scenario=sc, y_capacity=0.5), rng)
    want = substream(8, 1, 0)
    want.uniform(0.0, 2.0 * sc.alpha_rev / sc.n)
    assert _same_state(rng.bit_generator.state, want.bit_generator.state)
    # a pinned slot-1 price leaves the stream untouched
    rng = substream(8, 1, 0)
    run_episode(OnlineConfig(scenario=sc, y_capacity=0.5, lambda_init=0.042), rng)
    assert _same_state(rng.bit_generator.state, substream(8, 1, 0).bit_generator.state)
    # with noise the stream moves on past the slot-1 draw
    noisy = Scenario(sc.population, sc.demand, sc.alpha_rev, noise_sd=1.0)
    rng = substream(8, 1, 0)
    run_episode(OnlineConfig(scenario=noisy, y_capacity=0.5), rng)
    assert not _same_state(rng.bit_generator.state, want.bit_generator.state)


def _noise_scenario(n, t_hor, noise_sd):
    g = np.random.default_rng(n + t_hor)
    pop = Population(g.uniform(1.0, 2.0, n), g.uniform(4.0, 8.0, n))
    return Scenario(pop, g.uniform(3.0, 6.0, t_hor), alpha_rev=6.0, noise_sd=noise_sd)


def _noise_statistics_from_normal_blocks(scenario, rng):
    """The stream layout written out: rng.normal blocks of consecutive slots, each reduced whole."""
    n, t_hor = scenario.n, scenario.horizon
    eps_sum = np.zeros((t_hor, 2))
    beta_eps2_sum = np.zeros((t_hor, 2))
    if scenario.noise_sd == 0.0:
        return eps_sum, beta_eps2_sum
    block = max(1, online.NOISE_BLOCK // (2 * n))
    for start in range(0, t_hor, block):
        k = min(block, t_hor - start)
        eps = rng.normal(0.0, scenario.noise_sd, (k, 2, n))
        eps_sum[start : start + k] = eps.sum(axis=2)
        np.square(eps, out=eps)
        eps *= scenario.population.betas
        beta_eps2_sum[start : start + k] = eps.sum(axis=2)
    return eps_sum, beta_eps2_sum


@pytest.mark.parametrize(
    "n, t_hor, noise_sd, block_slots",
    [
        (4000, 100, 0.7, 65),  # blocks of 65 and 35 slots
        (online.NOISE_BLOCK // 2 + 1, 3, 1.3, 0),  # 2N > NOISE_BLOCK: one slot per block
        (4000, 100, 0.0, 65),  # draws nothing
    ],
)
def test_noise_statistics_follow_the_normal_block_layout(n, t_hor, noise_sd, block_slots):
    assert online.NOISE_BLOCK // (2 * n) == block_slots
    scenario = _noise_scenario(n, t_hor, noise_sd)
    rng, want_rng = substream(9, 1, 0), substream(9, 1, 0)
    (buffer,) = online._noise_buffers(scenario, 1)
    got = online._noise_statistics(scenario, rng, buffer)
    want = _noise_statistics_from_normal_blocks(scenario, want_rng)
    for g, w in zip(got, want):
        assert np.array_equal(g.view(np.int64), w.view(np.int64))
    assert _same_state(rng.bit_generator.state, want_rng.bit_generator.state)


def _noise_statistics_peak_bytes(scenario):
    rng = substream(9, 1, 0)
    tracemalloc.start()
    try:
        (buffer,) = online._noise_buffers(scenario, 1)
        online._noise_statistics(scenario, rng, buffer)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("n, t_hor", [(100_000, 10), (4000, 100)])
def test_noise_statistics_hold_one_block_at_a_time(n, t_hor):
    block_slots = min(online.NOISE_BLOCK // (2 * n), t_hor)
    block_bytes = block_slots * 2 * n * 8
    assert _noise_statistics_peak_bytes(_noise_scenario(n, t_hor, 1.0)) <= 1.25 * block_bytes


def test_zero_noise_allocates_no_noise_buffer():
    n = 4000
    assert _noise_statistics_peak_bytes(_noise_scenario(n, 100, 0.0)) < 2 * n * 8


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("slot", [0, 2])
def test_episode_rejects_nonfinite_observation(bad, slot):
    # a non-finite noise sum makes Q_t non-finite; the kernel raises at that
    # slot instead of carrying it into the sums and pricing from nan
    sc = _noise_scenario(3, 4, 1.0)
    config = OnlineConfig(scenario=sc, y_capacity=1.0, lambda_init=0.5)
    eps_sum = np.zeros((4, 2))
    eps_sum[slot, 0] = bad
    clean = online._finish_episode(config, None, np.zeros((4, 2)), np.zeros((4, 2)), stacklevel=2)
    lam = clean.lambda_online[slot]
    message = f"observation must be finite, got ({lam}, {bad})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        online._finish_episode(config, None, eps_sum, np.zeros((4, 2)), stacklevel=2)


def _degenerate_estimates(monkeypatch):
    """Every estimate is (-1, 5), so N*gamma1_hat + N = 0 and every price degenerates."""
    monkeypatch.setattr(online, "solve_normal_equations", lambda *state: (-1.0, 5.0))


def test_degenerate_recovery_keeps_previous_price(monkeypatch):
    _degenerate_estimates(monkeypatch)
    pop = Population([0.5], [1.0])
    sc = Scenario(pop, (1.0, 1.2, 0.9, 1.1), alpha_rev=1.0, noise_sd=0.0)
    config = OnlineConfig(scenario=sc, y_capacity=1.0, lambda_init=2.75)
    with pytest.warns(RuntimeWarning, match="degenerate estimate: reusing previous price"):
        traj = run_episode(config, np.random.default_rng(0))
    assert traj.degenerate_events == 3
    assert traj.fallback_events == 0
    assert np.all(traj.lambda_online == 2.75)
    assert traj.t.shape == (4,)


def test_degenerate_prices_warn_once_per_episode(monkeypatch):
    _degenerate_estimates(monkeypatch)
    sc = Scenario(Population([0.5], [1.0]), (1.0, 1.2, 0.9, 1.1), alpha_rev=1.0, noise_sd=0.0)
    config = OnlineConfig(scenario=sc, y_capacity=1.0, lambda_init=2.75)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_episode(config, np.random.default_rng(0))
    assert [str(w.message) for w in caught] == [
        "degenerate estimate: reusing previous price in 3 of 4 slots"
    ]
    assert caught[0].category is RuntimeWarning


def test_price_positivity_under_baseline_parameters():
    cfg = ExperimentConfig()
    sc = build_scenario(cfg, substream(cfg.seed, 0))
    y = compute_y_star(sc)
    sweep = run_replications(sc, y, 300, cfg.seed)
    assert np.all(sweep.lambda_star > 0)
    fraction = np.all(sweep.lambda_online[:, 2:] > 0, axis=1).mean()
    assert fraction >= 0.99


def test_repeated_demand_never_unidentifiable():
    cfg = ExperimentConfig(experiment="repeated-dt:0.4", reps=100)
    sc = build_scenario(cfg, substream(cfg.seed, 0))
    y = compute_y_star(sc)
    sweep = run_replications(sc, y, 100, cfg.seed, ridge_param=cfg.ridge)
    assert sweep.fallback_events == 0
    assert sweep.degenerate_events == 0


def test_config_validation():
    sc = _noiseless_table_scenario()
    with pytest.raises(ValueError):
        OnlineConfig(scenario=sc, y_capacity=float("inf"))
    with pytest.raises(ValueError):
        OnlineConfig(scenario=sc, y_capacity=1.0, lambda_init=float("nan"))
    for key, value in (("y_capacity", "3"), ("y_capacity", None), ("lambda_init", True)):
        kwargs = {"y_capacity": 1.0, key: value}
        with pytest.raises(TypeError, match=rf"^{key} must be a real number, got {value!r}$"):
            OnlineConfig(scenario=sc, **kwargs)
    with pytest.raises(ValueError):
        run_replications(sc, 1.0, 0, master_seed=1)


@pytest.mark.parametrize("value, error", [("1", TypeError), (None, TypeError), (-1.0, ValueError)])
def test_bad_ridge_param_fails_before_any_draw(monkeypatch, value, error):
    sc = _noiseless_table_scenario()
    with pytest.raises(error, match="^ridge_param "):
        OnlineConfig(scenario=sc, y_capacity=1.0, ridge_param=value)
    calls = []
    monkeypatch.setattr(online, "substream", lambda *args: calls.append(args))
    monkeypatch.setattr(online, "ThreadPoolExecutor", lambda *a, **k: calls.append("pool"))
    with pytest.raises(error, match="^ridge_param "):
        run_replications(sc, 1.0, 5, 3, ridge_param=value)
    # no substream opened, no thread started
    assert calls == []



def _ridge_config(ridge_param):
    """An OnlineConfig with this ridge weight on a one-user, one-slot scenario."""
    scenario = Scenario(Population([1.0], [2.0]), demand=(1.0,), alpha_rev=1.0)
    return OnlineConfig(scenario=scenario, y_capacity=1.0, ridge_param=ridge_param)


def test_ridge_param_validation():
    for bad in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            _ridge_config(bad)


@pytest.mark.parametrize(
    "value, error, message",
    [
        ("1", TypeError, "ridge_param must be a real number, got '1'"),
        (None, TypeError, "ridge_param must be a real number, got None"),
        (True, TypeError, "ridge_param must be a real number, got True"),
        (float("-inf"), ValueError, "ridge_param must be finite, got -inf"),
        (
            -1.0,
            ValueError,
            "ridge_param out of range: the ridge weight is -1, outside [0, 3.66e+69]",
        ),
    ],
)
def test_bad_ridge_param_is_named(value, error, message):
    with pytest.raises(error) as caught:
        _ridge_config(value)
    assert str(caught.value) == message

@pytest.mark.parametrize("reps", [True, 2.0, "3", None])
def test_reps_must_be_an_integer(reps):
    sc = _noiseless_table_scenario()
    with pytest.raises(TypeError, match=rf"^reps must be an integer, got {re.escape(repr(reps))}$"):
        run_replications(sc, 1.0, reps, master_seed=1)


def test_reps_accepts_numpy_integers():
    sc = _noiseless_table_scenario()
    assert run_replications(sc, 1.0, np.int64(2), master_seed=1).reps == 2
    with pytest.raises(ValueError, match="^reps must be >= 1, got 0$"):
        run_replications(sc, 1.0, np.int32(0), master_seed=1)


def test_gamma_columns_record_pricing_estimates():
    sc = _noiseless_table_scenario()
    traj = run_episode(
        OnlineConfig(scenario=sc, y_capacity=0.5, lambda_init=0.1),
        np.random.default_rng(0),
    )
    # slot 1 prices from the prior mean (0, 0); slot 2 from the 1-sample ridge fit
    assert traj.gamma1_hat[0] == 0.0
    assert traj.gamma2_hat[0] == 0.0
    assert traj.gamma1_hat[1] != 0.0


def _cpus(monkeypatch, cpus):
    """Make run_replications see `cpus` usable CPUs, so its worker count does not depend on the host."""
    monkeypatch.setattr(online, "_usable_cpus", lambda: cpus)


def _episodes(scenario, y, reps, seed, **kwargs):
    """The sequential loop run_replications stands for."""
    config = OnlineConfig(scenario=scenario, y_capacity=y, **kwargs)
    return [run_episode(config, substream(seed, 1, r)) for r in range(reps)]


def _assert_bits_equal(got, want, what):
    assert got.shape == want.shape, what
    assert np.array_equal(got.view(np.int64), want.view(np.int64)), what


def _assert_sweep_is_episodes(sweep, episodes):
    for field in ("lambda_online", "gamma1_hat", "cost_online", "cost_star"):
        _assert_bits_equal(
            getattr(sweep, field), np.stack([getattr(e, field) for e in episodes]), field
        )
    for field in ("lambda_star", "gamma2_hat", "q_online", "q_star"):
        _assert_bits_equal(
            getattr(sweep.first_trajectory, field), getattr(episodes[0], field), field
        )
    assert sweep.degenerate_events == sum(e.degenerate_events for e in episodes)
    assert sweep.fallback_events == sum(e.fallback_events for e in episodes)


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("reps", [1, 2, 3, 7])
def test_replications_equal_sequential_episodes(monkeypatch, reps, cpus):
    # N=4000: a run_episode draws T=40 slots in one block, each of 3 workers
    # in blocks of 13 slots and a last one of 1
    _cpus(monkeypatch, cpus)
    sc = _noise_scenario(4000, 40, 0.8)
    sweep = run_replications(sc, 0.5, reps, master_seed=31)
    _assert_sweep_is_episodes(sweep, _episodes(sc, 0.5, reps, 31))


@pytest.mark.parametrize(
    "noise_sd, kwargs",
    [(0.8, {"ridge_param": 0.0}), (0.0, {})],
    ids=["ridge0", "noiseless"],
)
def test_replication_variants_equal_sequential_episodes(monkeypatch, noise_sd, kwargs):
    _cpus(monkeypatch, 3)
    sc = _noise_scenario(4000, 40, noise_sd)
    sweep = run_replications(sc, 0.5, 7, master_seed=32, **kwargs)
    episodes = _episodes(sc, 0.5, 7, 32, **kwargs)
    _assert_sweep_is_episodes(sweep, episodes)
    if kwargs.get("ridge_param") == 0.0:
        # slot 2 has one sample: every episode falls back at least once
        assert sweep.fallback_events >= 7


def test_replications_solve_through_the_module_name(monkeypatch):
    # the kernel looks solve_normal_equations up in online's globals on every
    # slot but the first, so a wrapper there sees each solve of a sweep
    _cpus(monkeypatch, 2)
    sc = _noise_scenario(50, 30, 0.8)
    reps = 4
    plain = run_replications(sc, 0.5, reps, master_seed=33, ridge_param=0.001)
    solve = online.solve_normal_equations  # the original, before the patch
    calls = itertools.count()

    def counted(*state):
        next(calls)
        return solve(*state)

    monkeypatch.setattr(online, "solve_normal_equations", counted)
    wrapped = run_replications(sc, 0.5, reps, master_seed=33, ridge_param=0.001)
    assert next(calls) == reps * (sc.horizon - 1)
    for field in ("lambda_star", "lambda_online", "gamma1_hat", "cost_online", "cost_star"):
        _assert_bits_equal(getattr(wrapped, field), getattr(plain, field), field)
    for field in ("gamma2_hat", "q_online", "q_star"):
        got, want = wrapped.first_trajectory, plain.first_trajectory
        _assert_bits_equal(getattr(got, field), getattr(want, field), field)
    assert wrapped.degenerate_events == plain.degenerate_events
    assert wrapped.fallback_events == plain.fallback_events


def test_replications_share_buffers_safely_under_many_switches(monkeypatch):
    # 8 workers on fewer cores, switching every microsecond: a buffer handed
    # to two draws at once would corrupt their statistics
    _cpus(monkeypatch, 8)
    sc = _noise_scenario(400, 30, 0.8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweep = run_replications(sc, 0.5, 40, master_seed=33)
    finally:
        sys.setswitchinterval(interval)
    _assert_sweep_is_episodes(sweep, _episodes(sc, 0.5, 40, 33))


def test_replications_warn_per_episode_in_order_from_the_calling_thread(monkeypatch, pools):
    _cpus(monkeypatch, 2)
    sc = Scenario(Population([0.5], [1.0]), (1.0, 1.2, 0.9, 1.1, 1.0, 1.3, 0.8, 1.2),
                  alpha_rev=1.0, noise_sd=0.3)
    pop = sc.population
    episode = -1

    def degenerate_for_episode_index_plus_one_slots(m, *sums):
        # episode e prices degenerately for its first e + 1 estimates, so the
        # warnings tell the episodes apart; otherwise the true line
        nonlocal episode
        if m == 1:
            episode += 1
        if m <= episode + 1:
            return -1.0, 5.0
        return pop.gamma1, pop.gamma2

    monkeypatch.setattr(online, "solve_normal_equations", degenerate_for_episode_index_plus_one_slots)

    def run(**kwargs):
        nonlocal episode
        episode = -1
        caught = []

        def record(message, category, filename, lineno, file=None, line=None):
            caught.append((str(message), category, filename, lineno, threading.current_thread()))

        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = record
            sweep = run_replications(sc, 1.0, 5, master_seed=4, **kwargs)
        return sweep, caught

    sweep, caught = run()
    # draws stored for a later call, then reused by it without a pool, warn alike
    store = {}
    assert run(shared_draws=store)[1] == caught
    assert len(pools) == 2
    assert run(shared_draws=store)[1] == caught
    assert len(pools) == 2
    assert [c[0] for c in caught] == [
        f"degenerate estimate: reusing previous price in {r + 1} of 8 slots" for r in range(5)
    ]
    assert sweep.degenerate_events == 15
    lines, first = inspect.getsourcelines(run_replications)
    for _, category, filename, lineno, thread in caught:
        assert category is RuntimeWarning
        assert thread is threading.main_thread()
        # attributed to run_replications' own line, as when it called run_episode
        assert filename == online.__file__
        assert first <= lineno < first + len(lines)


def test_episode_warning_points_at_the_caller(monkeypatch):
    _degenerate_estimates(monkeypatch)
    sc = Scenario(Population([0.5], [1.0]), (1.0, 1.2, 0.9, 1.1), alpha_rev=1.0, noise_sd=0.0)
    config = OnlineConfig(scenario=sc, y_capacity=1.0, lambda_init=2.75)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        line = inspect.currentframe().f_lineno + 1
        run_episode(config, np.random.default_rng(0))
    assert [(w.filename, w.lineno) for w in caught] == [(__file__, line)]


def test_replications_hold_one_noise_block_between_workers(monkeypatch):
    # the workers share NOISE_BLOCK, or hold one slot of 2N each when that is
    # more: 4 reps on 2 CPUs draw on 2 threads, 3 reps on 3, one slot each at
    # N=100000; a full block each would read ~2x
    _cpus(monkeypatch, 2)
    n = 100_000
    sc = _noise_scenario(n, 10, 1.0)
    for reps, workers in ((4, 2), (3, 3)):
        tracemalloc.start()
        try:
            run_replications(sc, 0.5, reps, master_seed=9)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * max(online.NOISE_BLOCK, workers * 2 * n) * 8


def test_a_failed_draw_is_raised_and_leaves_no_thread(monkeypatch):
    _cpus(monkeypatch, 2)
    sc = _noise_scenario(4000, 10, 1.0)
    replication = {
        substream(5, 1, r).bit_generator.state["state"]["key"].tobytes(): r for r in range(40)
    }
    started = []
    real = online._noise_statistics

    def fail_on_replication_2(scenario, rng, buffer):
        r = replication[rng.bit_generator.state["state"]["key"].tobytes()]
        started.append(r)
        if r == 2:
            raise RuntimeError("draw failed")
        if r > 2:
            # hold both workers until the failure has been read and the
            # queued draws cancelled
            threading.Event().wait(0.5)
        return real(scenario, rng, buffer)

    monkeypatch.setattr(online, "_noise_statistics", fail_on_replication_2)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="^draw failed$"):
        run_replications(sc, 0.5, 40, master_seed=5)
    assert threading.active_count() == threads
    # replications 0-2, then 3 and 4 on the two workers; 5 and later were
    # queued and cancelled
    assert sorted(started) == [0, 1, 2, 3, 4]


def test_replications_open_substreams_in_the_calling_thread_in_order(monkeypatch):
    # the benchmark's spans tracer wraps substream and is not thread-safe
    _cpus(monkeypatch, 3)
    opened = []
    real = online.substream

    def record(*key):
        opened.append((key, threading.current_thread()))
        return real(*key)

    monkeypatch.setattr(online, "substream", record)
    run_replications(_noise_scenario(400, 20, 0.8), 0.5, 9, master_seed=34)
    assert [key for key, _ in opened] == [(34, 1, r) for r in range(9)]
    assert all(thread is threading.main_thread() for _, thread in opened)


def test_each_pool_thread_draws_into_one_buffer_of_its_own(monkeypatch):
    _cpus(monkeypatch, 3)
    sc = _noise_scenario(400, 30, 0.8)
    drawn = []
    real = online._noise_statistics

    def record(scenario, rng, buffer):
        drawn.append((threading.current_thread(), buffer.ctypes.data))
        return real(scenario, rng, buffer)

    monkeypatch.setattr(online, "_noise_statistics", record)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        sweep = run_replications(sc, 0.5, 40, master_seed=35)
    finally:
        sys.setswitchinterval(interval)
    assert len(drawn) == 40
    buffers = {}
    for thread, address in drawn:
        assert thread is not threading.main_thread()
        buffers.setdefault(thread, set()).add(address)
    assert 1 <= len(buffers) <= 3
    assert all(len(addresses) == 1 for addresses in buffers.values())
    addresses = [a for (a,) in buffers.values()]
    assert len(set(addresses)) == len(addresses)
    _assert_sweep_is_episodes(sweep, _episodes(sc, 0.5, 40, 35))


@pytest.mark.parametrize("reps, threads", [(1, 1), (2, 2), (3, 3), (4, 2), (8, 2)])
def test_draw_pool_starts_a_thread_per_replication_below_twice_the_cpus(
    monkeypatch, pools, reps, threads
):
    # on 2 CPUs, 3 draws share both at once where 2 threads would draw the
    # third alone; at 2N > NOISE_BLOCK each thread draws into a one-slot
    # buffer of its own, so 3 threads hold more than NOISE_BLOCK
    _cpus(monkeypatch, 2)
    sc = _noise_scenario(online.NOISE_BLOCK // 2 + 1, 2, 0.8)
    together = threading.Barrier(threads, timeout=10)
    drawn = []
    real = online._noise_statistics

    def all_threads_at_once(scenario, rng, buffer):
        # each draw waits for threads - 1 others: with fewer threads it times out
        drawn.append((threading.current_thread(), buffer.ctypes.data, buffer.shape))
        together.wait()
        return real(scenario, rng, buffer)

    monkeypatch.setattr(online, "_noise_statistics", all_threads_at_once)
    sweep = run_replications(sc, 0.5, reps, master_seed=36)
    monkeypatch.setattr(online, "_noise_statistics", real)
    (pool,) = pools
    assert pool._max_workers == threads
    buffers = {}
    for thread, address, shape in drawn:
        assert shape == (1, 2, sc.n)
        buffers.setdefault(thread, set()).add(address)
    assert len(buffers) == threads
    assert all(len(addresses) == 1 for addresses in buffers.values())
    assert len(set.union(*buffers.values())) == threads
    _assert_sweep_is_episodes(sweep, _episodes(sc, 0.5, reps, 36))


@pytest.mark.parametrize("noise_sd", [0.0, 0.8])
@pytest.mark.parametrize(
    "n", [4000, online.NOISE_BLOCK // 2 + 1], ids=["65-slot block", "2N > NOISE_BLOCK"]
)
def test_noise_buffers_split_one_episode_buffer(n, noise_sd):
    for t_hor in (1, 2, 5, 100):
        sc = _noise_scenario(n, t_hor, noise_sd)
        episode_slots = min(t_hor, max(1, online.NOISE_BLOCK // (2 * n)))
        for count in (1, 2, 3, 8):
            buffers = online._noise_buffers(sc, count)
            assert len(buffers) == count
            assert buffers.shape[2:] == (2, n)
            slots = buffers.shape[1]
            # one slot at least each, so count buffers may hold more slots
            # than the episode's buffer, but then one slot each
            assert slots >= 1 if noise_sd else slots == 0
            assert count * slots <= max(episode_slots, count)
            assert buffers.size <= max(online.NOISE_BLOCK, count * 2 * n)


# ------------------------------------------------------------ shared draws


def test_shared_draws_are_reused_across_revenue_prices(monkeypatch, pools):
    # c_rev moves alpha_rev, so the slot-1 price and every later one, but
    # not the population or the noise
    _cpus(monkeypatch, 2)
    configs = [ExperimentConfig(n_users=30, horizon=25, c_rev=c_rev) for c_rev in (1.0, 3.0)]
    scenarios = [build_scenario(cfg, substream(cfg.seed, 0)) for cfg in configs]
    assert scenarios[0].alpha_rev != scenarios[1].alpha_rev
    store = {}
    shared = [run_replications(sc, 2.0, 6, 42, shared_draws=store) for sc in scenarios]
    assert len(pools) == 1 and len(store) == 1
    for got, sc in zip(shared, scenarios):
        _assert_sweep_is_episodes(got, _episodes(sc, 2.0, 6, 42))
    assert not np.array_equal(shared[0].lambda_online[:, 0], shared[1].lambda_online[:, 0])


def test_shared_draws_compare_betas_by_content(pools):
    sc = _noise_scenario(20, 15, 0.8)
    pop = sc.population
    twin = replace(sc, population=Population(pop.alphas.copy() * 1.5, pop.betas.copy()))
    store = {}
    run_replications(sc, 0.5, 4, 3, shared_draws=store)
    got = run_replications(twin, 0.5, 4, 3, shared_draws=store)
    assert len(pools) == 1 and len(store) == 1
    _assert_sweep_is_episodes(got, _episodes(twin, 0.5, 4, 3))


def _population_variants(sc):
    betas = sc.population.betas.copy()
    betas[-1] = np.nextafter(betas[-1], np.inf)
    longer = _noise_scenario(sc.n, sc.horizon + 1, sc.noise_sd)
    return {
        "betas": (replace(sc, population=Population(sc.population.alphas, betas)), 4, 3),
        "noise_sd": (replace(sc, noise_sd=0.9), 4, 3),
        "horizon": (replace(longer, population=sc.population), 4, 3),
        "reps": (sc, 5, 3),
        "seed": (sc, 4, 4),
    }


@pytest.mark.parametrize("what", ["betas", "noise_sd", "horizon", "reps", "seed"])
def test_shared_draws_are_not_reused_for_another_population(pools, what):
    sc = _noise_scenario(20, 15, 0.8)
    other, reps, seed = _population_variants(sc)[what]
    store = {}
    run_replications(sc, 0.5, 4, 3, shared_draws=store)
    got = run_replications(other, 0.5, reps, seed, shared_draws=store)
    assert len(pools) == 2 and len(store) == 2
    _assert_sweep_is_episodes(got, _episodes(other, 0.5, reps, seed))


def test_a_failed_draw_leaves_no_shared_entry(monkeypatch):
    _cpus(monkeypatch, 2)
    sc = _noise_scenario(40, 10, 1.0)
    real = online._noise_statistics
    calls = itertools.count()

    def fail_on_the_third_draw(scenario, rng, buffer):
        if next(calls) == 2:
            raise RuntimeError("draw failed")
        return real(scenario, rng, buffer)

    monkeypatch.setattr(online, "_noise_statistics", fail_on_the_third_draw)
    store = {}
    with pytest.raises(RuntimeError, match="^draw failed$"):
        run_replications(sc, 0.5, 6, 8, shared_draws=store)
    assert store == {}
    monkeypatch.setattr(online, "_noise_statistics", real)
    got = run_replications(sc, 0.5, 6, 8, shared_draws=store)
    assert len(store) == 1
    _assert_sweep_is_episodes(got, _episodes(sc, 0.5, 6, 8))
