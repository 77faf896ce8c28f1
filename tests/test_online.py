import inspect
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from drpsim import estimator, online
from drpsim.experiments import ExperimentConfig, build_scenario
from drpsim.model import Population, Scenario
from drpsim.offline import (
    DegenerateEstimateError,
    closed_form_solve,
    compute_y_star,
    lambda_star_path,
    next_price,
)
from drpsim.online import OnlineConfig, run_episode, run_replications
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

    def solve_with_true_history(state):
        # the episode's observations plus two exact ones on the true line
        state = replace(state)
        for lam in (0.5, 1.0):
            estimator.update(state, lam, sc.n * pop.gamma1 * lam + pop.gamma2)
        return estimator.solve_normal_equations(state)

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


def test_coupled_noise_leaves_online_path_unchanged():
    sc = _noiseless_table_scenario()
    noisy = Scenario(sc.population, sc.demand, sc.alpha_rev, noise_sd=1.0)
    plain = run_replications(noisy, 0.5, 5, master_seed=123)
    coupled = run_replications(noisy, 0.5, 5, master_seed=123, coupled_noise=True)
    assert np.array_equal(plain.lambda_online, coupled.lambda_online)
    assert np.array_equal(plain.cost_online, coupled.cost_online)
    assert not np.array_equal(plain.cost_star, coupled.cost_star)


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


def _degenerate_estimates(monkeypatch):
    """Every estimate is (-1, 5), so N*gamma1_hat + N = 0 and every price degenerates."""
    monkeypatch.setattr(online, "solve_normal_equations", lambda state: (-1.0, 5.0))


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


@pytest.mark.parametrize("value", ["no", 1, None])
def test_coupled_noise_must_be_a_bool(value):
    # a truthy "no" would otherwise run coupled noise
    sc = _noiseless_table_scenario()
    message = rf"^coupled_noise must be bool, got {value!r}$"
    with pytest.raises(TypeError, match=message):
        OnlineConfig(scenario=sc, y_capacity=1.0, coupled_noise=value)
    with pytest.raises(TypeError, match=message):
        run_replications(sc, 1.0, 2, 3, coupled_noise=value)


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
    [(0.8, {"coupled_noise": True}), (0.8, {"ridge_param": 0.0}), (0.0, {})],
    ids=["coupled", "ridge0", "noiseless"],
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


def test_replications_warn_per_episode_in_order_from_the_calling_thread(monkeypatch):
    _cpus(monkeypatch, 2)
    sc = Scenario(Population([0.5], [1.0]), (1.0, 1.2, 0.9, 1.1, 1.0, 1.3, 0.8, 1.2),
                  alpha_rev=1.0, noise_sd=0.3)
    pop = sc.population
    episode = -1

    def degenerate_for_episode_index_plus_one_slots(state):
        # episode e prices degenerately for its first e + 1 estimates, so the
        # warnings tell the episodes apart; otherwise the true line
        nonlocal episode
        if state.n_samples == 1:
            episode += 1
        if state.n_samples <= episode + 1:
            return -1.0, 5.0
        return pop.gamma1, pop.gamma2

    monkeypatch.setattr(online, "solve_normal_equations", degenerate_for_episode_index_plus_one_slots)
    caught = []

    def record(message, category, filename, lineno, file=None, line=None):
        caught.append((str(message), category, filename, lineno, threading.current_thread()))

    with warnings.catch_warnings():
        warnings.simplefilter("always")
        warnings.showwarning = record
        sweep = run_replications(sc, 1.0, 5, master_seed=4)
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
    # two workers share NOISE_BLOCK; a full block each would read ~2x
    _cpus(monkeypatch, 2)
    sc = _noise_scenario(100_000, 10, 1.0)
    tracemalloc.start()
    try:
        run_replications(sc, 0.5, 4, master_seed=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * online.NOISE_BLOCK * 8


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
    # replications 0-2, then 3 and 4 on the two workers; 5 and 6 were queued
    # and cancelled, and nothing later was submitted
    assert sorted(started) == [0, 1, 2, 3, 4]
