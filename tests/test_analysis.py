import json
from dataclasses import replace

import numpy as np
import pytest

from drpsim.analysis import (
    analytic_gap,
    build_regret_report,
    empirical_gap,
    fit_decay,
    log_bound_check,
    median_tracking_error,
    price_bias_variance,
    regret_constants,
    summarize,
)
from drpsim.experiments import ExperimentConfig, build_scenario, scenario_and_capacity
from drpsim.model import Population, Scenario
from drpsim.offline import compute_y_star
from drpsim.online import SweepResult, run_replications
from drpsim.rng import substream


@pytest.fixture(scope="module")
def small_sweep():
    """N=3, T=12, 60 replications: cheap but real moments."""
    rng = np.random.default_rng(21)
    pop = Population(rng.uniform(1.0, 2.0, 3), rng.uniform(4.0, 8.0, 3))
    d = tuple(float(v) for v in rng.uniform(3.0, 6.0, 12))
    sc = Scenario(pop, d, alpha_rev=6.0, noise_sd=1.0)
    return run_replications(sc, 0.5, 60, master_seed=2024)


@pytest.fixture(scope="module")
def excited_sweep():
    """Baseline intervals with a large revenue constant (c_rev=10).

    The default c_rev=1 makes the committed capacity slightly negative, so
    the optimal price is nearly flat in d_t and the regression design gains
    almost no spread after the opening slots; gamma1's variance then decays
    like 1/log t instead of the asymptotic 1/t. A larger revenue constant
    keeps y* large and positive, d_t variation feeds straight into price
    variation, and the 1/t estimator-variance regime is visible on [10, 100].
    """
    cfg = ExperimentConfig(c_rev=10.0)
    sc = build_scenario(cfg, substream(cfg.seed, 0))
    y = compute_y_star(sc)
    assert y > 0
    return sc, run_replications(sc, y, 1000, cfg.seed)


def test_regret_constants_pinned():
    pop = Population([0.0, 0.0], [1.0, 1.0])
    c1, c2 = regret_constants(pop)
    assert c1 == pytest.approx(6.0, abs=1e-12)
    assert c2 == 0.0
    pop = Population([1.0, 1.0], [1.0, 1.0])
    c1, c2 = regret_constants(pop)
    assert c1 == pytest.approx(6.0, abs=1e-12)
    assert c2 == pytest.approx(2.0, abs=1e-12)
    pop = Population([0.0], [3.0])
    _, c2 = regret_constants(pop)
    assert c2 == 0.0


def test_analytic_gap_zero_at_fixed_point():
    lam_star = 0.37
    assert analytic_gap(5.0, 2.0, (lam_star, lam_star * lam_star), lam_star) == 0.0


def test_analytic_gap_pure_variance():
    lam_star, v = 0.4, 0.09
    gap = analytic_gap(3.0, 0.0, (lam_star, lam_star * lam_star + v), lam_star)
    assert gap == pytest.approx(3.0 * v, rel=1e-12)


def test_analytic_gap_moment_validation():
    with pytest.raises(ValueError, match="second moment"):
        analytic_gap(1.0, 0.0, (1.0, 0.5), 1.0)
    # rounding-level violations are clamped to zero variance, not rejected
    gap = analytic_gap(1.0, 0.0, (1.0, 1.0 - 1e-16), 1.0)
    assert gap == 0.0


def test_empirical_gap_matches_manual_mean(small_sweep):
    t = 5
    diffs = small_sweep.cost_online[:, t - 1] - small_sweep.cost_star[:, t - 1]
    mean, se = empirical_gap(small_sweep, t)
    assert mean == pytest.approx(float(diffs.mean()), rel=1e-12)
    assert se == pytest.approx(float(diffs.std(ddof=1) / np.sqrt(60)), rel=1e-12)
    with pytest.raises(ValueError, match="slot index"):
        empirical_gap(small_sweep, 13)


def test_empirical_gap_needs_replications(small_sweep):
    single = SweepResult(
        scenario=small_sweep.scenario,
        lambda_star=small_sweep.lambda_star,
        lambda_online=small_sweep.lambda_online[:1],
        gamma1_hat=small_sweep.gamma1_hat[:1],
        cost_online=small_sweep.cost_online[:1],
        cost_star=small_sweep.cost_star[:1],
        first_trajectory=small_sweep.first_trajectory,
        degenerate_events=0,
        fallback_events=0,
    )
    with pytest.raises(ValueError, match="need >= 2 replications"):
        empirical_gap(single, 1)


def test_fit_decay_exact_power_laws():
    t = np.arange(1, 201)
    assert fit_decay(t, 1.0 / t, (1.0, 200.0)) == pytest.approx(-1.0, abs=1e-9)
    assert fit_decay(t, np.full(200, 2.5), (1.0, 200.0)) == pytest.approx(0.0, abs=1e-12)
    assert fit_decay(t, 3.0 * t**-1.7, (5.0, 150.0)) == pytest.approx(-1.7, abs=1e-9)


def test_fit_decay_errors():
    t = np.arange(1, 51)
    with pytest.raises(ValueError, match="fewer than two slots"):
        fit_decay(t, 1.0 / t, (200.0, 300.0))
    values = 1.0 / t
    values[10] = 0.0
    with pytest.raises(ValueError, match="nonpositive value"):
        fit_decay(t, values, (1.0, 50.0))


def test_log_bound_exact_log_curve():
    t = np.arange(1, 1001)
    res = log_bound_check(5.0 * np.log(t))
    assert res.k1 == pytest.approx(5.0, rel=1e-12)
    assert res.k2 == pytest.approx(5.0, rel=1e-12)
    assert res.passed


def test_log_bound_rejects_linear_regret():
    t = np.arange(1, 1001)
    res = log_bound_check(t.astype(float))
    assert res.k1 > 0
    assert res.k2 / res.k1 > 20.0
    assert not res.passed


def test_log_bound_validation():
    with pytest.raises(ValueError, match="does not reach t0 = 10"):
        log_bound_check(np.ones(9))


def test_price_bias_variance_identical_replications(small_sweep):
    # two copies so the replication mean reproduces the row bitwise
    row = small_sweep.lambda_online[:1]
    tiled = SweepResult(
        scenario=small_sweep.scenario,
        lambda_star=small_sweep.lambda_star,
        lambda_online=np.tile(row, (2, 1)),
        gamma1_hat=np.tile(small_sweep.gamma1_hat[:1], (2, 1)),
        cost_online=np.tile(small_sweep.cost_online[:1], (2, 1)),
        cost_star=np.tile(small_sweep.cost_star[:1], (2, 1)),
        first_trajectory=small_sweep.first_trajectory,
        degenerate_events=0,
        fallback_events=0,
    )
    bias, var = price_bias_variance(tiled)
    assert np.all(var == 0.0)
    assert np.array_equal(bias, row[0] - small_sweep.lambda_star)


def test_price_bias_variance_noiseless_recovery():
    rng = np.random.default_rng(8)
    pop = Population(rng.uniform(1.0, 2.0, 4), rng.uniform(4.0, 8.0, 4))
    d = tuple(float(v) for v in rng.uniform(3.0, 6.0, 8))
    sc = Scenario(pop, d, alpha_rev=6.0, noise_sd=0.0)
    sweep = run_replications(sc, 0.4, 5, master_seed=6, ridge_param=0.0)
    bias, var = price_bias_variance(sweep)
    assert np.all(np.abs(bias[2:]) <= 1e-12)
    assert np.all(var[2:] <= 1e-24)


@pytest.fixture(scope="module")
def negative_price_sweep(small_sweep):
    """small_sweep's scenario under y = -1, where every lambda*_t < 0."""
    sweep = run_replications(small_sweep.scenario, -1.0, 60, master_seed=2024)
    assert np.all(sweep.lambda_star < 0)
    return sweep


def test_median_tracking_error_manual(small_sweep, negative_price_sweep):
    for sweep in (small_sweep, negative_price_sweep):
        med = median_tracking_error(sweep)
        manual = np.median(
            np.abs(sweep.lambda_online - sweep.lambda_star) / np.abs(sweep.lambda_star),
            axis=0,
        )
        assert np.array_equal(med, manual)
        assert np.all(med >= 0.0)


def test_median_tracking_error_rejects_zero_lambda_star(small_sweep):
    lam_star = small_sweep.lambda_star.copy()
    lam_star[4] = 0.0
    lam_star[7] = 1e-13
    with pytest.raises(ValueError, match="lambda_star at slot 5 is 0.0"):
        median_tracking_error(replace(small_sweep, lambda_star=lam_star))


def test_report_quadratic_gap_identity(small_sweep):
    # c1 * mean((lambda - lambda*)^2) decomposes exactly into
    # c1 * (population variance + bias^2); lambda_var uses ddof=1.
    report = build_regret_report(small_sweep)
    r = small_sweep.reps
    recomposed = report.c1 * (
        report.lambda_var * (r - 1) / r + report.lambda_bias**2
    )
    assert np.allclose(report.gap_quadratic, recomposed, rtol=1e-12, atol=0.0)


def test_report_structure(small_sweep):
    report = build_regret_report(small_sweep)
    assert np.array_equal(report.cum_regret, np.cumsum(report.gap_mean))
    assert np.array_equal(report.t, np.arange(1, 13))
    assert report.c1 >= 0.0
    g_mean, g_se = empirical_gap(small_sweep, 7)
    assert report.gap_mean[6] == pytest.approx(g_mean, rel=1e-12)
    assert report.gap_se[6] == pytest.approx(g_se, rel=1e-12)


def test_gamma1_variance_decays_like_one_over_t(excited_sweep):
    _, sweep = excited_sweep
    report = build_regret_report(sweep)
    slope = fit_decay(report.t, report.gamma1_var, (10.0, 100.0))
    assert -1.3 <= slope <= -0.7


def test_gamma1_bias_is_small_against_spread(excited_sweep):
    sc, sweep = excited_sweep
    g1 = sc.population.gamma1
    bias = np.abs(sweep.gamma1_hat.mean(axis=0) - g1)
    std = sweep.gamma1_hat.std(axis=0, ddof=1)
    assert np.all(bias[19:] <= 0.1 * std[19:])


def test_negative_gap_estimates_stay_within_noise(excited_sweep):
    _, sweep = excited_sweep
    report = build_regret_report(sweep)
    neg = report.gap_mean < 0
    if neg.any():
        assert np.all(-report.gap_mean[neg] <= 3.0 * report.gap_se[neg])


def test_gap_times_t_stays_in_band(excited_sweep):
    # 1/t decay of the per-slot gap: R_t * t moves within a narrow band.
    _, sweep = excited_sweep
    report = build_regret_report(sweep)
    mask = (report.t >= 10) & (report.t <= 100)
    band = report.gap_quadratic[mask] * report.t[mask]
    assert band.max() / band.min() <= 3.0


def test_report_needs_replications(small_sweep):
    single = SweepResult(
        scenario=small_sweep.scenario,
        lambda_star=small_sweep.lambda_star,
        lambda_online=small_sweep.lambda_online[:1],
        gamma1_hat=small_sweep.gamma1_hat[:1],
        cost_online=small_sweep.cost_online[:1],
        cost_star=small_sweep.cost_star[:1],
        first_trajectory=small_sweep.first_trajectory,
        degenerate_events=0,
        fallback_events=0,
    )
    with pytest.raises(ValueError, match="need >= 2 replications"):
        build_regret_report(single)


def test_report_tracking_max_and_summary_checks(small_sweep, excited_sweep):
    short = summarize(build_regret_report(small_sweep))  # T = 12, short of slot 50
    assert short["tracking_median_max_from_50"] is None
    assert short["checks"]["tracking_pass"] is None
    _, sweep = excited_sweep
    report = build_regret_report(sweep)
    assert report.tracking_max == median_tracking_error(sweep)[49:].max()
    summary = summarize(report)
    assert summary["tracking_median_max_from_50"] == report.tracking_max
    assert summary["checks"] == {
        "tracking_pass": report.tracking_max < 0.05,
        "gap_slope_pass": -1.3 <= report.decay_slope <= -0.7,
        "log_bound_pass": report.log_bound_passed,
        "bias_squared_below_variance_from_10": bool(
            np.all(report.lambda_bias[9:] ** 2 < report.lambda_var[9:])
        ),
    }
    # one biased slot fails the bias check from slot 10 on, and only there
    for slot, passes in ((9, True), (10, False), (100, False)):
        bias = report.lambda_bias.copy()
        bias[slot - 1] = 10.0 * np.sqrt(report.lambda_var[slot - 1])
        checks = summarize(replace(report, lambda_bias=bias))["checks"]
        assert checks["bias_squared_below_variance_from_10"] is passes


@pytest.mark.parametrize(
    "horizon, decided", [(11, False), (12, False), (18, False), (19, True), (40, True)]
)
def test_checks_need_ten_slots_in_their_window(horizon, decided):
    # at T = 11 the slope is a two-point fit and the other two checks see two slots
    cfg = ExperimentConfig(horizon=horizon, reps=8)
    sc, y = scenario_and_capacity(cfg)
    report = build_regret_report(run_replications(sc, y, cfg.reps, cfg.seed))
    summary = summarize(report)
    # the statistics are reported either way
    assert (summary["decay_slope"], summary["k1"], summary["k2"]) == (
        report.decay_slope, report.k1, report.k2
    )
    full_window = {
        "tracking_pass": None,
        "gap_slope_pass": -1.3 <= report.decay_slope <= -0.7,
        "log_bound_pass": report.log_bound_passed,
        "bias_squared_below_variance_from_10": bool(
            np.all(report.lambda_bias[9:] ** 2 < report.lambda_var[9:])
        ),
    }
    if not decided:
        full_window = dict.fromkeys(full_window)
    # json text, so a decided check must be a bool, not a numpy bool
    assert json.dumps(summary["checks"]) == json.dumps(full_window)


def test_report_rejects_zero_lambda_star_in_the_tracking_window(excited_sweep):
    _, sweep = excited_sweep
    lam_star = sweep.lambda_star.copy()
    lam_star[60] = 0.0
    with pytest.raises(ValueError, match="lambda_star at slot 61 is 0.0"):
        build_regret_report(replace(sweep, lambda_star=lam_star))
