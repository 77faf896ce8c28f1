"""End-to-end acceptance checks, one test per shipping criterion.

Each test states its threshold inline and prints a one-line PASS
summary (visible under pytest -s / -rA). Replication sweeps are cached
at module scope so the twelve full-scale runs build once each.
"""

import time
import warnings

import numpy as np
import pytest

from drpsim import (
    Population,
    Scenario,
    analytic_gap,
    build_regret_report,
    closed_form_solve,
    compute_y_star,
    empirical_gap,
    fit_decay,
    median_tracking_error,
    oracle_solve,
    oracle_y_star,
    regret_constants,
    run_replications,
)
from drpsim.experiments import ExperimentConfig, run_experiment
from drpsim.experiments import build_scenario as build_experiment_scenario
from drpsim.online import OnlineConfig, run_episode
from drpsim.rng import substream

ACCEPT_SEED = 42

_SWEEPS: dict = {}
BUILD_SECONDS: dict = {}


def _sweep(kind: str, horizon: int, reps: int):
    """Build (scenario, sweep, report) for one grid cell, cached."""
    key = (kind, horizon, reps)
    if key not in _SWEEPS:
        cfg = ExperimentConfig(
            experiment=kind, horizon=horizon, reps=reps, seed=ACCEPT_SEED
        )
        start = time.perf_counter()
        sc = build_experiment_scenario(cfg, substream(cfg.seed, 0))
        with warnings.catch_warnings():
            # the default revenue constant parks y* slightly below zero;
            # expected for these parameter draws and harmless downstream
            warnings.simplefilter("ignore", RuntimeWarning)
            y = compute_y_star(sc)
        sweep = run_replications(sc, y, reps, cfg.seed, ridge_param=cfg.ridge)
        report = build_regret_report(sweep)
        BUILD_SECONDS[key] = time.perf_counter() - start
        _SWEEPS[key] = (sc, sweep, report)
    return _SWEEPS[key]


def _random_small_scenario(rng):
    n = int(rng.integers(1, 11))
    t = int(rng.integers(1, 6))
    alphas = rng.uniform(0.5, 3.0, n)
    betas = rng.uniform(0.5, 5.0, n)
    d = tuple(float(v) for v in rng.uniform(0.5, 4.0, t))
    alpha_rev = float(rng.uniform(0.5, 2.0)) * max(d)
    return Scenario(
        Population(alphas, betas),
        d,
        alpha_rev=alpha_rev,
        noise_sd=0.0,
    )


def test_criterion_1_oracle_equivalence():
    # closed-form (y*, lambda*, x*) vs golden-section + KKT oracles on
    # 100 random scenarios with N <= 10, T <= 5: max rel err <= 1e-6, < 5 s
    rng = np.random.default_rng(2001)
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    while checked < 100:
        sc = _random_small_scenario(rng)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            closed = closed_form_solve(sc)
        if abs(closed.y_star) < 0.05:
            continue  # rel comparison meaningless at a near-zero optimum
        if np.abs(closed.lambda_star).min() < 1e-3:
            continue
        if np.abs(closed.x_star).min() < 1e-3:
            continue
        y_oracle = oracle_y_star(sc)
        kkt = oracle_solve(sc, y_oracle)
        rel = max(
            abs(y_oracle - closed.y_star) / abs(closed.y_star),
            float(
                np.max(
                    np.abs(kkt.lambda_star - closed.lambda_star)
                    / np.abs(closed.lambda_star)
                )
            ),
            float(
                np.max(np.abs(kkt.x_star - closed.x_star) / np.abs(closed.x_star))
            ),
        )
        worst = max(worst, rel)
        checked += 1
    elapsed = time.perf_counter() - start
    assert worst <= 1e-6
    assert elapsed < 5.0
    print(f"PASS criterion 1: max rel err {worst:.3e} <= 1e-6 in {elapsed:.2f}s")


def test_criterion_2_noiseless_identification():
    # noise_sd = 0, ridge = 0, d_1 != d_2: online price within 1e-10
    # relative of lambda*_t for every t >= 3, < 1 s
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    pop = Population(rng.uniform(1.0, 2.0, 4), rng.uniform(4.0, 8.0, 4))
    d = tuple(float(v) for v in rng.uniform(3.0, 6.0, 10))
    sc = Scenario(pop, d, alpha_rev=6.0, noise_sd=0.0)
    assert d[0] != d[1]
    y = compute_y_star(sc)
    config = OnlineConfig(
        scenario=sc, y_capacity=y, lambda_init=0.05, ridge_param=0.0
    )
    traj = run_episode(config, substream(5, 1, 0))
    rel = np.abs(traj.lambda_online[2:] - traj.lambda_star[2:]) / np.abs(
        traj.lambda_star[2:]
    )
    elapsed = time.perf_counter() - start
    assert np.all(rel <= 1e-10)
    assert elapsed < 1.0
    print(f"PASS criterion 2: max rel err {rel.max():.3e} <= 1e-10 in {elapsed:.2f}s")


def test_criterion_3_price_tracking():
    # baseline N=100, T=100, 1000 replications: median relative price
    # error below 0.05 on every slot t >= 50, < 60 s
    _, sweep, _ = _sweep("baseline", 100, 1000)
    tail = median_tracking_error(sweep)[49:]
    assert tail.max() < 0.05
    assert BUILD_SECONDS[("baseline", 100, 1000)] < 60.0
    print(
        f"PASS criterion 3: max median tracking error from t=50 is "
        f"{tail.max():.4f} < 0.05"
    )


def test_criterion_4_gap_decay_slope():
    # log-log slope of the mean per-slot gap over t in [10, 100]
    _, _, report = _sweep("baseline", 100, 1000)
    assert -1.3 <= report.decay_slope <= -0.7
    print(f"PASS criterion 4: gap decay slope {report.decay_slope:.3f} in [-1.3,-0.7]")


def test_criterion_5_log_regret():
    # cumulative regret within constant log-t envelopes (t0=10, cap 20)
    # on baseline and paramset2, at T=100 x 1000 reps and T=1000 x 200 reps
    cells = [
        ("baseline", 100, 1000),
        ("paramset2", 100, 1000),
        ("baseline", 1000, 200),
        ("paramset2", 1000, 200),
    ]
    ratios = []
    for kind, horizon, reps in cells:
        _, _, report = _sweep(kind, horizon, reps)
        assert report.log_bound_passed, (
            f"{kind} T={horizon}: k1={report.k1:.3f} k2={report.k2:.3f}"
        )
        ratios.append(report.k2 / report.k1)
    total = sum(BUILD_SECONDS[c] for c in cells)
    assert total < 300.0
    print(
        f"PASS criterion 5: k2/k1 = "
        f"{', '.join(f'{r:.2f}' for r in ratios)} (cap 20) in {total:.1f}s"
    )


def test_criterion_6_bias_variance_ordering():
    # squared price bias below price variance from t = 10 on, and the
    # variance itself decays with slope in [-1.3, -0.7]
    _, _, report = _sweep("baseline", 100, 1000)
    b2 = report.lambda_bias[9:] ** 2
    assert np.all(b2 < report.lambda_var[9:])
    var_slope = fit_decay(report.t, report.lambda_var, (10.0, 100.0))
    assert -1.3 <= var_slope <= -0.7
    print(
        f"PASS criterion 6: max bias^2/var "
        f"{float((b2 / report.lambda_var[9:]).max()):.3f} < 1, "
        f"variance slope {var_slope:.3f}"
    )


def test_criterion_7_structured_demand_robustness():
    # repeated-dt 0.2/0.3/0.4 and blocked-dt:4 pass the tracking, decay,
    # and log-regret thresholds, including the T=1000 log-bound re-run
    kinds = ("repeated-dt:0.2", "repeated-dt:0.3", "repeated-dt:0.4", "blocked-dt:4")
    failures = []
    for kind in kinds:
        _, sweep, report = _sweep(kind, 100, 1000)
        tail = median_tracking_error(sweep)[49:]
        if not tail.max() < 0.05:
            failures.append(f"{kind}: tracking {tail.max():.4f}")
        if not -1.3 <= report.decay_slope <= -0.7:
            failures.append(f"{kind}: slope {report.decay_slope:.3f}")
        if not report.log_bound_passed:
            failures.append(f"{kind}: log bound k2/k1 {report.k2 / report.k1:.2f}")
        _, _, long_report = _sweep(kind, 1000, 200)
        if not long_report.log_bound_passed:
            failures.append(
                f"{kind} T=1000: log bound k2/k1 "
                f"{long_report.k2 / long_report.k1:.2f}"
            )
    assert not failures, "; ".join(failures)
    print(f"PASS criterion 7: {len(kinds)} structured-demand kinds within thresholds")


def test_criterion_8_analytic_empirical_consistency():
    # analytic one-step gap from MC price moments vs raw empirical gap:
    # within 3 combined standard errors at every slot, N=2, T=5, 1e4 reps
    pop = Population([0.0, 0.0], [1.0, 2.0])
    sc = Scenario(
        pop,
        (1.0, 2.0, 1.5, 1.2, 1.8),
        alpha_rev=2.0,
        noise_sd=0.1,
    )
    y = compute_y_star(sc)
    sweep = run_replications(sc, y, 10_000, master_seed=123)
    c1, c2 = regret_constants(pop)
    reps = sweep.reps
    worst = 0.0
    for t in range(1, 6):
        lam = sweep.lambda_online[:, t - 1]
        lam_star = float(sweep.lambda_star[t - 1])
        m1 = float(lam.mean())
        m2 = float(np.mean(lam * lam))
        gap_analytic = analytic_gap(c1, c2, (m1, m2), lam_star)
        gap_emp, se_emp = empirical_gap(sweep, t)
        dev = lam - lam_star
        per_rep = c1 * dev * dev + c2 * dev
        se_analytic = float(per_rep.std(ddof=1) / np.sqrt(reps))
        z = abs(gap_analytic - gap_emp) / float(np.hypot(se_emp, se_analytic))
        worst = max(worst, z)
    assert worst <= 3.0
    print(f"PASS criterion 8: max |z| = {worst:.2f} <= 3 across 5 slots")


def test_criterion_9_byte_identical_reruns(tmp_path):
    # same config + seed, two runs, byte-identical CSV/JSON outputs
    base = dict(n_users=20, horizon=40, reps=10, seed=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        run_experiment(ExperimentConfig(out_dir=str(tmp_path / "run1"), **base))
        run_experiment(ExperimentConfig(out_dir=str(tmp_path / "run2"), **base))
    names = ("trajectory.csv", "regret.csv", "summary.json")
    for name in names:
        a = (tmp_path / "run1" / name).read_bytes()
        b = (tmp_path / "run2" / name).read_bytes()
        assert a == b, f"{name} differs between reruns"
    print("PASS criterion 9: trajectory.csv, regret.csv, summary.json byte-identical")
