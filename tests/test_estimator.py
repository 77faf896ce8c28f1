import numpy as np
import pytest

from drpsim.estimator import (
    UnidentifiableError,
    init,
    solve_normal_equations,
    update,
)


def _feed(state, pairs):
    for lam, z in pairs:
        update(state, lam, z)
    return state


def test_init_validation():
    with pytest.raises(ValueError):
        init(-1.0)
    with pytest.raises(ValueError):
        init(float("nan"))
    with pytest.raises(ValueError):
        init(0.001, n_scale=0)


@pytest.mark.parametrize(
    "value, error, message",
    [
        ("1", TypeError, "ridge_param must be a real number, got '1'"),
        (None, TypeError, "ridge_param must be a real number, got None"),
        (True, TypeError, "ridge_param must be a real number, got True"),
        (float("-inf"), ValueError, "ridge_param must be finite, got -inf"),
        (-1.0, ValueError, "ridge_param must be >= 0, got -1.0"),
    ],
)
def test_bad_ridge_param_is_named(value, error, message):
    with pytest.raises(error) as caught:
        init(value)
    assert str(caught.value) == message


def test_zero_data_ridge_returns_prior_mean():
    g1, g2 = solve_normal_equations(init(0.001))
    assert g1 == 0.0
    assert g2 == 0.0


def test_zero_data_no_ridge_is_insufficient():
    # the normal matrix is zero, so the condition test rejects it
    with pytest.raises(UnidentifiableError, match="unidentifiable"):
        solve_normal_equations(init(0.0))


def test_single_sample_ridge_solve():
    # (lambda=1, Z=1, N=1), ridge 0.001: ([[1,1],[1,1]] + 0.001*I) beta = [1,1]
    # has the symmetric solution 1/(2.001) in both components.  The closed-form
    # 2x2 solve loses ~cond*eps here (cond ~ 2e3), so pin at 1e-9 relative.
    state = _feed(init(0.001, n_scale=1), [(1.0, 1.0)])
    g1, g2 = solve_normal_equations(state)
    assert g1 == pytest.approx(1.0 / 2.001, rel=1e-9)
    assert g2 == pytest.approx(1.0 / 2.001, rel=1e-9)


def test_single_sample_no_ridge_unidentifiable():
    state = _feed(init(0.0, n_scale=1), [(1.0, 1.0)])
    with pytest.raises(UnidentifiableError, match="unidentifiable: insufficient price variation"):
        solve_normal_equations(state)


def test_update_accumulates_pinned_stats():
    # (lambda=1, Z=1), (lambda=2, Z=3) with N=1: X'X = [[5, 3], [3, 2]]
    state = _feed(init(0.0, n_scale=1), [(1.0, 1.0), (2.0, 3.0)])
    assert state.suu == 5.0
    assert state.su == 3.0
    assert state.n_samples == 2
    assert state.sz == 4.0
    assert state.suz == 7.0


def test_update_uses_n_scale():
    state = _feed(init(0.0, n_scale=10), [(0.5, 2.0)])
    assert state.suu == 25.0
    assert state.su == 5.0
    assert state.suz == 10.0


def test_update_rejects_nonfinite():
    state = init(0.001)
    with pytest.raises(ValueError):
        update(state, float("inf"), 1.0)
    with pytest.raises(ValueError):
        update(state, 1.0, float("nan"))


def test_two_point_exact_ols():
    # Noiseless line Z = 2u - 1 through u in {1, 2}: integer arithmetic, exact.
    state = _feed(init(0.0, n_scale=1), [(1.0, 1.0), (2.0, 3.0)])
    g1, g2 = solve_normal_equations(state)
    assert g1 == 2.0
    assert g2 == -1.0


def test_identical_prices_unidentifiable():
    state = _feed(init(0.0, n_scale=1), [(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)])
    with pytest.raises(UnidentifiableError, match="insufficient price variation"):
        solve_normal_equations(state)


def test_exact_recovery_random_design(rng):
    for _ in range(10):
        n = int(rng.integers(2, 20))
        g1 = float(rng.uniform(0.5, 5.0))
        g2 = float(rng.uniform(-3.0, 0.0))
        state = init(0.0, n_scale=n)
        lams = rng.uniform(0.1, 1.0, 6)
        for lam in lams:
            update(state, float(lam), g1 * n * float(lam) + g2)
        g1_hat, g2_hat = solve_normal_equations(state)
        assert g1_hat == pytest.approx(g1, rel=1e-10)
        assert g2_hat == pytest.approx(g2, rel=1e-10, abs=1e-10)


def test_ridge_shrinkage_bound_and_explicit_solution(rng):
    # Noiseless Z = 2u - 1, 50 prices spread over [0.3, 0.6], ridge 0.001:
    # shrinkage moves the estimate by well under 1% of the truth, and the
    # incremental solve matches the explicit dense ridge solution.
    lams = np.linspace(0.3, 0.6, 50)
    state = init(0.001, n_scale=1)
    for lam in lams:
        update(state, float(lam), 2.0 * lam - 1.0)
    g1, g2 = solve_normal_equations(state)
    assert abs(g1 - 2.0) <= 1e-2 * 2.0
    assert abs(g2 - (-1.0)) <= 1e-2 * 1.0
    x = np.column_stack([lams, np.ones_like(lams)])
    z = 2.0 * lams - 1.0
    dense = np.linalg.solve(x.T @ x + 0.001 * np.eye(2), x.T @ z)
    assert g1 == pytest.approx(dense[0], rel=1e-9)
    assert g2 == pytest.approx(dense[1], rel=1e-9)


def test_ridge_to_ols_monotone_approach(rng):
    lams = rng.uniform(0.2, 0.8, 30)
    zs = 3.0 * lams - 0.5
    errs = []
    for ridge in (1e-3, 1e-6, 1e-9):
        state = init(ridge, n_scale=1)
        for lam, z in zip(lams, zs):
            update(state, float(lam), float(z))
        g1, g2 = solve_normal_equations(state)
        errs.append(abs(g1 - 3.0) + abs(g2 + 0.5))
    assert errs[0] > errs[1] > errs[2]
    state = init(0.0, n_scale=1)
    for lam, z in zip(lams, zs):
        update(state, float(lam), float(z))
    g1, g2 = solve_normal_equations(state)
    assert abs(g1 - 3.0) + abs(g2 + 0.5) <= 1e-10


def test_incremental_matches_batch_recomputation(rng):
    lams = rng.uniform(0.0, 1.0, 10_000)
    zs = rng.normal(0.0, 2.0, 10_000)
    state = init(0.001, n_scale=3)
    for lam, z in zip(lams, zs):
        update(state, float(lam), float(z))
    u = 3.0 * lams
    assert state.suu == pytest.approx(float(u @ u), rel=1e-9)
    assert state.su == pytest.approx(float(u.sum()), rel=1e-9)
    assert state.sz == pytest.approx(float(zs.sum()), rel=1e-9)
    assert state.suz == pytest.approx(float(u @ zs), rel=1e-9)


def test_incremental_equals_sequential_batch_exactly():
    # Same accumulation order (index order, one term at a time) => bitwise equal.
    pairs = [(0.1 * k, 0.3 * k - 1.0) for k in range(1, 11)]
    state = _feed(init(0.0, n_scale=4), pairs)
    suu = su = sz = suz = 0.0
    for lam, z in pairs:
        u = 4 * lam
        suu += u * u
        su += u
        sz += z
        suz += u * z
    assert (state.suu, state.su, state.sz, state.suz) == (suu, su, sz, suz)


def test_fixed_design_unbiasedness():
    # OLS on a fixed (non-adaptive) design is unbiased; the Monte Carlo mean
    # over 1e4 draws stays within 4 standard errors of the truth.
    rng = np.random.default_rng(314)
    lams = np.linspace(0.1, 1.0, 10)
    g1, g2 = 2.5, -1.5
    m = 10_000
    draws = np.empty((m, 2))
    for i in range(m):
        state = init(0.0, n_scale=1)
        for lam in lams:
            update(state, float(lam), g1 * lam + g2 + float(rng.normal()))
        draws[i] = solve_normal_equations(state)
    se = draws.std(axis=0, ddof=1) / np.sqrt(m)
    assert abs(draws[:, 0].mean() - g1) <= 4.0 * se[0]
    assert abs(draws[:, 1].mean() - g2) <= 4.0 * se[1]
