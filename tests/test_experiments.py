import csv
import io
import json
import re
import typing
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpsim.experiments import (
    _BOOL_KEYS,
    _FLOAT_KEYS,
    _INT_KEYS,
    ExperimentConfig,
    build_scenario,
    parse_config,
    parse_experiment_kind,
    run_experiment,
    write_regret_csv,
    write_table,
    write_trajectory_csv,
)
from drpsim import build_regret_report, run_replications
from drpsim.rng import substream


# ---------------------------------------------------------------- kinds


def test_parse_kind_named_families():
    assert parse_experiment_kind("baseline") == ("baseline", None)
    assert parse_experiment_kind("paramset2") == ("paramset2", None)
    assert parse_experiment_kind("repeated-dt:0.3") == ("repeated-dt", 0.3)
    assert parse_experiment_kind("repeated-dt:1.0") == ("repeated-dt", 1.0)
    assert parse_experiment_kind("blocked-dt:4") == ("blocked-dt", 4.0)


def test_parse_kind_errors():
    with pytest.raises(ValueError, match="requires a fraction"):
        parse_experiment_kind("repeated-dt")
    with pytest.raises(ValueError, match=r"must be in \[0, 1\]"):
        parse_experiment_kind("repeated-dt:1.5")
    with pytest.raises(ValueError, match="requires a block size"):
        parse_experiment_kind("blocked-dt")
    with pytest.raises(ValueError, match="must be >= 1"):
        parse_experiment_kind("blocked-dt:0")
    with pytest.raises(ValueError, match="repeated-dt fraction must be a number, got 'abc'"):
        parse_experiment_kind("repeated-dt:abc")
    with pytest.raises(ValueError, match="blocked-dt block size must be an integer, got '2.5'"):
        parse_experiment_kind("blocked-dt:2.5")
    with pytest.raises(ValueError, match="unknown experiment kind"):
        parse_experiment_kind("warmstart")


# --------------------------------------------------------------- config


def test_config_defaults_and_intervals():
    cfg = ExperimentConfig()
    assert cfg.experiment == "baseline"
    assert cfg.intervals() == ((1.0, 2.0), (4.0, 8.0), (3.0, 6.0))
    assert ExperimentConfig(experiment="paramset2").intervals() == (
        (1.0, 3.0),
        (3.0, 10.0),
        (2.0, 5.0),
    )
    # variant families fall back to the baseline intervals
    assert ExperimentConfig(experiment="repeated-dt:0.2").intervals() == cfg.intervals()
    assert ExperimentConfig(experiment="blocked-dt:4").intervals() == cfg.intervals()


def test_config_interval_overrides():
    cfg = ExperimentConfig(alpha_low=0.5, d_high=9.0)
    assert cfg.intervals() == ((0.5, 2.0), (4.0, 8.0), (3.0, 9.0))


def test_config_validation():
    with pytest.raises(ValueError, match="n_users"):
        ExperimentConfig(n_users=0)
    with pytest.raises(ValueError, match="horizon"):
        ExperimentConfig(horizon=0)
    with pytest.raises(ValueError, match="reps"):
        ExperimentConfig(reps=0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError, match="c_rev"):
        ExperimentConfig(c_rev=0.0)
    with pytest.raises(ValueError, match="ridge"):
        ExperimentConfig(ridge=-0.001)
    with pytest.raises(ValueError, match="noise_sd"):
        ExperimentConfig(noise_sd=-1.0)
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig(experiment="warmstart")
    with pytest.raises(ValueError, match="out of order"):
        ExperimentConfig(alpha_low=2.5)  # default alpha_high is 2.0
    with pytest.raises(ValueError, match="must be > 0"):
        ExperimentConfig(beta_low=-1.0)
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        ExperimentConfig(seed=2**64)
    for key, value in (
        ("c_rev", "nan"),
        ("ridge", "nan"),
        ("noise_sd", "nan"),
        ("d_low", "nan"),
        ("y_capacity", "inf"),
        ("alpha_high", "inf"),
        ("beta_low", "-inf"),
    ):
        with pytest.raises(ValueError, match=f"{key} must be finite, got {value}"):
            parse_config(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            ExperimentConfig(**{key: float(value)})


@pytest.mark.parametrize("name", ["alpha", "beta", "d"])
def test_interval_errors_name_the_key_pair(name):
    keys = f"{name}_low, {name}_high"
    with pytest.raises(ValueError, match=rf"{keys} out of order: \[3\.0, 2\.0\]"):
        ExperimentConfig(**{f"{name}_low": 3.0, f"{name}_high": 2.0})
    with pytest.raises(ValueError, match=rf"{keys} out of order: \[3\.0, 2\.0\]"):
        ExperimentConfig(**{f"{name}_low": 3, f"{name}_high": 2})
    with pytest.raises(ValueError, match=rf"{keys} must be > 0, got \[-1\.0, "):
        ExperimentConfig(**{f"{name}_low": -1.0})
    with pytest.raises(ValueError, match=rf"{keys} must be > 0, got \[1\.0, 0\.0\]"):
        parse_config(f"{name}_low = 1.0\n{name}_high = 0.0\n")


def test_parse_config_happy_path():
    text = """
    # demand-response run, small
    experiment = repeated-dt:0.3
    n_users = 12   # population size
    horizon = 25
    c_rev = 2.5
    coupled_noise = true
    y_capacity = 4.0
    """
    cfg = parse_config(text)
    assert cfg.experiment == "repeated-dt:0.3"
    assert cfg.n_users == 12
    assert cfg.horizon == 25
    assert cfg.c_rev == 2.5
    assert cfg.coupled_noise is True
    assert cfg.y_capacity == 4.0
    assert cfg.reps == 1000  # untouched default


def test_parse_config_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="config line 2: unknown key 'users'"):
        parse_config("n_users = 5\nusers = 3\n")
    with pytest.raises(ValueError, match="config line 3: duplicate key"):
        parse_config("n_users = 5\nhorizon = 7\nn_users = 9\n")
    with pytest.raises(ValueError, match="config line 1: expected 'key = value'"):
        parse_config("n_users 5\n")
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config("n_users =\n")
    with pytest.raises(ValueError, match="expected true/false"):
        parse_config("coupled_noise = yes\n")


def test_parse_config_names_unparsable_numbers():
    with pytest.raises(ValueError, match="config line 2: n_users must be an integer, got 'abc'"):
        parse_config("horizon = 7\nn_users = abc\n")
    with pytest.raises(ValueError, match="config line 1: seed must be an integer, got '1.5'"):
        parse_config("seed = 1.5\n")
    with pytest.raises(ValueError, match="config line 3: c_rev must be a number, got 'x'"):
        parse_config("# comment\nreps = 2\nc_rev = x  # trailing\n")


def _config_text(config):
    """key = value lines of every field that is not None, as parse_config reads them."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if value is None:
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def test_config_key_tables_match_field_types():
    # a float field missing from _FLOAT_KEYS would parse as a string and
    # escape the finiteness check
    by_type = {}
    for name, hint in typing.get_type_hints(ExperimentConfig).items():
        base = next(a for a in typing.get_args(hint) or (hint,) if a is not type(None))
        by_type.setdefault(base, set()).add(name)
    assert by_type.pop(int) == _INT_KEYS
    assert by_type.pop(float) == _FLOAT_KEYS
    assert by_type.pop(bool) == _BOOL_KEYS
    assert list(by_type) == [str]
    typed = _INT_KEYS | _FLOAT_KEYS | _BOOL_KEYS | by_type[str]
    assert typed == {f.name for f in fields(ExperimentConfig)}


def test_config_round_trip():
    cfg = ExperimentConfig(
        experiment="blocked-dt:5",
        n_users=17,
        horizon=33,
        reps=4,
        seed=9,
        c_rev=1.75,
        ridge=0.01,
        noise_sd=0.3,
        coupled_noise=True,
        d_low=2.5,
        d_high=7.5,
        out_dir="elsewhere",
    )
    assert parse_config(_config_text(cfg)) == cfg
    # None-valued fields are omitted and come back as None
    assert parse_config(_config_text(ExperimentConfig())) == ExperimentConfig()


_positive = st.floats(min_value=1e-6, max_value=1e6)


@st.composite
def _configs(draw):
    """Valid configs over every key; interval overrides come in ordered pairs."""
    fields = dict(
        experiment=draw(
            st.sampled_from(["baseline", "paramset2", "repeated-dt:0.25", "blocked-dt:3"])
        ),
        n_users=draw(st.integers(1, 10**6)),
        horizon=draw(st.integers(1, 10**6)),
        reps=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        c_rev=draw(_positive),
        ridge=draw(st.floats(0.0, 1e3)),
        noise_sd=draw(st.floats(0.0, 1e3)),
        coupled_noise=draw(st.booleans()),
        y_capacity=draw(st.none() | st.floats(allow_nan=False, allow_infinity=False)),
        out_dir=draw(st.text("abcxyz019_-./", min_size=1, max_size=12)),
    )
    for name in ("alpha", "beta", "d"):
        if draw(st.booleans()):
            lo, hi = sorted(draw(st.tuples(_positive, _positive)))
            fields[f"{name}_low"], fields[f"{name}_high"] = lo, hi
    return ExperimentConfig(**fields)


@settings(max_examples=100, deadline=None)
@given(
    _configs(),
    st.sampled_from(["c_rev", "ridge", "noise_sd", "y_capacity", "alpha_low", "d_high"]),
    st.sampled_from(["nan", "inf", "-inf"]),
    st.integers(2**64, 2**66),
)
def test_config_round_trip_property(cfg, float_key, bad, big_seed):
    text = _config_text(cfg)
    assert parse_config(text) == cfg

    def with_line(key, value):
        kept = [line for line in text.splitlines() if not line.startswith(f"{key} =")]
        return "\n".join([*kept, f"{key} = {value}"])

    # one non-finite float or one seed past 64 bits makes the text invalid
    with pytest.raises(ValueError, match=f"{float_key} must be finite"):
        parse_config(with_line(float_key, bad))
    with pytest.raises(ValueError, match="seed must be in"):
        parse_config(with_line("seed", big_seed))


@pytest.mark.parametrize(
    "key, value, expected",
    [
        ("coupled_noise", "false", "bool"),
        ("coupled_noise", 1, "bool"),
        ("reps", 2.0, "int"),
        ("n_users", 5.5, "int"),
        ("n_users", True, "int"),
        ("seed", None, "int"),
        ("c_rev", True, "float"),
        ("ridge", "0.1", "float"),
        ("y_capacity", "3", "float or None"),
        ("experiment", None, "str"),
        ("out_dir", 3, "str"),
    ],
)
def test_config_keys_must_have_their_annotated_type(key, value, expected):
    message = rf"^{key} must be {expected}, got {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=message):
        ExperimentConfig(**{key: value})


# ------------------------------------------------------------ scenarios


def test_build_scenario_baseline_ranges():
    cfg = ExperimentConfig(n_users=50, horizon=30, seed=5)
    sc = build_scenario(cfg, substream(cfg.seed, 0))
    pop = sc.population
    assert pop.n == 50
    assert np.all((pop.alphas >= 1.0) & (pop.alphas <= 2.0))
    assert np.all((pop.betas >= 4.0) & (pop.betas <= 8.0))
    d = np.asarray(sc.demand)
    assert d.shape == (30,)
    assert np.all((d >= 3.0) & (d <= 6.0))
    assert sc.alpha_rev == cfg.c_rev * d.max()
    assert sc.noise_sd == 1.0


def test_build_scenario_paramset2_ranges():
    cfg = ExperimentConfig(experiment="paramset2", n_users=40, horizon=20, seed=5)
    sc = build_scenario(cfg, substream(cfg.seed, 0))
    assert np.all((sc.population.alphas >= 1.0) & (sc.population.alphas <= 3.0))
    assert np.all((sc.population.betas >= 3.0) & (sc.population.betas <= 10.0))
    d = np.asarray(sc.demand)
    assert np.all((d >= 2.0) & (d <= 5.0))


def test_build_scenario_reproducible():
    cfg = ExperimentConfig(n_users=8, horizon=6, seed=11)
    a = build_scenario(cfg, substream(cfg.seed, 0))
    b = build_scenario(cfg, substream(cfg.seed, 0))
    assert np.array_equal(a.population.alphas, b.population.alphas)
    assert np.array_equal(a.population.betas, b.population.betas)
    assert np.array_equal(a.demand, b.demand)
    assert a.alpha_rev == b.alpha_rev


def test_blocked_demand_structure():
    cfg = ExperimentConfig(experiment="blocked-dt:4", horizon=100, seed=3)
    d = np.asarray(build_scenario(cfg, substream(3, 0)).demand)
    blocks = d.reshape(25, 4)
    assert np.all(blocks == blocks[:, :1])
    assert len(np.unique(d)) == 25


def test_blocked_demand_partial_last_block():
    cfg = ExperimentConfig(experiment="blocked-dt:4", horizon=10, seed=3)
    d = np.asarray(build_scenario(cfg, substream(3, 0)).demand)
    assert d.shape == (10,)
    assert len(set(d[0:4])) == 1
    assert len(set(d[4:8])) == 1
    assert len(set(d[8:10])) == 1
    assert len(np.unique(d)) == 3


@pytest.mark.parametrize(
    "fraction,horizon,expected",
    [(0.2, 100, 20), (0.3, 100, 30), (0.4, 100, 40), (0.25, 10, 3)],
)
def test_repeated_demand_share_counts(fraction, horizon, expected):
    # ceil(p*T) slots share one freshly drawn value; 0.3*100 must give
    # 30 despite 0.3*100 = 30.000000000000004 in floating point.
    cfg = ExperimentConfig(experiment=f"repeated-dt:{fraction}", horizon=horizon, seed=13)
    d = np.asarray(build_scenario(cfg, substream(13, 0)).demand)
    _, counts = np.unique(d, return_counts=True)
    assert counts.max() == expected
    assert np.sort(counts)[:-1].max(initial=1) == 1  # everything else distinct


def test_repeated_zero_fraction_is_baseline_draw():
    base = build_scenario(ExperimentConfig(horizon=15, seed=2), substream(2, 0))
    rep0 = build_scenario(
        ExperimentConfig(experiment="repeated-dt:0.0", horizon=15, seed=2),
        substream(2, 0),
    )
    assert np.array_equal(base.demand, rep0.demand)


def test_alpha_rev_reflects_transformed_demand():
    # with every slot sharing one value, max(d) is that shared value,
    # which only exists after the repeat transform runs
    cfg = ExperimentConfig(experiment="repeated-dt:1.0", horizon=12, seed=4, c_rev=2.0)
    sc = build_scenario(cfg, substream(4, 0))
    d = np.asarray(sc.demand)
    assert len(np.unique(d)) == 1
    assert sc.alpha_rev == 2.0 * d[0]


# ----------------------------------------------------------- csv output


@pytest.fixture(scope="module")
def tiny_sweep():
    cfg = ExperimentConfig(n_users=5, horizon=12, reps=4, seed=3)
    sc = build_scenario(cfg, substream(cfg.seed, 0))
    return run_replications(sc, 1.0, cfg.reps, cfg.seed)


def _parse_columns(path):
    """Header and float64 columns of a CSV file, read back through csv.reader."""
    with open(path, newline="") as f:
        header, *rows = csv.reader(f)
    return header, np.array(rows, dtype=float).T


def _same_bits(parsed, column):
    return np.array_equal(parsed.view(np.int64), np.asarray(column, dtype=float).view(np.int64))


def test_write_table_matches_csv_writer_with_repr(tmp_path):
    x = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e16, 0.1, 1 / 3, 2.0])
    n = np.array([-(2**62), -1, 0, 1, 7, 10**6, 2**53 + 1, 3, 4], dtype=np.int64)
    expected = io.StringIO()
    w = csv.writer(expected, lineterminator="\n")
    w.writerow(["n", "x"])
    w.writerows([str(i), repr(float(v))] for i, v in zip(n.tolist(), x))
    path = tmp_path / "table.csv"
    with open(path, "w", newline="") as f:
        write_table(f, {"n": n, "x": x})
    data = path.read_bytes()
    assert data == expected.getvalue().encode()
    assert b"\r" not in data


def test_trajectory_csv_round_trip(tiny_sweep, tmp_path):
    path = tmp_path / "trajectory.csv"
    traj = tiny_sweep.first_trajectory
    write_trajectory_csv(path, traj)
    header, columns = _parse_columns(path)
    assert header == (
        "t,d_t,lambda_online,lambda_star,gamma1_hat,gamma2_hat,"
        "Q_online,Q_star,cost_online,cost_star"
    ).split(",")
    assert columns.shape == (10, 12)
    names = "t d lambda_online lambda_star gamma1_hat gamma2_hat q_online q_star".split()
    names += ["cost_online", "cost_star"]
    for name, parsed in zip(names, columns):
        assert _same_bits(parsed, getattr(traj, name)), name
    assert path.read_text().splitlines()[1].startswith("1,")


def test_regret_csv_round_trip(tiny_sweep, tmp_path):
    report = build_regret_report(tiny_sweep)
    path = tmp_path / "regret.csv"
    write_regret_csv(path, report)
    header, columns = _parse_columns(path)
    assert header == (
        "t,R_t_mean,R_t_se,cum_regret,lambda_bias,lambda_var,gamma1_bias,gamma1_var"
    ).split(",")
    assert columns.shape == (8, 12)
    names = "t gap_mean gap_se cum_regret lambda_bias lambda_var gamma1_bias gamma1_var".split()
    for name, parsed in zip(names, columns):
        assert _same_bits(parsed, getattr(report, name)), name


# -------------------------------------------------------- run_experiment


def test_run_experiment_writes_outputs(tmp_path):
    cfg = ExperimentConfig(
        n_users=20, horizon=40, reps=10, seed=7, out_dir=str(tmp_path / "out")
    )
    summary = run_experiment(cfg)
    out = tmp_path / "out"
    assert (out / "trajectory.csv").exists()
    assert (out / "regret.csv").exists()
    with open(out / "summary.json") as f:
        on_disk = json.load(f)
    assert on_disk == summary
    assert "out_dir" not in summary
    assert summary["reps"] == 10
    assert 3.0 <= summary["alpha_rev"] <= 6.0  # c_rev=1 times max d, d in [3,6]
    checks = summary["analysis"]["checks"]
    assert checks["tracking_pass"] is None  # horizon 40 < 50: no tail to judge
    assert isinstance(checks["log_bound_pass"], bool)
    assert isinstance(checks["gap_slope_pass"], bool)


def test_run_experiment_single_replication(tmp_path, capsys):
    cfg = ExperimentConfig(
        n_users=6, horizon=8, reps=1, seed=5, out_dir=str(tmp_path / "solo")
    )
    summary = run_experiment(cfg)
    assert summary["analysis"] is None
    assert "need >= 2 replications" in summary["analysis_note"]
    assert not (tmp_path / "solo" / "regret.csv").exists()
    assert (tmp_path / "solo" / "trajectory.csv").exists()
    assert capsys.readouterr().err == ""


def test_skipped_analysis_removes_earlier_regret_csv(tmp_path):
    out = tmp_path / "rerun"
    cfg = ExperimentConfig(n_users=6, horizon=20, reps=5, seed=1, out_dir=str(out))
    assert run_experiment(cfg)["analysis"] is not None
    assert (out / "regret.csv").exists()
    summary = run_experiment(replace(cfg, reps=1))
    assert summary["analysis"] is None
    assert not (out / "regret.csv").exists()


def test_run_experiment_reports_undefined_tracking(tmp_path, capsys):
    # a capacity with y*d_11 = -sum alpha/beta puts lambda*_11 at 0 exactly
    base = dict(n_users=20, horizon=60, reps=3, seed=5)
    sc = build_scenario(ExperimentConfig(**base), substream(5, 0))
    y = sc.population.gamma2 / float(sc.demand[10])
    cfg = ExperimentConfig(y_capacity=y, out_dir=str(tmp_path / "zero"), **base)
    summary = run_experiment(cfg)
    assert summary["analysis"] is None
    assert "lambda_star at slot 11 is" in summary["analysis_note"]
    assert (tmp_path / "zero" / "summary.json").exists()
    assert capsys.readouterr().err == ""


def test_checks_fail_for_a_pricer_that_never_learns(tmp_path):
    # ridge 1e12 holds the estimate at the prior mean (0, 0), so the price
    # is y*d_t/N in every slot and never approaches lambda*
    cfg = ExperimentConfig(
        n_users=100, horizon=100, reps=50, seed=42, ridge=1e12, out_dir=str(tmp_path)
    )
    summary = run_experiment(cfg)
    assert summary["fallback_events"] == summary["degenerate_events"] == 0
    analysis = summary["analysis"]
    assert analysis["tracking_median_max_from_50"] > 1.0
    assert analysis["decay_slope"] > -0.1
    checks = analysis["checks"]
    assert checks["tracking_pass"] is False
    assert checks["gap_slope_pass"] is False
    assert checks["bias_squared_below_variance_from_10"] is False


def test_python_and_file_configs_write_identical_summaries(tmp_path):
    # integer values of float keys are stored as float, as parse_config stores them
    ints = dict(alpha_low=1, alpha_high=2, c_rev=2, noise_sd=1, y_capacity=3)
    built = ExperimentConfig(
        n_users=5, horizon=12, reps=3, seed=3, out_dir=str(tmp_path / "py"), **ints
    )
    assert all(type(getattr(built, key)) is float for key in ints)
    text = "".join(f"{key} = {value}\n" for key, value in ints.items())
    parsed = parse_config(f"n_users = 5\nhorizon = 12\nreps = 3\nseed = 3\n{text}")
    parsed = replace(parsed, out_dir=str(tmp_path / "file"))
    assert replace(built, out_dir=parsed.out_dir) == parsed
    run_experiment(built)
    run_experiment(parsed)
    assert (tmp_path / "py" / "summary.json").read_bytes() == (
        tmp_path / "file" / "summary.json"
    ).read_bytes()


def test_run_experiment_outputs_are_path_independent(tmp_path):
    base = dict(n_users=5, horizon=12, reps=3, seed=3)
    run_experiment(ExperimentConfig(out_dir=str(tmp_path / "a"), **base))
    run_experiment(ExperimentConfig(out_dir=str(tmp_path / "b"), **base))
    for name in ("trajectory.csv", "regret.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
