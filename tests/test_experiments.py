import csv
import io
import json
import math
import re
import sys
import typing
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import orjson
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drpsim import experiments
from drpsim.experiments import (
    TABLE_BLOCK,
    _KEY_TYPES,
    ExperimentConfig,
    build_scenario,
    parse_config,
    parse_experiment_kind,
    run_experiment,
    scenario_and_capacity,
    write_regret_csv,
    write_table,
    write_trajectory_csv,
)
from drpsim import build_regret_report, compute_y_star, run_replications
from drpsim.analysis import summarize
from drpsim.cli import SWEEP_GRID
from drpsim.model import Population, Scenario
from drpsim.online import OnlineConfig
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


def test_interval_keys_are_not_config_keys():
    # each kind fixes its intervals; other draws build a Population directly
    with pytest.raises(ValueError, match="config line 2: unknown key 'd_low'"):
        parse_config("horizon = 7\nd_low = 2\n")
    with pytest.raises(TypeError, match="alpha_low"):
        ExperimentConfig(alpha_low=1.0)


def test_config_validation():
    with pytest.raises(ValueError, match="n_users"):
        ExperimentConfig(n_users=0)
    with pytest.raises(ValueError, match="horizon"):
        ExperimentConfig(horizon=0)
    with pytest.raises(ValueError, match="reps"):
        ExperimentConfig(reps=0)
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError, match=r"^c_rev must be > 0, got 0.0$"):
        ExperimentConfig(c_rev=0.0)
    with pytest.raises(ValueError, match="ridge"):
        ExperimentConfig(ridge=-0.001)
    with pytest.raises(ValueError, match="noise_sd"):
        ExperimentConfig(noise_sd=-1.0)
    with pytest.raises(ValueError, match=r"^noise_sd out of range: the noise level sigma is 1e\+300,"):
        ExperimentConfig(noise_sd=1e300)
    with pytest.raises(ValueError, match=r"^c_rev out of range: the capacity \|y\| is 1.73e\+301"):
        ExperimentConfig(c_rev=1e300)
    for y in (1e300, -1e300):
        with pytest.raises(ValueError, match=r"^y_capacity out of range: the capacity \|y\| is 1e"):
            ExperimentConfig(y_capacity=y)
    # the scale contract names the config's keys
    with pytest.raises(ValueError, match=r"^ridge out of range: the ridge weight is 1e\+300, "):
        ExperimentConfig(ridge=1e300)
    # a size past sys.maxsize fits no array: name it before the output directory exists
    for key in ("n_users", "horizon", "reps"):
        message = rf"^{key} must be in \[1, {sys.maxsize}\], got 10+$"
        for value in (10**20, 10**400):
            with pytest.raises(ValueError, match=message):
                ExperimentConfig(**{key: value})
        ExperimentConfig(**{key: sys.maxsize})
    with pytest.raises(ValueError, match="unknown experiment kind"):
        ExperimentConfig(experiment="warmstart")
    with pytest.raises(ValueError, match=r"seed must be in \[0, 2\*\*64\)"):
        ExperimentConfig(seed=2**64)
    for key, value in (
        ("c_rev", "nan"),
        ("ridge", "nan"),
        ("noise_sd", "nan"),
        ("y_capacity", "inf"),
        ("ridge", "-inf"),
    ):
        with pytest.raises(ValueError, match=f"{key} must be finite, got {value}"):
            parse_config(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"{key} must be finite"):
            ExperimentConfig(**{key: float(value)})
    for key in ("c_rev", "ridge", "noise_sd", "y_capacity"):
        # an int past the float range names its key, not a bare OverflowError
        with pytest.raises(ValueError, match=f"^{key} must be finite, got an int too large"):
            ExperimentConfig(**{key: 10**400})


@pytest.mark.parametrize("value", [-1, float("nan")])
def test_bad_ridge_names_its_key_and_follows_the_estimator(value):
    with pytest.raises(ValueError) as caught:
        ExperimentConfig(ridge=value)
    assert re.match(r"ridge\b(?!_)", str(caught.value)), caught.value
    assert "ridge_param" not in str(caught.value)
    if value < 0:
        # the scale contract's ridge row is the only copy of the rule
        scenario = build_scenario(ExperimentConfig(), substream(42, 0))
        with pytest.raises(ValueError) as rule:
            OnlineConfig(scenario=scenario, y_capacity=1.0, ridge_param=value)
        assert str(caught.value) == str(rule.value).replace("ridge_param", "ridge")


@pytest.mark.parametrize("capacity", ["one", "closed form"])
def test_alpha_rev_at_its_bound_gives_a_finite_summary(capacity, recwarn):
    sc = Scenario(Population([1.5] * 2, [6.0] * 2), np.full(20, 4.0), alpha_rev=1e60 * 4.0)
    y = 1.0 if capacity == "one" else compute_y_star(sc)
    summary = summarize(build_regret_report(run_replications(sc, y, 3, 42)))
    assert math.isfinite(summary["cum_regret_final"])
    assert len(recwarn) == 0


@pytest.mark.parametrize("kind", SWEEP_GRID)
def test_largest_c_rev_builds_every_sweep_kind(kind):
    # every kind builds at c_rev = 1e60, the largest c_rev the CLI tests run at
    config = ExperimentConfig(experiment=kind, c_rev=1e60)
    scenario = build_scenario(config, substream(config.seed, 0))
    assert scenario.alpha_rev == 1e60 * float(scenario.demand.max())


def test_parse_config_happy_path():
    text = """
    # demand-response run, small
    experiment = repeated-dt:0.3
    n_users = 12   # population size
    horizon = 25
    c_rev = 2.5
    y_capacity = 4.0
    """
    cfg = parse_config(text)
    assert cfg.experiment == "repeated-dt:0.3"
    assert cfg.n_users == 12
    assert cfg.horizon == 25
    assert cfg.c_rev == 2.5
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
    with pytest.raises(ValueError, match="config line 1: unknown key 'coupled_noise'"):
        parse_config("coupled_noise = true\n")


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
        if isinstance(value, float):
            value = repr(value)
        lines.append(f"{f.name} = {value}")
    return "\n".join(lines) + "\n"


def test_key_types_match_field_types():
    # a float key parsed as another type would escape the finiteness check
    hints = typing.get_type_hints(ExperimentConfig)
    assert list(_KEY_TYPES) == [f.name for f in fields(ExperimentConfig)]
    for name, kind in _KEY_TYPES.items():
        assert hints[name] in (kind, typing.Optional[kind]), name
    float_keys = [k for k, kind in _KEY_TYPES.items() if kind is float]
    assert float_keys == ["c_rev", "ridge", "noise_sd", "y_capacity"]
    parsed = parse_config("".join(f"{k} = 2.5\n" for k in float_keys))
    for key in float_keys:
        assert type(getattr(parsed, key)) is float and getattr(parsed, key) == 2.5, key


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
        y_capacity=2.5,
        out_dir="elsewhere",
    )
    assert parse_config(_config_text(cfg)) == cfg
    # None-valued fields are omitted and come back as None
    assert parse_config(_config_text(ExperimentConfig())) == ExperimentConfig()


@st.composite
def _configs(draw):
    """Valid configs over every key."""
    return ExperimentConfig(
        experiment=draw(
            st.sampled_from(["baseline", "paramset2", "repeated-dt:0.25", "blocked-dt:3"])
        ),
        n_users=draw(st.integers(1, 10**6)),
        horizon=draw(st.integers(1, 10**6)),
        reps=draw(st.integers(1, 10**6)),
        seed=draw(st.integers(0, 2**64 - 1)),
        c_rev=draw(st.floats(1e-6, 1e6)),
        ridge=draw(st.floats(0.0, 1e3)),
        noise_sd=draw(st.floats(0.0, 1e3)),
        y_capacity=draw(st.none() | st.floats(-1e60, 1e60)),
        out_dir=draw(st.text("abcxyz019_-./", min_size=1, max_size=12)),
    )


@settings(max_examples=100, deadline=None)
@given(
    _configs(),
    st.sampled_from(["c_rev", "ridge", "noise_sd", "y_capacity"]),
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
    # a block past the horizon is one block of T slots, whatever its size
    whole = build_scenario(replace(cfg, experiment="blocked-dt:100"), substream(3, 0)).demand
    assert len(np.unique(whole)) == 1
    for huge in (2**50, 10**400):
        d = build_scenario(replace(cfg, experiment=f"blocked-dt:{huge}"), substream(3, 0)).demand
        assert np.array_equal(d, whole)


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


def test_write_table_refuses_unequal_columns_and_nonfinite_cells(tmp_path):
    # CSV has no spelling for nan or +-inf (orjson writes null): the file stays empty
    path = tmp_path / "table.csv"
    for bad in (math.nan, math.inf, -math.inf):
        for dtype in (np.float64, np.float32):
            x = np.array([0.5, 2.0, bad, 1.0], dtype=dtype)
            with open(path, "w", newline="") as f:
                with pytest.raises(ValueError, match=rf"^column x row 3 is {bad}: CSV cells must"):
                    write_table(f, {"n": np.arange(4), "x": x})
            assert path.read_bytes() == b""
    if np.finfo(np.longdouble).maxexp > 1024:  # a long double wider than float64
        # it is written as float64, where 1e400 is inf: refused on the cast value, no warning
        x = np.array([0.5, 2.0, np.longdouble("1e400"), 1.0])
        with open(path, "w", newline="") as f:
            with pytest.raises(ValueError, match=r"^column x row 3 is 1e\+400: CSV cells must"):
                write_table(f, {"n": np.arange(4), "x": x})
        assert path.read_bytes() == b""
    with open(path, "w", newline="") as f:
        write_table(f, {"n": np.arange(3), "x": np.array([0.5, -0.0, 1e-7])})
    assert path.read_bytes() == b"n,x\n0,0.5\n1,-0.0\n2,1e-7\n"
    # a short column used to cut the table to its length without an error
    out = io.StringIO()
    with pytest.raises(ValueError, match=r"^columns must have equal lengths, got \{'a': 3, 'b': 2\}$"):
        write_table(out, {"a": np.arange(3), "b": np.arange(2.0)})
    assert out.getvalue() == ""


def test_write_table_spells_floats_as_orjson_does():
    # decimal for 1e-5 <= |x| < 1e16, exponent form without '+' or padding elsewhere
    spellings = [
        (1e-5, "0.00001"),
        (-2.5e-5, "-0.000025"),
        (1.234e-7, "1.234e-7"),
        (1e16, "1e16"),
        (1.7976931348623157e308, "1.7976931348623157e308"),
        (-0.0, "-0.0"),
        (5e-324, "5e-324"),
        (0.1, "0.1"),
        (2.0, "2.0"),
    ]
    out = io.StringIO(newline="")
    write_table(out, {"x": np.array([x for x, _ in spellings])})
    assert out.getvalue().splitlines() == ["x", *(text for _, text in spellings)]


def _finite_bit_patterns(rng, rows, dtype):
    """rows finite values of dtype from uniformly random bit patterns: every exponent."""
    x = np.frombuffer(rng.bytes(2 * rows * np.dtype(dtype).itemsize), dtype=dtype)
    return x[np.isfinite(x)][:rows]


def test_write_table_cells_parse_back_to_their_bits():
    rng = np.random.default_rng(2018)
    rows = 64 * TABLE_BLOCK + 17
    edges = np.array([1e-5, 1e-4, 1e16])
    near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    special = np.concatenate([near, -near, [0.0, -0.0, 5e-324, -5e-324]])
    x = np.concatenate([special, _finite_bit_patterns(rng, rows - special.size, np.float64)])
    extremes = np.array([-(2**63), -(2**63) + 1, -1, 0, 1, 2**53 + 1, 2**63 - 1], dtype=np.int64)
    draws = rng.integers(-(2**63), 2**63, rows - extremes.size, dtype=np.int64)
    n = np.concatenate([extremes, draws])
    columns = {
        "key": np.array([f"k{i}" for i in range(rows)]),
        "n": n,
        "u": rng.integers(0, 2**64, rows, dtype=np.uint64),
        "big_endian": n.astype(">i8"),
        "x": x,
        "x32": _finite_bit_patterns(rng, rows, np.float32),
    }
    columns["u"][0] = 2**64 - 1
    out = io.StringIO(newline="")
    write_table(out, columns)
    header, *lines = csv.reader(io.StringIO(out.getvalue()))
    assert header == list(columns) and len(lines) == rows
    key, n_text, u_text, be_text, x_text, x32_text = zip(*lines)
    assert list(key) == columns["key"].tolist()
    for text, col in ((n_text, n), (u_text, columns["u"]), (be_text, n)):
        assert list(map(int, text)) == col.tolist()
    for text, col in ((x_text, x), (x32_text, columns["x32"])):
        assert _same_bits(np.array([float(t) for t in text]), col)


def _row_wise_table(columns):
    """write_table's text formed cell by cell: orjson.dumps of a float, str of the rest."""

    def cell(value):
        return orjson.dumps(value).decode() if isinstance(value, float) else str(value)

    lines = [",".join(columns)]
    lines += [",".join(map(cell, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    return "".join(line + "\n" for line in lines)


_SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1e-5, 1e-4, 9.999999999999999e-05, 1e22, 0.1]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 50).flatmap(
        lambda rows: st.tuples(
            st.lists(st.integers(-(2**63), 2**63 - 1), min_size=rows, max_size=rows),
            st.lists(
                st.one_of(
                    st.sampled_from(_SPECIAL_FLOATS),
                    st.floats(allow_nan=False, allow_infinity=False),
                ),
                min_size=rows,
                max_size=rows,
            ),
            st.lists(st.text(max_size=12), min_size=rows, max_size=rows),
        )
    ),
    st.integers(1, 60),
)
def test_write_table_matches_row_wise_writer(data, block):
    ints, floats, texts = data
    columns = {
        "key": np.array(texts),
        "n": np.array(ints, dtype=np.int64),
        "x": np.array(floats),
    }
    out = io.StringIO(newline="")
    with mock.patch.object(experiments, "TABLE_BLOCK", block):  # one or many blocks
        write_table(out, columns)
    assert out.getvalue() == _row_wise_table(columns)


def test_write_table_float_cells_match_row_wise_writer_on_every_exponent():
    # finite random bit patterns cover every exponent and the subnormals; each
    # block's text must equal the cells spelled one at a time
    rng = np.random.default_rng(2018)
    edges = np.array([1e-5, 1e-4, 1e16])
    near = np.concatenate([edges, np.nextafter(edges, 0), np.nextafter(edges, np.inf)])
    special = np.concatenate([near, -near, [0.0, -0.0, 5e-324, -5e-324]])
    x = np.concatenate([special, _finite_bit_patterns(rng, 2**18, np.float64)])
    tables = [{"x": x}, {"x32": _finite_bit_patterns(rng, 2**14, np.float32)}]
    for columns in tables:
        out = io.StringIO(newline="")
        write_table(out, columns)
        got = out.getvalue().splitlines()
        want = _row_wise_table(columns).splitlines()
        assert len(got) == len(want) == len(next(iter(columns.values()))) + 1
        mismatches = [(i, g, w) for i, (g, w) in enumerate(zip(got, want)) if g != w]
        assert mismatches[:3] == [], f"{len(mismatches)} rows differ"


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
    ints = dict(c_rev=2, ridge=1, noise_sd=1, y_capacity=3)
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


#: summary.json keys that are not config settings
_DERIVED_KEYS = {
    "alpha_interval",
    "beta_interval",
    "d_interval",
    "alpha_rev",
    "gamma1",
    "gamma2",
    "y_star_closed_form",
    "degenerate_events",
    "fallback_events",
    "analysis",
}


@pytest.mark.parametrize("y_capacity", [None, 2.5])
def test_summary_records_every_setting_but_out_dir(tmp_path, y_capacity):
    cfg = ExperimentConfig(
        n_users=5, horizon=12, reps=3, seed=3, y_capacity=y_capacity, out_dir=str(tmp_path)
    )
    run_experiment(cfg)
    summary = json.loads((tmp_path / "summary.json").read_text())
    settings = {f.name for f in fields(cfg)} - {"out_dir"}
    assert set(summary) - _DERIVED_KEYS == settings
    for name in settings - {"y_capacity"}:
        value = getattr(cfg, name)
        assert summary[name] == value and type(summary[name]) is type(value), name
    # y_capacity is the capacity committed: the override, else the closed form
    _, y = scenario_and_capacity(cfg)
    assert summary["y_capacity"] == y
    if y_capacity is None:
        assert y == summary["y_star_closed_form"]
    else:
        assert y == 2.5 != summary["y_star_closed_form"]


def test_run_experiment_outputs_are_path_independent(tmp_path):
    base = dict(n_users=5, horizon=12, reps=3, seed=3)
    run_experiment(ExperimentConfig(out_dir=str(tmp_path / "a"), **base))
    run_experiment(ExperimentConfig(out_dir=str(tmp_path / "b"), **base))
    for name in ("trajectory.csv", "regret.csv", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()
