import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

import drpsim
from drpsim import experiments, online
from drpsim.cli import FLAGS, SWEEP_GRID, main
from drpsim.experiments import (
    ExperimentConfig,
    parse_experiment_kind,
    run_experiment,
    scenario_and_capacity,
)
from drpsim.model import aggregate_from_noise
from drpsim.offline import closed_form_solve, lambda_star_path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


@pytest.fixture()
def clean_env(monkeypatch):
    monkeypatch.delenv("DRPSIM_SEED", raising=False)
    monkeypatch.delenv("DRPSIM_OUT", raising=False)
    return monkeypatch


@pytest.fixture()
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(
        "n_users = 6\nhorizon = 5\nreps = 4\nseed = 3\nc_rev = 2.0\n"
    )
    return str(path)


@pytest.fixture()
def sweep_config(tmp_path):
    path = tmp_path / "sweepable.cfg"
    path.write_text(
        "n_users = 5\nhorizon = 12\nreps = 6\nseed = 3\nc_rev = 2.0\n"
    )
    return str(path)


def test_offline_prints_summary_and_price_table(small_config, clean_env, capsys):
    assert main(["offline", "--config", small_config]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "key,value"
    keys = [line.split(",")[0] for line in out[:6]]
    assert keys == [
        "key",
        "y_capacity",
        "alpha_rev",
        "gamma1",
        "gamma2",
        "lambda_star_min",
    ]
    blank = out.index("")
    assert out[blank + 1] == "t,d_t,lambda_star,q_star"
    rows = out[blank + 2 :]
    assert len(rows) == 5
    assert [int(r.split(",")[0]) for r in rows] == [1, 2, 3, 4, 5]


def test_offline_y_capacity_flag(small_config, clean_env, capsys):
    assert main(["offline", "--config", small_config, "--y-capacity", "3.5"]) == 0
    out = capsys.readouterr().out
    assert "y_capacity,3.5" in out.splitlines()


def test_offline_memory_is_linear_in_the_horizon(tmp_path, clean_env, capsys):
    # an (N, T) allocation grid alone would take 80 MB here
    path = tmp_path / "wide.cfg"
    path.write_text("n_users = 20000\nhorizon = 500\n")
    tracemalloc.start()
    try:
        assert main(["offline", "--config", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    out = capsys.readouterr().out.splitlines()
    rows = out[out.index("") + 2 :]
    q = np.array([float(r.split(",")[3]) for r in rows])
    sc, y = scenario_and_capacity(ExperimentConfig(n_users=20000, horizon=500))
    q_identity = aggregate_from_noise(sc, lambda_star_path(sc, y), 0.0)
    assert np.array_equal(q.view(np.int64), q_identity.view(np.int64))
    x_sum = closed_form_solve(sc, y).x_star.sum(axis=0)
    assert np.all(np.abs(q - x_sum) <= 1e-12 * np.abs(x_sum))


def test_help_names_every_config_key_with_its_default(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    text = capsys.readouterr().out
    for field in fields(ExperimentConfig):
        value = getattr(ExperimentConfig(), field.name)
        shown = "unset" if value is None else str(value)
        match = re.search(rf"(?m)^  {field.name} +\(([^)]*)\) +(.*)$", text)
        assert match is not None, field.name
        assert match.group(1) == shown, field.name
        assert match.group(2) == field.metadata["help"], field.name


def test_override_flags_are_config_fields_with_their_help(monkeypatch, capsys):
    # the fields are the only settings list: no flag of its own type, help or key
    monkeypatch.setenv("COLUMNS", "200")  # one line per option
    with pytest.raises(SystemExit):
        main(["regret", "--help"])
    text = capsys.readouterr().out
    settings = {field.name: field for field in fields(ExperimentConfig)}
    for flag, (key, metavar) in FLAGS.items():
        help_text = re.escape(settings[key].metadata["help"])
        assert re.search(rf"(?m)^  {flag} {metavar} +{help_text}$", text), flag
    assert re.findall(r"(?m)^  (--[a-z-]+)", text) == ["--config", *FLAGS]


HELP_SCREENS = Path(__file__).with_name("golden")


@pytest.mark.parametrize("command", ["", "offline", "simulate", "regret", "sweep"])
def test_help_screen_matches_its_golden_text(command, monkeypatch, capsys):
    """Pinned text of `drpsim [command] --help` at 80 columns.

    An intended change rewrites the file, e.g.
    `COLUMNS=80 python -m drpsim offline --help > tests/golden/help-offline.txt`.
    """
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"] if command else ["--help"])
    assert exit_info.value.code == 0
    name = f"help-{command}.txt" if command else "help.txt"
    assert capsys.readouterr().out == (HELP_SCREENS / name).read_text()


def test_simulate_writes_trajectory(small_config, clean_env, tmp_path, capsys):
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", small_config, "--out", str(out_dir)]) == 0
    assert f"wrote {out_dir / 'trajectory.csv'}" in capsys.readouterr().out
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,d_t,lambda_online")
    assert len(lines) == 6


def test_simulate_names_an_output_directory_it_cannot_create(
    small_config, clean_env, tmp_path, capsys, monkeypatch
):
    not_a_dir = tmp_path / "afile"
    not_a_dir.write_text("")

    def no_episode(*args, **kwargs):
        raise AssertionError("simulate ran an episode before creating its directory")

    monkeypatch.setattr(experiments, "run_replications", no_episode)
    out_dir = not_a_dir / "sub"
    assert main(["simulate", "--config", small_config, "--out", str(out_dir)]) == 2
    assert f"error: cannot create output directory '{out_dir}'" in capsys.readouterr().err


def test_simulate_replaces_a_regret_run_with_what_regret_reps1_writes(
    sweep_config, clean_env, tmp_path, capsys
):
    shared = tmp_path / "shared"
    assert main(["regret", "--config", sweep_config, "--seed", "7", "--out", str(shared)]) == 0
    assert (shared / "regret.csv").exists()
    assert main(["simulate", "--config", sweep_config, "--seed", "8", "--out", str(shared)]) == 0
    alone = tmp_path / "alone"
    args = ["--config", sweep_config, "--reps", "1", "--seed", "8", "--out", str(alone)]
    assert main(["regret", *args]) == 0
    capsys.readouterr()
    # no file of the seed-7 run survives beside the seed-8 episode
    names = sorted(p.name for p in shared.iterdir())
    assert names == ["summary.json", "trajectory.csv"]
    for name in names:
        assert (shared / name).read_bytes() == (alone / name).read_bytes(), name
    summary = json.loads((shared / "summary.json").read_text())
    assert (summary["seed"], summary["reps"], summary["analysis"]) == (8, 1, None)


def test_regret_reports_analysis(sweep_config, clean_env, tmp_path, capsys):
    out_dir = tmp_path / "reg"
    assert main(["regret", "--config", sweep_config, "--out", str(out_dir)]) == 0
    out = capsys.readouterr().out
    assert "decay_slope:" in out
    assert "log_bound: k1=" in out
    assert "tracking_pass: None" in out  # horizon 12 < 50
    assert f"outputs in {out_dir}" in out
    assert (out_dir / "regret.csv").exists()
    assert (out_dir / "summary.json").exists()


def test_sweep_runs_whole_grid(sweep_config, clean_env, tmp_path, capsys):
    out_dir = tmp_path / "grid"
    rc = main(["sweep", "--config", sweep_config, "--out", str(out_dir)])
    assert rc in (0, 1)  # tiny replication counts may flunk the stat checks
    out = capsys.readouterr().out
    kinds = [
        "baseline",
        "paramset2",
        "repeated-dt:0.2",
        "repeated-dt:0.3",
        "repeated-dt:0.4",
        "blocked-dt:4",
    ]
    for kind in kinds:
        assert any(line.startswith(f"{kind}: ") for line in out.splitlines())
        sub = out_dir / kind.replace(":", "-")
        assert (sub / "summary.json").exists()
        with open(sub / "summary.json") as f:
            assert json.load(f)["experiment"] == kind


def test_sweep_shares_draws_and_writes_the_bytes_of_separate_runs(
    clean_env, monkeypatch, pools, tmp_path, capsys
):
    config = ExperimentConfig(n_users=20, horizon=40, reps=4, seed=7)
    path = tmp_path / "sweep.cfg"
    path.write_text("n_users = 20\nhorizon = 40\nreps = 4\nseed = 7\n")
    fills = []
    real = online._noise_statistics

    def record(scenario, betas, rng, buffer, products):
        fills.append(len(betas))
        return real(scenario, betas, rng, buffer, products)

    monkeypatch.setattr(online, "_noise_statistics", record)
    main(["sweep", "--config", str(path), "--out", str(tmp_path / "shared")])
    capsys.readouterr()
    # one pool fills each replication's normals once, for baseline's population
    # (which four variants share) and paramset2's
    assert len(pools) == 1
    assert fills == [2] * 4
    for kind in SWEEP_GRID:
        sub = kind.replace(":", "-")
        run_experiment(replace(config, experiment=kind, out_dir=str(tmp_path / "alone" / sub)))
    assert len(pools) == 1 + len(SWEEP_GRID)
    for kind in SWEEP_GRID:
        sub = kind.replace(":", "-")
        names = sorted(p.name for p in (tmp_path / "alone" / sub).iterdir())
        assert names == ["regret.csv", "summary.json", "trajectory.csv"]
        for name in names:
            shared = (tmp_path / "shared" / sub / name).read_bytes()
            assert shared == (tmp_path / "alone" / sub / name).read_bytes(), (kind, name)


def test_env_seed_overrides_flag(small_config, clean_env, capsys):
    main(["offline", "--config", small_config, "--seed", "9"])
    from_env_free = capsys.readouterr().out
    clean_env.setenv("DRPSIM_SEED", "9")
    main(["offline", "--config", small_config, "--seed", "4"])
    assert capsys.readouterr().out == from_env_free


def test_env_out_overrides_flag(small_config, clean_env, tmp_path, capsys):
    env_dir = tmp_path / "from_env"
    clean_env.setenv("DRPSIM_OUT", str(env_dir))
    main(["simulate", "--config", small_config, "--out", str(tmp_path / "ignored")])
    capsys.readouterr()
    assert (env_dir / "trajectory.csv").exists()
    assert not (tmp_path / "ignored").exists()


def test_flag_overrides_config_file(small_config, tmp_path, clean_env, capsys):
    alt = tmp_path / "alt.cfg"
    alt.write_text("n_users = 6\nhorizon = 5\nreps = 4\nseed = 8\nc_rev = 2.0\n")
    main(["offline", "--config", small_config, "--seed", "8"])
    flagged = capsys.readouterr().out
    main(["offline", "--config", str(alt)])
    assert capsys.readouterr().out == flagged


@pytest.mark.parametrize(
    "text, args, env",
    [("seed = -1\n", ["--seed", "5"], None), ("seed = -1\n", [], "5"), ("", ["--seed", "-1"], "5")],
    ids=["file-flag", "file-env", "flag-env"],
)
def test_a_replaced_value_is_still_range_checked(text, args, env, tmp_path, clean_env, capsys):
    cfg = tmp_path / "replaced.cfg"
    cfg.write_text("n_users = 5\nhorizon = 12\nreps = 3\n" + text)
    if env is not None:
        clean_env.setenv("DRPSIM_SEED", env)
    out_dir = tmp_path / "o"
    assert main(["regret", "--config", str(cfg), "--out", str(out_dir), *args]) == 2
    assert capsys.readouterr() == ("", "error: seed must be in [0, 2**64), got -1\n")
    assert not out_dir.exists()


def test_unset_flags_keep_config_file_values(tmp_path, clean_env, capsys):
    cfg = tmp_path / "ridge.cfg"
    cfg.write_text("n_users = 5\nhorizon = 12\nreps = 6\nseed = 3\nridge = 0.01\n")
    out_dir = tmp_path / "reps7"
    assert main(["regret", "--config", str(cfg), "--reps", "7", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert (summary["seed"], summary["reps"], summary["horizon"]) == (3, 7, 12)
    assert summary["ridge"] == 0.01


def test_unknown_experiment_is_a_clean_error(small_config, clean_env, capsys):
    rc = main(["regret", "--config", small_config, "--experiment", "warmstart"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --experiment: unknown experiment kind")


def test_seed_beyond_64_bits_is_a_clean_error(small_config, clean_env, capsys):
    # seeds s and s + 2**64 would share every stream
    rc = main(["offline", "--config", small_config, "--seed", str(2**64 + 3)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: seed must be in [0, 2**64)")
    clean_env.setenv("DRPSIM_SEED", str(2**64))
    assert main(["offline", "--config", small_config]) == 2
    assert "seed" in capsys.readouterr().err


def test_unparsable_numbers_name_their_source(small_config, clean_env, capsys, tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n_users = 10\nhorizon = abc\n")
    assert main(["offline", "--config", str(bad)]) == 2
    assert capsys.readouterr().err == (
        "error: config line 2: horizon must be an integer, got 'abc'\n"
    )
    clean_env.setenv("DRPSIM_SEED", "abc")
    assert main(["offline", "--config", small_config]) == 2
    assert capsys.readouterr().err == "error: DRPSIM_SEED must be an integer, got 'abc'\n"
    clean_env.delenv("DRPSIM_SEED")
    clean_env.setenv("DRPSIM_OUT", "")
    clean_env.chdir(tmp_path)
    before = sorted(tmp_path.iterdir())
    assert main(["regret", "--config", small_config]) == 2
    assert capsys.readouterr() == ("", "error: out_dir must not be empty\n")
    assert sorted(tmp_path.iterdir()) == before


@pytest.mark.parametrize(
    "args, text, error",
    [
        (["--seed", "abc"], "", "--seed must be an integer, got 'abc'"),
        (["--reps", "1.5"], "", "--reps must be an integer, got '1.5'"),
        (["--y-capacity", "x"], "", "--y-capacity must be a number, got 'x'"),
        (["--y-capacity", "nan"], "", "y_capacity must be finite, got nan"),
        ([], "ridge = -1\n", "ridge out of range: the ridge weight is -1, outside [0, 3.66e+69]"),
        (
            [],
            "experiment = repeated-dt:1.5\n",
            "config line 4: experiment: repeated-dt fraction must be in [0, 1], got 1.5",
        ),
        (
            ["--experiment", "repeated-dt:abc"],
            "",
            "--experiment: repeated-dt fraction must be a number, got 'abc'",
        ),
        (
            [],
            "experiment = blocked-dt:0\n",
            "config line 4: experiment: blocked-dt block size must be >= 1, got 0",
        ),
        (["--out", ""], "", "out_dir must not be empty"),
    ],
)
def test_refused_settings_exit_2_naming_their_source(
    args, text, error, clean_env, tmp_path, capsys
):
    config = tmp_path / "bad.cfg"
    config.write_text("n_users = 5\nhorizon = 12\nreps = 3\n" + text)
    # run in tmp_path, so a run that writes into the working directory writes there
    clean_env.chdir(tmp_path)
    out_dir = tmp_path / "o"
    assert main(["regret", "--config", str(config), "--out", str(out_dir), *args]) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert list(tmp_path.iterdir()) == [config]


def test_regret_builds_one_config_and_parses_its_kind_once(
    sweep_config, clean_env, tmp_path, capsys
):
    # defaults <- file <- flags <- environment merge into one ExperimentConfig construction
    calls = []

    def counted(kind):
        calls.append(kind)
        return parse_experiment_kind(kind)

    clean_env.setattr(experiments, "parse_experiment_kind", counted)
    clean_env.setenv("DRPSIM_SEED", "5")
    args = ["--experiment", "repeated-dt:0.3", "--reps", "3", "--out", str(tmp_path / "o")]
    assert main(["regret", "--config", sweep_config, *args]) == 0
    capsys.readouterr()
    assert calls == ["repeated-dt:0.3"]
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert (summary["experiment"], summary["reps"], summary["seed"]) == ("repeated-dt:0.3", 3, 5)


def test_missing_config_file_is_a_clean_error(clean_env, capsys, tmp_path):
    rc = main(["offline", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _child_env():
    """The environment of a child process that imports this source tree.

    DRPSIM_SEED and DRPSIM_OUT are dropped from it, as ``clean_env`` drops
    them for the in-process tests.
    """
    env = {
        k: v for k, v in os.environ.items() if k not in ("DRPSIM_SEED", "DRPSIM_OUT")
    }
    src = str(Path(drpsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _run_child(command, args, cwd):
    """Run ``<command> <args>`` as a child process in ``_child_env()``."""
    return subprocess.run(
        [*command, *args],
        capture_output=True,
        text=True,
        env=_child_env(),
        cwd=cwd,
    )


def test_console_script_entry_point(small_config, tmp_path):
    toml = tomllib or pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as f:
        scripts = toml.load(f)["project"]["scripts"]
    assert scripts["drpsim"] == "drpsim.cli:main"
    # `python -m drpsim` runs the same main() the console script wraps.
    args = ["offline", "--config", small_config]
    proc = _run_child([sys.executable, "-m", "drpsim"], args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("key,value")


@pytest.mark.skipif(
    shutil.which("drpsim") is None, reason="drpsim console script not installed"
)
def test_installed_console_script(small_config, tmp_path):
    proc = _run_child(["drpsim"], ["offline", "--config", small_config], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("key,value")


@pytest.fixture()
def negative_capacity_config(tmp_path):
    # at the default N and c_rev the closed-form capacity is below zero
    path = tmp_path / "negative.cfg"
    path.write_text("horizon = 12\nreps = 3\n")
    return str(path)


def test_sweep_writes_nothing_to_stderr(negative_capacity_config, tmp_path):
    args = ["sweep", "--config", negative_capacity_config, "--out", "grid"]
    proc = _run_child([sys.executable, "-m", "drpsim"], args, tmp_path)
    assert proc.returncode in (0, 1), proc.stderr
    assert proc.stderr == ""
    summary = json.loads((tmp_path / "grid" / "baseline" / "summary.json").read_text())
    assert summary["y_capacity"] < 0


def test_skipped_analysis_is_reported_once_on_stdout(negative_capacity_config, tmp_path):
    args = ["regret", "--config", negative_capacity_config, "--reps", "1", "--out", "solo"]
    proc = _run_child([sys.executable, "-m", "drpsim"], args, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout.count("need >= 2 replications") == 1
    assert "analysis: need >= 2 replications" in proc.stdout.splitlines()


def test_closed_stdout_pipe_ends_quietly(tmp_path):
    # 20000 rows outgrow the pipe's buffer, so drpsim is still writing when
    # the reader closes its end after one line (`drpsim offline | head -1`)
    config = tmp_path / "long.cfg"
    config.write_text("horizon = 20000\n")
    command = [sys.executable, "-m", "drpsim", "offline", "--config", str(config)]
    with subprocess.Popen(
        command,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
        cwd=tmp_path,
    ) as proc:
        assert proc.stdout.readline() == b"key,value\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
    assert stderr == b""
    assert proc.returncode == 1


def test_nonfinite_summary_is_an_error_and_writes_no_file(tmp_path, clean_env, capsys):
    # no valid config reaches a non-finite summary (noise_sd is bounded), so
    # put a NaN into it: strict JSON cannot hold one
    real = experiments.summarize
    clean_env.setattr(
        experiments, "summarize", lambda report: real(report) | {"cum_regret_final": math.nan}
    )
    config = tmp_path / "small.cfg"
    config.write_text("n_users = 2\nhorizon = 20\nreps = 3\n")
    out_dir = tmp_path / "o"
    assert main(["regret", "--config", str(config), "--out", str(out_dir)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = captured.err.splitlines()[-1]
    assert error.startswith("error: summary.json cannot hold non-finite values: ")
    assert "analysis.cum_regret_final" in error
    assert list(out_dir.iterdir()) == []


#: a value of each key whose costs grow as its square, past the float range, and the message
_OVERFLOWING = (
    ("noise_sd", "1e300", "the noise level sigma is 1e+300, outside [0, 3.66e+69]"),
    ("y_capacity", "1e300", "the capacity |y| is 1e+300, outside [0, 3.66e+69]"),
    ("y_capacity", "-1e300", "the capacity |y| is 1e+300, outside [0, 3.66e+69]"),
    ("c_rev", "1e300", "the capacity |y| is 1e+300, outside [0, 3.66e+69]"),
)


def test_noise_sd_past_the_float_range_fails_before_any_draw(tmp_path, clean_env, capsys, recwarn):
    # the analysis squares costs that grow as each key^2, and 1e300^4 overflows
    def refuse(*args):
        raise AssertionError("a stream was opened")

    clean_env.setattr(experiments, "substream", refuse)
    clean_env.setattr(online, "substream", refuse)
    for key, value, message in _OVERFLOWING:
        config = tmp_path / "overflow.cfg"
        config.write_text(f"n_users = 2\nhorizon = 20\nreps = 3\n{key} = {value}\n")
        out_dir = tmp_path / "o"
        assert main(["regret", "--config", str(config), "--out", str(out_dir)]) == 2, key
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {key} out of range: {message}\n"
        assert not out_dir.exists()
    assert len(recwarn) == 0


def test_noise_sd_at_its_bound_gives_a_finite_summary(tmp_path, clean_env, capsys, recwarn):
    # the closed-form capacity grows as c_rev * (1 + gamma1), so past 1e60 at the default N
    for size, key, value in (
        ("n_users = 2\n", "noise_sd", 1e60),
        ("n_users = 2\n", "y_capacity", 1e60),
        ("n_users = 2\n", "y_capacity", -1e60),
        ("n_users = 2\n", "c_rev", 1e60),
        ("", "c_rev", 1e60),
    ):
        config = tmp_path / "loud.cfg"
        config.write_text(f"{size}horizon = 20\nreps = 3\n{key} = {value!r}\n")
        out_dir = tmp_path / "o"
        assert main(["regret", "--config", str(config), "--out", str(out_dir)]) == 0, key
        assert capsys.readouterr().err == ""
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary[key] == value
        if not size:
            assert summary["y_capacity"] > 1e60
        analysis = summary["analysis"]
        assert all(math.isfinite(v) for v in analysis.values() if isinstance(v, float)), key
    assert len(recwarn) == 0
