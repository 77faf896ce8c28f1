import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import drpsim
from drpsim.cli import main
from drpsim.experiments import ExperimentConfig, scenario_and_capacity
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
        shown = shown.lower() if isinstance(value, bool) else shown
        # the key starts its line, or the shared line of the interval keys
        key = rf"(?m)^  (?:\w+/\w+, )*(?:\w+/)?{field.name}\b"
        match = re.search(key + r"[^(]*\(([^)]*)\)", text)
        assert match is not None, field.name
        assert match.group(1) == shown, field.name


def test_simulate_writes_trajectory(small_config, clean_env, tmp_path, capsys):
    out_dir = tmp_path / "sim"
    assert main(["simulate", "--config", small_config, "--out", str(out_dir)]) == 0
    assert f"wrote {out_dir / 'trajectory.csv'}" in capsys.readouterr().out
    lines = (out_dir / "trajectory.csv").read_text().splitlines()
    assert lines[0].startswith("t,d_t,lambda_online")
    assert len(lines) == 6


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


def test_regret_coupled_noise_flag(sweep_config, clean_env, tmp_path, capsys):
    out_dir = tmp_path / "coupled"
    rc = main(
        ["regret", "--config", sweep_config, "--out", str(out_dir), "--coupled-noise"]
    )
    assert rc == 0
    capsys.readouterr()
    with open(out_dir / "summary.json") as f:
        assert json.load(f)["coupled_noise"] is True


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


def test_unset_flags_keep_config_file_values(tmp_path, clean_env, capsys):
    cfg = tmp_path / "coupled.cfg"
    cfg.write_text("n_users = 5\nhorizon = 12\nreps = 6\nseed = 3\ncoupled_noise = true\n")
    out_dir = tmp_path / "reps7"
    assert main(["regret", "--config", str(cfg), "--reps", "7", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert (summary["seed"], summary["reps"], summary["horizon"]) == (3, 7, 12)
    assert summary["coupled_noise"] is True


def test_unknown_experiment_is_a_clean_error(small_config, clean_env, capsys):
    rc = main(["regret", "--config", small_config, "--experiment", "warmstart"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: unknown experiment kind")


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


def test_missing_config_file_is_a_clean_error(clean_env, capsys, tmp_path):
    rc = main(["offline", "--config", str(tmp_path / "nope.cfg")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def _run_child(command, args, cwd):
    """Run ``<command> <args>`` as a child process that imports this source tree.

    DRPSIM_SEED and DRPSIM_OUT are dropped from the child's environment, as
    ``clean_env`` drops them for the in-process tests.
    """
    env = {
        k: v for k, v in os.environ.items() if k not in ("DRPSIM_SEED", "DRPSIM_OUT")
    }
    src = str(Path(drpsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [*command, *args],
        capture_output=True,
        text=True,
        env=env,
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
