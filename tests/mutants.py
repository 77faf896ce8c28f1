"""Mutation checks: small source edits that named tests must catch.

Each entry of MUTANTS names a source file, an exact fragment of it, the
text that replaces the fragment, and the pytest node ids that must fail
on the edited tree. The runner first runs every named test on an
unedited copy, where all must pass. Then, for each mutant, it copies
src, tests and pyproject.toml into a temporary directory, applies the
mutant there and runs its tests in a child pytest; a failing test kills
the mutant. The whole tree is copied because pytest's
pythonpath = ["src"] puts the copy's own src first: pointing PYTHONPATH
at a mutated src would be ignored and every mutant would survive.

    python tests/mutants.py

Exits 0 when every mutant is killed, 1 when one survives or its run
errs, and 2 when a named test fails on the unedited tree. A Tier-1 test
(tests/test_mutants.py) checks that every fragment occurs exactly once
in today's source, so a stale entry fails loudly.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    path: str  # relative to the repository root
    fragment: str
    replacement: str
    tests: tuple[str, ...]


MUTANTS = (
    # the su^2 term of the ridge solve's determinant off by a relative 1e-9
    Mutant(
        "src/drpsim/online.py",
        "det = a00 * a11 - su * su",
        "det = a00 * a11 - su * su * (1 + 1e-9)",
        ("tests/test_online.py::test_single_sample_ridge_solve",),
    ),
    # the whole determinant off by a relative 1e-9
    Mutant(
        "src/drpsim/online.py",
        "det = a00 * a11 - su * su",
        "det = (a00 * a11 - su * su) * (1 + 1e-9)",
        ("tests/test_online.py::test_single_sample_ridge_solve",),
    ),
    # the kernel's regressor u = N * lambda off by a relative 1e-12
    Mutant(
        "src/drpsim/online.py",
        "u_t = nf * lam",
        "u_t = nf * lam * (1 + 1e-12)",
        ("tests/test_engine.py::test_engine_matches_per_slot_loop",),
    ),
    # the kernel's float N, which prices and regresses, off by a relative 1e-12
    Mutant(
        "src/drpsim/online.py",
        "nf = float(pop.n)",
        "nf = float(pop.n) * (1 + 1e-12)",
        ("tests/test_engine.py::test_engine_matches_per_slot_loop",),
    ),
    # a sweep's first_trajectory is its last replication, not replication 0
    Mutant(
        "src/drpsim/online.py",
        "if r == 0:",
        "if r == reps - 1:",
        ("tests/test_online.py::test_first_trajectory_is_replication_zero_in_full",),
    ),
    # the kernel's running sum u*Z off by a relative 1e-12
    Mutant(
        "src/drpsim/online.py",
        "suz += u_t * q",
        "suz += u_t * q * (1 + 1e-12)",
        ("tests/test_engine.py::test_engine_matches_per_slot_loop",),
    ),
    # a non-finite observation is fed to the estimator
    Mutant(
        "src/drpsim/online.py",
        "if not -inf < q < inf:",
        "if False:",
        ("tests/test_online.py::test_episode_rejects_nonfinite_observation",),
    ),
    # next_price divides by a near-zero denominator
    Mutant(
        "src/drpsim/offline.py",
        "if abs(denom) < DENOM_TOL:",
        "if False:",
        ("tests/test_online.py::test_next_price_degenerate",),
    ),
    # the oracle's vertex step moves 0.8 of the way to the vertex
    Mutant(
        "src/drpsim/offline.py",
        "y -= 0.5 * h * (f_hi - f_lo) / curvature",
        "y -= 0.4 * h * (f_hi - f_lo) / curvature",
        ("tests/test_offline.py::test_oracle_y_star_matches_closed_random",),
    ),
    # Scenario accepts inputs past the float range
    Mutant(
        "src/drpsim/model.py",
        "_check_scale(self._scales())",
        "None",
        ("tests/test_model.py::test_parameter_validation",),
    ),
    # OnlineConfig accepts a capacity or a slot-1 price past the float range
    Mutant(
        "src/drpsim/online.py",
        "_check_scale(self.scenario._scales(), ",
        "(lambda *args: None)(",
        ("tests/test_model.py::test_out_of_scale_inputs_fail_by_name_before_any_stream",),
    ),
    # ExperimentConfig leaves its keys to Scenario, after the scenario's stream opened
    Mutant(
        "src/drpsim/experiments.py",
        "_check_scale(scales, ",
        "(lambda *args, **kwargs: None)(scales, ",
        ("tests/test_cli.py::test_noise_sd_past_the_float_range_fails_before_any_draw",),
    ),
    # the margin widened past float64's range: every bound is inf
    Mutant(
        "src/drpsim/model.py",
        "\nSCALE_MARGIN = 1e30\n",
        "\nSCALE_MARGIN = 1e-30\n",
        (
            "tests/test_model.py::test_out_of_scale_inputs_fail_by_name_before_any_stream",
            "tests/test_model.py::test_every_input_is_refused_by_name_or_runs_finite",
        ),
    ),
    # simulate runs the config's replication count, not one episode
    Mutant(
        "src/drpsim/cli.py",
        "replace(_load_config(args), reps=1)",
        "_load_config(args)",
        ("tests/test_cli.py::test_simulate_replaces_a_regret_run_with_what_regret_reps1_writes",),
    ),
    # the log bound passes without its cap on k2 / k1
    Mutant(
        "src/drpsim/analysis.py",
        " and k2 <= LOG_BOUND_RATIO_CAP * k1",
        "",
        ("tests/test_analysis.py::test_log_bound_rejects_linear_regret",),
    ),
    # every float cell of a CSV table loses its last character
    Mutant(
        "src/drpsim/experiments.py",
        'cells.append(text.split(","))',
        'cells.append([c[:-1] if col.dtype.kind == "f" else c for c in text.split(",")])',
        (
            "tests/test_experiments.py::test_write_table_cells_parse_back_to_their_bits",
            "tests/test_experiments.py::test_write_table_spells_floats_as_orjson_does",
        ),
    ),
    # the finiteness check reads the column before its float64 cast: 1e400 is written as null
    Mutant(
        "src/drpsim/experiments.py",
        "finite = np.isfinite(x)",
        "finite = np.isfinite(col)",
        ("tests/test_experiments.py::test_write_table_refuses_unequal_columns_and_nonfinite_cells",),
    ),
    # a flag's or an environment variable's text reaches ExperimentConfig unconverted
    Mutant(
        "src/drpsim/experiments.py",
        "data[key] = _parse_value(_KEY_TYPES[key], value, source)",
        "data[key] = value",
        ("tests/test_cli.py::test_refused_settings_exit_2_naming_their_source",),
    ),
    # the scale contract's ridge row accepts a negative weight
    Mutant(
        "src/drpsim/model.py",
        '("ridge_param", "the ridge weight", ridge, 0.0, top),',
        '("ridge_param", "the ridge weight", ridge, -top, top),',
        (
            "tests/test_online.py::test_bad_ridge_param_is_named",
            "tests/test_experiments.py::test_bad_ridge_names_its_key_and_follows_the_estimator",
        ),
    ),
    # a nan or +-inf cell reaches orjson, which writes it as null
    Mutant(
        "src/drpsim/experiments.py",
        "if not np.all(finite):",
        "if False:",
        ("tests/test_experiments.py::test_write_table_refuses_unequal_columns_and_nonfinite_cells",),
    ),
    # the draw pool caps its threads at the CPUs: 3 reps on 2 CPUs draw in two waves
    Mutant(
        "src/drpsim/online.py",
        "reps if reps < 2 * cpus else cpus",
        "min(reps, cpus)",
        ("tests/test_online.py::test_draw_pool_starts_a_thread_per_replication_below_twice_the_cpus",),
    ),
    # a refused experiment kind reaches the CLI without its config line or flag
    Mutant(
        "src/drpsim/experiments.py",
        "except _KindError as exc:",
        "except TypeError as exc:",
        ("tests/test_cli.py::test_refused_settings_exit_2_naming_their_source",),
    ),
    # an empty out_dir runs, writing its outputs into the working directory
    Mutant(
        "src/drpsim/experiments.py",
        'if name == "out_dir" and not value:',
        "if False:",
        (
            "tests/test_cli.py::test_refused_settings_exit_2_naming_their_source",
            "tests/test_cli.py::test_unparsable_numbers_name_their_source",
        ),
    ),
    # the sweep's draws reduce every population's squares against the first beta
    Mutant(
        "src/drpsim/online.py",
        "np.multiply(eps, beta, out=product)",
        "np.multiply(eps, betas[0], out=product)",
        (
            "tests/test_online.py::test_noise_statistics_follow_the_normal_block_layout",
            "tests/test_cli.py::test_sweep_shares_draws_and_writes_the_bytes_of_separate_runs",
        ),
    ),
    # a failed draw leaves the queued draws to run before the pool shuts down
    Mutant(
        "src/drpsim/online.py",
        "pool.shutdown(cancel_futures=True)",
        "pool.shutdown()",
        ("tests/test_online.py::test_a_failed_draw_is_raised_and_leaves_no_thread",),
    ),
    # a config-file value that a flag or an environment variable replaces goes unchecked
    Mutant(
        "src/drpsim/experiments.py",
        "_check_key(key, data[key])",
        "pass",
        ("tests/test_cli.py::test_a_replaced_value_is_still_range_checked",),
    ),
    # tracking_pass tolerates a 50% median tracking error, not 5%
    Mutant(
        "src/drpsim/analysis.py",
        "TRACKING_TOL = 0.05",
        "TRACKING_TOL = 0.5",
        ("tests/test_analysis.py::test_tracking_pass_holds_strictly_below_five_percent",),
    ),
    # tracking_pass compares against ten times its tolerance
    Mutant(
        "src/drpsim/analysis.py",
        "tracking < TRACKING_TOL",
        "tracking < 10 * TRACKING_TOL",
        ("tests/test_analysis.py::test_tracking_pass_holds_strictly_below_five_percent",),
    ),
    # summary.json written with NaN, which strict JSON cannot hold
    Mutant(
        "src/drpsim/experiments.py",
        "allow_nan=False",
        "allow_nan=True",
        ("tests/test_cli.py::test_nonfinite_summary_is_an_error_and_writes_no_file",),
    ),
)


def run_tests(mutant: Optional[Mutant], tests: list[str]) -> int:
    """pytest's exit status for tests on a copy of the tree with mutant applied."""
    with tempfile.TemporaryDirectory(prefix="drpsim-mutant-") as tmp:
        tree = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for name in ("src", "tests"):
            shutil.copytree(ROOT / name, tree / name, ignore=skip)
        shutil.copy2(ROOT / "pyproject.toml", tree)
        if mutant is not None:
            path = tree / mutant.path
            source = path.read_text()
            if source.count(mutant.fragment) != 1:
                raise ValueError(f"{mutant.path}: fragment {mutant.fragment!r} is not unique")
            path.write_text(source.replace(mutant.fragment, mutant.replacement))
        env = {k: v for k, v in os.environ.items() if k not in ("DRPSIM_SEED", "DRPSIM_OUT")}
        command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
        return subprocess.run(command, cwd=tree, env=env, capture_output=True).returncode


def main() -> int:
    every_test = sorted({t for m in MUTANTS for t in m.tests})
    if run_tests(None, every_test) != 0:
        print("the named tests fail on the unedited tree; no mutant was run")
        return 2
    survivors = 0
    for m in MUTANTS:
        start = time.perf_counter()
        status = run_tests(m, list(m.tests))
        # pytest exits 1 when a test failed; any other status is an error, not a kill
        verdict = {0: "SURVIVED", 1: "killed"}.get(status, f"ERROR (pytest exit {status})")
        survivors += status != 1
        elapsed = time.perf_counter() - start
        print(f"{verdict:<8} {elapsed:5.1f} s  {m.path}: {m.fragment!r} -> {m.replacement!r}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
