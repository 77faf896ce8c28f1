"""Self-tests of the benchmark. Run: python3 -m pytest -q benchmarks"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import worker  # noqa: E402
from spans import Tracer, aggregate, self_times  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# same shapes as the real workloads, small enough to run in seconds
TINY = [
    worker.Workload("grid-t100", "regret", ("baseline", "paramset2"), 12, 20, 4, 3, 40.0),
    worker.Workload("sweep-t1000", "sweep", worker.SWEEP_KINDS, 10, 30, 3, 7, 40.0),
    worker.Workload("large-pop", "regret", ("baseline",), 500, 20, 2, 1, 5000.0),
]


def test_self_times_on_hand_built_tree():
    #   0 root   [0, 10]
    #   1  a     [1, 4]   child of 0
    #   2   a1   [2, 3]   child of 1
    #   3  b     [3, 6]   child of 0, overlaps a
    #   4  c     [8, 12]  child of 0, runs past the root's end
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    parent = [-1, 0, 1, 0, 0]
    got = self_times(start, end, parent)
    # root: 10 - |[1,6] u [8,10]| = 10 - 7
    assert got == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0])


def test_aggregate_counts_calls_and_self_time_per_name():
    tracer = Tracer()
    leaf = tracer.wrap("leaf")(lambda: sum(range(1000)))
    with tracer.span("outer"):
        leaf()
        leaf()
    agg = aggregate(tracer)
    assert agg["leaf"]["calls"] == 2 and agg["outer"]["calls"] == 1
    assert agg["outer"]["self_s"] == pytest.approx(agg["outer"]["s"] - agg["leaf"]["s"], abs=1e-12)


def _program_sweep(spec: reference.ExperimentSpec):
    drpsim, _ = worker.load_drpsim(ROOT)
    from drpsim.experiments import ExperimentConfig, build_scenario
    from drpsim.offline import compute_y_star
    from drpsim.online import run_replications
    from drpsim.rng import substream

    cfg = ExperimentConfig(
        experiment=spec.kind, n_users=spec.n, horizon=spec.horizon, reps=spec.reps, seed=spec.seed
    )
    scenario = build_scenario(cfg, substream(spec.seed, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        y = compute_y_star(scenario)
    return run_replications(scenario, y, spec.reps, spec.seed)


@pytest.mark.parametrize("kind", worker.SWEEP_KINDS)
def test_reference_matches_program_and_flags_a_perturbed_price(kind):
    spec = reference.ExperimentSpec(kind, 15, 40, 2, 11)
    sweep = _program_sweep(spec)
    sc = reference.draw_scenario(spec)
    np.testing.assert_allclose(sweep.lambda_star, sc.lambda_star, rtol=reference.PRICE_RTOL)
    for r in range(spec.reps):
        ref = reference.reference_replication(spec, sc, r)
        got = {
            "lambda_online": sweep.lambda_online[r].copy(),
            "cost_online": sweep.cost_online[r].copy(),
            "cost_star": sweep.cost_star[r].copy(),
        }
        assert reference.compare_replication(ref, got) == []
        got["lambda_online"][7] *= 1 + 1e-7
        assert reference.compare_replication(ref, got) == ["lambda_online"]
        got["lambda_online"][7] = ref["lambda_online"][7]
        got["cost_star"][3] += 1e-6 * max(1.0, abs(got["cost_star"][3]))
        assert reference.compare_replication(ref, got) == ["cost_star"]


def test_reference_blocks_cover_every_replication_and_flag_a_perturbed_one(tmp_path):
    wl = TINY[1]
    drpsim, _ = worker.load_drpsim(ROOT)
    runner = worker.Runner(drpsim, wl, 5, tmp_path)
    try:
        it = runner.run(keep_rows=runner.block_rows(0))
        block = runner.reference_block(0)
    finally:
        runner.close()
    kinds = range(len(wl.kinds))
    assert sorted(runner.ref_order) == [(i, r) for i in kinds for r in range(wl.reps)]
    assert runner.ref_order[: len(wl.kinds)] == [(i, 0) for i in kinds]
    assert block.rep_slots == wl.ref_block * wl.horizon
    assert runner.check(block, it, "it") == (0, [])
    i, r = next(iter(block.results))
    it.sweeps[i]["rows"][r]["cost_online"][2] *= 1 + 1e-6
    bad, notes = runner.check(block, it, "it")
    assert bad == 1 and "cost_online" in notes[0]


def test_iteration_figures_are_relative_to_the_blocks_around_it():
    it = worker.Iteration(
        wall_s=3.0, cpu_s=2.0, setup_s=0.1, sweep_s=2.4, rep_slots=100, digests={},
        bytes_written=0, checks_passed=0, checks_total=0, failed=0, sweeps=[],
    )  # fmt: skip
    # around it the reference loop took 0.4 s wall and 0.3 s CPU for 40 slots
    blocks = [worker.RefBlock(0.1, 0.1, 10, {}), worker.RefBlock(0.3, 0.2, 30, {})]
    got = worker.per_iteration([it], blocks, ref_us_nominal=5e3)
    assert got["ref_us_per_rep_slot"] == [pytest.approx(1e4)]
    assert got["wall_x_ref"] == [pytest.approx(3.0)]
    assert got["rep_slot_x_ref"] == [pytest.approx(2.4)]
    assert got["cpu_x_ref"] == [pytest.approx(2.0 / 0.75)]
    # the reference ran at twice its nominal time per slot, so set-up counts half
    assert got["setup_s"] == [pytest.approx(0.05)] and got["raw_setup_s"] == [0.1]


def test_noise_floor_draws_the_loop_volume():
    specs = [reference.ExperimentSpec("baseline", 7, 5, 3, 1)]
    seconds, drawn = reference.noise_floor(specs, max_block=20)
    assert drawn == 3 * 5 * 2 * 7 and seconds > 0


@pytest.mark.parametrize("workload", TINY, ids=[w.name for w in TINY])
@pytest.mark.parametrize("trace", [False, True], ids=["trace0", "trace1"])
def test_smoke_every_metric_is_emitted_with_its_unit(tmp_path, workload, trace):
    record = worker.measure(ROOT, workload, seed=3, seconds=0.0, trace=trace, out_dir=tmp_path)
    listed = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in record["metrics"].items()
    }
    assert all(np.isfinite(v["value"]) for v in record["metrics"].values())
    assert record["correct"], record["notes"]
    assert record["failed"] == 0
    runs = sum(record["samples"].values())
    assert record["samples"]["traced"] == (worker.MIN_ITERATIONS if trace else 0)
    assert record["attempted"] == runs * len(workload.kinds) * workload.reps
    assert all(h is not None for d in record["digests"].values() for h in d.values())
    if trace:
        assert (tmp_path / "spans.npz").is_file()


def test_benchmark_json_matches_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(worker.WORKLOADS)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "benchmarks").mkdir()
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "benchmarks" / f.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/bench.py", "--workload", "grid-t100", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
