"""Run one benchmark workload in this process and print its result line.

bench.py starts this file in a fresh child process per workload, so the
child's CPU time and peak RSS belong to that workload alone:

    python3 benchmarks/worker.py ROOT --workload NAME --seed N --seconds S --trace 0|1

ROOT is the checkout whose ``src/drpsim`` is measured. Every workload
goes through ``drpsim.cli.main``, the path a user runs, so all eight
modules (rng, model, offline, estimator, online, analysis, experiments,
cli) are exercised on each of them. One iteration is one whole
workload; iteration 0 is a warm-up whose output digests every later
iteration must reproduce.

After the warm-up and after every untraced iteration the benchmark's
own plain reference loop (reference.py) recomputes a fixed-size block
of the workload's replications. The block is timed, and its results
are compared with the same replications of the iteration before it.
The end-to-end times are reported as multiples of the reference loop's
time for the same replication-slots, taken from the blocks right before
and right after each iteration: the host's speed drifts by tens of
percent over seconds to minutes, and both codes drift together. The
raw seconds are printed alongside and kept in the record. The last line
of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import reference  # noqa: E402
from spans import Patcher, Probe, Tracer, aggregate  # noqa: E402

SWEEP_KINDS = (
    "baseline",
    "paramset2",
    "repeated-dt:0.2",
    "repeated-dt:0.3",
    "repeated-dt:0.4",
    "blocked-dt:4",
)
OUTPUT_FILES = ("trajectory.csv", "regret.csv", "summary.json")


@dataclass(frozen=True)
class Workload:
    """A closed-loop workload: one caller, the next call after the last returns.

    command "regret" runs ``drpsim regret`` once per kind; "sweep" runs
    ``drpsim sweep``, which runs the six kinds in SWEEP_KINDS.
    ref_block is the number of replications the reference loop
    recomputes after each iteration, about a quarter of its time.
    ref_us_nominal is a fixed speed of that loop, in microseconds per
    replication-slot, near what it measured on a 2-core Xeon host; the
    set-up seconds are scaled to it (see per_iteration).
    """

    name: str
    command: str
    kinds: tuple[str, ...]
    n: int
    horizon: int
    reps: int
    ref_block: int
    ref_us_nominal: float


# Why these three: grid-t100 is dominated by per-slot Python work in
# online/model/estimator (a batched engine shows here); sweep-t1000 has a
# long horizon, few replications to batch across, structured demand and
# six sets of output files; large-pop is dominated by Philox draws and
# O(N) array work in the loop and by the per-user Population build in
# set-up, with little per-slot Python overhead.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("grid-t100", "regret", ("baseline", "paramset2"), 100, 100, 200, 100, 40.0),
        Workload("sweep-t1000", "sweep", SWEEP_KINDS, 100, 1000, 8, 12, 40.0),
        Workload("large-pop", "regret", ("baseline",), 100_000, 100, 3, 1, 5000.0),
    )
}

E2E_UNITS = {
    "wall_x_ref": "x",
    "setup_s": "s",
    "rep_slot_x_ref": "x",
    "cpu_x_ref": "x",
    "peak_rss_mb": "MB",
}

#: span name -> (module, attribute) wrapped in traced iterations
TRACED = {
    "rng.substream": ("drpsim.rng", "substream"),
    "model.realize_outcome": ("drpsim.model", "realize_outcome"),
    "model.stage_cost": ("drpsim.model", "stage_cost"),
    "model.population_build": ("drpsim.model", "Population.from_arrays"),
    "offline.compute_y_star": ("drpsim.offline", "compute_y_star"),
    "offline.lambda_star_path": ("drpsim.offline", "lambda_star_path"),
    "estimator.estimate": ("drpsim.estimator", "estimate"),
    "estimator.update": ("drpsim.estimator", "update"),
    "online.run_episode": ("drpsim.online", "run_episode"),
    "online.run_replications": ("drpsim.online", "run_replications"),
    "analysis.build_regret_report": ("drpsim.analysis", "build_regret_report"),
    "analysis.median_tracking_error": ("drpsim.analysis", "median_tracking_error"),
    "experiments.build_scenario": ("drpsim.experiments", "build_scenario"),
    "experiments.write_trajectory_csv": ("drpsim.experiments", "write_trajectory_csv"),
    "experiments.write_regret_csv": ("drpsim.experiments", "write_regret_csv"),
    "experiments.run_experiment": ("drpsim.experiments", "run_experiment"),
}

#: per-layer metric -> unit, in the order they are printed
LAYER_UNITS = {
    "model.realize_outcome_calls": "count",
    "model.realize_outcome_s": "s",
    "model.stage_cost_calls": "count",
    "model.stage_cost_s": "s",
    "estimator.update_calls": "count",
    "estimator.update_s": "s",
    "estimator.estimate_calls": "count",
    "estimator.estimate_s": "s",
    "estimator.fallback_events": "count",
    "online.degenerate_events": "count",
    "online.run_replications_s": "s",
    "online.run_episode_calls": "count",
    "online.self_s": "s",
    "rng.substream_calls": "count",
    "rng.substream_s": "s",
    "rng.normals_drawn": "count",
    "rng.noise_bytes": "B",
    "rng.noise_draw_s": "s",
    "model.population_build_s": "s",
    "experiments.build_scenario_s": "s",
    "offline.compute_y_star_s": "s",
    "offline.lambda_star_path_calls": "count",
    "offline.lambda_star_path_s": "s",
    "analysis.build_regret_report_s": "s",
    "analysis.median_tracking_error_s": "s",
    "analysis.checks_passed": "count",
    "analysis.checks_total": "count",
    "experiments.write_trajectory_csv_s": "s",
    "experiments.write_regret_csv_s": "s",
    "experiments.bytes_written": "B",
    "experiments.run_experiment_s": "s",
    "cli.main_s": "s",
    "drpsim.import_s": "s",
    "trace.overhead_s": "s",
}
#: measured seconds printed next to the relative end-to-end figures
RAW_UNITS = {
    "wall_s": "s",
    "cpu_s": "s",
    "raw_setup_s": "s",
    "us_per_rep_slot": "us",
    "ref_us_per_rep_slot": "us",
}
#: how each metric was sampled, when not a median over the n iterations
SAMPLING = {
    "rng.normals_drawn": "computed from array sizes",
    "rng.noise_bytes": "computed from array sizes",
    "rng.noise_draw_s": "one sample",
    "drpsim.import_s": "one sample",
    "peak_rss_mb": "maximum over the child process",
    "wall_x_ref": "median of {n}, each iteration against the reference blocks before and after it",
    "rep_slot_x_ref": "median of {n}, each iteration against the reference blocks before and after it",
    "cpu_x_ref": "median of {n}, each iteration against the reference blocks before and after it",
    "setup_s": "median of {n}, scaled to the reference loop's nominal speed",
}

MIN_ITERATIONS = 3
#: stop starting iterations this long after the child started (parent kills at 170 s)
DEADLINE_S = 140.0


def load_drpsim(root: Path):
    """Import drpsim from ROOT/src only; return (package, import seconds)."""
    src = (root / "src").resolve()
    if not (src / "drpsim" / "__init__.py").is_file():
        raise SystemExit(f"error: no drpsim package under {src}")
    for var in ("DRPSIM_SEED", "DRPSIM_OUT"):
        os.environ.pop(var, None)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import drpsim
    import drpsim.cli

    import_s = time.perf_counter() - t0
    if Path(drpsim.__file__).resolve().parent != src / "drpsim":
        raise SystemExit(f"error: drpsim imported from {drpsim.__file__}, not {src}")
    return drpsim, import_s


def file_digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None


def git_commit(root: Path) -> str:
    """Commit of ROOT read from .git without running git; 'unknown' if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path, seed: int) -> dict:
    import scipy

    cpu_model = "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    blas_env = {
        k: os.environ.get(k)
        for k in (
            "OMP_NUM_THREADS",
            "OPENBLAS_NUM_THREADS",
            "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS",
            "NUMEXPR_NUM_THREADS",
        )
    }
    return {
        "nproc": os.cpu_count(),
        "nproc_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads_env": blas_env,
        "git_commit": git_commit(root),
        "seed": seed,
    }


@dataclass
class Capture:
    """What the run_replications probe keeps from each sweep of an iteration."""

    keep_rows: dict[int, list[int]] = field(default_factory=dict)
    sweeps: list[dict] = field(default_factory=list)

    def __call__(self, sweep) -> None:
        lam = np.asarray(sweep.lambda_online)
        c_on = np.asarray(sweep.cost_online)
        c_st = np.asarray(sweep.cost_star)
        finite = np.isfinite(lam).all(axis=1) & np.isfinite(c_on).all(axis=1) & np.isfinite(c_st).all(axis=1)
        rows = self.keep_rows.get(len(self.sweeps), [])
        self.sweeps.append(
            {
                "shape": lam.shape,
                "nonfinite_reps": int((~finite).sum()),
                "degenerate_events": int(sweep.degenerate_events),
                "fallback_events": int(sweep.fallback_events),
                "lambda_star": np.array(sweep.lambda_star),
                "rows": {
                    r: {"lambda_online": lam[r].copy(), "cost_online": c_on[r].copy(), "cost_star": c_st[r].copy()}
                    for r in rows
                    if r < lam.shape[0]
                },
            }
        )


@dataclass
class Iteration:
    wall_s: float
    cpu_s: float
    setup_s: float
    sweep_s: float
    rep_slots: int
    digests: dict[str, dict[str, str | None]]
    bytes_written: int
    checks_passed: int
    checks_total: int
    failed: int
    sweeps: list[dict]
    traced: dict | None = None


@dataclass
class RefBlock:
    """One timed block of the reference loop and what it computed."""

    wall_s: float
    cpu_s: float
    rep_slots: int
    results: dict[tuple[int, int], dict[str, np.ndarray]]


class Runner:
    """Runs iterations of one workload against an imported drpsim."""

    def __init__(self, drpsim, workload: Workload, seed: int, out_dir: Path):
        self.drpsim = drpsim
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.specs = [
            reference.ExperimentSpec(kind, workload.n, workload.horizon, workload.reps, seed)
            for kind in workload.kinds
        ]
        out_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = out_dir / "config.txt"
        self.config_path.write_text(
            f"n_users = {workload.n}\nhorizon = {workload.horizon}\n"
            f"reps = {workload.reps}\nseed = {seed}\n"
        )
        self.probe = Probe()
        self.patcher = Patcher()
        for name, (mod, attr) in (
            ("setup", ("drpsim.experiments", "build_scenario")),
            ("setup", ("drpsim.offline", "compute_y_star")),
            ("sweep", ("drpsim.online", "run_replications")),
        ):
            if not self.patcher.patch(mod, attr, self.probe.wrap(f"{name}:{attr}")):
                raise SystemExit(f"error: cannot probe {mod}.{attr}")
        self.capture = Capture()
        self.probe.on_result["sweep:run_replications"] = self.capture
        # drawn once, outside every timed region
        self.ref_scenarios = [reference.draw_scenario(spec) for spec in self.specs]
        self.ref_order = self._ref_order()

    def close(self) -> None:
        self.patcher.restore()

    def _ref_order(self) -> list[tuple[int, int]]:
        """(experiment, replication) pairs in the order the reference blocks take them.

        Each experiment's replication 0 comes first, then its other
        replications in an order drawn from the seed; experiments take
        turns, so every block covers each of them when it is large enough.
        """
        rng = np.random.default_rng([self.seed, 7])
        per_spec = [[0, *map(int, 1 + rng.permutation(spec.reps - 1))] for spec in self.specs]
        depth = max(len(reps) for reps in per_spec)
        return [(i, reps[j]) for j in range(depth) for i, reps in enumerate(per_spec) if j < len(reps)]

    def block_pairs(self, b: int) -> list[tuple[int, int]]:
        k = self.workload.ref_block
        return [self.ref_order[(b * k + j) % len(self.ref_order)] for j in range(k)]

    def block_rows(self, b: int) -> dict[int, list[int]]:
        """Replications block b recomputes, by experiment: the rows to keep from the program."""
        rows: dict[int, list[int]] = {}
        for i, r in self.block_pairs(b):
            rows.setdefault(i, []).append(r)
        return rows

    def reference_block(self, b: int) -> RefBlock:
        """Recompute block b with the reference loop, timing only the loop."""
        pairs = self.block_pairs(b)
        results = {}
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        for i, r in pairs:
            results[(i, r)] = reference.reference_replication(self.specs[i], self.ref_scenarios[i], r)
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        return RefBlock(
            wall_s=wall,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            rep_slots=sum(self.specs[i].horizon for i, _ in pairs),
            results=results,
        )

    def _experiment_dirs(self) -> list[Path]:
        if self.workload.command == "sweep":
            return [self.out_dir / "sweep" / k.replace(":", "-") for k in self.workload.kinds]
        return [self.out_dir / k.replace(":", "-") for k in self.workload.kinds]

    def _call_cli(self, tracer: Tracer | None) -> int:
        main = self.drpsim.cli.main
        base = ["--config", str(self.config_path), "--seed", str(self.seed)]
        if self.workload.command == "sweep":
            argvs = [["sweep", *base, "--out", str(self.out_dir / "sweep")]]
        else:
            argvs = [
                ["regret", *base, "--experiment", k, "--out", str(d)]
                for k, d in zip(self.workload.kinds, self._experiment_dirs())
            ]
        worst = 0
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                if tracer is None:
                    rc = main(argv)
                else:
                    with tracer.span("cli.main"):
                        rc = main(argv)
            # sweep returns 1 when an analysis check fails; only 2 is an error
            worst = max(worst, 2 if rc == 2 else 0)
        return worst

    def run(self, tracer: Tracer | None = None, keep_rows: dict[int, list[int]] | None = None) -> Iteration:
        wl = self.workload
        self.probe.reset()
        self.capture.sweeps = []
        self.capture.keep_rows = keep_rows or {}
        patcher = Patcher()
        if tracer is not None:
            for span_name, (mod, attr) in TRACED.items():
                patcher.patch(mod, attr, tracer.wrap(span_name))
        first_span = len(tracer) if tracer is not None else 0
        expected = len(wl.kinds) * wl.reps
        failed = 0
        ru0 = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        try:
            rc = self._call_cli(tracer)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rc = 2
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_SELF)
        patcher.restore()
        sweeps = self.capture.sweeps
        if rc != 0 or len(sweeps) != len(wl.kinds):
            print(f"error: {wl.name}: cli rc={rc}, {len(sweeps)} sweeps captured", file=sys.stderr)
            failed = expected
        else:
            failed = sum(s["nonfinite_reps"] for s in sweeps)
        digests, size, passed, total = {}, 0, 0, 0
        for kind, d in zip(wl.kinds, self._experiment_dirs()):
            digests[kind] = {f: file_digest(d / f) for f in OUTPUT_FILES}
            size += sum((d / f).stat().st_size for f in OUTPUT_FILES if (d / f).is_file())
            with contextlib.suppress(OSError, ValueError, KeyError, TypeError):
                checks = json.loads((d / "summary.json").read_text())["analysis"]["checks"]
                decided = [v for v in checks.values() if v is not None]
                passed += sum(bool(v) for v in decided)
                total += len(decided)
        return Iteration(
            wall_s=wall,
            cpu_s=(ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
            setup_s=self.probe.seconds["setup:build_scenario"] + self.probe.seconds["setup:compute_y_star"],
            sweep_s=self.probe.seconds["sweep:run_replications"],
            rep_slots=sum(s["shape"][0] * s["shape"][1] for s in sweeps),
            digests=digests,
            bytes_written=size,
            checks_passed=passed,
            checks_total=total,
            failed=failed,
            sweeps=sweeps,
            traced=aggregate(tracer, first_span) if tracer is not None else None,
        )

    def check(self, block: RefBlock, it: Iteration, label: str) -> tuple[int, list[str]]:
        """Replications of iteration `it` that differ from reference block `block`."""
        bad, notes = 0, []
        for (i, r), ref in block.results.items():
            spec, sc = self.specs[i], self.ref_scenarios[i]
            if i >= len(it.sweeps) or r not in it.sweeps[i]["rows"]:
                diff = ["missing"]
            else:
                sweep = it.sweeps[i]
                diff = reference.compare_replication(ref, sweep["rows"][r])
                lam_star = sweep["lambda_star"]
                if lam_star.shape != sc.lambda_star.shape or not np.all(
                    np.abs(lam_star - sc.lambda_star) <= reference.PRICE_RTOL * np.abs(sc.lambda_star)
                ):
                    diff.append("lambda_star")
            if diff:
                bad += 1
                notes.append(f"{label}: {spec.kind} rep {r}: {','.join(diff)} differ from the reference")
        return bad, notes


def _median(values):
    values = list(values)
    return statistics.median(values) if values else float("nan")


def layer_metrics(
    traced: list[Iteration], untraced: list[Iteration], import_s: float, noise_s: float, normals: int
) -> dict:
    """Per-layer metrics: medians over traced iterations of per-iteration totals."""
    def med(fn):
        return _median([fn(it.traced) for it in traced])

    def total(name, key="s"):
        return lambda agg: agg.get(name, {}).get(key, 0.0)

    def calls(name):
        return lambda agg: agg.get(name, {}).get("calls", 0)

    return {
        "model.realize_outcome_calls": med(calls("model.realize_outcome")),
        "model.realize_outcome_s": med(total("model.realize_outcome")),
        "model.stage_cost_calls": med(calls("model.stage_cost")),
        "model.stage_cost_s": med(total("model.stage_cost")),
        "estimator.update_calls": med(calls("estimator.update")),
        "estimator.update_s": med(total("estimator.update")),
        "estimator.estimate_calls": med(calls("estimator.estimate")),
        "estimator.estimate_s": med(total("estimator.estimate")),
        "estimator.fallback_events": _median([sum(s["fallback_events"] for s in it.sweeps) for it in traced]),
        "online.degenerate_events": _median([sum(s["degenerate_events"] for s in it.sweeps) for it in traced]),
        "online.run_replications_s": med(total("online.run_replications")),
        "online.run_episode_calls": med(calls("online.run_episode")),
        "online.self_s": med(
            lambda agg: total("online.run_replications", "self_s")(agg) + total("online.run_episode", "self_s")(agg)
        ),
        "rng.substream_calls": med(calls("rng.substream")),
        "rng.substream_s": med(total("rng.substream")),
        "rng.normals_drawn": normals,
        "rng.noise_bytes": 8 * normals,
        "rng.noise_draw_s": noise_s,
        "model.population_build_s": med(total("model.population_build")),
        "experiments.build_scenario_s": med(total("experiments.build_scenario")),
        "offline.compute_y_star_s": med(total("offline.compute_y_star")),
        "offline.lambda_star_path_calls": med(calls("offline.lambda_star_path")),
        "offline.lambda_star_path_s": med(total("offline.lambda_star_path")),
        "analysis.build_regret_report_s": med(total("analysis.build_regret_report")),
        "analysis.median_tracking_error_s": med(total("analysis.median_tracking_error")),
        "analysis.checks_passed": _median([it.checks_passed for it in traced]),
        "analysis.checks_total": _median([it.checks_total for it in traced]),
        "experiments.write_trajectory_csv_s": med(total("experiments.write_trajectory_csv")),
        "experiments.write_regret_csv_s": med(total("experiments.write_regret_csv")),
        "experiments.bytes_written": _median([it.bytes_written for it in traced]),
        "experiments.run_experiment_s": med(total("experiments.run_experiment")),
        "cli.main_s": med(total("cli.main")),
        "drpsim.import_s": import_s,
        "trace.overhead_s": _median([it.wall_s for it in traced]) - _median([it.wall_s for it in untraced]),
    }


def per_iteration(timed: list[Iteration], blocks: list[RefBlock], ref_us_nominal: float) -> dict[str, list[float]]:
    """Raw and reference-relative figures of each timed iteration.

    Untraced iteration i ran between reference blocks i and i + 1; the
    reference loop's seconds per replication-slot around it is the two
    blocks' time over their replication-slots, for wall and CPU time.
    The *_x_ref figures divide by that time for the iteration's
    replication-slots. setup_s keeps seconds as its unit: the measured
    set-up seconds times ref_us_nominal over the reference loop's
    measured microseconds per replication-slot, i.e. the set-up time on
    a host where that loop runs at its nominal speed.
    """
    out: dict[str, list[float]] = defaultdict(list)
    for it, before, after in zip(timed, blocks, blocks[1:]):
        slots = before.rep_slots + after.rep_slots
        ref_wall = (before.wall_s + after.wall_s) / slots
        ref_cpu = (before.cpu_s + after.cpu_s) / slots
        out["wall_s"].append(it.wall_s)
        out["setup_s"].append(it.setup_s * ref_us_nominal / (1e6 * ref_wall))
        out["raw_setup_s"].append(it.setup_s)
        out["cpu_s"].append(it.cpu_s)
        out["us_per_rep_slot"].append(1e6 * it.sweep_s / it.rep_slots)
        out["ref_us_per_rep_slot"].append(1e6 * ref_wall)
        out["wall_x_ref"].append(it.wall_s / (ref_wall * it.rep_slots))
        out["rep_slot_x_ref"].append(it.sweep_s / (ref_wall * it.rep_slots))
        out["cpu_x_ref"].append(it.cpu_s / (ref_cpu * it.rep_slots))
    return out


def e2e_metrics(samples: dict[str, list[float]], peak_rss_mb: float) -> dict:
    return {
        "wall_x_ref": _median(samples["wall_x_ref"]),
        "setup_s": _median(samples["setup_s"]),
        "rep_slot_x_ref": _median(samples["rep_slot_x_ref"]),
        "cpu_x_ref": _median(samples["cpu_x_ref"]),
        "peak_rss_mb": peak_rss_mb,
    }


def measure(root: Path, workload: Workload, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    """Run one workload for about `seconds` and return the full record."""
    started = time.perf_counter()
    drpsim, import_s = load_drpsim(root)
    runner = Runner(drpsim, workload, seed, out_dir)
    tracer = Tracer() if trace else None
    notes: list[str] = []
    blocks: list[RefBlock] = []
    ref_bad = 0

    def timed_with_reference(label: str) -> Iteration:
        nonlocal ref_bad
        b = len(blocks)
        it = runner.run(keep_rows=runner.block_rows(b))
        blocks.append(runner.reference_block(b))
        bad, why = runner.check(blocks[-1], it, label)
        ref_bad += bad
        notes.extend(why)
        return it

    try:
        warm = timed_with_reference("warm-up")
        untraced: list[Iteration] = []
        traced: list[Iteration] = []
        t0 = time.perf_counter()
        while True:
            enough = len(untraced) >= MIN_ITERATIONS and (not trace or len(traced) >= MIN_ITERATIONS)
            if enough and time.perf_counter() - t0 >= seconds:
                break
            if time.perf_counter() - started > DEADLINE_S and untraced and (traced or not trace):
                break
            if trace and len(traced) < len(untraced):
                traced.append(runner.run(tracer=tracer))
            else:
                untraced.append(timed_with_reference(f"iteration {len(untraced) + 1}"))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        runner.close()

    runs = [warm, *untraced, *traced]
    attempted = len(runs) * len(workload.kinds) * workload.reps
    failed = sum(it.failed for it in runs) + ref_bad
    for i, it in enumerate(runs[1:], start=1):
        for kind, dig in it.digests.items():
            if dig != warm.digests[kind]:
                what = "traced" if it.traced is not None else "untraced"
                notes.append(f"{what} iteration {i}: {kind} outputs differ from the warm-up run")
                failed += workload.reps
    missing = [k for k, d in warm.digests.items() for f, h in d.items() if h is None]
    notes += [f"missing output for {k}" for k in missing]
    # a replication can fail more than one check; count it once at most
    failed = min(failed, attempted)

    samples = per_iteration(untraced, blocks, workload.ref_us_nominal)
    if trace:
        samples["wall_s_traced"] = [it.wall_s for it in traced]
        noise_s, drawn = reference.noise_floor(runner.specs)
        metrics = layer_metrics(traced, untraced, import_s, noise_s, drawn)
        units = LAYER_UNITS
        tracer.write(out_dir / "spans.npz")
    else:
        metrics = e2e_metrics(samples, peak_rss_mb)
        units = E2E_UNITS
    return {
        "workload": workload.name,
        "trace": trace,
        "correct": failed == 0 and not notes,
        "attempted": attempted,
        "failed": failed,
        "notes": notes,
        "samples": {"untraced": len(untraced), "traced": len(traced), "warmup": 1},
        "rep_slots_per_iteration": warm.rep_slots,
        "ref_rep_slots_per_block": blocks[0].rep_slots,
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
        "sampling": {k: SAMPLING.get(k, "median of {n}").format(n=len(traced if trace else untraced)) for k in units},
        "digests": warm.digests,
        "provenance": provenance(root, seed),
        "raw": dict(samples),
    }


def print_record(record: dict) -> None:
    """Human-readable lines, then the JSON result object as the last line."""
    print(f"workload {record['workload']} trace={int(record['trace'])} seed={record['provenance']['seed']}")
    for key, val in record["provenance"].items():
        print(f"  provenance.{key} = {val}")
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']!r} {m['unit']} ({record['sampling'][name]})")
    if not record["trace"]:
        # measured seconds, for reading; the result line carries the relative figures
        for name, unit in RAW_UNITS.items():
            print(f"  measured {name} = {_median(record['raw'][name])!r} {unit} (median of {len(record['raw'][name])})")
        print(
            f"  base: {record['rep_slots_per_iteration']} replication-slots per iteration, "
            f"{record['ref_rep_slots_per_block']} per reference block"
        )
    ratio = record["failed"] / record["attempted"]
    print(f"  failed_ratio = {ratio!r} ({record['failed']} failed of {record['attempted']} replications attempted)")
    for note in record["notes"]:
        print(f"  FAIL {note}")
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": record["metrics"],
            }
        )
    )


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("root", type=Path)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    record = measure(args.root, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), args.out)
    (args.out / f"record-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
