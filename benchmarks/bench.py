"""drpsim benchmark: cost per replication-slot, end to end and per module.

Run from the root of a checkout:

    python3 benchmarks/bench.py --workload grid-t100 --seed 42 --seconds 45 --trace 0
    python3 benchmarks/bench.py            # every workload, untraced then traced

Each workload runs in a fresh child process (benchmarks/worker.py), one
after another, so its CPU time and peak RSS are its own. With
--workload the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Without --workload
every workload runs twice (trace 0 and trace 1) and a table of all
metrics is printed; the full records, with provenance, per-iteration
samples and output digests, are written to --report.

The end-to-end times are multiples of the time the benchmark's own
reference loop takes for the same replication-slots, timed right before
and after each iteration (see worker.py); the measured seconds are
printed next to them. The children run with one BLAS/OpenMP thread: on
a shared 2-core host a second BLAS thread measures the scheduler, and
the reference loop it is compared with is single-threaded.

BENCHMARK.json lists sweep-t1000 and large-pop only. grid-t100 (the
T=100 acceptance cells) runs here without --workload or by name; it
is left out so that a full round of repeated runs of the listed
workloads stays under an hour. sweep-t1000 exercises every layer
grid-t100 does.

The benchmark reads and writes only inside the checkout: outputs and
span files go to .bench_out/. It exits non-zero without a result line
when the checkout has no src/drpsim to measure.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("grid-t100", "sweep-t1000", "large-pop")
CHILD_TIMEOUT_S = 170
#: thread pools of the numerical libraries, pinned to one thread in the children
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[list[str], dict] | None:
    """Run one workload in a fresh interpreter; return its stdout lines and record."""
    out = OUT / workload / f"trace{trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k not in ("DRPSIM_SEED", "DRPSIM_OUT")}
    env.update(dict.fromkeys(THREAD_ENV, "1"))
    cmd = [
        sys.executable, str(HERE / "worker.py"), str(ROOT),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--out", str(out),
    ]  # fmt: skip
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        print(f"error: {workload} did not finish within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        print(f"error: {workload} worker exited with {proc.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
        record = json.loads((out / f"record-trace{trace}.json").read_text())
    except (ValueError, OSError) as exc:
        sys.stderr.write(proc.stdout)
        print(f"error: {workload} produced no result: {exc}", file=sys.stderr)
        return None
    if set(result) != RESULT_KEYS:
        print(f"error: {workload} result has keys {sorted(result)}", file=sys.stderr)
        return None
    return lines, record


def run_all(seed: int, seconds: float, report: Path) -> int:
    records = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            got = run_child(workload, seed, seconds, trace)
            if got is None:
                return 1
            records.append(got[1])
    prov = records[0]["provenance"]
    print("provenance: " + json.dumps(prov))
    print(f"{'workload':<12} {'metric':<36} {'value':>16} unit     sampling")
    for rec in records:
        mode = "traced" if rec["trace"] else "untraced"
        for name, m in rec["metrics"].items():
            how = rec["sampling"][name]
            print(f"{rec['workload']:<12} {name:<36} {m['value']:>16.6g} {m['unit']:<8} {how}, {mode} run")
        ratio = rec["failed"] / rec["attempted"]
        print(
            f"{rec['workload']:<12} {'failed_ratio':<36} {ratio:>16.6g} ratio    "
            f"{rec['failed']} failed / {rec['attempted']} replications ({mode})"
        )
        for note in rec["notes"]:
            print(f"{rec['workload']:<12} FAIL {note}")
    for w in WORKLOADS:
        untraced, traced = (r for r in records if r["workload"] == w)
        same = untraced["digests"] == traced["digests"]
        print(f"{w:<12} traced outputs {'equal' if same else 'DIFFER from'} untraced outputs (SHA-256)")
    report.parent.mkdir(parents=True, exist_ok=True)
    report.write_text(json.dumps({"seed": seed, "seconds": seconds, "records": records}, indent=1) + "\n")
    print(f"report written to {report}")
    ok = all(r["correct"] for r in records) and all(
        a["digests"] == b["digests"] for a, b in zip(records[::2], records[1::2])
    )
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="drpsim benchmark")
    p.add_argument("--workload", choices=WORKLOADS, help="run one workload (default: all)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--report", type=Path, default=OUT / "report.json")
    args = p.parse_args(argv)
    if not (ROOT / "src" / "drpsim" / "__init__.py").is_file():
        print(f"error: no src/drpsim under {ROOT}; nothing to measure", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.report)
    got = run_child(args.workload, args.seed, args.seconds, args.trace)
    if got is None:
        return 1
    print("\n".join(got[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
