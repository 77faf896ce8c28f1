"""Golden output manifest: small CLI runs and the SHA-256 of what they write.

Each run calls drpsim.cli.main in-process from a temporary working
directory with a relative --out, so no output or stdout line holds a
machine path. For every output file, and for the run's stdout, the
manifest records the SHA-256 of the bytes, the SHA-256 of the text with
each number replaced by '#' (its skeleton), and the numbers themselves.
tests/test_golden.py compares bytes when the provenance below matches
the current interpreter and falls back to the skeleton and the numbers
at 1e-12 relative when it does not.

An intended output change regenerates the manifest in the same commit:

    PYTHONPATH=src python tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
from numpy._core._multiarray_umath import __cpu_features__

from drpsim.cli import main

MANIFEST = Path(__file__).with_name("manifest.json")

CONFIG = "n_users = 20\nhorizon = 40\nreps = 4\nseed = 7\n"

#: (run name, CLI arguments before --config/--out, extra config lines)
RUNS = (
    ("sweep", ["sweep"], ""),
    ("regret", ["regret"], ""),
    ("regret-reps1", ["regret", "--reps", "1"], ""),
    ("regret-paramset2", ["regret", "--experiment", "paramset2"], ""),
    ("regret-ridge0", ["regret"], "ridge = 0\n"),
    ("simulate", ["simulate"], ""),
    ("offline", ["offline"], ""),
)

#: relative tolerance of the value comparison on another platform
RTOL = 1e-12

_NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|Infinity|inf)|NaN|nan")


def provenance() -> dict:
    """The versions and CPU features that byte identity depends on."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_features": sorted(k for k, on in __cpu_features__.items() if on),
    }


def describe(data: bytes) -> dict:
    """Digest of the bytes, digest of the number-free skeleton, and the numbers."""
    text = data.decode()
    return {
        "sha256": hashlib.sha256(data).hexdigest(),
        "skeleton_sha256": hashlib.sha256(_NUMBER.sub("#", text).encode()).hexdigest(),
        "values": [float(token) for token in _NUMBER.findall(text)],
    }


def run_all() -> dict:
    """Run every RUNS entry in the current directory; {run: {exit, files}}.

    Files are keyed by their path under the run's --out directory, with
    the run's stdout as "stdout".
    """
    records = {}
    for name, args, extra in RUNS:
        config = Path(f"{name}.cfg")
        config.write_text(CONFIG + extra)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            status = main([*args, "--config", str(config), "--out", name])
        files = {"stdout": describe(stdout.getvalue().encode())}
        out_dir = Path(name)
        if out_dir.is_dir():
            for path in sorted(out_dir.rglob("*")):
                if path.is_file():
                    files[path.relative_to(out_dir).as_posix()] = describe(path.read_bytes())
        records[name] = {"exit": status, "files": files}
    return records


def values_close(got: list, want: list) -> bool:
    """Equal lengths, and each pair equal, both nan, or within RTOL relative."""
    return len(got) == len(want) and all(
        a == b or (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=RTOL)
        for a, b in zip(got, want)
    )


def compare(manifest: dict, runs: dict) -> list[str]:
    """Each run or run/file of runs that differs from manifest, is new or is missing.

    Digests are compared as bytes when the manifest's provenance is this
    interpreter's, else as skeletons and values_close numbers. An empty
    list means runs reproduce the manifest, order of runs and files too.
    """
    same_platform = manifest["provenance"] == provenance()
    want_runs = manifest["runs"]
    found = []
    for name in {**want_runs, **runs}:  # the manifest's order, then new runs
        if name not in runs or name not in want_runs:
            found.append(f"{name} ({'missing' if name not in runs else 'new'})")
            continue
        got, want = runs[name], want_runs[name]
        if got["exit"] != want["exit"]:
            found.append(f"{name}: exit {got['exit']}, manifest {want['exit']}")
        for path in {**want["files"], **got["files"]}:
            new, old = got["files"].get(path), want["files"].get(path)
            if new is None or old is None:
                found.append(f"{name}/{path} ({'missing' if new is None else 'new'})")
                continue
            if same_platform:
                same = new["sha256"] == old["sha256"]
            else:
                same = new["skeleton_sha256"] == old["skeleton_sha256"] and values_close(
                    new["values"], old["values"]
                )
            if not same:
                found.append(f"{name}/{path} (differs)")
    if not found and [(n, list(r["files"])) for n, r in runs.items()] != [
        (n, list(r["files"])) for n, r in want_runs.items()
    ]:
        found.append("runs or files in another order than the manifest's")
    return found


def _dump(manifest: dict) -> str:
    """JSON with one line per file record, so a changed digest shows as one diff line."""
    lines = ["{", f'  "provenance": {json.dumps(manifest["provenance"])},', '  "runs": {']
    runs = list(manifest["runs"].items())
    for i, (name, record) in enumerate(runs):
        lines.append(f'    {json.dumps(name)}: {{"exit": {record["exit"]}, "files": {{')
        files = list(record["files"].items())
        for j, (path, entry) in enumerate(files):
            comma = "," if j < len(files) - 1 else ""
            lines.append(f"      {json.dumps(path)}: {json.dumps(entry)}{comma}")
        lines.append("    }}" + ("," if i < len(runs) - 1 else ""))
    lines += ["  }", "}"]
    return "\n".join(lines) + "\n"


def write_manifest() -> None:
    for var in ("DRPSIM_SEED", "DRPSIM_OUT"):
        os.environ.pop(var, None)
    cwd = Path.cwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            runs = run_all()
        finally:
            os.chdir(cwd)
    MANIFEST.write_text(_dump({"provenance": provenance(), "runs": runs}))
    print(f"wrote {MANIFEST}", file=sys.stderr)


if __name__ == "__main__":
    write_manifest()
