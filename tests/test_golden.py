"""Outputs of fixed small runs against the committed golden manifest.

tests/golden/regenerate.py defines the runs, writes the manifest and
compares runs with it (compare); an intended output change regenerates
it in the same commit, so the diff shows which outputs moved.
"""

import importlib.util
import json
import warnings
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).with_name("golden") / "regenerate.py"
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)


def test_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
    manifest = json.loads(golden.MANIFEST.read_text())
    monkeypatch.delenv("DRPSIM_SEED", raising=False)
    monkeypatch.delenv("DRPSIM_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    runs = golden.run_all()

    if manifest["provenance"] != golden.provenance():
        warnings.warn(
            f"golden manifest written on {manifest['provenance']}, running on "
            f"{golden.provenance()}: comparing numbers at {golden.RTOL} relative, not bytes",
            UserWarning,
        )
    found = golden.compare(manifest, runs)
    assert not found, f"outputs differ from tests/golden/manifest.json: {found}"
    # simulate is a one-replication regret run: same files, same bytes
    want = manifest["runs"]
    for name in ("trajectory.csv", "summary.json"):
        simulated = want["simulate"]["files"][name]["sha256"]
        assert simulated == want["regret-reps1"]["files"][name]["sha256"], name


def test_value_comparison_tells_rounding_from_change():
    base = golden.describe(b"t,x\n1,0.1\n2,nan\n")
    rounded = golden.describe(b"t,x\n1,0.10000000000000002\n2,nan\n")
    moved = golden.describe(b"t,x\n1,0.1000000001\n2,nan\n")
    assert base["skeleton_sha256"] == rounded["skeleton_sha256"] == moved["skeleton_sha256"]
    assert base["sha256"] != rounded["sha256"]
    assert golden.values_close(rounded["values"], base["values"])
    assert not golden.values_close(moved["values"], base["values"])
    assert golden.describe(b"x\n1\n")["skeleton_sha256"] != golden.describe(b"y\n1\n")[
        "skeleton_sha256"
    ]
