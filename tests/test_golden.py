"""Outputs of fixed small runs against the committed golden manifest.

tests/golden/regenerate.py defines the runs and writes the manifest;
an intended output change regenerates it in the same commit, so the
diff shows which outputs moved.
"""

import importlib.util
import json
import math
import warnings
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "golden_regenerate", Path(__file__).with_name("golden") / "regenerate.py"
)
golden = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(golden)

#: relative tolerance of the value comparison on another platform
RTOL = 1e-12


def _values_close(got, want):
    return len(got) == len(want) and all(
        a == b or (math.isnan(a) and math.isnan(b)) or math.isclose(a, b, rel_tol=RTOL)
        for a, b in zip(got, want)
    )


def test_outputs_match_the_golden_manifest(tmp_path, monkeypatch):
    manifest = json.loads(golden.MANIFEST.read_text())
    monkeypatch.delenv("DRPSIM_SEED", raising=False)
    monkeypatch.delenv("DRPSIM_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    runs = golden.run_all()

    same_platform = manifest["provenance"] == golden.provenance()
    if not same_platform:
        warnings.warn(
            f"golden manifest written on {manifest['provenance']}, running on "
            f"{golden.provenance()}: comparing numbers at {RTOL} relative, not bytes",
            UserWarning,
        )
    assert list(runs) == list(manifest["runs"])
    mismatched = []
    for name, want in manifest["runs"].items():
        got = runs[name]
        assert got["exit"] == want["exit"], name
        assert list(got["files"]) == list(want["files"]), name
        for path, entry in want["files"].items():
            new = got["files"][path]
            if same_platform:
                ok = new["sha256"] == entry["sha256"]
            else:
                ok = new["skeleton_sha256"] == entry["skeleton_sha256"] and _values_close(
                    new["values"], entry["values"]
                )
            if not ok:
                mismatched.append(f"{name}/{path}")
    assert not mismatched, f"outputs differ from tests/golden/manifest.json: {mismatched}"


def test_value_comparison_tells_rounding_from_change():
    base = golden.describe(b"t,x\n1,0.1\n2,nan\n")
    rounded = golden.describe(b"t,x\n1,0.10000000000000002\n2,nan\n")
    moved = golden.describe(b"t,x\n1,0.1000000001\n2,nan\n")
    assert base["skeleton_sha256"] == rounded["skeleton_sha256"] == moved["skeleton_sha256"]
    assert base["sha256"] != rounded["sha256"]
    assert _values_close(rounded["values"], base["values"])
    assert not _values_close(moved["values"], base["values"])
    assert golden.describe(b"x\n1\n")["skeleton_sha256"] != golden.describe(b"y\n1\n")[
        "skeleton_sha256"
    ]
