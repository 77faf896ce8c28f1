"""The package's exported names resolve, its imports are used, and the demos run."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import drpsim

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10
    tomllib = None

MODULES = ["drpsim"] + [
    f"drpsim.{m.name}"
    for m in pkgutil.iter_modules(drpsim.__path__)
    if not m.name.startswith("_")
]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SOURCES = sorted(Path(drpsim.__file__).resolve().parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = PYPROJECT.with_name("README.md")


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    assert {name: line for name, line in imported.items() if name not in used} == {}


def test_readme_module_map_names_exactly_the_modules():
    section = README.read_text().split("\n## Module map\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `drpsim\.(\w+)`", section, flags=re.MULTILINE)
    modules = [p.stem for p in SOURCES if p.stem not in ("__init__", "__main__")]
    assert sorted(rows) == sorted(modules)


def _imported_packages(path):
    """The top-level package of every absolute import in a source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def _third_party(paths):
    """Top-level names paths import that are neither the standard library nor drpsim."""
    imported = set().union(*map(_imported_packages, paths))
    # tomllib joined the standard library in 3.11; on 3.10 the tests fall back to tomli
    return imported - set(sys.stdlib_module_names) - {"tomllib", "drpsim"}


def _declared(requirements):
    """Import names of requirement strings: each package installs under its import name."""
    return {re.match(r"[\w.-]+", r).group().lower().replace("-", "_") for r in requirements}


@pytest.fixture(scope="module")
def project():
    toml = tomllib or pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as f:
        return toml.load(f)["project"]


def test_third_party_imports_are_declared_dependencies(project):
    # both ways: drpsim imports nothing undeclared, and every dependency is imported
    assert _third_party(SOURCES) == _declared(project["dependencies"])


def test_test_and_benchmark_imports_are_declared(project):
    root = PYPROJECT.parent
    paths = [*(root / "tests").rglob("*.py"), *(root / "benchmarks").rglob("*.py")]
    local = {p.stem for p in paths}  # conftest, reference, spans, worker, ...
    used = _third_party(paths) - local
    assert {"numpy", "pytest", "hypothesis"} <= used
    declared = _declared(project["dependencies"] + project["optional-dependencies"]["test"])
    assert used - declared == set()


def test_demos_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    src = str(Path(drpsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(demo)], env=env, capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
