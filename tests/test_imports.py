"""Every name a module imports is read by that module.

The project runs no linter, so this stdlib-only check stands in for the
unused-import rule: it parses each ``src/gossipcf/*.py``, ``tests/*.py`` and
``scripts/*.py`` file and fails on an imported name the module never uses.
``from __future__`` imports are exempt.  Two more checks keep SciPy, whose
import once dominated the library's set-up time and a tenth of its memory,
out of the library: no module loads it on import, and neither does an
experiment, a loss sweep or the CLI's baseline, which all compute
confidence intervals.
"""

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gossipcf"


def unused_imports(source: str) -> list[str]:
    """``"line N: name"`` for each imported name the source never reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Any, List\n"
        "def f(x: Any) -> None:\n"
        "    from math import pi\n"
        "    return np.float64(pi)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: List"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_library_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize(
    "path",
    sorted([*(ROOT / "tests").glob("*.py"), *(ROOT / "scripts").glob("*.py")]),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_test_and_script_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def _loads_scipy(probe: str) -> bool:
    """Whether ``probe``, run in a fresh interpreter, leaves SciPy loaded:
    other tests in this process may have imported it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), *sys.path]))
    probe += "\nimport sys\nprint('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    return out.stdout.splitlines()[-1] == "True"


def test_library_import_leaves_scipy_stats_unloaded():
    modules = ", ".join(f"gossipcf.{path.stem}" for path in SRC.glob("*.py") if path.stem[0] != "_")
    assert not _loads_scipy(f"import {modules}")


def test_confidence_intervals_leave_scipy_unloaded(tmp_path):
    data, out = tmp_path / "ratings.data", tmp_path / "out"
    probe = textwrap.dedent(f"""
        from gossipcf import cli, harness
        from gossipcf.engine import SimConfig
        from gossipcf.recommend import RatingMatrix
        from gossipcf.synth import generate_ratings, write_ratings_file

        ratings = generate_ratings(n_users=80, n_items=300, target_ratings=4000, seed=5)
        write_ratings_file({str(data)!r}, ratings)
        matrix = RatingMatrix(ratings)
        config = SimConfig(n_peers=80, cache_size=8, cycles=2, seed=1)
        assert harness.run_experiment(config, matrix, 2).ci_half
        assert harness.churn_sweep(config, matrix, [10.0], 2, at_cycle=1)
        argv = ["baseline", "--data", {str(data)!r}, "--trials", "2", "--cache-size", "8"]
        assert cli.main([*argv, "--out", {str(out)!r}]) == 0
    """)
    assert not _loads_scipy(probe)
    assert "ci95" in (out / "baseline.csv").read_text()
