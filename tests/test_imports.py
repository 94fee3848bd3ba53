"""Every name a module imports is read by that module.

The project runs no linter, so this stdlib-only check stands in for the
unused-import rule: it parses each ``src/gossipcf/*.py``, ``tests/*.py`` and
``scripts/*.py`` file and fails on an imported name the module never uses.
``from __future__`` imports are exempt.  For the same reason a second check
stands in for a dead-code rule: every module-level private name (``_name``,
not a dunder) that a library module defines must be read by some library
module, so a helper left behind by a refactor fails it.  Two more checks
keep SciPy, whose
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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``"module line N: name"`` for each module-level private name that one of
    ``sources`` (module name to source) defines and none of them reads.  A
    name counts as read where it is loaded, named as an attribute or
    imported."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, node.lineno, name) for name in names
                        if name[:1] == "_" and not (name[:2] == "__" == name[-2:])]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return sorted(f"{module} line {line}: {name}" for module, line, name in defined
                  if name not in read)


def test_unread_private_names_are_found():
    sources = {
        "a.py": "_used, _dead = 1, 2\n__all__ = []\ndef _helper():\n    return _used\n"
                "class _Gone:\n    pass\n",
        "b.py": "from .a import _helper\n_helper()\n",
    }
    assert unread_private_names(sources) == ["a.py line 1: _dead", "a.py line 5: _Gone"]


def test_library_reads_every_private_name():
    sources = {path.name: path.read_text() for path in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


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
