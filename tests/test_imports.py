"""Every name a library module imports is read by that module.

The project runs no linter, so this stdlib-only check stands in for the
unused-import rule: it parses each ``src/gossipcf/*.py`` file and fails on
an imported name the module never uses.  ``from __future__`` imports are
exempt.  A second check keeps SciPy, whose import dominated the library's
set-up time, out of the modules the library loads until a confidence
interval needs it.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gossipcf"


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


def test_library_import_leaves_scipy_stats_unloaded():
    # A fresh interpreter: other tests in this process may have imported it.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC.parent), *sys.path]))
    modules = ", ".join(f"gossipcf.{path.stem}" for path in SRC.glob("*.py") if path.stem[0] != "_")
    probe = f"import sys, {modules}; print('scipy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
