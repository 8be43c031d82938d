"""What the package imports.

There is no linter in the toolchain, so this scan keeps dead imports
out of ``src/ghtree``: a name bound by ``import``/``from ... import``
must appear as a name in the module's code or in its ``__all__``.
``from __future__`` imports are skipped. The package also imports no
third-party module: numpy is a test-only reference. Nor does importing
it load ``dataclasses`` or ``statistics``, whose import costs more than
the package uses of them.
"""

from __future__ import annotations

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "ghtree"


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text(), str(path))) == []


def test_scan_flags_an_unused_name():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\n"
        "from .graph import Graph, cut_weight\n"
        "from .dp import Rng\n"
        "__all__ = ['Rng']\n"
        "def f(g: Graph):\n"
        "    return os.path.join\n"
    )
    assert unused_imports(tree) == ["cut_weight (line 3)"]


@pytest.mark.parametrize("module", ["numpy", "dataclasses", "statistics"])
def test_package_and_cli_import_without(module):
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import ghtree, ghtree.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == sys.argv[2]))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code, str(SRC.parent), module], capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"
