"""Every name a module imports is used in that module.

An unused import loads a module for nothing and hides what a file really
depends on.  ``__init__.py`` files are exempt: their imports are re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in (ROOT / "src" / "mlpoly", ROOT / "tests")
    for path in folder.glob("*.py") if path.name != "__init__.py"
)


def _unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_scan_sees_an_unused_import():
    assert _unused_imports("import os\nimport sys\nfrom math import pi, tau\nprint(sys, tau)\n") == [
        (1, "os"), (3, "pi")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    unused = _unused_imports(path.read_text(encoding="utf-8"))
    assert not unused, ", ".join(f"{path.name}:{line} imports {name!r} unused" for line, name in unused)
