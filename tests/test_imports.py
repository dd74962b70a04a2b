"""What the package imports.

Every name a module imports is used in that module: an unused import loads a
module for nothing and hides what a file really depends on.  ``__init__.py``
files are exempt: their imports are re-exports.  scipy is not a dependency,
and numpy is imported only inside the functions that use it, so the
computing commands never load either.
"""

import ast
import os
import subprocess
import sys
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


_COLD_COMMANDS = """
import contextlib, io, sys
import mlpoly, mlpoly.cli
argvs = [
    ["eval-ml", "--alpha", "0.5", "--beta", "1.2", "--gamma", "0.7", "--z", "1.5"],
    ["eval-fhp", "--n", "6", "--alpha", "0.5", "--x", "0.7", "--y", "0.9"],
    ["eval-mlp", "--n", "6", "--alpha", "0.5", "--beta", "1.2", "--x", "0.7", "--y", "0.9"],
    ["table", "--family", "mlp", "--alpha", "0.5", "--n-max", "4"],
    ["solve", "--problem", "laguerre-wright", "--y-param", "0.5", "--alpha", "0.5",
     "--beta", "0.7", "--t", "0.5", "--grid-min", "0", "--grid-max", "1", "--grid-points", "5"],
    ["solve", "--problem", "case-ii", "--n", "6", "--a", "0.5", "--alpha", "0.5", "--grid-var", "t",
     "--x", "0.5", "--grid-min", "0.1", "--grid-max", "1", "--format", "csv"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [mlpoly.cli.run(argv) for argv in argvs]
print(codes, sorted({name.partition(".")[0] for name in sys.modules} & {"numpy", "scipy"}))
"""


def test_computing_commands_load_neither_numpy_nor_scipy():
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _COLD_COMMANDS], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[0, 0, 0, 0, 0, 0] []"


def test_scipy_is_named_nowhere():
    # neither a dependency in pyproject.toml nor an import, comment or
    # docstring in the package
    for path in [ROOT / "pyproject.toml"] + MODULES:
        if path.parent.name != "tests":
            assert "scipy" not in path.read_text(encoding="utf-8"), path.name
