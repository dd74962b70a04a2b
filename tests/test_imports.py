"""What the package imports.

Every name a module imports is used in that module: an unused import loads a
module for nothing and hides what a file really depends on.  The rule covers
the package, the tests, ``tools/`` and ``demos/``; ``__init__.py`` files are
exempt.  Neither scipy nor numpy is a dependency: no module of the
package imports either, so no command loads them (``verify`` draws its seeds
from a standard-library port of numpy's stream), and no test imports numpy
but the script that writes its pins.  ``import mlpoly`` loads no
submodule: each public name is loaded on first use, and each CLI command
imports only the modules it runs.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mlpoly

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path for folder in (ROOT / "src" / "mlpoly", ROOT / "tests", ROOT / "tools", ROOT / "demos")
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


_LADDER_STEP = """
import sys
from mlpoly.ml_polynomials import mlp_coeffs
from mlpoly.sheffer import appell_A_mlp, raising_apply, series_log_derivative, series_reciprocal
gd = series_log_derivative(series_reciprocal(appell_A_mlp(0.5, 1.2, 0.6, 8)))
print([raising_apply(mlp_coeffs(n, 0.5, 1.2, 0.6), gd).degree() for n in range(8)],
      "numpy" in sys.modules)
"""


def test_the_sheffer_ladder_runs_without_numpy():
    # its recurrences are exact integer sums, rounded once
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _LADDER_STEP], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0] False"


def test_scipy_is_named_nowhere():
    # neither a dependency in pyproject.toml nor an import, comment or
    # docstring in the package
    for path in [ROOT / "pyproject.toml"] + MODULES:
        if path.parent.name != "tests":
            assert "scipy" not in path.read_text(encoding="utf-8"), path.name


# Run in a fresh interpreter: one CLI command (or none), then the mlpoly
# submodules and the standard modules of interest that the process loaded.
_FOOTPRINT = """
import contextlib, io, json, sys
import mlpoly
if sys.argv[1:]:
    import mlpoly.cli
    with contextlib.redirect_stdout(io.StringIO()):
        code = mlpoly.cli.run(sys.argv[1:])
    assert code == 0, code
print(json.dumps(sorted(name for name in sys.modules
                        if name.startswith("mlpoly.") or name in ("dataclasses", "numbers", "numpy"))))
"""

_ML = ["errors", "config", "_validate", "gamma_core", "mittag_leffler", "cli"]
_FHP = ["errors", "config", "_validate", "gamma_core", "fracpoly", "fractional_hermite", "cli"]
_MLP = _ML + ["fracpoly", "caputo", "ml_polynomials"]
_SOLVE = _ML + ["fracpoly", "caputo", "fractional_hermite", "fokker_planck"]
_VERIFY = _SOLVE + ["ml_polynomials", "sheffer", "_pcg", "verify"]


@pytest.mark.parametrize("argv, modules", [
    ([], []),
    (["eval-ml", "--alpha", "0.5", "--beta", "1.2", "--z", "1.5"], _ML),
    (["eval-fhp", "--n", "6", "--alpha", "0.5", "--x", "0.7", "--y", "0.9"], _FHP),
    (["table", "--family", "fhp", "--alpha", "0.5", "--n-max", "4"], _FHP),
    (["eval-mlp", "--n", "6", "--alpha", "0.5", "--beta", "1.2", "--x", "0.7", "--coeffs"], _MLP),
    (["table", "--family", "mlp", "--alpha", "0.5", "--n-max", "4"], _MLP),
    (["solve", "--problem", "case-i", "--n", "4", "--a", "0.5", "--alpha", "0.5", "--t", "0.5",
      "--grid-min", "0", "--grid-max", "1", "--grid-points", "3"], _SOLVE),
    # every module, and still not numpy
    (["verify", "--suite", "all"], _VERIFY),
], ids=["import", "eval-ml", "eval-fhp", "table-fhp", "eval-mlp", "table-mlp", "solve", "verify"])
def test_a_command_loads_only_what_it_runs(argv, modules):
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *argv], capture_output=True,
                          text=True, env=env, check=True)
    assert json.loads(proc.stdout) == sorted(f"mlpoly.{name}" for name in modules)


def _imported_modules(source):
    """The top-level names of the modules a source imports, at any depth of its code."""
    tree = ast.parse(source)
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names}
    imported |= {node.module for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 0}
    return {name.partition(".")[0] for name in imported}


def test_the_scan_sees_a_nested_import():
    source = "import os.path\ndef f():\n    from numpy.random import default_rng\nfrom . import x\n"
    assert _imported_modules(source) == {"os", "numpy"}


def test_no_module_imports_dataclasses():
    # a dataclass costs its module the import of dataclasses (and inspect)
    # and a generated class at import time; the records are named tuples
    for path in (ROOT / "src" / "mlpoly").glob("*.py"):
        assert "dataclasses" not in _imported_modules(path.read_text(encoding="utf-8")), path.name


def test_only_the_cli_imports_json():
    # the CLI formats every byte it prints; a record's data is its fields
    importers = [path.name for path in sorted((ROOT / "src" / "mlpoly").glob("*.py"))
                 if "json" in _imported_modules(path.read_text(encoding="utf-8"))]
    assert importers == ["cli.py"]


def test_no_module_imports_numpy():
    # numpy is no dependency: verify and the tests draw from mlpoly._pcg, and
    # the tests read numpy's values from the pins that tests/numpy_pins.py wrote
    paths = [*(ROOT / "src" / "mlpoly").glob("*.py"), *(ROOT / "tests").glob("*.py")]
    for path in paths:
        if path.name != "numpy_pins.py":
            assert "numpy" not in _imported_modules(path.read_text(encoding="utf-8")), path.name


# -- the public surface ----------------------------------------------------------


def test_every_public_name_is_its_defining_modules_attribute():
    for name in mlpoly.__all__:
        value = getattr(mlpoly, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name


def test_dir_lists_every_public_name():
    assert {*mlpoly.__all__, "__version__"} <= set(dir(mlpoly))


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from mlpoly import *", namespace)
    assert set(mlpoly.__all__) <= set(namespace)
    assert namespace["ml_one"] is mlpoly.ml_one
    with pytest.raises(AttributeError, match="no_such_name"):
        mlpoly.no_such_name  # noqa: B018
    from mlpoly import config

    assert config.SERIES_TOL > 0
