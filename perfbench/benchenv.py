"""Where the benchmark finds the program and writes its files.

Every benchmark script imports this module first.  It locates the checkout
(the parent of this directory), puts ``<checkout>/src`` at the front of
``sys.path`` so that the program under test is the one in the checkout, and
names the output directory, which is the only place the benchmark writes.
"""

import os
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"


class MissingProgram(RuntimeError):
    """The checkout holds no mlpoly sources to benchmark."""


def use_checkout():
    """Import mlpoly from ``<checkout>/src`` or raise :class:`MissingProgram`."""
    if not (SRC / "mlpoly" / "__init__.py").is_file():
        raise MissingProgram(f"no mlpoly package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import mlpoly

    if Path(mlpoly.__file__).resolve().parent != SRC / "mlpoly":
        raise MissingProgram(f"mlpoly was imported from {mlpoly.__file__}, not from {SRC}")
    return mlpoly


def child_env():
    """Environment for child interpreters: the checkout's sources come first."""
    env = dict(os.environ)
    extra = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + extra if extra else "")
    return env


def work_dir():
    """Scratch directory for files the workloads write (created on demand)."""
    path = OUT / "work"
    path.mkdir(parents=True, exist_ok=True)
    return path
