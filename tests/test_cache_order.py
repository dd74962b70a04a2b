"""What a cache already holds changes no output.

The polynomial layer shares rows and tables across calls through
``functools.lru_cache``.  A shared row could go wrong in three ways: a
caller changes a cached mutable row, a key omits an input that the row
reads, or a result depends on which entries the cache holds.  Each would
show only after many in-process operations with fresh parameters, so this
test runs such a sequence and compares every output with the same command
run on empty caches.
"""

import random
import sys

from mlpoly import cli


def _lru_caches():
    """Every ``functools.lru_cache`` function of a loaded mlpoly module."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == "mlpoly" or name.startswith("mlpoly."):
            for attr, value in vars(module).items():
                if hasattr(value, "cache_info") and hasattr(value, "cache_clear"):
                    found[f"{name}.{attr}"] = value
    return found


SOLVE_SHAPES = [
    (problem, grid_var, False)
    for problem in ("tf-diffusion", "case-i", "case-ii", "laguerre-monomial", "laguerre-wright")
    for grid_var in ("x", "t")
] + [("tf-diffusion", "x", True)]


def _solve_argv(rng, problem, grid_var, use_coeffs, fmt, path):
    """One solve command of the given shape with fresh seeded parameters."""
    u = rng.uniform
    argv = ["solve", "--problem", problem, "--alpha", repr(u(0.3, 0.9))]
    if problem.startswith("laguerre"):
        argv += ["--beta", repr(u(0.5, 0.95)), "--b", repr(u(0.5, 1.5))]
        argv += ["--n", "12"] if problem == "laguerre-monomial" else ["--y-param", repr(u(0.3, 1.0))]
        lo = 0.0
    else:
        argv += ["--k", repr(u(0.5, 2.0))]
        if use_coeffs:
            argv.append("--coeffs=" + ",".join(repr(u(-1.0, 1.0)) for _ in range(6)))
        else:
            argv += ["--n", "12"]
        if problem != "tf-diffusion":
            argv += ["--a", repr(u(0.2, 1.0))]
        lo = -2.0
    if grid_var == "x":
        argv += ["--t", repr(u(0.2, 1.5)), f"--grid-min={lo!r}", "--grid-max=2.0"]
    else:
        argv += ["--x", repr(u(max(lo, -1.5), 1.5)), "--grid-min=0.05", "--grid-max=2.0"]
    return argv + ["--grid-var", grid_var, "--grid-points", "201", "--format", fmt,
                   "--output", str(path)]


def _clear_every_cache():
    for cached in _lru_caches().values():
        cached.cache_clear()


def test_outputs_do_not_depend_on_what_the_caches_hold(tmp_path, capsys):
    # a warm process (the verify sweeps, then many solves with fresh parameters)
    # writes the same bytes as a process whose caches start empty
    assert cli.run(["verify", "--suite", "all", "--seed", "0"]) == 0
    rng = random.Random(2024)
    commands = []
    for round_ in range(3):
        for i, (problem, grid_var, use_coeffs) in enumerate(SOLVE_SHAPES):
            fmt = ("csv", "json")[(i + round_) % 2]
            path = tmp_path / f"warm-{round_}-{i}.{fmt}"
            argv = _solve_argv(rng, problem, grid_var, use_coeffs, fmt, path)
            assert cli.run(argv) == 0, argv
            commands.append((argv, path))
    for argv, path in commands:
        _clear_every_cache()
        cold = path.with_name("cold-" + path.name)
        assert cli.run(argv[:-1] + [str(cold)]) == 0, argv
        assert cold.read_bytes() == path.read_bytes(), argv
    capsys.readouterr()
