"""The four workloads: inputs drawn from a seed, the operation each input
drives, and the checks made on every output outside the timed region.

A workload hands out its operations in rounds.  Every round holds the same
kinds of operation in the same numbers, and a run always completes the
round it has started, so the mix of a run never depends on how long it was.

Each workload object offers

* ``kinds``: the operation kinds, in the order a round lists them;
* ``next_round()``: the next round of operations, ``(kind, payload)`` pairs;
* ``execute(op)``: the operation itself, the only timed part;
* ``inspect(op, out)``: checks on one output, returning an :class:`Outcome`;
* ``oracle_problems()``: the comparisons against mpmath, made after the
  timed loop on the outputs ``inspect`` set aside.

Import :mod:`benchenv` (which puts the checkout's ``src`` on ``sys.path``)
before this module.
"""

import contextlib
import csv
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass

import mlpoly

import benchenv

EPS = 2.220446049250313e-16


@dataclass
class Outcome:
    """What ``inspect`` found: ``problem`` is None when the output is right.

    ``expected`` marks a failure that the benchmark knows and keeps on
    purpose; any other failure makes the run incorrect.
    """

    points: int = 1
    out_bytes: int = 0
    problem: str = None
    expected: bool = False
    checks: int = 0          # identity checks the operation ran (verify)
    failed_checks: int = 0


class _Reservoir:
    """Uniform sample of at most ``size`` items per kind, reproducible from a seed."""

    def __init__(self, seed, size):
        self._rng = random.Random(seed)
        self._size = size
        self._seen = {}
        self.items = {}

    def offer(self, kind, item):
        seen = self._seen.get(kind, 0) + 1
        self._seen[kind] = seen
        bucket = self.items.setdefault(kind, [])
        if len(bucket) < self._size:
            bucket.append(item)
        else:
            slot = self._rng.randrange(seen)
            if slot < self._size:
                bucket[slot] = item

    def all(self):
        for bucket in self.items.values():
            yield from bucket


def _within(value, ref, tol):
    return math.isfinite(value) and abs(value - ref) <= tol


# -- series-eval -------------------------------------------------------------------


class SeriesEval:
    """In-process calls of the six series evaluators, each on fresh parameters.

    The ranges keep every draw inside the domain where the series certifies
    its result (no ``ConvergenceError``); see README.md for the ranges.
    """

    name = "series-eval"
    kinds = ("ml_one", "ml_two", "ml_three", "wright", "relaxation_cole_cole", "relaxation_hn")
    #: rounds per block; the run's fastest blocks give its undisturbed speed
    block_rounds = 50
    oracle_samples_per_kind = 60
    closed_form_points = 5

    def __init__(self, seed):
        self._rng = random.Random(f"{self.name}:{seed}")
        self._sample = _Reservoir(f"{self.name}:sample:{seed}", self.oracle_samples_per_kind)
        self._seed = seed

    def _draw(self, kind):
        u = self._rng.uniform
        alpha = u(0.3, 1.0)
        if kind == "ml_one":
            return (alpha, u(-1.2, 2.5))
        if kind == "ml_two":
            return (alpha, u(0.5, 2.0), u(-1.2, 2.5))
        if kind == "ml_three":
            return (alpha, u(0.5, 2.0), u(0.5, 2.0), u(-1.0, 2.0))
        if kind == "wright":
            return (alpha, u(0.5, 2.0), u(-3.0, 3.0))
        tau = u(0.5, 2.0)
        t = tau * u(0.0, 1.2)
        if kind == "relaxation_cole_cole":
            return (alpha, tau, t)
        return (alpha, u(0.3, 1.0), tau, t)

    def next_round(self):
        return [(kind, self._draw(kind)) for kind in self.kinds]

    def execute(self, op):
        kind, args = op
        return getattr(mlpoly, kind)(*args)

    def inspect(self, op, out):
        kind, args = op
        if kind.startswith("relaxation"):
            # both relaxation functions are completely monotone from 1 at t = 0
            ok = math.isfinite(out) and 0.0 < out <= 1.0 + 4 * EPS
            problem = None if ok else f"{kind}{args} = {out!r} outside (0, 1]"
            estimate = None
        else:
            value, estimate, terms = out.value, out.abs_error_estimate, out.terms_used
            ok = math.isfinite(value) and math.isfinite(estimate) and estimate >= 0.0 and terms >= 1
            problem = None if ok else f"{kind}{args} returned {out!r}"
            out = value
        if problem is None:
            self._sample.offer(kind, (kind, args, out, estimate))
        return Outcome(points=1, problem=problem)

    def oracle_problems(self):
        import oracles

        problems = []
        for kind, args, value, estimate in self._sample.all():
            if kind == "ml_one":
                ref, _ = oracles.ml_two(args[0], 1.0, args[1])
            elif kind == "ml_two":
                ref, _ = oracles.ml_two(*args)
            elif kind == "ml_three":
                ref, _ = oracles.prabhakar(*args)
            elif kind == "wright":
                ref, _ = oracles.wright(*args)
            elif kind == "relaxation_cole_cole":
                alpha, tau, t = args
                ref, _ = oracles.cole_cole(alpha, tau, t)
                # the float result carries no estimate; use the one of the series behind it
                estimate = mlpoly.ml_one(alpha, -((t / tau) ** alpha)).abs_error_estimate
            else:
                alpha, beta, tau, t = args
                ref, _ = oracles.havriliak_negami(alpha, beta, tau, t)
                u = (t / tau) ** alpha
                inner = mlpoly.ml_three(alpha, 1.0 + alpha * beta, beta, -u) if t > 0 else None
                estimate = (u ** beta * inner.abs_error_estimate if inner else 0.0) + 4 * EPS
            if not _within(value, ref, estimate):
                problems.append(
                    f"{kind}{args} = {value!r}, mpmath {ref!r}, |diff| {abs(value - ref):.3e}"
                    f" > estimate {estimate:.3e}"
                )
        problems.extend(self._closed_form_problems())
        return problems

    def _closed_form_problems(self):
        """E_1(z) = e^z, E_2(-x^2) = cos x and E_{1/2}(-x) = e^{x^2} erfc(x)."""
        import oracles

        rng = random.Random(f"{self.name}:closed:{self._seed}")
        problems = []
        for _ in range(self.closed_form_points):
            z, x, v = rng.uniform(-2.0, 3.0), rng.uniform(0.0, 3.0), rng.uniform(0.0, 2.0)
            for alpha, arg, ref in ((1.0, z, oracles.exp(z)),
                                    (2.0, -x * x, oracles.cos(x)),
                                    (0.5, -v, oracles.exp_sq_erfc(v))):
                result = mlpoly.ml_one(alpha, arg)
                if not _within(result.value, ref, result.abs_error_estimate):
                    problems.append(
                        f"closed form E_{alpha}({arg!r}) = {result.value!r}, expected {ref!r}"
                    )
        return problems


# -- solve-grid ----------------------------------------------------------------------

SOLVE_PROBLEMS = ("tf-diffusion", "case-i", "case-ii", "laguerre-monomial", "laguerre-wright")
SOLVE_POINTS = 1001
SOLVE_N = 12


def _solve_variants():
    """(problem, grid variable, format, series datum) of each operation of a round.

    Every problem runs on both grid variables, the two formats alternating
    between problems, plus the series datum once.
    """
    out = []
    for i, problem in enumerate(SOLVE_PROBLEMS):
        formats = ("csv", "json") if i % 2 == 0 else ("json", "csv")
        for grid_var, fmt in zip(("x", "t"), formats):
            out.append((problem, grid_var, fmt, False))
    out.append(("tf-diffusion", "x", "json", True))
    return tuple(out)


def _num(value):
    return repr(float(value))


class SolveGrid:
    """In-process ``mlpoly.cli.run(["solve", ...])`` writing each grid to a file.

    A round covers every problem on both grid variables, both formats, and
    the series datum (``--coeffs``) once.  Every operation draws fresh
    parameters, so only the points of one grid share them.
    """

    name = "solve-grid"
    variants = _solve_variants()
    kinds = tuple(f"{p}/{g}/{f}{'/coeffs' if c else ''}" for p, g, f, c in variants)
    block_rounds = None
    oracle_points_per_op = 2

    def __init__(self, seed, points=SOLVE_POINTS):
        self._rng = random.Random(f"{self.name}:{seed}")
        self._check_rng = random.Random(f"{self.name}:check:{seed}")
        self._points = points
        self._samples = []
        self._dir = benchenv.work_dir()
        self._cli = importlib.import_module("mlpoly.cli")

    def _params(self, problem, grid_var, use_coeffs):
        u = self._rng.uniform
        p = {"alpha": u(0.3, 0.9)}
        if problem in ("tf-diffusion", "case-i", "case-ii"):
            p["k"] = u(0.5, 2.0)
            if use_coeffs:
                p["coeffs"] = tuple(u(-1.0, 1.0) for _ in range(6))
            else:
                p["n"] = SOLVE_N
            if problem != "tf-diffusion":
                p["a"] = u(0.2, 1.0)
            lo, hi = -2.0, 2.0
        else:
            p["beta"] = u(0.5, 0.95)
            p["b"] = u(0.5, 1.5)
            if problem == "laguerre-monomial":
                p["n"] = SOLVE_N
            else:
                p["y_param"] = u(0.3, 1.0)
            lo, hi = 0.0, 2.0
        if grid_var == "x":
            p["t"] = u(0.2, 1.5)
            p["grid"] = (lo, hi)
        else:
            p["x"] = u(max(lo, -1.5), 1.5)
            p["grid"] = (0.05, 2.0)
        return p

    def next_round(self):
        ops = []
        for kind, (problem, grid_var, fmt, use_coeffs) in zip(self.kinds, self.variants):
            params = self._params(problem, grid_var, use_coeffs)
            ops.append((kind, (problem, grid_var, fmt, params, self._argv(problem, grid_var, fmt, params))))
        return ops

    def _argv(self, problem, grid_var, fmt, p):
        argv = ["solve", "--problem", problem, "--alpha", _num(p["alpha"])]
        for key, flag in (("n", "--n"), ("a", "--a"), ("k", "--k"), ("beta", "--beta"),
                          ("b", "--b"), ("y_param", "--y-param"), ("t", "--t"), ("x", "--x")):
            if key in p:
                argv += [flag, str(p[key]) if key == "n" else _num(p[key])]
        if "coeffs" in p:
            # one token, so that a leading minus sign is not read as an option
            argv.append("--coeffs=" + ",".join(_num(c) for c in p["coeffs"]))
        lo, hi = p["grid"]
        argv += ["--grid-var", grid_var, f"--grid-min={_num(lo)}", f"--grid-max={_num(hi)}",
                 "--grid-points", str(self._points), "--format", fmt,
                 "--output", str(self._dir / f"solve.{fmt}")]
        return argv

    def execute(self, op):
        return self._cli.run(op[1][4])

    def inspect(self, op, out):
        kind, (problem, grid_var, fmt, params, argv) = op
        if out != 0:
            return Outcome(points=0, problem=f"solve {kind} exited {out}: {argv}")
        path = self._dir / f"solve.{fmt}"
        text = path.read_text(encoding="utf-8")
        size = path.stat().st_size
        try:
            grid, values = _parse_profile(text, fmt)
        except (ValueError, KeyError) as exc:
            return Outcome(points=0, out_bytes=size, problem=f"solve {kind}: unparsable output ({exc})")
        problem_text = _profile_problem(grid, values, self._points, params["grid"])
        if problem_text is None:
            for i in self._check_rng.sample(range(len(grid)), self.oracle_points_per_op):
                self._samples.append((problem, grid_var, params, grid[i], values[i]))
        else:
            problem_text = f"solve {kind}: {problem_text}"
        return Outcome(points=len(values), out_bytes=size, problem=problem_text)

    def oracle_problems(self):
        problems = []
        for problem, grid_var, params, g, value in self._samples:
            ref, abs_sum, tol = solve_reference(problem, grid_var, params, g)
            if not _within(value, ref, tol):
                problems.append(f"solve {problem} at {grid_var}={g!r}: {value!r} vs mpmath {ref!r}"
                                f" (abs sum {abs_sum:.3e})")
        return problems


def _parse_profile(text, fmt):
    if fmt == "json":
        data = json.loads(text)["data"]
        return [float(g) for g in data["grid"]], [float(v) for v in data["values"]]
    rows = list(csv.reader(io.StringIO(text)))
    if rows[0] != ["grid", "value"]:
        raise ValueError(f"header {rows[0]!r}")
    return [float(r[0]) for r in rows[1:]], [float(r[1]) for r in rows[1:]]


def _profile_problem(grid, values, points, bounds):
    if len(grid) != points or len(values) != points:
        return f"{len(grid)} rows, expected {points}"
    if any(b <= a for a, b in zip(grid, grid[1:])):
        return "grid not strictly increasing"
    if abs(grid[0] - bounds[0]) > 1e-12 or abs(grid[-1] - bounds[1]) > 1e-12:
        return f"grid spans [{grid[0]}, {grid[-1]}], expected {bounds}"
    if not all(math.isfinite(v) for v in values):
        return "non-finite value"
    return None


def solve_reference(problem, grid_var, p, g):
    """mpmath value of one grid point, its term magnitude and the tolerance used.

    The tolerance allows 1e-11 of the sum of absolute terms: far above the
    rounding of a double-precision sum of a dozen terms, far below any
    wrong coefficient.  The printed 15 digits add at most 5e-15 relative.
    """
    import oracles

    x, t = (g, p["t"]) if grid_var == "x" else (p["x"], g)
    if problem == "tf-diffusion":
        coeffs = p.get("coeffs") or (0.0,) * SOLVE_N + (1.0,)
        ref, abs_sum = oracles.tf_diffusion(coeffs, p["alpha"], p["k"], x, t)
    elif problem == "case-i":
        ref, abs_sum = oracles.case_i(p["n"], p["a"], p["alpha"], p["k"], x, t)
    elif problem == "case-ii":
        ref, abs_sum = oracles.case_ii(p["n"], p["a"], p["alpha"], p["k"], x, t)
    elif problem == "laguerre-monomial":
        ref, abs_sum = oracles.laguerre_monomial(p["n"], p["alpha"], p["beta"], p["b"], x, t)
    else:
        ref, abs_sum = oracles.laguerre_wright(p["y_param"], p["alpha"], p["beta"], p["b"], x, t)
    return ref, abs_sum, 1e-11 * abs_sum + 1e-300


# -- cli-cold -------------------------------------------------------------------------

CLI_COMMANDS = ("eval-ml", "eval-fhp", "eval-mlp", "table", "solve", "verify")
CLI_SOLVE_POINTS = 21
CLI_TABLE_N_MAX = 10
#: ``mlpoly verify --suite all --seed 0`` exits 2 on this check every time
#: (see CHANGES.md); it is the one operation of cli-cold that fails.
CLI_VERIFY_KNOWN_FAILING = ("pde-residuals/initial-condition-recovery",)


class CliCold:
    """One fresh ``python -m mlpoly.cli`` process per operation, one at a time.

    The five computing commands are drawn once from the seed and repeat every
    round, so each argv runs several times per run and its stdout must repeat
    byte for byte.  Their sizes are fixed, so every seed prints the same
    number of values per round.  The sixth command, ``verify --suite all
    --seed 0``, does not depend on the seed: it is the only operation that
    reaches fracpoly, sheffer, caputo and verify, and it fails every time on
    one known check.
    """

    name = "cli-cold"
    kinds = CLI_COMMANDS
    block_rounds = None

    def __init__(self, seed):
        rng = random.Random(f"{self.name}:{seed}")
        u = rng.uniform
        self.commands = {
            "eval-ml": ["eval-ml", "--alpha", _num(u(0.4, 1.0)), "--beta", _num(u(0.5, 2.0)),
                        "--z", _num(u(-1.0, 2.0))],
            "eval-fhp": ["eval-fhp", "--n", str(rng.randint(4, 16)), "--alpha", _num(u(0.3, 1.0)),
                         "--x", _num(u(-1.5, 1.5)), "--y", _num(u(0.2, 1.5))],
            "eval-mlp": ["eval-mlp", "--n", str(rng.randint(4, 16)), "--alpha", _num(u(0.3, 1.0)),
                         "--beta", _num(u(0.5, 2.0)), "--x", _num(u(-1.5, 1.5)), "--y", _num(u(0.2, 1.5))],
            "table": ["table", "--family", "fhp", "--n-max", str(CLI_TABLE_N_MAX),
                      "--alpha", _num(u(0.3, 1.0)), "--y", _num(u(0.2, 1.5))],
            "solve": ["solve", "--problem", "case-i", "--n", "8", "--a", _num(u(0.2, 1.0)),
                      "--alpha", _num(u(0.3, 0.9)), "--k", _num(u(0.5, 2.0)), "--t", _num(u(0.2, 1.5)),
                      "--grid-min=-1.0", "--grid-max=1.0", "--grid-points", str(CLI_SOLVE_POINTS),
                      "--format", "csv"],
            "verify": ["verify", "--suite", "all", "--seed", "0"],
        }
        self._stdout = {}
        self._samples = []
        self.max_child_rss_kb = 0
        self._env = benchenv.child_env()
        self._stderr = benchenv.work_dir() / "cli-stderr.txt"

    def next_round(self):
        return [(kind, self.commands[kind]) for kind in self.kinds]

    def execute(self, op, prefix=None):
        """Run one process; returns (exit code, stdout bytes, peak RSS in KiB)."""
        cmd = [sys.executable] + (prefix or ["-m", "mlpoly.cli"]) + op[1]
        with open(self._stderr, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err,
                                    stdin=subprocess.DEVNULL, env=self._env, cwd=benchenv.ROOT)
            try:
                out = proc.stdout.read()
            finally:
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, out, usage.ru_maxrss

    def inspect(self, op, out):
        kind, argv = op
        code, stdout, rss_kb = out
        self.max_child_rss_kb = max(self.max_child_rss_kb, rss_kb)
        failing_run = kind == "verify" and code == 2  # a failed identity check, reported
        if code != 0 and not failing_run:
            err = self._stderr.read_text(errors="replace")[-300:]
            return Outcome(points=0, out_bytes=len(stdout), problem=f"{argv} exited {code}: {err}")
        first = self._stdout.setdefault(kind, stdout)
        if stdout != first:
            return Outcome(points=0, out_bytes=len(stdout), problem=f"{argv}: stdout differs between runs")
        text = stdout.decode("utf-8")
        try:
            points = _cli_points(kind, text)
        except (ValueError, KeyError) as exc:
            return Outcome(points=0, out_bytes=len(stdout), problem=f"{argv}: unparsable output ({exc})")
        if kind == "verify":
            failing = tuple(line.split()[1] for line in text.splitlines() if line.startswith("FAIL "))
            if failing or failing_run:
                return Outcome(points=points, out_bytes=len(stdout), problem=f"{argv} failed {failing}",
                               expected=failing_run and failing == CLI_VERIFY_KNOWN_FAILING,
                               checks=points, failed_checks=len(failing))
            return Outcome(points=points, out_bytes=len(stdout), checks=points)
        elif stdout is first:  # each argv's output is compared with mpmath once
            self._samples.append((kind, argv, text))
        return Outcome(points=points, out_bytes=len(stdout))

    def oracle_problems(self):
        problems = []
        for kind, argv, text in self._samples:
            problems.extend(f"{argv}: {p}" for p in cli_output_problems(kind, argv, text))
        return problems


def _flag(argv, name, cast=float):
    return cast(argv[argv.index(name) + 1])


def _cli_points(kind, text):
    """Values a command printed: one value, table or grid rows, or identity checks."""
    if kind.startswith("eval-"):
        json.loads(text)["data"]["value"]
        return 1
    lines = text.strip().splitlines()
    if kind == "verify":
        return sum(line.startswith(("PASS ", "FAIL ")) for line in lines)
    return len(lines) - 1


def cli_output_problems(kind, argv, text):
    """Compare one command's stdout with mpmath; returns a list of problems."""
    import oracles

    problems = []
    if kind == "eval-ml":
        data = json.loads(text)["data"]
        ref, _ = oracles.ml_two(_flag(argv, "--alpha"), _flag(argv, "--beta"), _flag(argv, "--z"))
        tol = data["abs_error_estimate"] + 1e-15 * abs(ref)
        if not _within(data["value"], ref, tol):
            problems.append(f"value {data['value']!r}, mpmath {ref!r}, estimate {data['abs_error_estimate']!r}")
    elif kind in ("eval-fhp", "eval-mlp"):
        value = json.loads(text)["data"]["value"]
        n, alpha, x, y = (_flag(argv, "--n", int), _flag(argv, "--alpha"), _flag(argv, "--x"), _flag(argv, "--y"))
        if kind == "eval-fhp":
            ref, abs_sum = oracles.fhp(n, alpha, x, y)
        else:
            ref, abs_sum = oracles.mlp(n, alpha, _flag(argv, "--beta"), x, y)
        if not _within(value, ref, 1e-11 * abs_sum + 1e-300):
            problems.append(f"value {value!r}, mpmath {ref!r}")
    elif kind == "table":
        problems.extend(_table_problems(argv, text))
    else:
        grid, values = _parse_profile(text, "csv")
        msg = _profile_problem(grid, values, CLI_SOLVE_POINTS, (-1.0, 1.0))
        if msg:
            problems.append(msg)
        params = {"n": _flag(argv, "--n", int), "a": _flag(argv, "--a"), "alpha": _flag(argv, "--alpha"),
                  "k": _flag(argv, "--k"), "t": _flag(argv, "--t")}
        for g, value in zip(grid, values):
            ref, abs_sum, tol = solve_reference("case-i", "x", params, g)
            if not _within(value, ref, tol):
                problems.append(f"x={g!r}: {value!r} vs mpmath {ref!r}")
    return problems


def _table_problems(argv, text):
    """The fhp coefficient table, row by row, against mpmath."""
    import oracles

    n_max, alpha, y = _flag(argv, "--n-max", int), _flag(argv, "--alpha"), _flag(argv, "--y")
    lines = text.strip().splitlines()
    if lines[0] != "n,exponent,coefficient":
        return [f"table header {lines[0]!r}"]
    got = {}
    for line in lines[1:]:
        n, exponent, coeff = line.split(",")
        got[(int(n), float(exponent))] = float(coeff)
    want = {(n, float(n - 2 * r)): oracles.fhp_coefficient(n, r, alpha, y)
            for n in range(n_max + 1) for r in range(n // 2 + 1)}
    if set(got) != set(want):
        return [f"table rows {sorted(set(got) ^ set(want))[:4]} missing or extra"]
    return [f"table n={n} exponent={e}: {got[(n, e)]!r} vs mpmath {c!r}"
            for (n, e), c in want.items() if not _within(got[(n, e)], c, 1e-12 * abs(c))]


# -- verify-suites -----------------------------------------------------------------------

VERIFY_SEEDS = (0, 2)
VERIFY_N_MAX = 10

#: (suite, verify seed) pairs that fail today, with the checks that fail.
#: They fail identically in every run; see CHANGES.md for the faults.
KNOWN_FAILING = {
    ("pde-residuals", 0): ("initial-condition-recovery",),
    ("mlp-gf", 2): ("mlp-one-var-reduction",),
}


class VerifySuites:
    """In-process ``run_suites(suite, n_max, seed)``, one operation per pair.

    A round runs every suite at every seed of VERIFY_SEEDS; the benchmark
    seed only shuffles the order within each round.
    """

    name = "verify-suites"
    kinds = ("fhp-identities", "mlp-gf", "caputo", "pde-residuals", "sheffer-ladder")
    block_rounds = None

    @staticmethod
    def slot(op):
        return f"{op[0]}@{op[1]}"

    def __init__(self, seed):
        self._verify = importlib.import_module("mlpoly.verify")
        self._rng = random.Random(f"{self.name}:{seed}")
        self._pairs = [(suite, s) for s in VERIFY_SEEDS for suite in self.kinds]

    def next_round(self):
        pairs = list(self._pairs)
        self._rng.shuffle(pairs)
        return pairs

    def execute(self, op):
        suite, seed = op
        return self._verify.run_suites(suite, n_max=VERIFY_N_MAX, seed=seed)

    def inspect(self, op, out):
        [(suite, checks)] = out
        if suite != op[0] or not checks:
            return Outcome(points=0, problem=f"run_suites{op} returned {out!r}")
        failing = tuple(c.name for c in checks if not c.passed)
        if not failing:
            return Outcome(points=len(checks), checks=len(checks))
        return Outcome(points=len(checks), problem=f"{op[0]} seed {op[1]} failed {failing}",
                       expected=KNOWN_FAILING.get(op) == failing, checks=len(checks),
                       failed_checks=len(failing))

    def oracle_problems(self):
        return []


WORKLOADS = {w.name: w for w in (SeriesEval, SolveGrid, CliCold, VerifySuites)}


def first_op_in_process(name, seed):
    """The workload's first operation, run in this process (used for set-up time)."""
    workload = WORKLOADS[name](seed)
    op = workload.next_round()[0]
    if name == "cli-cold":
        with contextlib.redirect_stdout(io.StringIO()):
            return importlib.import_module("mlpoly.cli").run(op[1])
    return workload.execute(op)
