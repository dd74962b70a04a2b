"""Record a benchmark comparison of this checkout against a baseline revision.

    python3 tools/record_bench.py --baseline HEAD~1 --out BENCH_6.json --workdir /tmp/bench

The baseline is exported with ``git archive`` into ``--workdir``, and the
change is copied there from this working tree.  For every workload the
unchanged ``perfbench/run.py`` of each tree runs ``PAIRS`` times in
alternating order, ``SECONDS`` per run (pair i uses seed ``FIRST_SEED`` + i;
the baseline goes first on even i), and the file records, per end-to-end
metric, each side's runs, median and quartiles, and how many pairs the change
won.  It also records:

* ``cli_wall_s``: the wall time of each CLI command as a fresh process, the
  median of ``CLI_REPEATS`` runs per side, alternating, next to a bare
  ``python -c pass``;
* ``import``: ``process.import_*`` from one traced ``run.py`` per side;
* ``accuracy``: for ``eval-ml`` on a fixed grid of (alpha, beta, z), the
  largest |value - oracle| / abs_error_estimate against the 30-digit sums,
  taken to convergence, of ``perfbench/oracles.py`` (1 or less means every
  estimate holds);
* ``verify``: the ``verify --suite all`` report of each tree, one fresh
  process per argv of ``VERIFY_ARGVS``, with every line (stdout, stderr or
  exit code) that differs given as a [baseline, change] pair;
* ``layers``: the seconds per call of each fixed call of ``LAYER_CALLS``
  (the series engine through each evaluator, a series object reused over a
  grid, the fractional-Hermite sum, each problem's grid plan along x and
  along t, the scalar case-i and case-ii solvers, the case-ii convolution
  sum, the CLI's JSON and CSV text of a 1001-point profile, and the
  Mittag-Leffler family's Appell prefactor at order 4000), each side
  timed in its own process on its own ``src``, ``LAYER_REPEATS`` processes
  per side, alternating; each side's median, and the change's speed-up
  (baseline median / change median);
* ``solve_bytes``: every operation of the solve-grid rounds of seeds
  ``SOLVE_BYTES_SEEDS``, run on each tree in one process per tree, and the
  number of output files (or exit codes) that differ between the two;
* ``cli_bytes``: every argv of ``tests/cli_pins.py`` and every demo, each run
  as a fresh process on each tree, with each one whose stdout, stderr or exit
  code differs given as its baseline and change outcome (long outputs as
  ``cli_pins.fingerprint`` stores them).
"""

import argparse
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIRS = 10
FIRST_SEED = 11
SECONDS = 20.0
CLI_REPEATS = 7

ACCURACY_GRID = {
    "alpha": (0.3, 0.45, 0.6, 0.8, 1.0, 1.7),
    "beta": (0.5, 1.0, 2.0),
    "z": (-2.0, -1.0, -0.3, 0.4, 1.5, 3.0, 5.0),
}

#: argv of each command timed as a fresh process (the cli-cold shapes)
CLI_COMMANDS = {
    "eval-ml": ["eval-ml", "--alpha", "0.6", "--beta", "1.2", "--z", "0.8"],
    "eval-fhp": ["eval-fhp", "--n", "10", "--alpha", "0.5", "--x", "0.7", "--y", "0.9"],
    "eval-mlp": ["eval-mlp", "--n", "10", "--alpha", "0.5", "--beta", "1.2", "--x", "0.7", "--y", "0.9"],
    "table": ["table", "--family", "fhp", "--n-max", "10", "--alpha", "0.5", "--y", "0.9"],
    "solve": ["solve", "--problem", "case-i", "--n", "8", "--a", "0.5", "--alpha", "0.6", "--k", "1.1",
              "--t", "0.7", "--grid-min=-1.0", "--grid-max=1.0", "--grid-points", "21", "--format", "csv"],
    "verify": ["verify", "--suite", "all", "--seed", "0"],
}

#: the calls timed per layer: name -> (statement, calls per timing); the
#: statements run in ``_LAYERS_CHILD``, where ``grid(cls)`` builds one series
#: object and calls it at the 1001 points of ``GRID_ZS``
LAYER_CALLS = {
    "ml_one(0.5, -2.0)": ("ml_one(0.5, -2.0)", 2000),
    "ml_two(0.6, 1.2, 0.8)": ("ml_two(0.6, 1.2, 0.8)", 4000),
    "ml_three(0.6, 1.2, 0.9, -1.5)": ("ml_three(0.6, 1.2, 0.9, -1.5)", 2000),
    "wright(0.6, 1.3, -2.0)": ("wright(0.6, 1.3, -2.0)", 4000),
    "relaxation_hn(0.7, 0.6, 1.2, 0.9)": ("relaxation_hn(0.7, 0.6, 1.2, 0.9)", 2000),
    "MLSeries(0.6, 1.3) over 1001 z": ("grid(MLSeries)", 10),
    "WrightSeries(0.6, 1.3) over 1001 z": ("grid(WrightSeries)", 20),
    "fhp_eval(10, 0.5, 0.7, 0.9)": ("fhp_eval(10, 0.5, 0.7, 0.9)", 10000),
    "fhp_eval(40, 0.5, 0.7, 0.9)": ("fhp_eval(40, 0.5, 0.7, 0.9)", 2000),
    "solve_case_i(12, 0.5, 0.6, 1.2, 0.3, 0.7)": ("solve_case_i(12, 0.5, 0.6, 1.2, 0.3, 0.7)", 4000),
    "solve_case_ii(12, 0.5, 0.6, 1.2, 0.3, 0.7)": ("solve_case_ii(12, 0.5, 0.6, 1.2, 0.3, 0.7)", 2000),
    "convolution_identity_ii_rhs(12, 0.3, 0.5, 0.9, 0.6)":
        ("convolution_identity_ii_rhs(12, 0.3, 0.5, 0.9, 0.6)", 4000),
    **{f"{problem} plan along_{var} over 1001 points":
       (f"along(PLANS[{problem!r}], {var!r})", 20)
       for problem in ("tf-diffusion", "case-i", "case-ii", "laguerre-monomial", "laguerre-wright")
       for var in "xt"},
    **{f"_profile_text of a 1001-point profile, {fmt}": (f"_profile_text(PROFILE, {fmt!r})", 50)
       for fmt in ("json", "csv")},
    "appell_A_mlp(0.5, 1.0, 0.3, 4000)": ("appell_A_mlp(0.5, 1.0, 0.3, 4000)", 3),
}
LAYER_REPEATS = 7

_LAYERS_CHILD = """
import json, sys, timeit
from mlpoly import (DiffusionProblem, FhpInitial, HermiteInitial, LaguerreMonomialInitial,
                    LaguerreProblem, MLSeries, MonomialInitial, SolutionProfile, WrightInitial,
                    WrightSeries, appell_A_mlp, convolution_identity_ii_rhs, fhp_eval, ml_one,
                    ml_three, ml_two, plan, relaxation_hn, solve_case_i, solve_case_ii, wright)
from mlpoly.cli import _profile_text
GRID_ZS = [-2.0 + 0.005 * i for i in range(1001)]
def grid(cls):
    series = cls(0.6, 1.3)
    for z in GRID_ZS:
        series(z)
PLANS = {
    "tf-diffusion": plan(DiffusionProblem(0.6, 1.2, MonomialInitial(12))),
    "case-i": plan(DiffusionProblem(0.6, 1.2, HermiteInitial(12, 0.5))),
    "case-ii": plan(DiffusionProblem(0.6, 1.2, FhpInitial(12, 0.5))),
    "laguerre-monomial": plan(LaguerreProblem(0.6, 0.8, 1.1, LaguerreMonomialInitial(12))),
    "laguerre-wright": plan(LaguerreProblem(0.6, 0.8, 1.1, WrightInitial(0.5))),
}
# (fixed point, grid) per grid variable: x over [0, 2], t over [0.05, 2]
ALONG = {"x": (0.7, [0.002 * i for i in range(1001)]),
         "t": (0.3, [0.05 + 0.00195 * i for i in range(1001)])}
def along(solver, var):
    fixed, points = ALONG[var]
    return getattr(solver, "along_" + var)(fixed, points)
# the case-i solution along x, as ``mlpoly solve`` prints it
PROFILE = SolutionProfile(ALONG["x"][1], along(PLANS["case-i"], "x"),
                          {"problem": "case-i", "grid_var": "x", "alpha": 0.6, "t": 0.7,
                           "n": 12, "a": 0.5, "k": 1.2})
out = {}
for name, (stmt, number) in json.loads(sys.argv[1]).items():
    out[name] = timeit.timeit(stmt, globals=globals(), number=number) / number
print(json.dumps(out))
"""

#: the solve-grid seeds whose operations' output files are compared byte for byte
SOLVE_BYTES_SEEDS = range(1, 41)

# Run in a child interpreter in one tree, with its ``src`` on sys.path: runs
# every operation of the solve-grid round of each seed, each writing its own
# file into the directory argv[1], and prints each file's exit code.
_SOLVE_BYTES_CHILD = """
import json, sys
from pathlib import Path
sys.path.insert(0, "perfbench")
import workloads
from mlpoly.cli import run
out = Path(sys.argv[1])
out.mkdir(parents=True)
codes = {}
for seed in json.loads(sys.argv[2]):
    for i, (kind, (problem, grid_var, fmt, params, argv)) in enumerate(
            workloads.SolveGrid(seed).next_round()):
        name = f"{seed}-{i}.{fmt}"
        argv[argv.index("--output") + 1] = str(out / name)
        codes[name] = run(argv)
print(json.dumps(codes))
"""

#: the verify reports compared line by line: seeds 0-39, and seed 7 at three degrees
VERIFY_ARGVS = [["--seed", str(seed)] for seed in range(40)] + [
    ["--seed", "7", "--n-max", str(n)] for n in (4, 8, 15)]

# Run in a child interpreter with one tree's ``src`` first on sys.path: prints
# the eval-ml JSON records (or null for a refused point), one list.
_ACCURACY_CHILD = """
import contextlib, io, json, sys
from mlpoly.cli import run
out = []
for alpha, beta, z in json.loads(sys.argv[1]):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = run(["eval-ml", "--alpha", repr(alpha), "--beta", repr(beta), "--z", repr(z)])
    out.append(json.loads(buf.getvalue())["data"] if code == 0 else None)
print(json.dumps(out))
"""


def export_baseline(rev, dest):
    """Extract the files of git revision ``rev`` into ``dest``."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                             capture_output=True, check=True).stdout
    dest.mkdir(parents=True, exist_ok=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest)
    return dest


def export_worktree(dest):
    """Copy this working tree's tracked and untracked files, but not the ignored
    ones, into ``dest``: a ``__pycache__`` here that the baseline export lacks
    would make the change start faster."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, capture_output=True, check=True).stdout.decode().split("\0")
    for name in names:
        if name and (ROOT / name).is_file():  # a tracked file may be deleted
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)
    return dest


def env_for(tree):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(tree / "src")
    return env


def bench_run(tree, workload, seed, seconds, trace=0):
    """One perfbench run of ``tree``; returns its result object (last stdout line)."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{tree} {workload} seed {seed}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3}


def compare_workload(trees, workload, seeds, seconds, better):
    runs = {side: [] for side in trees}
    for i, seed in enumerate(seeds):
        order = ("baseline", "change") if i % 2 == 0 else ("change", "baseline")
        for side in order:
            runs[side].append(bench_run(trees[side], workload, seed, seconds))
        print(f"{workload} pair {i + 1}/{len(seeds)} done", file=sys.stderr, flush=True)
    metrics = {}
    for name in runs["baseline"][0]["metrics"]:
        entry = {"unit": runs["baseline"][0]["metrics"][name]["unit"], "better": better[name]}
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in trees}
        for side in trees:
            entry[side] = {"runs": values[side], **quartiles(values[side])}
        sign = 1.0 if better[name] == "higher" else -1.0
        entry["change_wins"] = sum(sign * (c - b) > 0 for b, c in zip(values["baseline"], values["change"]))
        entry["pairs"] = len(seeds)
        metrics[name] = entry
    checks = {side: [{"correct": r["correct"], "attempted": r["attempted"], "failed": r["failed"]}
                     for r in runs[side]] for side in trees}
    return {"seconds": seconds, "seeds": list(seeds), "metrics": metrics, "runs": checks}


def cli_wall_times(trees, repeats):
    def wall(tree, argv):
        start = time.perf_counter()
        subprocess.run([sys.executable] + argv, cwd=tree, env=env_for(tree),
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return time.perf_counter() - start

    commands = {"python -c pass": ["-c", "pass"]}
    commands.update({name: ["-m", "mlpoly.cli"] + argv for name, argv in CLI_COMMANDS.items()})
    out = {}
    for name, argv in commands.items():
        times = {side: [] for side in trees}
        for i in range(repeats):
            for side in (("baseline", "change") if i % 2 == 0 else ("change", "baseline")):
                times[side].append(wall(trees[side], argv))
        out[name] = {side: statistics.median(t) for side, t in times.items()}
    return out


def accuracy(trees):
    sys.path.insert(0, str(ROOT / "perfbench"))
    import oracles

    points = list(itertools.product(*ACCURACY_GRID.values()))
    refs = [oracles.ml_two(alpha, beta, z)[0] for alpha, beta, z in points]
    out = {}
    for side, tree in trees.items():
        proc = subprocess.run([sys.executable, "-c", _ACCURACY_CHILD, json.dumps(points)],
                              cwd=tree, env=env_for(tree), capture_output=True, text=True, check=True)
        records = json.loads(proc.stdout)
        ratios = [abs(rec["value"] - ref) / rec["abs_error_estimate"]
                  for rec, ref in zip(records, refs) if rec is not None]
        out[side] = {"points": len(points), "refused": records.count(None),
                     "max_err_over_estimate": max(ratios),
                     "terms_used": sum(rec["terms_used"] for rec in records if rec is not None)}
    return out


def verify_reports(trees):
    def report(tree, argv):
        proc = subprocess.run([sys.executable, "-m", "mlpoly.cli", "verify", "--suite", "all"] + argv,
                              cwd=tree, env=env_for(tree), capture_output=True, text=True)
        return proc.stdout.splitlines() + ["stderr: " + line for line in proc.stderr.splitlines()] + [
            f"exit code {proc.returncode}"]

    moved = {}
    for argv in VERIFY_ARGVS:
        pairs = itertools.zip_longest(report(trees["baseline"], argv), report(trees["change"], argv))
        diff = [list(pair) for pair in pairs if pair[0] != pair[1]]
        if diff:
            moved[" ".join(argv)] = diff
    return {"argvs": [" ".join(argv) for argv in VERIFY_ARGVS], "moved": moved}


def solve_bytes(trees, workdir, seeds):
    codes, dirs = {}, {}
    for side, tree in trees.items():
        dirs[side] = workdir / f"solve-bytes-{side}"
        shutil.rmtree(dirs[side], ignore_errors=True)
        proc = subprocess.run([sys.executable, "-c", _SOLVE_BYTES_CHILD, str(dirs[side]),
                               json.dumps(list(seeds))],
                              cwd=tree, env=env_for(tree), capture_output=True, text=True,
                              check=True)
        codes[side] = json.loads(proc.stdout.strip().splitlines()[-1])

    def output(side, name):
        path = dirs[side] / name
        return codes[side].get(name), path.read_bytes() if path.is_file() else None

    names = sorted(codes["baseline"].keys() | codes["change"].keys())
    differing = [name for name in names if output("baseline", name) != output("change", name)]
    return {"seeds": [seeds[0], seeds[-1]], "operations": len(names),
            "refused": sum(code != 0 for code in codes["change"].values()),
            "differing_files": len(differing), "differing": differing}


def cli_bytes(trees):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]  # the list reads test_solve_grid's
    import cli_pins

    def outcome(tree, cmd):
        proc = subprocess.run([sys.executable, *cmd], cwd=tree, env=env_for(tree),
                              capture_output=True, text=True)
        return {"code": proc.returncode, "stdout": cli_pins.fingerprint(proc.stdout),
                "stderr": cli_pins.fingerprint(proc.stderr)}

    commands = {" ".join(argv): ["-m", "mlpoly.cli", *argv] for argv in cli_pins.ARGVS}
    commands.update({demo.name: [str(Path("demos") / demo.name)] for demo in cli_pins.DEMOS})
    moved = {}
    for name, cmd in commands.items():
        sides = {side: outcome(tree, cmd) for side, tree in trees.items()}
        if sides["baseline"] != sides["change"]:
            moved[name] = sides
    return {"argvs": len(cli_pins.ARGVS), "demos": len(cli_pins.DEMOS), "moved": moved}


def layer_timings(trees, repeats):
    def once(tree):
        proc = subprocess.run([sys.executable, "-c", _LAYERS_CHILD, json.dumps(LAYER_CALLS)],
                              cwd=tree, env=env_for(tree), capture_output=True, text=True,
                              check=True)
        return json.loads(proc.stdout)

    runs = {side: [] for side in trees}
    for i in range(repeats):
        for side in (("baseline", "change") if i % 2 == 0 else ("change", "baseline")):
            runs[side].append(once(trees[side]))
    out = {}
    for name in LAYER_CALLS:
        entry = {side: {"runs_s": [r[name] for r in runs[side]],
                        "median_s": statistics.median(r[name] for r in runs[side])}
                 for side in trees}
        entry["speedup"] = entry["baseline"]["median_s"] / entry["change"]["median_s"]
        out[name] = entry
    return {"repeats": repeats, "calls": out}


def import_metrics(trees, seconds):
    out = {}
    for side, tree in trees.items():
        result = bench_run(tree, "series-eval", 1, seconds, trace=1)
        out[side] = {k: v["value"] for k, v in result["metrics"].items() if k.startswith("process.")}
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--baseline", required=True, help="git revision to compare against")
    parser.add_argument("--out", required=True, help="JSON file to write")
    parser.add_argument("--workdir", required=True, help="where the baseline tree is exported")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    trees = {"baseline": export_baseline(args.baseline, Path(args.workdir) / "baseline"),
             "change": export_worktree(Path(args.workdir) / "change")}
    rev = subprocess.run(["git", "rev-parse", args.baseline], cwd=ROOT, capture_output=True,
                         text=True, check=True).stdout.strip()
    record = {
        "baseline": rev,
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "accuracy": accuracy(trees),
        "cli_wall_s": cli_wall_times(trees, CLI_REPEATS),
        "import": import_metrics(trees, 3.0),
        "verify": verify_reports(trees),
        "layers": layer_timings(trees, LAYER_REPEATS),
        "solve_bytes": solve_bytes(trees, Path(args.workdir), SOLVE_BYTES_SEEDS),
        "cli_bytes": cli_bytes(trees),
        "workloads": {},
    }
    seeds = range(FIRST_SEED, FIRST_SEED + PAIRS)
    for workload in (w["name"] for w in spec["workloads"]):
        record["workloads"][workload] = compare_workload(trees, workload, seeds, SECONDS, better)
    Path(args.out).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
