"""Write the CLI outputs that ``tests/test_cli_pins.py`` pins.

    PYTHONPATH=src python3 tests/cli_pins.py --out tests/cli_pins.json

For each argv of ``ARGVS`` the file records the exit code, stdout and stderr
of ``mlpoly.cli.run`` in-process, and for each demo the stdout of the demo
run as a script.  An output of at most ``SHORT`` characters is stored in
full; a longer one as its sha256, its length, the first ``EDGE`` characters
of its first line and the last ``EDGE`` characters of its last line.

The argvs cover the ``solve`` argvs that ``tests/test_solve_grid.py`` builds,
edge ``solve`` grids (subnormal spacings, +-1e15, values beyond 1e13) with
the overflow refusals and the output gate, ``eval-fhp`` and ``eval-mlp`` at
degrees up to and past the factorial range in both formats and with
``--coeffs``, one ``eval-ml`` refusal per reason, both ``table`` families
with their refusals, and ``verify --suite all`` at seeds 0-4 and at seed 7
with three degrees, and last the reproductions of ROADMAP items 20 and 13,
whose mending is meant to move them.  ``tools/record_bench.py`` runs the
same list on two trees.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from mlpoly.cli import run
from test_solve_grid import CASES, COEFFS, PARAMS, REFUSED, _argv, _grid

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
SHORT = 2048
EDGE = 120


def _solve_grid():
    """The solve argvs of tests/test_solve_grid.py."""
    out = []
    for problem, grid_var, fmt, use_coeffs in CASES:
        p = {key: v for key, v in PARAMS[problem].items() if not (use_coeffs and key == "n")}
        lo, hi, _ = _grid(problem, grid_var)
        out.append(_argv(problem, p, grid_var, lo, hi, fmt)
                   + ([f"--coeffs={COEFFS}"] if use_coeffs else []))
    out += [_argv(problem, {**PARAMS[problem], **bad}, "x", 0.0, 1.0, points=3)
            for problem, bad, _ in REFUSED]
    out.append(["solve", "--problem", "case-ii", "--n", "12", "--a", "0.5", "--alpha", "0.6",
                "--k", "1.2", "--t", "0.7", "--grid-min=-2", "--grid-max=2", "--grid-points", "11"])
    return out


# -- edge grids, refusals and the output gate ---------------------------------------

def _solve(problem, *flags, fmt="json"):
    return ["solve", "--problem", problem, *flags, "--format", fmt]


SOLVE_EDGES = [
    # subnormal spacings, and grids reaching +-1e15 (values past 1e13 print one by one)
    *(_solve("case-i", "--n", "4", "--a", "0.5", "--alpha", "0.5", "--t", "0.5",
             "--grid-min=-5e-324", "--grid-max=1e-321", "--grid-points", "7", fmt=fmt)
      for fmt in ("json", "csv")),
    _solve("laguerre-monomial", "--n", "3", "--alpha", "0.5", "--beta", "0.5", "--grid-var", "t",
           "--x", "0.5", "--grid-min=0", "--grid-max=5e-324", "--grid-points", "2"),
    *(_solve("tf-diffusion", "--n", "3", "--alpha", "0.5", "--t", "0.5",
             "--grid-min=-1e15", "--grid-max=1e15", "--grid-points", "9", fmt=fmt)
      for fmt in ("json", "csv")),
    _solve("case-ii", "--n", "4", "--a", "0.5", "--alpha", "0.5", "--grid-var", "t",
           "--x", "1e15", "--grid-min=0.1", "--grid-max=1e15", "--grid-points", "5"),
    _solve("tf-diffusion", "--coeffs=1,0,2", "--alpha", "0.5", "--t", "0.5",
           "--grid-min=0", "--grid-max=1", "--grid-points", "2"),
    _solve("case-i", "--n", "2", "--a", "0.5", "--alpha", "0.5", "--t", "0",
           "--grid-min=0", "--grid-max=1", "--grid-points", "3", fmt="csv"),
    # overflow refusals
    _solve("case-i", "--n", "4", "--a", "1e200", "--alpha", "0.5", "--t", "0.5",
           "--grid-min=0", "--grid-max=1", "--grid-points", "3"),
    _solve("case-ii", "--n", "4", "--a", "1e200", "--alpha", "0.5", "--t", "0.5",
           "--grid-min=0", "--grid-max=1", "--grid-points", "3"),
    _solve("case-ii", "--n", "400", "--a", "0.5", "--alpha", "0.5", "--t", "0.5",
           "--grid-min=0", "--grid-max=1", "--grid-points", "3"),
    _solve("tf-diffusion", "--n", "3", "--alpha", "0.5", "--t", "0.5",
           "--grid-min=0", "--grid-max=1e200"),
    _solve("laguerre-monomial", "--n", "4", "--alpha", "0.5", "--beta", "0.5", "--t", "0.5",
           "--grid-min=0", "--grid-max=1e200", "--grid-points", "3"),
    _solve("laguerre-monomial", "--n", "4", "--alpha", "0.5", "--beta", "0.5", "--b", "1e300",
           "--grid-var", "t", "--x", "0.5", "--grid-min=0.1", "--grid-max=1", "--grid-points", "3"),
    _solve("laguerre-monomial", "--n", "20000", "--alpha", "0.5", "--beta", "0.5", "--t", "1",
           "--grid-min=0", "--grid-max=1"),
    _solve("laguerre-wright", "--y-param", "1e300", "--alpha", "0.5", "--beta", "0.5",
           "--x", "1e20", "--grid-var", "t", "--grid-min=0.1", "--grid-max=1", "--grid-points", "3"),
    *(_solve("case-ii", "--n", "6", "--a", "1e102", "--alpha", "0.5", "--t", "0.5",
             "--grid-min=0", "--grid-max=1", "--grid-points", "2", fmt=fmt)
      for fmt in ("json", "csv")),
    # the output gate: every power fits the double range, the value does not
    *(_solve("tf-diffusion", "--n", "12", "--alpha", "0.5", "--k", "1e50", "--t", "1",
             "--grid-min=0", "--grid-max=1e25", "--grid-points", "2", fmt=fmt)
      for fmt in ("json", "csv")),
    # usage and domain errors
    _solve("case-i", "--alpha", "0.5", "--grid-min=0", "--grid-max=1", "--t", "0.5"),
    _solve("case-i", "--n", "2", "--a", "nan", "--alpha", "0.5", "--t", "0.5",
           "--grid-min=0", "--grid-max=1"),
    _solve("tf-diffusion", "--coeffs=1,nan", "--alpha", "0.5", "--t", "0.5",
           "--grid-min=0", "--grid-max=1"),
    _solve("tf-diffusion", "--coeffs=a,b", "--alpha", "0.5", "--t", "0.5",
           "--grid-min=0", "--grid-max=1"),
    _solve("tf-diffusion", "--n", "2", "--alpha", "0.5", "--t", "1", "--grid-min=0",
           "--grid-max=1", "--grid-points", "1"),
    _solve("tf-diffusion", "--n", "2", "--alpha", "0.5", "--t", "1", "--grid-min=1",
           "--grid-max=1"),
    _solve("laguerre-monomial", "--n", "2", "--alpha", "-0.5", "--beta", "0.5", "--t", "0.5",
           "--grid-min=0", "--grid-max=1"),
]

# -- evaluations, tables and verify ---------------------------------------------------

DEGREES = (0, 3, 8, 15, 40, 170, 180)
FHP = ["--alpha", "0.6", "--y", "-0.4"]
MLP = ["--alpha", "0.5", "--beta", "1.2", "--x", "0.7"]

EVALS = [
    ["eval-fhp", "--n", str(n), *FHP, *point, "--format", fmt]
    for n in DEGREES for point in (["--x", "1.3"], ["--coeffs"]) for fmt in ("json", "csv")
] + [
    ["eval-mlp", "--n", str(n), *MLP, *point, "--format", fmt]
    for n in DEGREES for point in (["--y", "0.9"], ["--coeffs"]) for fmt in ("json", "csv")
] + [
    ["eval-fhp", "--n", "400", "--alpha", "0.5", "--x", "2", "--y", "1"],
    ["eval-fhp", "--n", "3", "--alpha", "0.5", "--x", "1e200", "--y", "1"],
    ["eval-fhp", "--n", "12", "--alpha", "0.5", "--x", "1e25", "--y", "1e50", "--format", "csv"],
    ["eval-fhp", "--n", "12", "--alpha", "0.5", "--y", "1e50", "--coeffs"],
    ["eval-fhp", "--n", "3", "--alpha", "0.5", "--y", "1"],
    ["eval-mlp", "--n", "3", "--alpha", "0.5", "--beta", "1", "--x", "1e200", "--y", "1"],
    ["eval-mlp", "--n", "2", "--alpha", "1e308", "--beta", "1", "--x", "0.5", "--y", "1"],
    ["eval-mlp", "--n", "1", "--alpha", "0.5", "--beta", "1", "--x=-1e308", "--y", "1e308"],
    ["eval-mlp", "--n", "100000000", "--alpha", "0.5", "--beta", "1", "--x", "0.5", "--coeffs"],
    # eval-ml: values in both formats and with every option, then one refusal per reason
    ["eval-ml", "--alpha", "0.5", "--z", "-1.5"],
    ["eval-ml", "--alpha", "0.5", "--beta", "1.2", "--gamma", "0.7", "--z", "1.5",
     "--format", "csv"],
    ["eval-ml", "--alpha", "0.8", "--beta", "0.3", "--z", "2.5", "--tol", "1e-9"],
    ["eval-ml", "--alpha", "0.5", "--z", "-30"],
    ["eval-ml", "--alpha", "0.05", "--z", "400"],
    ["eval-ml", "--alpha", "0.4", "--z", "-5"],
    ["eval-ml", "--alpha", "0.6", "--z", "2", "--term-budget", "3"],
    ["eval-ml", "--alpha", "-1", "--z", "1"],
    ["eval-ml", "--alpha", "inf", "--z", "1"],
]

TABLES = [
    ["table", "--family", "fhp", "--alpha", "0.5"],
    ["table", "--family", "fhp", "--alpha", "0.3", "--y", "-2.5", "--n-max", "12"],
    ["table", "--family", "fhp", "--alpha", "0.5", "--n-max", "171"],
    ["table", "--family", "fhp", "--alpha", "0.5", "--y", "1e50", "--n-max", "12"],
    ["table", "--family", "fhp", "--alpha", "-1"],
    ["table", "--family", "fhp", "--alpha", "0.5", "--format", "json"],
    ["table", "--family", "mlp", "--alpha", "0.5"],
    ["table", "--family", "mlp", "--alpha", "0.7", "--beta", "1.5", "--x", "-0.3", "--n-max", "180"],
    ["table", "--family", "mlp", "--alpha", "0.5", "--n-max", "-1"],
    ["table", "--family", "mlp", "--alpha", "0.5", "--x", "1e200", "--n-max", "3"],
    ["table", "--family", "mlp", "--alpha", "0", "--n-max", "3"],
]

VERIFY = [["verify", "--suite", "all", "--seed", str(seed)] for seed in range(5)] + [
    ["verify", "--suite", "all", "--seed", "7", "--n-max", str(n)] for n in (4, 8, 15)]

# -- reproductions of open ROADMAP items ------------------------------------------------

REPRODUCTIONS = [
    # item 20: an underflowed 1/Gamma row gives silent zeros and refusals
    ["eval-mlp", "--n", "180", "--alpha", "1", "--beta", "1", "--x", "2", "--y", "0"],
    ["table", "--family", "mlp", "--n-max", "200", "--alpha", "1", "--x", "1.5"],
    ["table", "--family", "mlp", "--n-max", "1000", "--alpha", "0.5", "--x", "1.9"],
    # item 13: values that cancel below their error, returned uncertified
    ["eval-mlp", "--n", "40", "--alpha", "0.4020930991746356", "--beta", "0.7546147201998188",
     "--x", "1.3237743416164633", "--y", "0.634227853196482"],
    ["eval-fhp", "--n", "150", "--alpha", "0.602125478865656", "--x", "-2.3202236890696435",
     "--y", "-0.03671566358135925"],
    ["solve", "--problem", "laguerre-monomial", "--n", "40", "--alpha", "0.2044074473949013",
     "--beta", "0.8762229361938323", "--b", "1.1356322070234188", "--grid-var", "t",
     "--x", "1.6407371623886826", "--grid-min=0.8421244831882532", "--grid-max=1",
     "--grid-points", "2"],
]

ARGVS = _solve_grid() + SOLVE_EDGES + EVALS + TABLES + VERIFY + REPRODUCTIONS


# -- fingerprints ------------------------------------------------------------------------

def fingerprint(text):
    """``text`` itself if it is short, else its sha256, length and two edges."""
    if len(text) <= SHORT:
        return text
    lines = text.splitlines()
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(), "length": len(text),
            "first": lines[0][:EDGE], "last": lines[-1][-EDGE:]}


def cli_outcome(argv):
    """Exit code, stdout and stderr of one in-process run, fingerprinted."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return {"code": code, "stdout": fingerprint(out.getvalue()),
            "stderr": fingerprint(err.getvalue())}


def demo_outcome(demo):
    """The fingerprinted stdout of one demo, run as a script."""
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True, env=env,
                          check=True, timeout=60)
    return {"stdout": fingerprint(proc.stdout)}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    pinned = [{"argv": argv, **cli_outcome(argv)} for argv in ARGVS]
    pinned += [{"demo": demo.name, **demo_outcome(demo)} for demo in DEMOS]
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("[\n" + ",\n".join(json.dumps(case) for case in pinned) + "\n]\n")
    print(f"{len(ARGVS)} argvs, {len(DEMOS)} demos", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
