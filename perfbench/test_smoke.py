"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest perfbench/test_smoke.py -q

It runs every workload briefly, untraced and traced, and shows that the
checks reject a wrong value by handing a perturbed result to the checker;
mlpoly itself is never patched.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import benchenv  # noqa: E402

benchenv.use_checkout()

import mlpoly  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {"setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "points_per_s", "peak_rss_mb"}


def _bench(*args, cwd=benchenv.ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_workload_runs_and_reports(name, trace):
    proc = _bench("--workload", name, "--seed", "3", "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    # the known failures: two verify pairs in ten, one verify process in six
    if name == "verify-suites":
        rounds = result["attempted"] // (len(workloads.VerifySuites.kinds) * len(workloads.VERIFY_SEEDS))
        assert result["failed"] == len(workloads.KNOWN_FAILING) * rounds
    elif name == "cli-cold":
        assert result["failed"] == result["attempted"] // len(workloads.CliCold.kinds)
    else:
        assert result["failed"] == 0
    if trace == "0":
        assert set(result["metrics"]) == END_TO_END
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert "trace.overhead_ratio" in result["metrics"]
        assert "gamma_core.self_s" in result["metrics"]


def test_refuses_without_the_program(tmp_path):
    shutil.copytree(benchenv.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(benchenv.ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "series-eval", "--seed", "1", "--seconds", "1", "--trace", "0",
                  cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_series_check_catches_perturbed_value():
    workload = workloads.SeriesEval(seed=5)
    op = ("ml_two", (0.6, 1.3, -0.8))
    good = workload.execute(op)
    workload.inspect(op, good)
    assert workload.oracle_problems() == []
    bad = mlpoly.EvalResult(good.value + 10 * good.abs_error_estimate + 1e-12,
                            good.abs_error_estimate, good.terms_used)
    workload = workloads.SeriesEval(seed=5)
    workload.inspect(op, bad)
    assert len(workload.oracle_problems()) == 1


def test_relaxation_range_check_catches_value_above_one():
    workload = workloads.SeriesEval(seed=5)
    outcome = workload.inspect(("relaxation_cole_cole", (0.5, 1.0, 0.3)), 1.01)
    assert outcome.problem is not None and not outcome.expected


def test_solve_checks_catch_perturbed_point_and_bad_grid():
    params = {"alpha": 0.55, "k": 1.2, "n": workloads.SOLVE_N, "a": 0.4, "t": 0.7, "grid": (-2.0, 2.0)}
    good = mlpoly.solve_case_ii(params["n"], params["a"], params["alpha"], params["k"], 0.3, 0.7)
    ref, abs_sum, tol = workloads.solve_reference("case-ii", "x", params, 0.3)
    assert abs(good - ref) <= tol
    assert abs(good * (1 + 1e-9) - ref) > tol
    assert workloads._profile_problem([0.0, 2.0, 1.0], [1.0, 1.0, 1.0], 3, (0.0, 1.0)) is not None


def test_cli_check_catches_perturbed_stdout():
    workload = workloads.CliCold(seed=4)
    argv = workload.commands["eval-fhp"]
    data = {"value": mlpoly.fhp_eval(int(argv[2]), float(argv[4]), float(argv[6]), float(argv[8]))}
    text = json.dumps({"meta": {}, "data": data})
    assert workloads.cli_output_problems("eval-fhp", argv, text) == []
    data["value"] *= 1 + 1e-8
    assert workloads.cli_output_problems("eval-fhp", argv, json.dumps({"meta": {}, "data": data}))


def test_cli_verify_check_separates_known_and_new_failures():
    workload = workloads.CliCold(seed=4)
    op = ("verify", workload.commands["verify"])
    lines = ["# suites=all", "PASS caputo/x max_err=0 tol=1", "FAIL {} max_err=1 tol=0", "passed 1/2"]
    known = "\n".join(lines).format(workloads.CLI_VERIFY_KNOWN_FAILING[0]).encode()
    outcome = workload.inspect(op, (2, known, 1000))
    assert outcome.expected and outcome.failed_checks == 1
    new = "\n".join(lines).format("caputo/other-check").encode()
    outcome = workloads.CliCold(seed=4).inspect(op, (2, new, 1000))
    assert outcome.problem is not None and not outcome.expected


def test_verify_check_separates_known_and_new_failures():
    workload = workloads.VerifySuites(seed=1)
    check = mlpoly.verify.CheckResult
    known = [("mlp-gf", [check("mlp-one-var-reduction", False, 1.0, 0.0)])]
    assert workload.inspect(("mlp-gf", 2), known).expected
    new = [("mlp-gf", [check("mlp-ogf-closed", False, 1.0, 0.0)])]
    outcome = workload.inspect(("mlp-gf", 2), new)
    assert outcome.problem is not None and not outcome.expected


def test_quantile_and_importtime_parsing():
    assert run.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    text = ("import time: self [us] | cumulative | imported package\n"
            "import time:       100 |        100 |     numpy.core\n"
            "import time:        50 |        150 |   numpy\n"
            "import time:       200 |        200 |   scipy.special\n"
            "import time:        10 |        360 | mlpoly\n")
    parsed = run.parse_importtime(text)
    assert parsed == pytest.approx({"process.import_s": 360e-6, "process.import_scipy_s": 200e-6,
                                    "process.import_numpy_s": 150e-6})
