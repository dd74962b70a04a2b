"""Acceptance criteria, one test per criterion.

Criteria 01-10 read the named checks of the ``mlpoly verify`` suites (one
sweep per identity, in :mod:`mlpoly.verify`): each takes the largest
``max_err`` of its checks and, as its elapsed time, the wall time of the
suites those checks belong to.  The suites run once per module, at
``n_max=15`` (criterion 02 sweeps the classical fHP up to n = 15).

Each test prints a single PASS/FAIL line (visible with ``pytest -s`` or in
captured output on failure) and enforces both the stated tolerance and the
runtime budget.
"""

import subprocess
import sys
import time

import pytest

from mlpoly.verify import SUITE_NAMES, run_suites


@pytest.fixture(scope="module")
def suites():
    """({"suite/check": CheckResult}, {suite: seconds}) for every suite."""
    checks, elapsed = {}, {}
    for name in SUITE_NAMES:
        start = time.perf_counter()
        ((_, results),) = run_suites(name, n_max=15, seed=42)
        elapsed[name] = time.perf_counter() - start
        checks.update({f"{name}/{check.name}": check for check in results})
    return checks, elapsed


def _finish(number, name, tol, time_limit, max_err, elapsed):
    ok = max_err <= tol and elapsed < time_limit
    status = "PASS" if ok else "FAIL"
    print(
        f"ACCEPTANCE {number:02d} {status} {name}: "
        f"max_err={max_err:.3e} tol={tol:g} elapsed={elapsed:.2f}s "
        f"limit={time_limit:g}s"
    )
    assert max_err <= tol, f"criterion {number}: {max_err} > {tol}"
    assert elapsed < time_limit, f"criterion {number}: too slow ({elapsed:.2f}s)"


def _criterion(suites, number, name, tol, time_limit, *names):
    checks, elapsed = suites
    max_err = max(checks[n].max_err for n in names)
    seconds = sum(elapsed[s] for s in {n.split("/")[0] for n in names})
    _finish(number, name, tol, time_limit, max_err, seconds)


def test_01_low_order_closed_forms(suites):
    _criterion(suites, 1, "low-order closed forms", 1e-12, 1.0,
               "fhp-identities/fhp-low-order-closed-forms")


def test_02_classical_reductions(suites):
    _criterion(suites, 2, "classical reductions", 1e-10, 1.0,
               "fhp-identities/fhp-classical-reduction", "mlp-gf/konhauser-laguerre")


def test_03_fhp_exponential_generating_function(suites):
    _criterion(suites, 3, "fHP exponential generating function", 1e-10, 5.0,
               "fhp-identities/fhp-egf")


def test_04_convolution_identities(suites):
    _criterion(suites, 4, "convolution identities", 1e-9, 5.0,
               "fhp-identities/fhp-identity-hermite-seed",
               "fhp-identities/fhp-identity-oplus-seed")


def test_05_mlp_generating_functions(suites):
    _criterion(suites, 5, "MLP generating functions", 1e-9, 5.0,
               "mlp-gf/mlp-ogf", "mlp-gf/mlp-egf")


def test_06_operational_construction(suites):
    _criterion(suites, 6, "operational construction", 1e-10, 2.0,
               "mlp-gf/mlp-operational")


def test_07_caputo_eigenfunction_and_l1_order(suites):
    worst_coeff = suites[0]["caputo/caputo-eigenfunction-truncation"].max_err
    assert worst_coeff <= 1e-13, f"eigenfunction truncation not exact: {worst_coeff}"
    _criterion(suites, 7, "Caputo eigenfunction and L1 order", 0.3, 10.0,
               "caputo/caputo-l1-order")


def test_08_pde_residuals(suites):
    _criterion(suites, 8, "PDE residuals", 1e-10, 5.0,
               "pde-residuals/tf-diffusion-residual", "pde-residuals/laguerre-residual",
               "pde-residuals/case-i-residual", "pde-residuals/case-ii-residual",
               "pde-residuals/series-residual")


def test_09_subordination_chain(suites):
    _criterion(suites, 9, "subordination moment chain", 1e-13, 1.0,
               "pde-residuals/subordination-term-consistency")


def test_10_sheffer_ladder(suites):
    _criterion(suites, 10, "Sheffer ladder", 1e-9, 2.0,
               "sheffer-ladder/ladder-raising-fhp", "sheffer-ladder/ladder-lowering-fhp",
               "sheffer-ladder/ladder-raising-mlp", "sheffer-ladder/ladder-lowering-mlp",
               "sheffer-ladder/ladder-commutator")


def test_11_cli_determinism():
    start = time.perf_counter()
    cmd = [sys.executable, "-m", "mlpoly.cli", "verify", "--suite", "all", "--seed", "42"]
    first = subprocess.run(cmd, capture_output=True)
    second = subprocess.run(cmd, capture_output=True)
    assert first.returncode == 0, first.stdout.decode()
    assert second.returncode == 0
    mismatch = 0.0 if first.stdout == second.stdout else 1.0
    _finish(11, "CLI determinism", 0.0, 30.0, mismatch, time.perf_counter() - start)
