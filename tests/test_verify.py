import math

import pytest

from mlpoly import FloatOverflowError, verify
from mlpoly.fokker_planck import _table_residual
from mlpoly.gamma_core import _worst


def test_worst_keeps_nan_wherever_it_comes():
    assert _worst(0.0, 2.0, 1.0) == 2.0
    assert math.isnan(_worst(0.0, math.nan))
    assert math.isnan(_worst(math.nan, 1.0))
    assert math.isnan(_worst(1.0, math.nan, 3.0))


def test_nan_gap_fails_its_check(monkeypatch):
    calls = []

    def fhp_eval(n, alpha, x, y):
        calls.append(n)
        return math.nan

    monkeypatch.setattr(verify, "fhp_eval", fhp_eval)
    [(_, results)] = verify.run_suites("fhp-identities", n_max=4, seed=0)
    checks = {check.name: check for check in results}
    check = checks["fhp-classical-reduction"]
    assert calls and not check.passed
    assert math.isnan(check.max_err)


def test_nan_coefficient_gap_in_a_residual_table():
    # refused by name: a NaN residual would read as a failed identity, not as an overflow
    with pytest.raises(FloatOverflowError, match=r"coefficient of term \(1, 0\) is nan"):
        _table_residual([(1.0, 0, 0), (math.nan, 1, 0)], [(1.0, 0, 0)])


def test_an_operational_gap_is_a_failed_check_not_an_abort(monkeypatch, capsys):
    # the check's bound is the public mlp_operational_check's own raise
    # threshold, so verify reads the two sides from the non-raising route
    from mlpoly import cli, ml_polynomials

    mlp_eval = ml_polynomials.mlp_eval
    monkeypatch.setattr(ml_polynomials, "mlp_eval", lambda *args: mlp_eval(*args) + 1e-9)
    code = cli.run(["verify", "--suite", "mlp-gf", "--seed", "0", "--n-max", "4"])
    out = capsys.readouterr().out
    assert code == 2
    # the routes through ml_polynomials.mlp_eval fail too; the report is whole
    failed = {line.split()[1]: line for line in out.splitlines() if line.startswith("FAIL")}
    assert failed["mlp-gf/mlp-operational"].startswith("FAIL mlp-gf/mlp-operational max_err=1.0000")
    assert out.splitlines()[-1] == f"passed {6 - len(failed)}/6"


@pytest.mark.parametrize("seed", range(40))
def test_pde_residuals_pass_on_every_seed(seed):
    # initial-condition-recovery compares every solution with its datum at t = 0
    [(_, results)] = verify.run_suites("pde-residuals", seed=seed)
    assert [check.name for check in results if not check.passed] == []
