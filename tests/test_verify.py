import math

from mlpoly import verify
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
    checks = {check.name: check for check in verify.suite_fhp_identities(n_max=4, seed=0)}
    check = checks["fhp-classical-reduction"]
    assert calls and not check.passed
    assert math.isnan(check.max_err)


def test_nan_coefficient_gap_in_a_residual_table():
    assert math.isnan(_table_residual([(1.0, 0.0, 0.0), (math.nan, 1.0, 0.0)], [(1.0, 0.0, 0.0)]))
