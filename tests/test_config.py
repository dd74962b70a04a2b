import math

import pytest

from mlpoly import config, ml_one
from mlpoly.errors import ConvergenceError, DomainError


def test_override_sets_and_restores():
    with config.override(series_tol="1e-6", term_budget=3):
        assert config.SERIES_TOL == 1e-6 and config.TERM_BUDGET == 3
        with pytest.raises(ConvergenceError):
            ml_one(0.5, 2.0)
    assert config.SERIES_TOL == 1e-12 and config.TERM_BUDGET == 400
    assert ml_one(0.5, 2.0).terms_used > 3


def test_override_restores_when_the_block_raises():
    with pytest.raises(ZeroDivisionError):
        with config.override(term_budget=7):
            1 / 0
    assert config.TERM_BUDGET == 400


@pytest.mark.parametrize("settings, name", [
    ({"series_tol": "abc"}, "series_tol"),
    ({"series_tol": -1.0}, "series_tol"),
    ({"series_tol": 0}, "series_tol"),
    ({"series_tol": math.inf}, "series_tol"),
    ({"series_tol": "nan"}, "series_tol"),
    ({"term_budget": "1.5"}, "term_budget"),
    ({"term_budget": 1.5}, "term_budget"),
    ({"term_budget": 0}, "term_budget"),
    ({"exp_snap": 5}, "exp_snap"),
    ({"identity_rtol": 0}, "identity_rtol"),
    ({"SERIES_TOL": 1e-3}, "SERIES_TOL"),
], ids=["tol-abc", "tol-negative", "tol-zero", "tol-inf", "tol-nan", "budget-text-1.5",
        "budget-1.5", "budget-zero", "exp_snap", "identity_rtol", "upper-case"])
def test_override_rejects_bad_settings(settings, name):
    # the valid settings next to a bad one are not applied either
    with pytest.raises(DomainError, match=name):
        with config.override(**{"series_tol": 1e-6, "term_budget": 9, **settings}):
            pass
    assert config.SERIES_TOL == 1e-12 and config.TERM_BUDGET == 400


def test_load_config_file_reads_without_applying(tmp_path):
    cfg = tmp_path / "mlpoly.cfg"
    cfg.write_text("# comment\nseries_tol = 1e-6  # inline\n\nterm_budget=12\n")
    assert config.load_config_file(cfg) == {"series_tol": "1e-6", "term_budget": "12"}
    assert config.SERIES_TOL == 1e-12 and config.TERM_BUDGET == 400


def test_load_config_file_rejects_malformed_lines(tmp_path):
    cfg = tmp_path / "mlpoly.cfg"
    cfg.write_text("series_tol 1e-6\n")
    with pytest.raises(DomainError, match=":1:"):
        config.load_config_file(cfg)
