import json
import math
import subprocess
import sys

import numpy_pins
import pytest

from mlpoly import FloatOverflowError, SolutionProfile, config
from mlpoly.cli import _build_parser, _linspace, _profile_text, _record_text, run


def _config_values():
    return {name: value for name, value in vars(config).items() if name.isupper()}


_CONFIG_DEFAULTS = _config_values()


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEvalCommands:
    def test_eval_ml_exponential(self, capsys):
        code, out, _ = _run(capsys, "eval-ml", "--alpha", "1", "--z", "1")
        assert code == 0
        payload = json.loads(out)
        assert set(payload.keys()) == {"meta", "data"}
        assert payload["data"]["value"] == pytest.approx(math.e, rel=1e-12)
        assert payload["meta"]["command"] == "eval-ml"

    def test_eval_ml_two_parameter(self, capsys):
        code, out, _ = _run(capsys, "eval-ml", "--alpha", "1", "--beta", "2", "--z", "1")
        assert code == 0
        assert json.loads(out)["data"]["value"] == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_eval_ml_three_parameter(self, capsys):
        code, out, _ = _run(
            capsys, "eval-ml", "--alpha", "0.7", "--beta", "1", "--gamma", "-2", "--z", "0.3"
        )
        assert code == 0
        assert json.loads(out)["data"]["value"] == pytest.approx(
            0.41212544584204520769, rel=1e-12
        )

    def test_eval_fhp(self, capsys):
        code, out, _ = _run(
            capsys, "eval-fhp", "--n", "2", "--alpha", "1", "--x", "1", "--y", "1"
        )
        assert code == 0
        assert json.loads(out)["data"]["value"] == pytest.approx(3.0)

    def test_eval_mlp(self, capsys):
        code, out, _ = _run(
            capsys, "eval-mlp", "--n", "0", "--alpha", "0.5", "--beta", "1",
            "--x", "2", "--y", "3",
        )
        assert code == 0
        assert json.loads(out)["data"]["value"] == pytest.approx(1.0)

    def test_csv_format(self, capsys):
        code, out, _ = _run(
            capsys, "eval-fhp", "--n", "2", "--alpha", "1", "--x", "1", "--y", "1",
            "--format", "csv",
        )
        assert code == 0
        assert out == "value\n3\n"

    def test_fifteen_significant_digits(self, capsys):
        code, out, _ = _run(capsys, "eval-ml", "--alpha", "1", "--z", "1")
        assert code == 0
        value = json.loads(out)["data"]["value"]
        assert f"{value}" == f"{float(format(value, '.15g'))}"

    def test_coefficient_output(self, capsys):
        code, out, _ = _run(
            capsys, "eval-fhp", "--n", "2", "--alpha", "1", "--y", "1", "--coeffs"
        )
        assert code == 0
        coeffs = json.loads(out)["data"]["coefficients"]
        assert coeffs == [{"c": 2.0, "mu": 0.0}, {"c": 1.0, "mu": 2.0}]
        assert [item["mu"] for item in coeffs] == sorted(i["mu"] for i in coeffs)

    def test_coefficient_output_csv(self, capsys):
        code, out, err = _run(
            capsys, "eval-fhp", "--n", "2", "--alpha", "1", "--y", "1", "--coeffs",
            "--format", "csv",
        )
        assert (code, out, err) == (0, "exponent,coefficient\n0,2\n2,1\n", "")

    def test_coefficient_output_mlp(self, capsys):
        code, out, _ = _run(
            capsys, "eval-mlp", "--n", "1", "--alpha", "0.5", "--beta", "1",
            "--x", "0.0", "--coeffs",
        )
        assert code == 0
        assert json.loads(out)["data"]["coefficients"] == [{"c": 1.0, "mu": 1.0}]

    def test_missing_x_without_coeffs(self, capsys):
        code, _, err = _run(capsys, "eval-fhp", "--n", "2", "--alpha", "1", "--y", "1")
        assert code == 1
        assert "--x" in err

    def test_missing_y_without_coeffs(self, capsys):
        code, out, err = _run(capsys, "eval-mlp", "--n", "2", "--alpha", "0.5", "--beta", "1",
                              "--x", "1")
        assert (code, out) == (1, "")
        assert err == "error: --y is required unless --coeffs is given\n"

    def test_budget_flag_overrides(self, capsys):
        code, _, err = _run(
            capsys, "eval-ml", "--alpha", "0.5", "--z", "2.0", "--term-budget", "3"
        )
        assert code == 2
        assert "partial_value" in err


class TestExitCodes:
    def test_missing_flag_names_it(self, capsys):
        code, _, err = _run(capsys, "eval-ml", "--alpha", "1")
        assert code == 1
        assert "--z" in err or "z" in err

    def test_validation_error(self, capsys):
        code, _, err = _run(capsys, "eval-fhp", "--n", "2", "--alpha", "1.5",
                            "--x", "1", "--y", "1")
        assert code == 1
        assert "alpha" in err

    def test_nonconvergence_prints_partial(self, capsys):
        code, _, err = _run(capsys, "eval-ml", "--alpha", "0.4", "--z", "-5")
        assert code == 2
        assert "partial_value" in err
        assert "abs_error_estimate" in err


class TestSolve:
    def test_profile_csv(self, capsys):
        code, out, _ = _run(
            capsys, "solve", "--problem", "case-i", "--n", "2", "--a", "0.5",
            "--alpha", "0.5", "--grid-min", "0", "--grid-max", "1",
            "--grid-points", "3", "--t", "0", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "grid,value"
        assert len(lines) == 4
        # at t = 0 the profile is the classical H_2(x, 0.5) = x**2 + 1
        grid_value = dict(line.split(",") for line in lines[1:])
        assert float(grid_value["1"]) == pytest.approx(2.0)

    def test_profile_json_meta(self, capsys):
        code, out, _ = _run(
            capsys, "solve", "--problem", "laguerre-monomial", "--n", "2",
            "--alpha", "0.5", "--beta", "0.7", "--b", "1.0",
            "--grid-var", "t", "--grid-min", "0.1", "--grid-max", "1.0",
            "--grid-points", "4", "--x", "0.8",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["problem"] == "laguerre-monomial"
        assert len(payload["data"]["grid"]) == 4
        assert len(payload["data"]["values"]) == 4

    def test_series_initial(self, capsys):
        code, out, _ = _run(
            capsys, "solve", "--problem", "tf-diffusion", "--coeffs", "1,0,2",
            "--alpha", "0.5", "--k", "1.0", "--grid-min", "0", "--grid-max", "1",
            "--grid-points", "2", "--t", "0.5",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["coeffs"] == "1,0,2"

    def test_missing_problem_parameter(self, capsys):
        code, _, err = _run(
            capsys, "solve", "--problem", "case-i", "--alpha", "0.5",
            "--grid-min", "0", "--grid-max", "1", "--t", "0.5",
        )
        assert code == 1
        assert "--n" in err

    @pytest.mark.parametrize("flags, message", [
        (("--grid-points", "1"), "--grid-points must be at least 2"),
        (("--grid-min", "1", "--grid-max", "1"), "--grid-max must exceed --grid-min"),
        (("--coeffs=a,b",), "--coeffs must be comma-separated numbers, got 'a,b'"),
    ], ids=["grid-points", "grid-range", "coeffs"])
    def test_bad_grid_or_series_flag(self, capsys, flags, message):
        code, out, err = _run(capsys, "solve", "--problem", "tf-diffusion", "--n", "2",
                              "--alpha", "0.5", "--t", "1", "--grid-min", "0", "--grid-max", "1",
                              *flags)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "profile.csv"
        code, out, _ = _run(
            capsys, "solve", "--problem", "case-ii", "--n", "1", "--a", "0.1",
            "--alpha", "0.5", "--grid-min", "0", "--grid-max", "1",
            "--grid-points", "2", "--t", "0.3", "--format", "csv",
            "--output", str(target),
        )
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("grid,value\n")


class TestRejectedInput:
    def test_fhp_overflow_names_n(self, capsys):
        code, out, err = _run(capsys, "eval-fhp", "--n", "400", "--alpha", "0.5",
                              "--x", "2", "--y", "1")
        assert code == 2
        assert out == ""
        assert "n = 400" in err

    def test_solve_overflow_names_n(self, capsys):
        code, out, err = _run(
            capsys, "solve", "--problem", "case-ii", "--n", "400", "--a", "0.5",
            "--alpha", "0.5", "--t", "0.5", "--grid-min", "0", "--grid-max", "1",
            "--grid-points", "3",
        )
        assert code == 2
        assert out == ""
        assert "n = 400" in err

    def test_nonfinite_fixed_variable(self, capsys):
        code, out, err = _run(
            capsys, "solve", "--problem", "laguerre-monomial", "--n", "2", "--alpha", "0.5",
            "--beta", "0.7", "--grid-var", "t", "--x", "nan", "--grid-min", "0.1",
            "--grid-max", "1",
        )
        assert code == 1
        assert out == ""
        assert "--x" in err and "finite" in err

    def test_nonfinite_problem_parameter(self, capsys):
        code, out, err = _run(
            capsys, "solve", "--problem", "case-i", "--n", "2", "--a", "nan",
            "--alpha", "0.5", "--t", "0.5", "--grid-min", "0", "--grid-max", "1",
        )
        assert code == 1
        assert out == ""
        assert "--a" in err and "finite" in err

    def test_nonfinite_series_coefficient(self, capsys):
        code, out, err = _run(
            capsys, "solve", "--problem", "tf-diffusion", "--coeffs=1,nan",
            "--alpha", "0.5", "--t", "0.5", "--grid-min", "0", "--grid-max", "1",
        )
        assert code == 1
        assert out == ""
        assert "--coeffs" in err

    def test_fhp_overflowing_power_of_x(self, capsys):
        code, out, err = _run(capsys, "eval-fhp", "--n", "3", "--alpha", "0.5",
                              "--x", "1e200", "--y", "1")
        assert code == 2
        assert out == ""
        assert "x**3" in err

    def test_solve_overflowing_power_of_x(self, capsys):
        code, out, err = _run(
            capsys, "solve", "--problem", "tf-diffusion", "--n", "3", "--alpha", "0.5",
            "--t", "0.5", "--grid-min", "0", "--grid-max", "1e200",
        )
        assert code == 2
        assert out == ""
        assert "x**3" in err

    def test_laguerre_parameter_out_of_domain(self, capsys):
        code, out, err = _run(
            capsys, "solve", "--problem", "laguerre-monomial", "--n", "2", "--alpha", "-0.5",
            "--beta", "0.5", "--t", "0.5", "--grid-min", "0", "--grid-max", "1",
        )
        assert code == 1
        assert out == ""
        assert "alpha must lie in (0, 1)" in err

    def test_unwritable_output(self, capsys, tmp_path):
        target = tmp_path / "missing-dir" / "out.json"
        code, out, err = _run(capsys, "eval-ml", "--alpha", "1", "--z", "1",
                              "--output", str(target))
        assert code == 1
        assert out == ""
        assert "cannot write output file" in err and str(target) in err

    @pytest.mark.parametrize("argv", [
        ("eval-mlp", "--n", "3", "--alpha", "0.5", "--beta", "1", "--x", "1e200", "--y", "1"),
        ("eval-mlp", "--n", "3", "--alpha", "0.5", "--beta", "1", "--x", "1", "--y", "1e200"),
        ("table", "--family", "mlp", "--alpha", "0.5", "--x", "1e200", "--n-max", "3"),
        ("solve", "--problem", "case-i", "--n", "4", "--a", "1e200", "--alpha", "0.5",
         "--t", "0.5", "--grid-min", "0", "--grid-max", "1", "--grid-points", "3"),
        ("solve", "--problem", "case-ii", "--n", "4", "--a", "1e200", "--alpha", "0.5",
         "--t", "0.5", "--grid-min", "0", "--grid-max", "1", "--grid-points", "3"),
        ("solve", "--problem", "laguerre-monomial", "--n", "4", "--alpha", "0.5", "--beta", "0.5",
         "--t", "0.5", "--grid-min", "0", "--grid-max", "1e200", "--grid-points", "3"),
        ("solve", "--problem", "laguerre-monomial", "--n", "4", "--alpha", "0.5", "--beta", "0.5",
         "--b", "1e300", "--grid-var", "t", "--x", "0.5", "--grid-min", "0.1", "--grid-max", "1",
         "--grid-points", "3"),
    ], ids=["mlp-x", "mlp-y", "table-mlp", "case-i-a", "case-ii-a", "laguerre-x", "laguerre-b"])
    def test_overflowing_float_power(self, capsys, argv):
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "exceeds the double-precision range" in err

    @pytest.mark.parametrize("command", [
        ("verify", "--suite", "caputo"),
        ("table", "--family", "fhp", "--alpha", "0.5"),
    ], ids=["verify", "table"])
    def test_format_only_where_it_applies(self, capsys, command):
        code, out, err = _run(capsys, *command, "--format", "json")
        assert code == 1
        assert out == ""
        assert "--format" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nonfinite_value_is_not_printed(self, capsys, fmt):
        # x**12 and y**6 fit the double range; their product with the ratio does not
        code, out, err = _run(capsys, "eval-fhp", "--n", "12", "--alpha", "0.5", "--x", "1e25",
                              "--y", "1e50", "--format", fmt)
        assert code == 2
        assert out == ""
        assert "H[alpha]_12(1e+25, 1e+50) is inf: it leaves the double-precision range" in err

    @pytest.mark.parametrize("argv", [
        ("eval-fhp", "--n", "12", "--alpha", "0.5", "--y", "1e50", "--coeffs"),
        ("table", "--family", "fhp", "--alpha", "0.5", "--y", "1e50", "--n-max", "12"),
    ], ids=["eval-fhp-coeffs", "table-fhp"])
    def test_overflowing_coefficient(self, capsys, argv):
        # y**6 fits the double range; its product with 12!/Gamma(4) does not
        code, out, err = _run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "the coefficient of x**0.0 exceeds the double-precision range" in err

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_case_ii_routes_both_infinite(self, capsys, fmt):
        code, out, err = _run(
            capsys, "solve", "--problem", "case-ii", "--n", "6", "--a", "1e102", "--alpha", "0.5",
            "--t", "0.5", "--grid-min", "0", "--grid-max", "1", "--grid-points", "2",
            "--format", fmt,
        )
        assert code == 2
        assert out == ""
        assert "disagree" in err

    def test_an_overflowing_gamma_argument_is_named(self, capsys):
        # beta + alpha*2 = inf; was "error: x must be finite, got inf", exit code 1
        code, out, err = _run(capsys, "eval-mlp", "--n", "2", "--alpha", "1e308", "--beta", "1",
                              "--x", "0.5", "--y", "1")
        assert code == 2
        assert out == ""
        assert err == ("numerical failure: beta + alpha*2 exceeds the double-precision range "
                       "at alpha = 1e+308, beta = 1.0\n")

    def test_an_overflowing_series_argument_is_named(self, capsys):
        # -y*x**alpha = -inf; was "error: mu and z must be finite", exit code 1
        code, out, err = _run(capsys, "solve", "--problem", "laguerre-wright", "--y-param", "1e300",
                              "--alpha", "0.5", "--beta", "0.5", "--x", "1e20", "--grid-var", "t",
                              "--grid-min", "0.1", "--grid-max", "1", "--grid-points", "3")
        assert code == 2
        assert out == ""
        assert err == "numerical failure: -y*x**alpha exceeds the double-precision range\n"

    def test_mlp_value_beyond_the_double_range(self, capsys):
        code, out, err = _run(capsys, "eval-mlp", "--n", "1", "--alpha", "0.5", "--beta", "1",
                              "--x=-1e308", "--y", "1e308")
        assert code == 2
        assert out == ""
        assert "exceeds the double-precision range" in err

    def test_an_overflowing_degree_is_refused_at_once(self):
        # n! leaves the double range from n = 171 on: refused before any exact ratio is built
        cmd = [sys.executable, "-m", "mlpoly.cli", "eval-fhp", "--n", "100000", "--alpha", "0.5",
               "--x", "1", "--y", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=5)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("numerical failure: n = 100000: an integer factor n!/(...) exceeds"
                               " the double-precision range\n")

    def test_an_overflowing_laguerre_degree_is_refused_at_once(self):
        # refused before the factorials 0!..n! are built
        cmd = [sys.executable, "-m", "mlpoly.cli", "solve", "--problem", "laguerre-monomial",
               "--n", "20000", "--alpha", "0.5", "--beta", "0.5", "--t", "1", "--grid-min", "0",
               "--grid-max", "1"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=5)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == ("numerical failure: n = 20000: an integer factor n!/(...) exceeds"
                               " the double-precision range\n")

    def test_missing_config_file(self, capsys, tmp_path):
        missing = tmp_path / "absent.cfg"
        code, out, err = _run(capsys, "eval-ml", "--alpha", "1", "--z", "1",
                              "--config", str(missing))
        assert code == 1
        assert out == ""
        assert str(missing) in err


class TestOutputGate:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_profile_names_the_nonfinite_point(self, fmt):
        profile = SolutionProfile([0.0, 1.0, 2.0], [1.0, 2.0, math.inf], {"problem": "case-i"})
        with pytest.raises(FloatOverflowError, match=r"values\[2\] = inf"):
            _profile_text(profile, fmt)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_record_names_the_nonfinite_field(self, fmt):
        with pytest.raises(FloatOverflowError, match="value = nan"):
            _record_text("eval-fhp", {"n": 2}, {"value": math.nan}, fmt)

    def test_finite_output_passes(self):
        assert _record_text("eval-fhp", {"n": 2}, {"value": 1.5}, "csv") == "value\n1.5\n"


class TestGrid:
    """``_linspace`` against ``numpy.linspace``'s points, pinned by ``tests/numpy_pins.py``."""

    PINS = numpy_pins.linspace_pins()

    def _assert_pinned(self, start, stop, num):
        got = _linspace(start, stop, num)
        assert all(type(v) is float for v in got)
        assert numpy_pins.points_pin(got) == self.PINS[start, stop, num]

    @pytest.mark.parametrize("start,stop,num", numpy_pins.EDGES)
    def test_linspace_equals_numpy_bit_for_bit_at_edges(self, start, stop, num):
        self._assert_pinned(start, stop, num)

    def test_linspace_equals_numpy_bit_for_bit_at_random(self):
        cases = numpy_pins.linspace_cases()
        assert list(self.PINS) == cases  # the file pins exactly these grids, in order
        for start, stop, num in cases[len(numpy_pins.EDGES):]:
            self._assert_pinned(start, stop, num)


class TestVerify:
    def test_all_suites_pass(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "all", "--n-max", "6",
                            "--seed", "42")
        assert code == 0
        assert "passed" in out.strip().split("\n")[-1]
        assert "FAIL" not in out

    def test_single_suite_alias(self, capsys):
        code, out, _ = _run(capsys, "verify", "--suite", "identities",
                            "--n-max", "6", "--seed", "42")
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("# suites=fhp-identities")
        assert "seed=42" in lines[0]
        assert all(line.startswith(("PASS", "FAIL", "passed")) for line in lines[1:])


class TestConfig:
    def test_config_file_changes_budget(self, capsys, tmp_path):
        cfg = tmp_path / "mlpoly.cfg"
        cfg.write_text("term_budget = 3\n")
        code, _, err = _run(
            capsys, "eval-ml", "--alpha", "0.5", "--z", "2.0", "--config", str(cfg)
        )
        assert code == 2  # three terms cannot converge
        assert "numerical failure" in err

    def test_env_var_config(self, capsys, tmp_path, monkeypatch):
        cfg = tmp_path / "env.cfg"
        cfg.write_text("term_budget = 3\n")
        monkeypatch.setenv("MLPOLY_CONFIG", str(cfg))
        code, _, _ = _run(capsys, "eval-ml", "--alpha", "0.5", "--z", "2.0")
        assert code == 2

    @pytest.mark.parametrize("text, name", [
        ("series_tol = abc\n", "series_tol"),
        ("term_budget = 1.5\n", "term_budget"),
        ("series_tol = nan\n", "series_tol"),
        ("exp_snap = 5\n", "exp_snap"),
    ], ids=["tol-abc", "budget-1.5", "tol-nan", "exp_snap"])
    def test_bad_config_value_rejected(self, capsys, tmp_path, text, name):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        code, out, err = _run(capsys, "eval-fhp", "--n", "4", "--alpha", "0.5", "--y", "1",
                              "--coeffs", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and name in err and "Traceback" not in err

    @pytest.mark.parametrize("flag, value, name", [
        ("--tol", "-1", "series_tol"),
        ("--tol", "0", "series_tol"),
        ("--term-budget", "0", "term_budget"),
    ], ids=["tol-negative", "tol-zero", "budget-zero"])
    def test_bad_setting_flag_rejected(self, capsys, flag, value, name):
        code, out, err = _run(capsys, "eval-ml", "--alpha", "1", "--z", "1", flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and name in err

    def test_undecodable_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "binary.cfg"
        cfg.write_bytes(b"\xff\xfe = 1\n")
        code, out, err = _run(capsys, "eval-ml", "--alpha", "1", "--z", "1", "--config", str(cfg))
        assert code == 1
        assert out == ""
        assert "unknown configuration key" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, config_text, use_env, want", [
        (("eval-ml", "--alpha", "1", "--z", "1", "--tol", "1e-3"), None, False, 0),
        (("eval-ml", "--alpha", "0.5", "--z", "2", "--term-budget", "3"), None, False, 2),
        (("eval-ml", "--alpha", "1", "--z", "1", "--tol", "-1", "--term-budget", "7"),
         None, False, 1),
        (("eval-ml", "--alpha", "0.5", "--z", "2"), "term_budget = 3\n", False, 2),
        (("eval-ml", "--alpha", "1", "--z", "1"), "series_tol = 1e-3\nterm_budget = 50\n",
         True, 0),
        (("eval-fhp", "--n", "-1", "--alpha", "0.5", "--x", "1", "--y", "1"),
         "series_tol = 1e-3\n", True, 1),
        (("verify", "--suite", "caputo", "--n-max", "4"), "term_budget = 3\n", False, 2),
    ], ids=["tol", "term-budget", "bad-tol", "config", "env", "env-bad-input", "config-verify"])
    def test_settings_do_not_outlive_run(self, capsys, tmp_path, monkeypatch,
                                         argv, config_text, use_env, want):
        argv = list(argv)
        if config_text is not None:
            cfg = tmp_path / "settings.cfg"
            cfg.write_text(config_text)
            if use_env:
                monkeypatch.setenv("MLPOLY_CONFIG", str(cfg))
            else:
                argv += ["--config", str(cfg)]
        code, _, _ = _run(capsys, *argv)
        assert code == want
        assert _config_values() == _CONFIG_DEFAULTS

    def test_unknown_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("no_such_key = 1\n")
        code, _, err = _run(
            capsys, "eval-ml", "--alpha", "1", "--z", "1", "--config", str(cfg)
        )
        assert code == 1
        assert "no_such_key" in err


class TestDeterminism:
    def test_parser_is_built_once(self, capsys):
        parser = _build_parser()
        assert _run(capsys, "eval-ml", "--alpha", "1", "--z", "1")[0] == 0
        assert _run(capsys, "eval-ml", "--alpha", "bad", "--z", "1")[0] == 1
        assert _build_parser() is parser

    def test_verify_byte_identical(self):
        cmd = [sys.executable, "-m", "mlpoly.cli", "verify", "--suite",
               "sheffer-ladder", "--n-max", "6", "--seed", "42"]
        first = subprocess.run(cmd, capture_output=True, text=True)
        second = subprocess.run(cmd, capture_output=True, text=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout

    def test_table_deterministic(self, capsys):
        args = ("table", "--family", "mlp", "--alpha", "0.5", "--beta", "1.0",
                "--x", "0.5", "--n-max", "4")
        code1, out1, _ = _run(capsys, *args)
        code2, out2, _ = _run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("n,exponent,coefficient\n")
