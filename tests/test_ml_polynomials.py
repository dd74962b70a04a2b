import itertools
import math
import sys
from fractions import Fraction

import numpy_pins
import pytest

from mlpoly import ml_polynomials
from mlpoly._pcg import Generator
from mlpoly.cli import _linspace
from mlpoly.errors import DomainError, FloatOverflowError, VerificationError
from mlpoly.fracpoly import FracPoly
from mlpoly.gamma_core import gamma, rgamma
from mlpoly.mittag_leffler import ml_three
from mlpoly.ml_polynomials import (
    _rgamma_row,
    frac_laguerre_apply,
    konhauser,
    mlp_coeffs,
    mlp_egf_closed,
    mlp_eval,
    mlp_ogf_closed,
    mlp_one_var_reduction,
    mlp_operational_check,
)
from mlpoly.verify import _laguerre_explicit as laguerre_explicit
from mlpoly.verify import run_suites

import oracles


class TestMlpEval:
    def test_degree_zero(self):
        for beta, want in ((1.0, 1.0), (2.0, 1.0), (0.5, 1.0 / gamma(0.5))):
            assert mlp_eval(0, 0.7, beta, 3.0, -2.0) == pytest.approx(want, rel=1e-14)

    def test_three_term_point(self):
        # 1 - 2/Gamma(1.5) + 1/Gamma(2), frozen from the oracle
        assert mlp_eval(2, 0.5, 1.0, 1.0, 1.0) == pytest.approx(
            -0.25675833419102514779, rel=1e-13
        )

    def test_oracle_sweep(self):
        rng = Generator(2)
        for _ in range(30):
            n = int(rng.integers(0, 11))
            alpha = rng.uniform(0.2, 1.6)
            beta = rng.uniform(0.3, 2.5)
            x, y = rng.uniform(-1.5, 1.5, size=2)
            assert mlp_eval(n, alpha, beta, x, y) == pytest.approx(
                oracles.mlp(n, alpha, beta, x, y)[0], rel=1e-12, abs=1e-12
            )

    def test_coeffs_match_eval(self):
        rng = Generator(3)
        for _ in range(15):
            n = int(rng.integers(0, 9))
            alpha = rng.uniform(0.3, 1.2)
            beta = rng.uniform(0.4, 2.0)
            x = rng.uniform(-1.0, 1.0)
            y = rng.uniform(0.0, 2.0)
            assert mlp_coeffs(n, alpha, beta, x)(y) == pytest.approx(
                mlp_eval(n, alpha, beta, x, y), rel=1e-12, abs=1e-12
            )

    def test_correctly_rounded(self):
        # the exact sum over the float arguments and the float gamma row, rounded once
        rng = Generator(5)
        for _ in range(200):
            n = int(rng.integers(0, 25))
            alpha = float(rng.uniform(0.1, 2.0))
            beta = float(rng.uniform(0.1, 3.0))
            mantissas, exponents = rng.uniform(-3, 3, 2), [rng.integers(-6, 6), rng.integers(-6, 6)]
            x, y = (v * 10.0 ** e for v, e in zip(mantissas, exponents))
            exact = sum(
                math.comb(n, r) * Fraction(-x) ** r * Fraction(y) ** (n - r)
                * Fraction(rgamma(beta + alpha * r))
                for r in range(n + 1)
            )
            assert mlp_eval(n, alpha, beta, x, y) == float(exact)

    def test_integer_arguments_are_floats(self):
        assert mlp_eval(3, 0.5, 1.0, 2, -1) == mlp_eval(3, 0.5, 1.0, 2.0, -1.0)
        assert mlp_eval(4, 1, 2, Fraction(3), 1) == mlp_eval(4, 1.0, 2.0, 3.0, 1.0)

    def test_shared_gamma_row_changes_nothing(self):
        # the gamma entries are shared across degrees at one (alpha, beta)
        degrees = (12, 3, 20, 0, 7)
        shared = [mlp_eval(n, 0.37, 1.21, 0.8, 0.6) for n in degrees]
        fresh = []
        for n in degrees:
            _rgamma_row.cache_clear()
            fresh.append(mlp_eval(n, 0.37, 1.21, 0.8, 0.6))
        assert shared == fresh

    @pytest.mark.parametrize("seed", [0, 2, 3])
    def test_one_variable_reduction_check_passes(self, seed):
        # these seeds failed at 1.4e-12 to 1.5e-11 while the sum was rounded term by term
        [(_, checks)] = run_suites("mlp-gf", n_max=10, seed=seed)
        check = next(c for c in checks if c.name == "mlp-one-var-reduction")
        assert check.passed, check

    def test_domain(self):
        with pytest.raises(DomainError):
            mlp_eval(2, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            mlp_eval(2, 0.5, 0.0, 1.0, 1.0)
        for bad in (math.inf, -math.inf, math.nan):
            with pytest.raises(DomainError):
                mlp_eval(2, 0.5, 1.0, bad, 1.0)
            with pytest.raises(DomainError):
                mlp_eval(2, 0.5, 1.0, 1.0, bad)

    @pytest.mark.parametrize("x, y, name", [(10 ** 400, 1.0, "x"), (1.0, -(10 ** 400), "y")],
                             ids=["x", "y"])
    def test_integer_beyond_the_float_range_is_named(self, x, y, name):
        # was a raw OverflowError: int too large to convert to float
        with pytest.raises(FloatOverflowError) as info:
            mlp_eval(2, 0.5, 1.0, x, y)
        assert str(info.value) == f"{name} exceeds the double-precision range"

    def test_the_binomial_degree_limit_is_the_last_comb_in_range(self):
        # C(n, n//2) is the largest binomial of degree n; mlp_coeffs refuses
        # every degree past the limit before it builds a row
        first_out = next(n for n in itertools.count() if math.comb(n, n // 2) > sys.float_info.max)
        assert ml_polynomials._MAX_BINOMIAL_DEGREE == first_out - 1
        assert len(mlp_coeffs(first_out - 1, 0.5, 1.0, 0.5).terms) > 0
        with pytest.raises(FloatOverflowError, match=f"^n = {first_out}: an integer factor"):
            mlp_coeffs(first_out, 0.5, 1.0, 0.5)


class TestOneVarReduction:
    def test_y_one_is_identity(self):
        assert mlp_one_var_reduction(3, 0.5, 1.0, 0.4, 1.0) == pytest.approx(
            mlp_eval(3, 0.5, 1.0, 0.4, 1.0), rel=1e-14
        )

    def test_equality_sweep(self):
        rng = Generator(5)
        for _ in range(25):
            n = int(rng.integers(0, 11))
            alpha = rng.uniform(0.3, 1.4)
            beta = rng.uniform(0.4, 2.0)
            x = rng.uniform(-1.0, 1.0)
            y = rng.choice([-1.0, 1.0]) * rng.uniform(0.3, 2.0)
            assert mlp_one_var_reduction(n, alpha, beta, x, y) == pytest.approx(
                mlp_eval(n, alpha, beta, x, y), rel=1e-12, abs=1e-12
            )

    def test_degree_one_form(self):
        alpha, beta, x, y = 0.6, 1.3, 0.7, 1.9
        want = y * rgamma(beta) - x * rgamma(beta + alpha)
        assert mlp_one_var_reduction(1, alpha, beta, x, y) == pytest.approx(want, rel=1e-13)

    def test_y_zero_rejected(self):
        with pytest.raises(DomainError):
            mlp_one_var_reduction(2, 0.5, 1.0, 0.3, 0.0)

    def test_overflowing_quotient_or_power_is_named(self):
        # x/y = inf reached the exact sum as an infinite argument
        with pytest.raises(FloatOverflowError, match="x/y"):
            mlp_one_var_reduction(2, 0.5, 1.0, 1e300, 1e-10)
        with pytest.raises(FloatOverflowError, match=r"y\*\*2"):
            mlp_one_var_reduction(2, 0.5, 1.0, 1e300, 1e300)


class TestKonhauser:
    def test_degree_zero_is_one(self):
        for alpha in (0.4, 1.0, 2.0):
            for beta in (0.5, 1.0, 2.7):
                assert konhauser(0, alpha, beta, 1.3, 0.8) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("alpha", [2.0, 2.5])
    def test_overflowing_power_of_x_is_named(self, alpha):
        with pytest.raises(FloatOverflowError) as info:
            konhauser(2, alpha, 1.0, 1e300, 1.0)
        assert str(info.value) == f"x**{alpha} exceeds the double-precision range at x = 1e+300"

    def test_laguerre_one_two(self):
        for x in (0.0, 0.7, 2.5):
            assert konhauser(1, 1.0, 1.0, x, 1.0) == pytest.approx(1.0 - x, rel=1e-13, abs=1e-13)
            assert konhauser(2, 1.0, 1.0, x, 1.0) == pytest.approx(
                (x * x - 4.0 * x + 2.0) / 2.0, rel=1e-13, abs=1e-13
            )

    def test_laguerre_reduction_sweep(self):
        for n in range(11):
            for x in _linspace(0.0, 4.0, 9):
                got = konhauser(n, 1.0, 1.0, float(x), 1.0)
                want = laguerre_explicit(n, float(x))
                assert abs(got - want) <= max(1e-10 * abs(want), 1e-10)

    def test_negative_x_fractional_alpha_rejected(self):
        with pytest.raises(DomainError):
            konhauser(2, 0.5, 1.0, -1.0, 1.0)


class TestGeneratingFunctions:
    def test_ogf_lambda_zero(self):
        for beta in (0.5, 1.0, 2.0):
            assert mlp_ogf_closed(0.0, 0.6, beta, 0.8, 0.9) == pytest.approx(
                rgamma(beta), rel=1e-13
            )

    def test_ogf_x_zero_geometric(self):
        lam, beta, y = 0.3, 1.4, 0.9
        want = rgamma(beta) / (1.0 - lam * y)
        assert mlp_ogf_closed(lam, 0.7, beta, 0.0, y) == pytest.approx(want, rel=1e-12)

    def test_ogf_against_partial_sum(self):
        rng = Generator(7)
        for _ in range(30):
            alpha = rng.uniform(0.3, 0.95)
            beta = rng.uniform(0.6, 2.0)
            x = rng.uniform(0.4, 1.1)
            y = rng.uniform(0.4, 1.1)
            lam = rng.uniform(0.3, 1.0) * 0.5 / (abs(x) + abs(y))
            partial = sum(lam ** n * mlp_eval(n, alpha, beta, x, y) for n in range(41))
            assert abs(partial - mlp_ogf_closed(lam, alpha, beta, x, y)) <= 1e-9

    def test_ogf_domain(self):
        with pytest.raises(DomainError):
            mlp_ogf_closed(0.8, 0.5, 1.0, 0.5, 2.0)

    def test_egf_trivials(self):
        lam, beta, y = 0.7, 1.2, 0.4
        assert mlp_egf_closed(lam, 0.5, beta, 0.0, y) == pytest.approx(
            math.exp(lam * y) * rgamma(beta), rel=1e-12
        )
        assert mlp_egf_closed(0.0, 0.5, beta, 1.0, y) == pytest.approx(
            rgamma(beta), rel=1e-12
        )

    def test_egf_against_partial_sum(self):
        rng = Generator(11)
        for _ in range(30):
            alpha = rng.uniform(0.3, 0.95)
            beta = rng.uniform(0.6, 2.0)
            x, y = rng.uniform(0.2, 1.2, size=2)
            lam = rng.uniform(-0.8, 0.8)
            partial = sum(
                lam ** n / math.factorial(n) * mlp_eval(n, alpha, beta, x, y)
                for n in range(31)
            )
            assert abs(partial - mlp_egf_closed(lam, alpha, beta, x, y)) <= 1e-9


class TestFracLaguerreGenerator:
    def test_constants_annihilated(self):
        p = FracPoly([(3.0, 0.0)])
        assert frac_laguerre_apply(p, 0.5).is_zero()

    def test_single_step_value(self):
        # K x**0.5 at alpha = 0.5: 0.5 * Gamma(1.5)/Gamma(1) * x**0
        image = frac_laguerre_apply(FracPoly([(1.0, 0.5)]), 0.5)
        assert image.terms == ((pytest.approx(0.5 * gamma(1.5), rel=1e-13), 0.0),)

    def test_repeated_application_chain(self):
        # K**r on x**(alpha n) yields alpha**r n!/(n-r)! Gamma(1+alpha n) /
        # Gamma(1+alpha(n-r)) x**(alpha(n-r)); the chain factor is what makes
        # the operator exponential reproduce the polynomial family
        alpha, n = 0.5, 4
        p = FracPoly([(1.0, alpha * n)])
        for r in range(1, n + 1):
            p = frac_laguerre_apply(p, alpha)
            want = (
                alpha ** r
                * (math.factorial(n) // math.factorial(n - r))
                * gamma(1.0 + alpha * n)
                * rgamma(1.0 + alpha * (n - r))
            )
            assert p.coeff_at(alpha * (n - r)) == pytest.approx(want, rel=1e-12)
        assert frac_laguerre_apply(p, alpha).is_zero()

    def test_low_exponent_rejected(self):
        with pytest.raises(DomainError):
            frac_laguerre_apply(FracPoly([(1.0, 0.2)]), 0.5)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            frac_laguerre_apply(FracPoly([(1.0, 1.0)]), 1.0)


class TestOperationalConstruction:
    def test_degree_zero(self):
        lhs, rhs = mlp_operational_check(0, 0.5, 1.0)
        # numpy's allclose: |a - b| <= 1e-8 + 1e-5 |b|
        assert all(abs(v - 1.0) <= 1e-8 + 1e-5 * 1.0 for v in lhs + rhs)

    def test_degree_one_closed_form(self):
        # numpy.linspace(0.0, 2.0, 41), pinned by tests/numpy_pins.py
        grid = [float.fromhex(v) for v in numpy_pins.linspace_pins()[numpy_pins.OPERATIONAL]]
        assert tuple(grid) == ml_polynomials._OPERATIONAL_GRID
        lhs, rhs = mlp_operational_check(1, 0.5, 1.0)
        want = [1.0 - math.sqrt(x) / gamma(1.5) for x in grid]
        assert all(abs(a - b) <= 1e-12 for a, b in zip(lhs, want))
        assert all(abs(a - b) <= 1e-10 for a, b in zip(rhs, want))

    def test_sweep(self):
        for n in range(9):
            for alpha in (0.3, 0.5, 0.9):
                for y in (0.5, 1.0, 2.0):
                    lhs, rhs = mlp_operational_check(n, alpha, y)
                    assert max(abs(a - b) for a, b in zip(lhs, rhs)) <= 1e-10

    def test_returns_two_tuples_of_41_floats(self):
        for sides in (mlp_operational_check(3, 0.5, 1.0), ml_polynomials._operational_sides(3, 0.5, 1.0)):
            assert len(sides) == 2
            for side in sides:
                assert type(side) is tuple and len(side) == 41
                assert all(type(v) is float for v in side)
        assert mlp_operational_check(3, 0.5, 1.0) == ml_polynomials._operational_sides(3, 0.5, 1.0)

    def test_the_private_sides_report_a_gap_without_raising(self, monkeypatch):
        mlp_eval = ml_polynomials.mlp_eval
        monkeypatch.setattr(ml_polynomials, "mlp_eval", lambda *args: mlp_eval(*args) + 1e-9)
        lhs, rhs = ml_polynomials._operational_sides(2, 0.5, 1.0)
        assert max(abs(a - b) for a, b in zip(lhs, rhs)) == pytest.approx(1e-9, rel=1e-3)
        with pytest.raises(VerificationError, match="max [|]lhs-rhs[|] = 1.000e-09"):
            mlp_operational_check(2, 0.5, 1.0)

    def test_nan_gap_fails(self, monkeypatch):
        monkeypatch.setattr(ml_polynomials, "mlp_eval", lambda *args: math.nan)
        with pytest.raises(VerificationError):
            mlp_operational_check(2, 0.5, 1.0)


class TestPrabhakarConsistency:
    def test_values_match_truncated_series(self):
        rng = Generator(13)
        for _ in range(20):
            n = int(rng.integers(0, 7))
            alpha = rng.uniform(0.3, 1.2)
            beta = rng.uniform(0.4, 2.0)
            z = rng.uniform(-1.5, 1.5)
            assert ml_three(alpha, beta, -float(n), z).value == pytest.approx(
                mlp_eval(n, alpha, beta, z, 1.0), rel=1e-11, abs=1e-12
            )

    def test_coefficientwise(self):
        for n in range(7):
            for alpha, beta in ((0.3, 0.5), (0.7, 1.0), (0.9, 1.7)):
                poly = mlp_coeffs(n, alpha, beta, 1.0)
                for r in range(n + 1):
                    poch = 1.0
                    for j in range(r):
                        poch *= (-n + j)
                    series_coeff = poch / math.factorial(r) * rgamma(beta + alpha * r)
                    assert series_coeff == pytest.approx(
                        poly.coeff_at(float(n - r)), rel=1e-12, abs=1e-15
                    )
