import math

import pytest

from mlpoly import config, fokker_planck, fractional_hermite, gamma_core
from mlpoly._pcg import Generator
from mlpoly.errors import DomainError, VerificationError
from mlpoly.fokker_planck import (
    DiffusionProblem,
    FhpInitial,
    HermiteInitial,
    LaguerreMonomialInitial,
    LaguerreProblem,
    MonomialInitial,
    SeriesInitial,
    SolutionProfile,
    WrightInitial,
    residual,
    solve_case_i,
    solve_case_ii,
    solve_laguerre_monomial,
    solve_laguerre_wright,
    solve_tf_diffusion,
)
from mlpoly.fractional_hermite import _FhpTable, fhp_eval, umbral_hermite_shift
from mlpoly.gamma_core import levy_subordination_moment, rgamma
from mlpoly.mittag_leffler import ml_one, wright
from mlpoly.verify import _classical_hermite as classical_hermite


class TestProblemTypes:
    def test_diffusion_validation(self):
        with pytest.raises(DomainError):
            DiffusionProblem(1.0, 1.0, MonomialInitial(2))
        with pytest.raises(DomainError):
            DiffusionProblem(0.5, 0.0, MonomialInitial(2))
        with pytest.raises(DomainError):
            DiffusionProblem(0.5, 1.0, "x**2")

    def test_laguerre_validation(self):
        with pytest.raises(DomainError):
            LaguerreProblem(0.5, 1.2, 1.0, LaguerreMonomialInitial(1))
        with pytest.raises(DomainError):
            LaguerreProblem(0.5, 0.5, -1.0, WrightInitial(0.5))

    def test_profile_validation(self):
        with pytest.raises(DomainError):
            SolutionProfile((0.0, 1.0), (1.0,))
        with pytest.raises(DomainError):
            SolutionProfile((0.0, 0.0), (1.0, 2.0))

    def test_profile_csv(self):
        profile = SolutionProfile((0.0, 0.5), (1.0, 0.25), {"problem": "demo"})
        assert profile.to_csv() == "grid,value\n0,1\n0.5,0.25\n"


class TestTimeFractionalDiffusion:
    def test_monomial_closed_form(self):
        prob = DiffusionProblem(0.5, 1.3, MonomialInitial(4))
        for x in (-1.0, 0.3, 2.0):
            for t in (0.2, 1.0):
                assert solve_tf_diffusion(prob, x, t) == pytest.approx(
                    fhp_eval(4, 0.5, x, 1.3 * t ** 0.5), rel=1e-13
                )

    def test_monomial_small_time_limit(self):
        prob = DiffusionProblem(0.6, 1.0, MonomialInitial(5))
        x = 1.2
        assert solve_tf_diffusion(prob, x, 1e-12) == pytest.approx(x ** 5, rel=1e-6)

    def test_datum_at_t_zero(self):
        for n in (0, 1, 4, 7):
            prob = DiffusionProblem(0.6, 1.3, MonomialInitial(n))
            for x in (-1.7, -0.0, 0.3, 2.0):
                assert solve_tf_diffusion(prob, x, 0.0) == x ** n
        prob = DiffusionProblem(0.5, 1.0, SeriesInitial((1.0, 2.0, -4.0)))
        assert solve_tf_diffusion(prob, 0.5, 0.0) == 1.0

    def test_series_factorial_coefficients(self):
        # c_r = 1/r! sums to the closed product exp(x) E_alpha(k t**alpha)
        alpha, k, x, t = 0.6, 0.8, 0.3, 0.4
        coeffs = tuple(1.0 / math.factorial(r) for r in range(41))
        prob = DiffusionProblem(alpha, k, SeriesInitial(coeffs))
        got = solve_tf_diffusion(prob, x, t)
        want = math.exp(x) * ml_one(alpha, k * t ** alpha).value
        assert got == pytest.approx(want, abs=1e-10)

    def test_series_truncation_control(self):
        # a caller truncates by passing the leading coefficients only
        coeffs = (1.0, 0.0, 2.0, -3.0, 0.5)
        prob = DiffusionProblem(0.5, 1.0, SeriesInitial(coeffs[:3]))
        got = solve_tf_diffusion(prob, 0.7, 0.9)
        want = fhp_eval(0, 0.5, 0.7, 0.9 ** 0.5) + 2.0 * fhp_eval(2, 0.5, 0.7, 0.9 ** 0.5)
        assert got == pytest.approx(want, rel=1e-13)
        with pytest.raises(DomainError, match="at least one coefficient"):
            SeriesInitial(())

    def test_dispatch_to_closed_cases(self):
        prob = DiffusionProblem(0.5, 1.0, HermiteInitial(3, 0.4))
        assert solve_tf_diffusion(prob, 0.6, 0.8) == pytest.approx(
            solve_case_i(3, 0.4, 0.5, 1.0, 0.6, 0.8), rel=1e-13
        )
        prob = DiffusionProblem(0.5, 1.0, FhpInitial(3, 0.4))
        assert solve_tf_diffusion(prob, 0.6, 0.8) == pytest.approx(
            solve_case_ii(3, 0.4, 0.5, 1.0, 0.6, 0.8), rel=1e-13
        )


class TestHermiteSeedCase:
    def test_initial_condition(self):
        rng = Generator(3)
        for _ in range(10):
            n = int(rng.integers(0, 9))
            x, a = rng.uniform(-1.5, 1.5, size=2)
            assert solve_case_i(n, a, 0.5, 1.0, x, 0.0) == pytest.approx(
                classical_hermite(n, x, a), rel=1e-12, abs=1e-12
            )

    def test_a_zero_reduces_to_monomial_case(self):
        assert solve_case_i(5, 0.0, 0.4, 1.2, 0.7, 0.6) == pytest.approx(
            fhp_eval(5, 0.4, 0.7, 1.2 * 0.6 ** 0.4), rel=1e-13
        )

    def test_frozen_point(self):
        # (4, 0.2, 0.5, 1.0, 0.3, 0.7) frozen from the 50-digit finite sum
        assert solve_case_i(4, 0.2, 0.5, 1.0, 0.3, 0.7) == pytest.approx(
            23.055230094029862145, rel=1e-13
        )

    def test_equals_umbral_shift(self):
        rng = Generator(5)
        for _ in range(20):
            n = int(rng.integers(0, 11))
            a = rng.uniform(-1.0, 1.0)
            alpha = rng.uniform(0.15, 0.95)
            k = rng.uniform(0.5, 2.0)
            x = rng.uniform(-1.5, 1.5)
            t = rng.uniform(0.1, 1.5)
            lhs = solve_case_i(n, a, alpha, k, x, t)
            rhs = umbral_hermite_shift(n, x, a, k * t ** alpha, alpha)
            assert abs(lhs - rhs) <= max(1e-9 * max(abs(lhs), abs(rhs)), 1e-12)


class TestFhpSeedCase:
    def test_initial_condition(self):
        rng = Generator(7)
        for _ in range(10):
            n = int(rng.integers(0, 9))
            a = rng.uniform(-1.0, 1.0)
            alpha = rng.uniform(0.2, 0.9)
            x = rng.uniform(-1.5, 1.5)
            assert solve_case_ii(n, a, alpha, 1.0, x, 0.0) == pytest.approx(
                fhp_eval(n, alpha, x, a), rel=1e-12, abs=1e-12
            )

    def test_a_zero(self):
        assert solve_case_ii(6, 0.0, 0.6, 0.9, 0.4, 0.8) == pytest.approx(
            fhp_eval(6, 0.6, 0.4, 0.9 * 0.8 ** 0.6), rel=1e-13
        )

    def test_both_forms_postcondition_holds(self):
        rng = Generator(11)
        for _ in range(25):
            n = int(rng.integers(0, 13))
            a = rng.uniform(-1.0, 1.0)
            alpha = rng.uniform(0.15, 0.95)
            k = rng.uniform(0.5, 2.0)
            x = rng.uniform(-1.5, 1.5)
            t = rng.uniform(0.0, 1.5)
            solve_case_ii(n, a, alpha, k, x, t)  # raises on disagreement

    def test_both_routes_infinite_disagree(self):
        # inf - inf is NaN: a NaN gap must fail the comparison, not pass it
        with pytest.raises(VerificationError, match="disagree"):
            solve_case_ii(6, 1e102, 0.5, 1.0, 0.0, 0.5)


class TestLaguerreEvolution:
    def test_degree_zero(self):
        assert solve_laguerre_monomial(0, 0.5, 0.7, 1.0, 0.6, 0.9) == pytest.approx(
            1.0, rel=1e-14
        )

    def test_beta_one_collapses_to_polynomial(self):
        from mlpoly.ml_polynomials import mlp_eval

        for n in range(7):
            for x in (0.0, 0.5, 1.4):
                for t in (0.3, 1.1):
                    got = solve_laguerre_monomial(n, 0.6, 1.0, 1.3, x, t)
                    want = mlp_eval(n, 0.6, 1.0, x ** 0.6, 1.3 * t)
                    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_frozen_point(self):
        # (3, 0.5, 0.5, 1.0, 0.7, 0.4) frozen from the 50-digit 4-term sum
        assert solve_laguerre_monomial(3, 0.5, 0.5, 1.0, 0.7, 0.4) == pytest.approx(
            -0.065829573890770317934, rel=1e-12
        )

    def test_subordination_moment_expansion(self):
        # term-by-term equality with the moment route for n <= 8
        for n in range(9):
            for alpha, beta in ((0.3, 0.4), (0.6, 0.7)):
                x, t, b = 0.8, 0.9, 1.3
                xa = x ** alpha
                for r in range(n + 1):
                    direct = (
                        (math.factorial(n) // math.factorial(r))
                        * (-xa) ** r
                        * (b * t ** beta) ** (n - r)
                        * rgamma(1.0 + alpha * r)
                        * rgamma(1.0 + beta * (n - r))
                    )
                    moment = (
                        math.comb(n, r)
                        * (-xa) ** r
                        * b ** (n - r)
                        * rgamma(1.0 + alpha * r)
                        * levy_subordination_moment(beta, n - r, t)
                    )
                    assert direct == pytest.approx(moment, rel=1e-13, abs=1e-15)

    def test_wright_seed_product_form(self):
        # frozen from the product of 50-digit series
        assert solve_laguerre_wright(0.5, 0.5, 0.7, 1.0, 1.0, 0.6) == pytest.approx(
            0.82306639852900840146, rel=1e-12
        )

    def test_wright_seed_trivials(self):
        y, alpha, beta, b = 0.7, 0.5, 0.6, 1.2
        # x = 0: the spatial factor is 1/Gamma(1) = 1
        got = solve_laguerre_wright(y, alpha, beta, b, 0.0, 0.8)
        assert got == pytest.approx(ml_one(beta, b * y * 0.8 ** beta).value, rel=1e-12)
        # t -> 0+: the temporal factor goes to 1
        got = solve_laguerre_wright(y, alpha, beta, b, 1.1, 1e-14)
        assert got == pytest.approx(wright(alpha, 1.0, -y * 1.1 ** alpha).value, rel=1e-8)

    def test_datum_at_t_zero(self):
        for n in (0, 1, 4, 7):
            for x in (0.0, 0.3, 2.0):
                datum = (-(x ** 0.6)) ** n * rgamma(1.0 + 0.6 * n)
                assert solve_laguerre_monomial(n, 0.6, 0.7, 1.3, x, 0.0) == datum
        for y in (-0.8, 0.0, 1.2):
            for x in (0.0, 0.3, 2.0):
                datum = wright(0.6, 1.0, -y * x ** 0.6).value
                assert solve_laguerre_wright(y, 0.6, 0.7, 1.3, x, 0.0) == datum

    def test_domains(self):
        with pytest.raises(DomainError):
            solve_laguerre_monomial(2, 0.5, 0.5, 1.0, -0.5, 1.0)
        with pytest.raises(DomainError):
            solve_laguerre_wright(0.5, 0.5, 0.5, 1.0, 1.0, -0.5)

    def test_parameter_domains(self):
        # the messages are those of LaguerreProblem
        with pytest.raises(DomainError, match=r"alpha must lie in \(0, 1\)"):
            solve_laguerre_monomial(2, -0.5, 0.5, 1.0, 0.5, 0.5)
        with pytest.raises(DomainError, match=r"beta must lie in \(0, 1\]"):
            solve_laguerre_wright(0.5, 0.5, -0.5, 1.0, 0.5, 0.5)
        with pytest.raises(DomainError, match="b must be positive"):
            solve_laguerre_monomial(2, 0.5, 0.5, 0.0, 0.5, 0.5)


def _diffusion_residual(n, alpha, k):
    return residual(DiffusionProblem(alpha, k, MonomialInitial(n)))


def _laguerre_residual(n, alpha, beta, b):
    return residual(LaguerreProblem(alpha, beta, b, LaguerreMonomialInitial(n)))


def _off(row, r):
    """``row`` as a tuple, with entry r off by a relative 1e-8."""
    row = list(row)
    row[r] *= 1.0 + 1e-8
    return tuple(row)


class TestResiduals:
    def test_low_orders_vanish(self):
        for n in (0, 1):
            assert _diffusion_residual(n, 0.5, 1.0) == 0.0
        assert _laguerre_residual(0, 0.5, 0.5, 1.0) == 0.0

    def test_degree_two_hand_check(self):
        # D_t^alpha [2 k t**alpha / Gamma(1+alpha)] = 2k and k d2/dx2 x**2 = 2k
        assert _diffusion_residual(2, 0.4, 1.7) <= 1e-14

    def test_diffusion_sweep(self):
        for n in range(11):
            for alpha in (0.3, 0.5, 0.8):
                for k in (0.7, 1.0):
                    assert _diffusion_residual(n, alpha, k) <= 1e-10

    def test_laguerre_sweep(self):
        for n in range(7):
            for alpha in (0.3, 0.5, 0.8):
                for beta in (0.3, 0.5, 0.8):
                    assert _laguerre_residual(n, alpha, beta, 1.0) <= 1e-10
                    assert _laguerre_residual(n, alpha, beta, 1.6) <= 1e-10

    @pytest.mark.parametrize("row", ["ratios", "rgammas"])
    def test_a_wrong_fhp_row_fails(self, monkeypatch, row):
        # the residual reads the plan's rows, so an error in one of them shows
        def corrupted(degrees, alpha):
            table = _FhpTable(degrees, alpha)  # not the cached table, which others share
            if row == "ratios":
                table.ratios = (_off(table.ratios[0], 1),) + table.ratios[1:]
            else:
                table.rgammas = _off(table.rgammas, 1)
            return table

        prob = DiffusionProblem(0.5, 1.0, HermiteInitial(6, 0.3))
        monkeypatch.setattr(fokker_planck, "_fhp_table", corrupted)
        assert residual(prob) > config.RESIDUAL_TOL
        monkeypatch.undo()
        assert residual(prob) <= config.RESIDUAL_TOL

    def test_the_residual_builds_no_oplus_route(self, monkeypatch):
        # the residual reads the plain convolution sum; the (+)_alpha route is
        # the grid plan's per-point check, and its rows were built for nothing
        def refuse(*args):
            raise AssertionError("a (+)_alpha row was built")

        monkeypatch.setattr(fractional_hermite, "frac_binom", refuse)
        assert residual(DiffusionProblem(0.5, 1.0, FhpInitial(6, 0.3))) <= config.RESIDUAL_TOL

    def test_a_wrong_laguerre_ratio_fails(self, monkeypatch):
        ratios = fokker_planck.factorial_ratios
        monkeypatch.setattr(fokker_planck, "factorial_ratios", lambda n, d: _off(ratios(n, d), 1))
        assert _laguerre_residual(4, 0.5, 0.3, 1.0) > config.RESIDUAL_TOL

    # an argument of the x row only (1 + alpha), then of the t row only (1 + beta)
    @pytest.mark.parametrize("arg", [1.0 + 0.5, 1.0 + 0.3])
    def test_a_wrong_laguerre_rgamma_fails(self, monkeypatch, arg):
        rgamma = gamma_core.rgamma
        monkeypatch.setattr(
            gamma_core, "rgamma", lambda x: rgamma(x) * (1.0 + 1e-8) if x == arg else rgamma(x)
        )
        assert _laguerre_residual(4, 0.5, 0.3, 1.0) > config.RESIDUAL_TOL
