import math

import numpy as np
import pytest

from mlpoly.caputo import caputo_poly
from mlpoly.errors import ConvergenceError, DomainError
from mlpoly.fracpoly import FracPoly
from mlpoly.gamma_core import rgamma
from mlpoly.mittag_leffler import (
    EvalResult,
    MLParams,
    MLSeries,
    WrightSeries,
    _tail_bound,
    ml_one,
    ml_three,
    ml_two,
    relaxation_cole_cole,
    relaxation_hn,
    wright,
)

from oracles import ml_series_mp, prabhakar_mp, wright_mp


class TestMLParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            MLParams(0.0, 1.0)
        with pytest.raises(DomainError):
            MLParams(-0.3, 1.0)

    def test_truncation_flag(self):
        assert MLParams(0.5, 1.0, -3.0).truncates
        assert not MLParams(0.5, 1.0, 0.5).truncates


class TestEvalResult:
    def test_estimate_nonnegative(self):
        with pytest.raises(DomainError):
            EvalResult(1.0, -1e-3, 5)


class TestMlOne:
    def test_exponential(self):
        assert ml_one(1.0, 1.0).value == pytest.approx(math.e, rel=1e-12)

    def test_at_zero(self):
        for alpha in (0.3, 0.7, 1.5):
            res = ml_one(alpha, 0.0)
            assert res.value == 1.0

    def test_cosh_identity(self):
        # E_2(z**2) = cosh(z); value at z = 2 frozen from the 50-digit series
        assert ml_one(2.0, 4.0).value == pytest.approx(3.7621956910836314596, rel=1e-12)

    def test_oracle_sweep(self):
        for alpha in (0.45, 0.6, 0.8, 1.0, 1.7):
            for z in (-2.0, -0.7, 0.0, 0.9, 3.0, 5.0):
                got = ml_one(alpha, z)
                want = ml_series_mp(alpha, 1.0, z)
                assert got.value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            ml_one(0.0, 1.0)

    def test_overflowing_term_is_a_convergence_error(self):
        # 40**r / Gamma(1 + 0.3 r) leaves the double range before the term budget ends
        with pytest.raises(ConvergenceError, match="overflows"):
            ml_one(0.3, -40.0)

    def test_error_estimate_is_honest(self):
        for alpha in (0.5, 0.8):
            for z in (-3.0, 2.0):
                got = ml_one(alpha, z)
                want = ml_series_mp(alpha, 1.0, z)
                assert abs(got.value - want) <= max(got.abs_error_estimate, 1e-14)


class TestCertifiedTail:
    def test_tail_bound(self):
        assert _tail_bound(0.0, 1.0, math.inf) == 0.0  # an exact-zero term ends the series
        assert _tail_bound(1.0, 2.0, 1.0) == 1.0  # ratio 1/2: 1/2 + 1/4 + ...
        assert _tail_bound(1.0, 4.0, 2.0) == 1.0  # the ratio bound is scaled by the factor
        assert _tail_bound(1.0, 1.0, 1.0) == math.inf  # no geometric decay
        assert _tail_bound(1.0, 0.0, 1.0) == math.inf  # no ratio after an exact-zero term
        assert _tail_bound(1e-20, 1.0, math.inf) == math.inf  # no bound known yet

    def test_slow_positive_series_within_tol(self):
        # the two-term rule left 9.96e-13 of truncation here; the tail bound
        # stops only when at most tol/2 is left
        got = ml_one(0.45, 5.0)
        want = ml_series_mp(0.45, 1.0, 5.0)
        assert abs(got.value - want) <= 0.6e-12 * abs(want)
        assert abs(got.value - want) <= got.abs_error_estimate

    @pytest.mark.parametrize("alpha,beta,z", [
        (0.3, 1.0, 3.0), (0.45, 1.0, 5.0), (0.6, 1.0, 8.0), (0.5, -1.5, 3.0), (0.5, 0.0, 4.0),
    ])
    def test_estimate_covers_positive_series(self, alpha, beta, z):
        got = ml_two(alpha, beta, z)
        assert abs(got.value - ml_series_mp(alpha, beta, z)) <= got.abs_error_estimate

    @pytest.mark.parametrize("alpha,beta,gamma,z", [
        (0.5, 1.0, 0.3, 3.0), (0.4, 1.0, 0.2, 2.5), (0.8, 1.5, -0.5, 3.0), (0.6, 1.0, 2.5, 2.0),
    ])
    def test_prabhakar_ratio_bounded_by_its_limit(self, alpha, beta, gamma, z):
        # for gamma < 1 the Pochhammer factor (gamma+r)/(r+1) grows towards 1
        got = ml_three(alpha, beta, gamma, z)
        want = prabhakar_mp(alpha, beta, gamma, z)
        assert abs(got.value - want) <= 1e-12 * abs(want)
        assert abs(got.value - want) <= got.abs_error_estimate


class TestMlTwo:
    def test_reduces_to_ml_one(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = rng.uniform(0.3, 1.8)
            z = rng.uniform(-2.0, 2.0)
            assert ml_two(alpha, 1.0, z).value == pytest.approx(
                ml_one(alpha, z).value, abs=1e-12
            )

    def test_exp_shift(self):
        # E_{1,2}(z) = (e**z - 1)/z at z = 1
        assert ml_two(1.0, 2.0, 1.0).value == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_beta_zero(self):
        # the r = 0 term vanishes through 1/Gamma(0) = 0; frozen from the oracle
        assert ml_two(0.5, 0.0, 0.25).value == pytest.approx(
            0.22596254401848420394, rel=1e-12
        )
        assert ml_two(0.4, 0.0, 0.0).value == 0.0

    def test_oracle_sweep_with_beta(self):
        for beta in (0.0, 0.5, 1.0, 2.5):
            for z in (-1.5, 0.4, 2.0):
                got = ml_two(0.7, beta, z)
                assert got.value == pytest.approx(
                    ml_series_mp(0.7, beta, z), rel=1e-12, abs=1e-12
                )


class TestSharedGammaRow:
    def test_series_objects_equal_scalar_calls(self):
        # long and short series alternate, so the row is both extended and reused
        zs = (2.5, -1.0, 0.0, 0.3, 4.0, -2.0, 1e-3)
        ml = MLSeries(0.6, 1.3)
        w = WrightSeries(0.6, 1.3)
        for z in zs:
            assert ml(z) == ml_two(0.6, 1.3, z)
            assert w(z) == wright(0.6, 1.3, z)

    def test_validation_matches_scalar_functions(self):
        with pytest.raises(DomainError, match="alpha"):
            MLSeries(0.0, 1.0)
        with pytest.raises(DomainError, match="finite"):
            WrightSeries(0.5, math.inf)
        with pytest.raises(DomainError, match="finite"):
            MLSeries(0.5, 1.0)(math.nan)


class TestMlThree:
    def test_gamma_beta_one_reduction(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            alpha = rng.uniform(0.3, 1.5)
            z = rng.uniform(-2.0, 2.0)
            assert ml_three(alpha, 1.0, 1.0, z).value == pytest.approx(
                ml_one(alpha, z).value, abs=1e-12
            )

    def test_gamma_zero(self):
        for beta in (0.5, 1.0, 2.0):
            assert ml_three(0.6, beta, 0.0, 3.0).value == pytest.approx(
                rgamma(beta), rel=1e-14
            )

    def test_negative_integer_truncates(self):
        # three-term polynomial case, frozen from the 50-digit sum
        got = ml_three(0.7, 1.0, -2.0, 0.3)
        assert got.value == pytest.approx(0.41212544584204520769, rel=1e-13)

    def test_oracle_sweep(self):
        for gamma_p in (-3.0, 0.5, 1.0, 2.2):
            for z in (-1.0, 0.6, 1.5):
                got = ml_three(0.6, 1.2, gamma_p, z)
                assert got.value == pytest.approx(
                    prabhakar_mp(0.6, 1.2, gamma_p, z), rel=1e-12, abs=1e-12
                )

    def test_beta_positive_required(self):
        with pytest.raises(DomainError):
            ml_three(0.5, 0.0, 1.0, 0.3)


class TestWright:
    def test_at_zero(self):
        for mu in (-1.5, 0.0, 0.5, 2.0):
            assert wright(0.7, mu, 0.0).value == pytest.approx(rgamma(mu), abs=1e-15)

    def test_bessel_value(self):
        # W_{1,1}(1) = sum 1/(r!)**2 = I_0(2), frozen from the oracle
        assert wright(1.0, 1.0, 1.0).value == pytest.approx(2.2795853023360672674, rel=1e-12)

    def test_negative_argument(self):
        # frozen from the 50-digit compensated oracle
        assert wright(0.5, 1.0, -1.0).value == pytest.approx(0.26478660052626588013, rel=1e-12)

    def test_oracle_sweep(self):
        for alpha in (0.4, 0.8, 1.3):
            for mu in (0.5, 1.0, 2.0):
                for z in (-3.0, -0.5, 1.0, 4.0):
                    got = wright(alpha, mu, z)
                    assert got.value == pytest.approx(
                        wright_mp(alpha, mu, z), rel=1e-12, abs=1e-12
                    )


class TestRelaxationFunctions:
    def test_cole_cole_at_zero(self):
        for alpha in (0.2, 0.6, 1.0):
            assert relaxation_cole_cole(alpha, 2.0, 0.0) == 1.0

    def test_debye_limit(self):
        assert relaxation_cole_cole(1.0, 1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_erfc_identity(self):
        # E_{1/2}(-1) = e * erfc(1)
        assert relaxation_cole_cole(0.5, 1.0, 1.0) == pytest.approx(
            math.e * math.erfc(1.0), rel=1e-12
        )

    def test_monotone_decay_into_unit_interval(self):
        values = [relaxation_cole_cole(0.6, 1.0, t) for t in np.linspace(0.0, 3.0, 13)]
        assert all(0.0 < v <= 1.0 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_hn_at_zero(self):
        assert relaxation_hn(0.7, 0.8, 1.5, 0.0) == 1.0

    def test_hn_beta_one_is_cole_cole(self):
        for alpha in (0.3, 0.6, 0.9):
            for t in (0.2, 1.0, 2.5):
                assert relaxation_hn(alpha, 1.0, 1.0, t) == pytest.approx(
                    relaxation_cole_cole(alpha, 1.0, t), abs=1e-12
                )

    def test_hn_value(self):
        # frozen from the 50-digit Prabhakar series
        assert relaxation_hn(0.6, 0.8, 1.0, 0.5) == pytest.approx(
            0.44753256862824677014, rel=1e-12
        )

    def test_domains(self):
        with pytest.raises(DomainError):
            relaxation_cole_cole(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            relaxation_cole_cole(0.5, 1.0, -0.1)
        with pytest.raises(DomainError):
            relaxation_hn(1.2, 1.0, 1.0, 1.0)


class TestReductionChain:
    def test_three_two_one_agree(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            alpha = rng.uniform(0.25, 2.0)
            z = rng.uniform(-2.0, 2.0)
            v3 = ml_three(alpha, 1.0, 1.0, z).value
            v2 = ml_two(alpha, 1.0, z).value
            v1 = ml_one(alpha, z).value
            assert v3 == pytest.approx(v2, rel=1e-12, abs=1e-12)
            assert v2 == pytest.approx(v1, rel=1e-12, abs=1e-12)


class TestCaputoEigenfunction:
    def test_truncated_series_derivative(self):
        # term-wise Caputo derivative of the truncated series of E_alpha(a t**alpha)
        # equals a * E_alpha(a t**alpha) up to the truncation remainder
        for alpha in (0.3, 0.5, 0.8):
            for a in (-1.0, 0.5):
                n_terms = 25
                p = FracPoly(
                    [(a ** r * rgamma(1.0 + alpha * r), alpha * r) for r in range(n_terms)]
                )
                dp = caputo_poly(p, alpha)
                for t in (0.3, 0.8):
                    closed = ml_one(alpha, a * t ** alpha)
                    remainder = (
                        abs(a) ** n_terms * t ** (alpha * (n_terms - 1))
                        * rgamma(1.0 + alpha * (n_terms - 1))
                    )
                    bound = abs(a) * closed.abs_error_estimate + remainder + 1e-13
                    assert abs(dp(t) - a * closed.value) <= bound


class TestHonestDomain:
    def test_benign_region_matches_oracle(self):
        # the strongly alternating corner is excluded; see test below
        for alpha in (0.4, 0.6, 1.0):
            for z in (-2.0, -1.0, 0.5, 3.0, 5.0):
                got = ml_one(alpha, z)
                want = ml_series_mp(alpha, 1.0, z)
                # at z = 5, alpha = 0.4 the value is ~5e24 from exponents of
                # hundreds; there the reported estimate is the honest bound
                allowed = max(1e-12 * abs(want), 1e-12, got.abs_error_estimate)
                assert abs(got.value - want) <= allowed

    def test_extended_region_honors_estimate(self):
        # wherever evaluation succeeds, the reported estimate covers the error
        for alpha in (0.4, 0.5, 0.6, 0.8):
            for z in (-5.0, -4.0, -3.0):
                try:
                    got = ml_one(alpha, z)
                except ConvergenceError as exc:
                    assert exc.partial is not None
                    continue
                want = ml_series_mp(alpha, 1.0, z)
                assert abs(got.value - want) <= max(got.abs_error_estimate, 1e-12)

    def test_cancellation_is_refused(self):
        # at alpha = 0.4, z = -5 double precision has no honest answer
        with pytest.raises(ConvergenceError) as excinfo:
            ml_one(0.4, -5.0)
        assert excinfo.value.partial is not None
        assert excinfo.value.error_estimate > 1.0

    def test_budget_exhaustion_reports_partial(self):
        with pytest.raises(ConvergenceError) as excinfo:
            ml_one(0.3, 5.0, budget=50)
        assert excinfo.value.terms_used == 50
