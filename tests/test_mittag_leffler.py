import json
import math
from pathlib import Path

import pytest

from mlpoly import config, mittag_leffler
from mlpoly._pcg import Generator
from mlpoly.caputo import caputo_poly
from mlpoly.cli import _linspace
from mlpoly.errors import ConvergenceError, DomainError
from mlpoly.fracpoly import FracPoly
from mlpoly.gamma_core import log_abs_rgamma, rgamma
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

import series_pins
import oracles


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
                want = oracles.ml_two(alpha, 1.0, z)[0]
                assert got.value == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            ml_one(0.0, 1.0)

    def test_overflowing_term_is_a_convergence_error(self):
        # 40**r / Gamma(1 + 0.3 r) leaves the double range before the term budget ends
        with pytest.raises(ConvergenceError, match="overflows"):
            ml_one(0.3, -40.0)

    @pytest.mark.parametrize("call", [
        lambda: ml_two(1e308, 0.0, 1e308),
        lambda: wright(1e200, 1e308, 0.0),
        lambda: ml_three(1e-10, 1e308, -1e-300, 1e-10),
    ], ids=["ml_two", "wright", "ml_three"])
    def test_a_log_gamma_scale_beyond_the_range_gives_no_nan_estimate(self, call):
        # every term is an exact zero, but log Gamma(1e308) left the double
        # range; the estimate was inf * 0 = NaN
        assert call() == (0.0, 0.0, 2)

    def test_error_estimate_is_honest(self):
        for alpha in (0.5, 0.8):
            for z in (-3.0, 2.0):
                got = ml_one(alpha, z)
                want = oracles.ml_two(alpha, 1.0, z)[0]
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
        want = oracles.ml_two(0.45, 1.0, 5.0)[0]
        assert abs(got.value - want) <= 0.6e-12 * abs(want)
        assert abs(got.value - want) <= got.abs_error_estimate

    @pytest.mark.parametrize("alpha,beta,z", [
        (0.3, 1.0, 3.0), (0.45, 1.0, 5.0), (0.6, 1.0, 8.0), (0.5, -1.5, 3.0), (0.5, 0.0, 4.0),
    ])
    def test_estimate_covers_positive_series(self, alpha, beta, z):
        got = ml_two(alpha, beta, z)
        assert abs(got.value - oracles.ml_two(alpha, beta, z)[0]) <= got.abs_error_estimate

    @pytest.mark.parametrize("alpha,beta,gamma,z", [
        (0.5, 1.0, 0.3, 3.0), (0.4, 1.0, 0.2, 2.5), (0.8, 1.5, -0.5, 3.0), (0.6, 1.0, 2.5, 2.0),
    ])
    def test_prabhakar_ratio_bounded_by_its_limit(self, alpha, beta, gamma, z):
        # for gamma < 1 the Pochhammer factor (gamma+r)/(r+1) grows towards 1
        got = ml_three(alpha, beta, gamma, z)
        want = oracles.prabhakar(alpha, beta, gamma, z)[0]
        assert abs(got.value - want) <= 1e-12 * abs(want)
        assert abs(got.value - want) <= got.abs_error_estimate


class TestMlTwo:
    def test_reduces_to_ml_one(self):
        rng = Generator(7)
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
                    oracles.ml_two(0.7, beta, z)[0], rel=1e-12, abs=1e-12
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
        rng = Generator(11)
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
                    oracles.prabhakar(0.6, 1.2, gamma_p, z)[0], rel=1e-12, abs=1e-12
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
                        oracles.wright(alpha, mu, z)[0], rel=1e-12, abs=1e-12
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
        values = [relaxation_cole_cole(0.6, 1.0, t) for t in _linspace(0.0, 3.0, 13)]
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
        rng = Generator(3)
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
                want = oracles.ml_two(alpha, 1.0, z)[0]
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
                want = oracles.ml_two(alpha, 1.0, z)[0]
                assert abs(got.value - want) <= max(got.abs_error_estimate, 1e-12)

    def test_cancellation_is_refused(self):
        # at alpha = 0.4, z = -5 double precision has no honest answer
        with pytest.raises(ConvergenceError) as excinfo:
            ml_one(0.4, -5.0)
        assert excinfo.value.partial is not None
        assert excinfo.value.error_estimate > 1.0

    def test_budget_exhaustion_reports_partial(self):
        with config.override(term_budget=50), pytest.raises(ConvergenceError) as excinfo:
            ml_one(0.3, 5.0)
        assert excinfo.value.terms_used == 50


# -- the engine, pinned bit for bit ------------------------------------------------
#
# Captured from the per-term engine that the fused loop replaced: value and
# error estimate as float.hex(), and terms used; a float for the relaxation
# functions.  The rows cover z = 0, negative z, beta on a pole of Gamma, a
# negative integer gamma (a truncated Prabhakar series) and a tolerance of
# 1e-6.  The third column holds the settings of the ``config.override``
# block the call runs in.

PINNED = [
    (ml_one, (0.5, 0.0), {}, ("0x1.0000000000000p+0", "0x1.4000000000000p-47", 3)),
    (ml_one, (0.5, -2.0), {}, ("0x1.058671b52c518p-2", "0x1.b091de371bc13p-41", 58)),
    (ml_one, (0.8, 1.5), {}, ("0x1.9f78aeb56de0cp+2", "0x1.cccd17a7836bcp-38", 24)),
    (ml_one, (1.0, 1.0), {}, ("0x1.5bf0a8b145763p+1", "0x1.8db503924279ep-40", 17)),
    (ml_one, (2.0, 4.0), {}, ("0x1.e18fa0df2d9bep+1", "0x1.2ddb48b6e8d00p-39", 12)),
    (ml_one, (0.45, 5.0), {}, ("0x1.a7ccabd8504fap+52", "0x1.35d32df3b346cp+15", 192)),
    (ml_one, (0.6, -3.0), {}, ("0x1.47129e465f9a4p-3", "0x1.0886d54904d60p-39", 62)),
    (ml_one, (0.7, 2.0), {"series_tol": 1e-6}, ("0x1.4f7681085d7cdp+4", "0x1.2154fa534f01ap-16", 22)),
    (ml_two, (0.7, 0.0, 1.2), {}, ("0x1.b66c95771a24fp+2", "0x1.582d6feb97490p-37", 26)),
    (ml_two, (0.6, -1.0, 0.9), {}, ("0x1.4e4f95d56be3ep+1", "0x1.bcd1f4c4d005ap-39", 28)),
    (ml_two, (0.4, 0.0, 0.0), {}, ("0x0.0p+0", "0x0.0p+0", 2)),
    (ml_two, (0.5, -1.5, 3.0), {}, ("0x1.e0b9970056d38p+21", "0x1.9c713ffd11d19p-17", 81)),
    (ml_two, (1.3, 2.5, -3.0), {}, ("0x1.63b578ab48e1dp-2", "0x1.05f97110ee5e2p-41", 17)),
    (ml_two, (0.9, 1.7, -0.25), {}, ("0x1.e2d5e774fee95p-1", "0x1.ac9c308600be0p-41", 12)),
    (ml_three, (0.5, 1.0, -3.0, 2.0), {}, ("0x1.b191393139f80p-3", "0x1.ed327e6915144p-45", 6)),
    (ml_three, (0.7, 2.0, -2.0, -1.0), {}, ("0x1.50aa45f034c23p+1", "0x1.cb50e611d9a53p-45", 5)),
    (ml_three, (0.8, 1.5, -0.5, 3.0), {}, ("-0x1.7918f5eec8ddfp+0", "0x1.b69c5f6522c86p-39", 31)),
    (ml_three, (0.6, 1.2, 0.9, -1.5), {}, ("0x1.b4a2d58808a07p-2", "0x1.0d7662e27f635p-40", 35)),
    (ml_three, (0.6, 1.0, 2.5, 2.0), {}, ("0x1.0daa5b956dc8dp+9", "0x1.daddd56006adep-30", 42)),
    (ml_three, (0.5, 1.0, 0.5, 0.0), {}, ("0x1.0000000000000p+0", "0x1.4000000000000p-47", 3)),
    (ml_three, (0.4, 0.3, 0.0, 1.5), {}, ("0x1.564b98b0d411dp-2", "0x1.cca90b28c28d9p-49", 3)),
    (wright, (0.6, 1.3, -2.0), {}, ("0x1.0ecd0068d77b7p-4", "0x1.46678ff397ab0p-44", 17)),
    (wright, (0.5, 0.0, 1.0), {}, ("0x1.4d0ad89600086p+0", "0x1.e9e3a734c616cp-41", 15)),
    (wright, (0.4, -1.0, -3.0), {}, ("0x1.766c09bcaa60bp-4", "0x1.67cd68b2eb9e4p-44", 24)),
    (wright, (1.2, 0.5, 0.0), {}, ("0x1.20dd750429b6bp-1", "0x1.6914d24534246p-48", 3)),
    (wright, (0.8, 1.0, 5.0), {}, ("0x1.ad91784027e8dp+4", "0x1.42000d18f7612p-36", 18)),
    (relaxation_cole_cole, (0.6, 1.5, 2.0), {}, "0x1.75a3ad575ecf0p-2"),
    (relaxation_cole_cole, (1.0, 1.0, 0.5), {}, "0x1.368b2fc6f9605p-1"),
    (relaxation_hn, (0.7, 0.6, 1.2, 0.9), {}, "0x1.28917891aa86ap-2"),
    (relaxation_hn, (0.5, 1.0, 1.0, 0.0), {}, "0x1.0000000000000p+0"),
]

GRID_ZS = (2.5, -1.0, 0.0, 0.3, 4.0, -2.0, 1e-3)

# one MLSeries(0.6, 1.3) and one WrightSeries(0.6, 1.3) over GRID_ZS, in order,
# so the gamma row is both extended and reused
PINNED_GRID = {
    MLSeries: [
        ("0x1.a4564386e8e19p+6", "0x1.bb705673174b4p-33", 46),
        ("0x1.10e92ecc69e28p-1", "0x1.2d1973cbd03d8p-41", 27),
        ("0x1.1d3eff3e060eap+0", "0x1.648ebf0d87924p-47", 3),
        ("0x1.82276c0e4663ap+0", "0x1.5d28266fa2868p-41", 16),
        ("0x1.367d9e0d76cabp+14", "0x1.8b50a6253df49p-25", 68),
        ("0x1.5267430d2baa5p-2", "0x1.2b6c8ec2eecdep-41", 43),
        ("0x1.1d83300ce20f6p+0", "0x1.2bf83a6f012fap-41", 6),
    ],
    WrightSeries: [
        ("0x1.f00972b4c7cdcp+2", "0x1.330ff2e8c9378p-38", 17),
        ("0x1.8919f7f5ba895p-2", "0x1.16e6b85d90012p-42", 14),
        ("0x1.1d3eff3e060eap+0", "0x1.648ebf0d87924p-47", 3),
        ("0x1.764f88087f307p+0", "0x1.149cae4303ab1p-41", 11),
        ("0x1.4045921d3688fp+4", "0x1.11d8ca487b10dp-36", 19),
        ("0x1.0ecd0068d77b7p-4", "0x1.46678ff397ab0p-44", 17),
        ("0x1.1d8329bbcd895p+0", "0x1.7fd198cf83cd9p-42", 6),
    ],
}

# (function, args, settings, error type, ConvergenceError.reason, message)
PINNED_REFUSALS = [
    (ml_one, (0.6, 2.0), {"term_budget": 3}, ConvergenceError, "budget",
     "E_(0.6,1.0)(2.0): no convergence within 3 terms (partial=6.868764645001367, "
     "estimate=7.260829473722331)"),
    (ml_one, (0.5, -30.0), {}, ConvergenceError, "budget",
     "E_(0.5,1.0)(-30.0): no convergence within 400 terms "
     "(partial=-2.867989116551607e+215, estimate=8.439338765873308e+215)"),
    (ml_one, (1.0, -40.0), {}, ConvergenceError, "honesty",
     "E_(1.0,1.0)(-40.0): rounding floor 4.181e+02 exceeds the honest allowance "
     "1.045e-08; the argument lies outside the double-precision domain "
     "(partial=-104.54551317911617)"),
    (ml_one, (0.6, -8.0), {}, ConvergenceError, "honesty",
     "E_(0.6,1.0)(-8.0): rounding floor 2.338e-01 exceeds the honest allowance "
     "1.000e-10; the argument lies outside the double-precision domain "
     "(partial=0.03336581057147473)"),
    (ml_one, (0.3, -40.0), {}, ConvergenceError, "overflow",
     "E_(0.3,1.0)(-40.0): term 267 overflows the double-precision range "
     "(partial=4.321200981777436e+307)"),
    (wright, (0.3, 1.0, -60.0), {}, ConvergenceError, "honesty",
     "W_(0.3,1.0)(-60.0): rounding floor 4.972e+01 exceeds the honest allowance "
     "1.696e-09; the argument lies outside the double-precision domain "
     "(partial=16.956463338574633)"),
    (ml_three, (0.5, 1.0, 0.5, -30.0), {}, ConvergenceError, "budget",
     "E^0.5_(0.5,1.0)(-30.0): no convergence within 400 terms "
     "(partial=-8.094790902279645e+213, estimate=2.382928321997328e+214)"),
    (ml_two, (1e308, 1.0, 1.0), {}, DomainError, None,
     "x must be finite, got inf"),
]


# tests/series_pins.py's seeded sweep, captured before the row entries were
# formed inside the summation loop: 522 outcomes of the six evaluators and of
# reused MLSeries/WrightSeries rows, with every refusal reason
SWEEP = json.loads((Path(__file__).parent / "series_pins.json").read_text(encoding="utf-8"))


def _fingerprint(out):
    if isinstance(out, float):
        return out.hex()
    return (out.value.hex(), out.abs_error_estimate.hex(), out.terms_used)


class TestPinnedEngine:
    @pytest.mark.parametrize("fn, args, settings, want", PINNED,
                             ids=[f"{r[0].__name__}{r[1]}" for r in PINNED])
    def test_value_estimate_and_terms(self, fn, args, settings, want):
        with config.override(**settings):
            assert _fingerprint(fn(*args)) == want

    @pytest.mark.parametrize("cls", [MLSeries, WrightSeries])
    def test_reused_row(self, cls):
        series = cls(0.6, 1.3)
        assert [_fingerprint(series(z)) for z in GRID_ZS] == PINNED_GRID[cls]

    @pytest.mark.parametrize("fn, args, settings, error, reason, message", PINNED_REFUSALS,
                             ids=[f"{r[0].__name__}{r[1]}" for r in PINNED_REFUSALS])
    def test_refusal(self, fn, args, settings, error, reason, message):
        with config.override(**settings), pytest.raises(error) as info:
            fn(*args)
        assert type(info.value) is error
        assert str(info.value) == message
        assert getattr(info.value, "reason", None) == reason

    def test_row_builder_overflow_is_a_refusal(self, monkeypatch):
        # a row entry that leaves the double range refuses like an overflowing
        # exp; with 1/Gamma patched to 1 below the overflow, each sums 1 + 0.5
        def rgamma_overflowing(x):
            if x == 3.0:
                raise OverflowError("math range error")
            return 1.0, 0.0

        monkeypatch.setattr(mittag_leffler, "log_abs_rgamma", rgamma_overflowing)
        for evaluate, label in ((ml_two, "E_(1.0,1.0)"), (wright, "W_(1.0,1.0)"),
                                (lambda *args: ml_three(*args[:2], 1.0, args[2]), "E^1.0_(1.0,1.0)")):
            with pytest.raises(ConvergenceError) as info:
                evaluate(1.0, 1.0, 0.5)
            assert str(info.value) == (
                f"{label}(0.5): term 2 overflows the double-precision range (partial=1.5)")
            assert (info.value.reason, info.value.partial, info.value.terms_used) == (
                "overflow", 1.5, 2)

    def test_a_shared_row_keeps_the_entries_before_a_refusal(self):
        # beta + alpha*2 is inf, which the gamma kernel refuses
        series = MLSeries(1e308, 1.0)
        for _ in range(2):
            with pytest.raises(DomainError, match="x must be finite, got inf"):
                series(1.0)
            assert len(series._row) == 2

    def test_the_engine_calls_the_module_binding_of_log_abs_rgamma(self, monkeypatch):
        # a tracer swaps mittag_leffler.log_abs_rgamma at run time, and counts
        # only the calls that reach the swapped binding
        args = []

        def counted(x):
            args.append(x)
            return log_abs_rgamma(x)

        monkeypatch.setattr(mittag_leffler, "log_abs_rgamma", counted)
        assert ml_two(0.6, 1.2, 0.5).terms_used == len(args)
        args.clear()
        series = WrightSeries(0.6, 1.2)
        used = series(2.0).terms_used
        assert series(0.5).terms_used < used == len(args)  # the second call reads the row

    def test_label_is_formatted_only_for_a_refusal(self):
        calls = []

        class Z(float):
            def __format__(self, spec):
                calls.append(spec)
                return float.__format__(self, spec)

        assert ml_two(1.0, 1.0, Z(0.5)).value == pytest.approx(math.exp(0.5), rel=1e-12)
        assert calls == []
        with config.override(term_budget=3), pytest.raises(ConvergenceError) as info:
            ml_two(1.0, 1.0, Z(0.5))
        assert calls == [""] and str(info.value).startswith("E_(1.0,1.0)(0.5): no convergence")

    @pytest.mark.parametrize("case", SWEEP, ids=[
        f"{i}-{case.get('call') or case['series']}" for i, case in enumerate(SWEEP)])
    def test_seeded_sweep(self, case):
        assert series_pins.outcomes(case) == case["out"]
