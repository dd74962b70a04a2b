import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mlpoly.errors import DomainError, FloatOverflowError, IndeterminateFormError
from mlpoly.gamma_core import (
    frac_binom,
    gamma,
    levy_subordination_moment,
    ln_gamma,
    log_abs_rgamma,
    rgamma,
    stieltjes_moment,
)


def lngamma_mp(x):
    with mp.workdps(50):
        return float(mp.loggamma(mp.mpf(x)))


def rgamma_mp(x):
    with mp.workdps(50):
        return float(mp.rgamma(mp.mpf(x)))


class TestLnGamma:
    def test_gamma_one(self):
        assert ln_gamma(1.0) == 0.0

    def test_gamma_half(self):
        assert ln_gamma(0.5) == pytest.approx(math.log(math.sqrt(math.pi)), rel=1e-15)

    def test_against_high_precision_oracle(self):
        # 7.25 frozen from the 50-digit oracle
        assert ln_gamma(7.25) == pytest.approx(7.0521854507385394449, rel=1e-13)
        for x in (0.05, 0.3, 1.1, 2.7, 5.0, 12.5, 47.0, 171.0):
            assert ln_gamma(x) == pytest.approx(lngamma_mp(x), rel=1e-13, abs=1e-14)

    @pytest.mark.parametrize("bad", [0.0, -1.0, -3.7])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            ln_gamma(bad)

    def test_non_finite_rejected(self):
        with pytest.raises(DomainError):
            ln_gamma(float("nan"))
        with pytest.raises(DomainError):
            ln_gamma(float("inf"))


class TestRgamma:
    def test_exact_zeros_at_poles(self):
        for k in range(0, 30):
            assert rgamma(-float(k)) == 0.0

    def test_unit_values(self):
        assert rgamma(1.0) == 1.0
        assert rgamma(2.0) == pytest.approx(1.0, rel=1e-15)

    def test_negative_noninteger(self):
        # frozen from the reflection-formula oracle 1/Gamma(-2.5)
        assert rgamma(-2.5) == pytest.approx(-1.057855469152043038, rel=1e-12)

    def test_reflection_consistency(self):
        # Gamma(-mu) Gamma(1+mu) = -pi / sin(pi mu) for non-integer mu
        for mu in (0.3, 1.7, 2.2, 4.9):
            lhs = (1.0 / rgamma(-mu)) * (1.0 / rgamma(1.0 + mu))
            assert lhs == pytest.approx(-math.pi / math.sin(math.pi * mu), rel=1e-11)

    def test_product_with_gamma_is_one(self):
        for x in [i / 10 for i in range(1, 101)]:
            assert rgamma(x) * gamma(x) == pytest.approx(1.0, abs=1e-12)

    @given(st.floats(min_value=-40.0, max_value=40.0, allow_nan=False))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_everywhere(self, x):
        got = rgamma(x)
        want = rgamma_mp(x)
        assert got == pytest.approx(want, rel=1e-11, abs=1e-12)

    def test_log_abs_decomposition(self):
        for x in (-6.3, -0.7, 0.2, 3.0, 150.0):
            sign, lg = log_abs_rgamma(x)
            assert sign * math.exp(lg) == pytest.approx(rgamma(x), rel=1e-12)
        sign, lg = log_abs_rgamma(-4.0)
        assert sign == 0.0 and lg == -math.inf

    @pytest.mark.parametrize("x", [0.5, 0.75, 1.0, 2.0, 7.3, 171.5, 1e300])
    def test_log_abs_fast_path(self, x):
        # finite x >= 0.5 takes the one-call path; its pair is exactly this
        sign, lg = log_abs_rgamma(x)
        assert sign == 1.0 and lg.hex() == (-math.lgamma(x)).hex()

    def test_log_abs_beyond_the_double_range(self):
        # math.lgamma overflows here; the checked path returns an exact zero reciprocal
        assert log_abs_rgamma(1e306) == (1.0, -math.inf)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_log_abs_non_finite_message(self, x):
        with pytest.raises(DomainError) as info:
            log_abs_rgamma(x)
        assert str(info.value) == f"x must be finite, got {x!r}"


class TestGamma:
    def test_positive(self):
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_negative(self):
        assert gamma(-2.5) == pytest.approx(1.0 / -1.057855469152043038, rel=1e-12)

    def test_pole(self):
        with pytest.raises(DomainError):
            gamma(-2.0)

    @pytest.mark.parametrize("fn, x, arg", [
        (gamma, 200.0, 200.0),
        (gamma, -200.5, 201.5),  # Gamma(1-x) in the reflection formula
        (rgamma, -200.5, 201.5),
    ])
    def test_beyond_the_double_range_names_x(self, fn, x, arg):
        with pytest.raises(FloatOverflowError) as info:
            fn(x)
        assert str(info.value) == (
            f"Gamma({arg!r}) exceeds the double-precision range at x = {x!r}")
        assert isinstance(info.value, OverflowError)  # old handlers still catch it


class TestFracBinom:
    def test_ordinary_binomial(self):
        assert frac_binom(4, 2, 1.0) == 6.0
        for n in range(21):
            for r in range(n + 1):
                assert frac_binom(n, r, 1.0) == pytest.approx(math.comb(n, r), rel=1e-13)

    def test_edge_terms(self):
        for alpha in (0.2, 0.6, 1.0):
            assert frac_binom(7, 0, alpha) == pytest.approx(1.0, rel=1e-14)
            assert frac_binom(7, 7, alpha) == pytest.approx(1.0, rel=1e-14)

    def test_gamma_ratio(self):
        # (5 2)_0.5 = Gamma(3.5)/(Gamma(2) Gamma(2.5)) = 2.5, frozen from the oracle
        assert frac_binom(5, 2, 0.5) == pytest.approx(2.5, rel=1e-13)

    @given(
        st.integers(min_value=0, max_value=25),
        st.integers(min_value=0, max_value=25),
        st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_symmetry(self, n, r, alpha):
        if r > n:
            with pytest.raises(DomainError):
                frac_binom(n, r, alpha)
        else:
            assert frac_binom(n, r, alpha) == pytest.approx(
                frac_binom(n, n - r, alpha), rel=1e-12
            )

    def test_bad_alpha(self):
        with pytest.raises(DomainError):
            frac_binom(3, 1, 0.0)
        with pytest.raises(DomainError):
            frac_binom(3, 1, 1.5)


class TestStieltjesMoment:
    def test_zeroth(self):
        for alpha in (0.2, 0.5, 0.9):
            assert stieltjes_moment(alpha, 0.0) == pytest.approx(1.0, rel=1e-14)

    def test_umbral_values(self):
        # M_alpha(-alpha k) = k! / Gamma(1 + alpha k); the k = 1, alpha = 0.5
        # point is Gamma(2)/Gamma(1.5), frozen from the oracle
        assert stieltjes_moment(0.5, -0.5) == pytest.approx(1.1283791670955125739, rel=1e-12)
        assert stieltjes_moment(0.3, -0.9) == pytest.approx(6.2385248060858186852, rel=1e-12)

    def test_umbral_identity_general(self):
        for alpha in (0.25, 0.5, 0.8):
            for k in range(0, 9):
                want = math.factorial(k) * rgamma(1.0 + alpha * k)
                assert stieltjes_moment(alpha, -alpha * k) == pytest.approx(want, rel=1e-12)

    def test_double_pole_is_indeterminate(self):
        # sigma = 2, alpha = 0.5: both 1 - sigma/alpha = -3 and 1 - sigma = -1 are poles
        with pytest.raises(IndeterminateFormError):
            stieltjes_moment(0.5, 2.0)

    def test_numerator_pole_diverges(self):
        # 1 - sigma/alpha = -1 while 1 - sigma = 0.2 is regular
        with pytest.raises(IndeterminateFormError):
            stieltjes_moment(0.4, 0.8)

    def test_denominator_pole_gives_zero(self):
        # sigma = 1, alpha = 0.3: Gamma(1-sigma) pole kills the ratio
        assert stieltjes_moment(0.3, 1.0) == 0.0

    def test_alpha_domain(self):
        with pytest.raises(DomainError):
            stieltjes_moment(1.0, 0.5)

    def test_numerator_beyond_the_double_range(self):
        with pytest.raises(FloatOverflowError, match="at x = 201.0"):
            stieltjes_moment(0.5, -100.0)


class TestLevySubordinationMoment:
    def test_normalization(self):
        for beta in (0.2, 0.5, 0.9):
            assert levy_subordination_moment(beta, 0, 3.7) == 1.0

    def test_second_moment(self):
        # 2! t**(2 beta) / Gamma(2) = 2 at beta = 0.5, t = 1
        assert levy_subordination_moment(0.5, 2, 1.0) == pytest.approx(2.0, rel=1e-13)

    def test_first_moment_form(self):
        for beta in (0.3, 0.7):
            for t in (0.5, 2.0):
                want = t ** beta * rgamma(1.0 + beta)
                assert levy_subordination_moment(beta, 1, t) == pytest.approx(want, rel=1e-13)

    def test_scaling(self):
        for beta in (0.25, 0.6):
            for m in range(5):
                for t in (0.3, 1.7, 4.0):
                    lhs = levy_subordination_moment(beta, m, t)
                    rhs = t ** (beta * m) * levy_subordination_moment(beta, m, 1.0)
                    assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_moment_where_the_factorial_fills_the_range(self):
        # 170! ~ 7.3e306 leaves no room for 2**168.3, but the moment is ~2.8e54:
        # it was refused as an overflow
        with mp.workdps(50):
            x = mp.mpf(0.99 * 170)  # beta*m as the function forms it, in floating point
            want = float(mp.factorial(170) * mp.mpf(2) ** x / mp.gamma(1 + x))
        assert levy_subordination_moment(0.99, 170, 2.0) == pytest.approx(want, rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            levy_subordination_moment(0.5, 1, 0.0)
        with pytest.raises(DomainError):
            levy_subordination_moment(0.5, -1, 1.0)
        with pytest.raises(DomainError):
            levy_subordination_moment(1.2, 1, 1.0)
