import math
import random
from fractions import Fraction

import pytest

from mlpoly._pcg import Generator
from mlpoly.errors import DomainError, FloatOverflowError, SingularityError
from mlpoly.fracpoly import FracPoly
from mlpoly.fractional_hermite import fhp_coeffs
from mlpoly.gamma_core import gamma, rgamma
from mlpoly.mittag_leffler import ml_one, ml_two
from mlpoly.ml_polynomials import mlp_coeffs
from mlpoly.sheffer import (
    PowerSeries,
    appell_A_fhp,
    appell_A_mlp,
    appell_auxiliary,
    aux_v_h_fhp,
    aux_v_h_mlp,
    lowering_apply,
    raising_apply,
    series_log_derivative,
    series_reciprocal,
)

import oracles


def _exp_series(c, order):
    return PowerSeries(tuple(c ** r / math.factorial(r) for r in range(order + 1)))


class TestPowerSeries:
    def test_minimum_order(self):
        with pytest.raises(DomainError):
            PowerSeries((1.0,))

    def test_evaluation_and_derivative(self):
        s = PowerSeries((1.0, 2.0, 3.0))
        assert s(0.5) == pytest.approx(1.0 + 1.0 + 0.75)
        assert s.derivative().coeffs == (2.0, 6.0)

    def test_product_truncates(self):
        s = _exp_series(1.0, 6)
        t = _exp_series(-1.0, 6)
        prod = s * t
        assert prod.coeffs[0] == pytest.approx(1.0)
        assert max(abs(c) for c in prod.coeffs[1:]) <= 1e-14


class TestReciprocal:
    def test_identity_series(self):
        s = PowerSeries((1.0, 0.0, 0.0, 0.0))
        assert series_reciprocal(s).coeffs == (1.0, 0.0, 0.0, 0.0)

    def test_exponential_inverse(self):
        inv = series_reciprocal(_exp_series(1.0, 8))
        want = _exp_series(-1.0, 8)
        assert max(abs(a - b) for a, b in zip(inv.coeffs, want.coeffs)) <= 1e-13

    def test_product_check_on_ml_prefactor(self):
        s = appell_A_fhp(0.5, 1.3, 10)
        prod = s * series_reciprocal(s)
        assert prod.coeffs[0] == pytest.approx(1.0, rel=1e-14)
        assert max(abs(c) for c in prod.coeffs[1:]) <= 1e-12

    def test_zero_constant_term(self):
        with pytest.raises(DomainError):
            series_reciprocal(PowerSeries((0.0, 1.0)))


class TestLogDerivative:
    def test_constant_series(self):
        s = PowerSeries((2.5, 0.0, 0.0))
        assert all(c == 0.0 for c in series_log_derivative(s).coeffs)

    def test_exponential(self):
        for c in (-0.7, 1.3):
            ld = series_log_derivative(_exp_series(c, 9))
            assert ld.coeffs[0] == pytest.approx(c, rel=1e-13)
            assert max(abs(v) for v in ld.coeffs[1:]) <= 1e-12

    def test_two_routes_for_hermite_prefactor(self):
        # g = 1/A with A(lam) = E_alpha(y lam**2); g'/g = -A'/A where
        # A'(lam) = (2/(alpha lam)) E_{alpha,0}(y lam**2) expands with
        # odd coefficients (2/alpha) y**r / Gamma(alpha r)
        alpha, y, order = 0.5, 1.0, 12
        g = series_reciprocal(appell_A_fhp(alpha, y, order))
        ld = series_log_derivative(g)
        a = appell_A_fhp(alpha, y, order)
        a_prime = [0.0] * order
        for r in range(1, order // 2 + 1):
            a_prime[2 * r - 1] = (2.0 / alpha) * y ** r * rgamma(alpha * r)
        # -A'/A by series division
        ratio = series_log_derivative(a)  # A'/A
        for k in range(order - 1):
            assert ld.coeffs[k] == pytest.approx(-ratio.coeffs[k], rel=1e-11, abs=1e-11)
        deriv = a.derivative()
        for k in range(len(a_prime) - 1):
            assert deriv.coeffs[k] == pytest.approx(a_prime[k], rel=1e-12, abs=1e-13)


class TestAppellPrefactors:
    def test_fhp_zero_y(self):
        s = appell_A_fhp(0.7, 0.0, 6)
        assert s.coeffs == (1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)

    def test_fhp_classical(self):
        s = appell_A_fhp(1.0, 1.0, 4)
        assert s.coeffs == pytest.approx((1.0, 0.0, 1.0, 0.0, 0.5))

    def test_fhp_half(self):
        s = appell_A_fhp(0.5, 2.0, 6)
        want = (1.0, 0.0, 2.0 / gamma(1.5), 0.0, 4.0 / gamma(2.0), 0.0, 8.0 / gamma(2.5))
        assert s.coeffs == pytest.approx(want, rel=1e-13)

    def test_mlp_zero_x(self):
        s = appell_A_mlp(0.5, 1.3, 0.0, 5)
        assert s.coeffs[0] == pytest.approx(rgamma(1.3), rel=1e-14)
        assert all(c == 0.0 for c in s.coeffs[1:])

    def test_mlp_wright_series(self):
        s = appell_A_mlp(0.5, 1.0, 1.0, 3)
        want = (1.0, -1.0 / gamma(1.5), 1.0 / (2.0 * gamma(2.0)), -1.0 / (6.0 * gamma(2.5)))
        assert s.coeffs == pytest.approx(want, rel=1e-13)

    def test_order_validation(self):
        with pytest.raises(DomainError):
            appell_A_fhp(0.5, 1.0, 1)


class TestAuxiliaryFunctions:
    def test_fhp_h_at_lambda_zero(self):
        _, h = aux_v_h_fhp(0.0, 1.7, 0.6, 0.9)
        assert h == pytest.approx(1.0, rel=1e-13)

    def test_fhp_y_zero(self):
        v, h = aux_v_h_fhp(0.4, 1.5, 0.6, 0.0)
        assert h == pytest.approx(1.0, rel=1e-13)
        assert v == 0.0

    def test_fhp_pole(self):
        with pytest.raises(SingularityError):
            aux_v_h_fhp(0.2, 1.0, 0.5, 1.0)

    def test_fhp_values_against_series(self):
        lam, x, alpha, y = 0.2, 1.5, 0.5, 1.0
        s = x - 1.0
        den = oracles.ml_two(alpha, 1.0, y * s * s)[0]
        v_want = 2.0 / (alpha * s) * oracles.ml_two(alpha, 0.0, y * s * s)[0] / den
        h_want = oracles.ml_two(alpha, 1.0, y * (lam + s) ** 2)[0] / den
        v, h = aux_v_h_fhp(lam, x, alpha, y)
        assert v == pytest.approx(v_want, rel=1e-12)
        assert h == pytest.approx(h_want, rel=1e-12)

    def test_mlp_h_at_lambda_zero(self):
        _, h = aux_v_h_mlp(0.0, 0.7, 0.5, 1.2, 0.8)
        assert h == pytest.approx(1.0, rel=1e-13)

    def test_mlp_x_zero(self):
        v, h = aux_v_h_mlp(0.3, 0.7, 0.5, 1.2, 0.0)
        assert v == 0.0
        assert h == pytest.approx(1.0, rel=1e-13)

    def test_mlp_values_against_series(self):
        lam, y, alpha, beta, x = 0.3, 0.5, 0.5, 1.0, 1.0
        den = oracles.wright(alpha, beta, -x * (y - 1.0))[0]
        v_want = -x * oracles.wright(alpha, beta + alpha, -x * (y - 1.0))[0] / den
        h_want = oracles.wright(alpha, beta, -x * (lam + y - 1.0))[0] / den
        v, h = aux_v_h_mlp(lam, y, alpha, beta, x)
        assert v == pytest.approx(v_want, rel=1e-12)
        assert h == pytest.approx(h_want, rel=1e-12)

    def test_generic_appell_collapse(self):
        lam, x, alpha, y = 0.25, 1.6, 0.6, 0.8
        a_fn = lambda u: ml_one(alpha, y * u * u).value
        a_prime = lambda u: (2.0 / (alpha * u)) * ml_two(alpha, 0.0, y * u * u).value
        q, v, big_t, h = appell_auxiliary(a_fn, a_prime, lam, x)
        assert q == 1.0
        assert big_t == lam + x
        v2, h2 = aux_v_h_fhp(lam, x, alpha, y)
        assert v == pytest.approx(v2, rel=1e-12)
        assert h == pytest.approx(h2, rel=1e-12)

    def test_h_cocycle_both_families(self):
        rng = Generator(13)
        for _ in range(15):
            l1, l2 = rng.uniform(-0.3, 0.3, size=2)
            alpha = rng.uniform(0.3, 0.9)
            beta = rng.uniform(0.5, 1.5)
            y = rng.uniform(-0.8, 0.8)
            x = rng.uniform(1.2, 2.0)
            _, h12 = aux_v_h_fhp(l1 + l2, x, alpha, y)
            _, ha = aux_v_h_fhp(l1, x, alpha, y)
            _, hb = aux_v_h_fhp(l2, l1 + x, alpha, y)
            assert h12 == pytest.approx(ha * hb, rel=1e-9, abs=1e-12)
            xp = rng.uniform(0.2, 1.0)
            _, h12 = aux_v_h_mlp(l1 + l2, x, alpha, beta, xp)
            _, ha = aux_v_h_mlp(l1, x, alpha, beta, xp)
            _, hb = aux_v_h_mlp(l2, l1 + x, alpha, beta, xp)
            assert h12 == pytest.approx(ha * hb, rel=1e-9, abs=1e-12)


class TestLadderOperators:
    def test_lowering_trivials(self):
        assert lowering_apply(FracPoly.one()).is_zero()
        p = FracPoly([(2.0, 1.0), (1.0, 3.0)])
        assert lowering_apply(p).terms == ((2.0, 0.0), (3.0, 2.0))

    def test_lowering_rejects_fractional(self):
        with pytest.raises(DomainError):
            lowering_apply(FracPoly([(1.0, 0.5)]))

    def test_lowering_on_hermite_family(self):
        for n in range(1, 11):
            got = lowering_apply(fhp_coeffs(n, 0.6, 0.8))
            want = fhp_coeffs(n - 1, 0.6, 0.8).scale(float(n))
            assert got.max_coeff_diff(want) <= 1e-9 * max(
                1.0, max(abs(c) for c in want.coefficients)
            )

    def test_raising_classical_monomials(self):
        # g = 1 means M = X
        zero_ld = PowerSeries((0.0,) * 12)
        got = raising_apply(FracPoly.one(), zero_ld)
        assert got.terms == ((1.0, 1.0),)
        p = FracPoly([(2.0, 3.0)])
        assert raising_apply(p, zero_ld).terms == ((2.0, 4.0),)

    def test_raising_hermite_family(self):
        for alpha in (0.3, 0.5, 0.8):
            for y in (-1.0, 0.5, 2.0):
                gd = series_log_derivative(series_reciprocal(appell_A_fhp(alpha, y, 14)))
                for n in range(11):
                    got = raising_apply(fhp_coeffs(n, alpha, y), gd)
                    want = fhp_coeffs(n + 1, alpha, y)
                    scale = max(1.0, max(abs(c) for c in want.coefficients))
                    assert got.max_coeff_diff(want) / scale <= 1e-9

    def test_raising_mlp_family(self):
        for alpha in (0.3, 0.5, 0.8):
            for beta in (0.5, 1.0, 1.6):
                for x in (0.4, 0.6):
                    gd = series_log_derivative(
                        series_reciprocal(appell_A_mlp(alpha, beta, x, 14))
                    )
                    for n in range(11):
                        got = raising_apply(mlp_coeffs(n, alpha, beta, x), gd)
                        want = mlp_coeffs(n + 1, alpha, beta, x)
                        scale = max(1.0, max(abs(c) for c in want.coefficients))
                        assert got.max_coeff_diff(want) / scale <= 1e-9

    def test_commutator_is_identity(self):
        for alpha, y in ((0.4, 0.7), (0.8, -0.6)):
            gd = series_log_derivative(series_reciprocal(appell_A_fhp(alpha, y, 14)))
            for n in range(11):
                p = fhp_coeffs(n, alpha, y)
                pm = lowering_apply(raising_apply(p, gd))
                mp_ = raising_apply(lowering_apply(p), gd)
                scale = max(1.0, max(abs(c) for c in p.coefficients))
                assert (pm - mp_).max_coeff_diff(p) / scale <= 1e-9

    def test_raising_requires_enough_order(self):
        gd = PowerSeries((0.0, 0.0))
        with pytest.raises(DomainError):
            raising_apply(FracPoly([(1.0, 5.0)]), gd)


# -- exact recurrences, rounded once ----------------------------------------------


def _fraction_quotient(a, d):
    """out with a[0] out[r] = d[r] - sum_{k>=1} a[k] out[r-k], in exact fractions."""
    out = []
    for r in range(len(d)):
        acc = d[r] - sum(a[k] * out[r - k] for k in range(1, min(r, len(a) - 1) + 1))
        out.append(acc / a[0])
    return out


def _fraction_raising(pc, c):
    """x p - sum_k c[k] D**k p for p = sum_j pc[j] x**j, in exact fractions."""
    deg = len(pc) - 1
    out = [Fraction(0)] + list(pc)
    for k in range(deg + 1):
        for i in range(deg + 1 - k):
            out[i] -= c[k] * pc[i + k] * Fraction(math.factorial(i + k), math.factorial(i))
    return out


def _spread(rng):
    # a signed float whose exponents spread over 1e-5..1e5
    return rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 2.0) * 10.0 ** rng.uniform(-5.0, 5.0)


class TestExactRecurrences:
    def test_correctly_rounded_against_fractions(self):
        # every coefficient of the three routines is the exact recurrence on
        # the float inputs, rounded once
        rng = random.Random(2024)
        for _ in range(300):
            order = rng.randint(1, 14)
            coeffs = [_spread(rng) for _ in range(order + 1)]
            coeffs[rng.randint(1, order)] = 0.0
            s = PowerSeries(coeffs)
            a = [Fraction(v) for v in coeffs]

            want = _fraction_quotient(a, [Fraction(1)] + [Fraction(0)] * order)
            assert series_reciprocal(s).coeffs == tuple(map(float, want))

            derivative = [r * a[r] for r in range(1, order + 1)]
            want = [float(v) for v in _fraction_quotient(a, derivative)]
            if order == 1:
                want.append(0.0)  # s'/s of order 0 is padded to order 1
            assert series_log_derivative(s).coeffs == tuple(want)

            pc = [_spread(rng) if rng.random() < 0.8 else 0.0 for _ in range(rng.randint(0, order))]
            pc.append(_spread(rng))  # degree len(pc) - 1 <= order
            p = FracPoly([(v, float(j)) for j, v in enumerate(pc)])
            want = _fraction_raising([Fraction(v) for v in pc], a)
            assert raising_apply(p, s).terms == tuple(
                (float(v), float(j)) for j, v in enumerate(want) if float(v) != 0.0
            )

    def test_reciprocal_overflow_is_named(self):
        # 1/s = 1e300 - 1e600 lam + ...: was "coefficients must be finite"
        with pytest.raises(FloatOverflowError) as info:
            series_reciprocal(PowerSeries((1e-300, 1.0, 0.0)))
        assert str(info.value) == (
            "the coefficient of lam**1 of the reciprocal series exceeds the double-precision range"
        )

    def test_log_derivative_overflow_is_named(self):
        # s'/s starts at 1e10 / 1e-300
        with pytest.raises(FloatOverflowError) as info:
            series_log_derivative(PowerSeries((1e-300, 1e10, 1.0)))
        assert str(info.value) == (
            "the coefficient of lam**0 of the logarithmic derivative exceeds the double-precision range"
        )

    def test_raising_overflow_is_named(self):
        # the coefficient of x**2 is -3e600
        with pytest.raises(FloatOverflowError) as info:
            raising_apply(FracPoly([(1e300, 3.0)]), PowerSeries((0.0, 1e300, 0.0, 0.0)))
        assert str(info.value) == "the coefficient of x**2.0 exceeds the double-precision range"


_RANGE = "exceeds the double-precision range"


@pytest.mark.parametrize("fn, args, message", [
    (appell_A_fhp, (0.5, 1e200, 6), f"y**3 {_RANGE} at y = 1e+200"),
    (appell_A_mlp, (0.5, 1.0, 1e200, 4), f"(-x)**4 {_RANGE} at (-x) = -1e+200"),
    (aux_v_h_fhp, (0.1, 1e200, 0.5, 1.0), f"y*(x-1)**2 {_RANGE}"),
    (aux_v_h_fhp, (1e200, 2.0, 0.5, 1.0), f"y*(lam+x-1)**2 {_RANGE}"),
    (aux_v_h_mlp, (0.1, 1e308, 0.5, 1.0, 1e10), f"-x*(y-1) {_RANGE}"),
    (aux_v_h_mlp, (1e308, 2.0, 0.5, 1.0, 10.0), f"-x*(lam+y-1) {_RANGE}"),
], ids=["appell-fhp-y", "appell-mlp-x", "aux-fhp-den", "aux-fhp-h", "aux-mlp-den", "aux-mlp-h"])
def test_overflow_names_the_power_or_series_argument(fn, args, message):
    # was a raw OverflowError: (34, 'Numerical result out of range'), or a
    # DomainError naming the series parameters beta, mu and z
    with pytest.raises(FloatOverflowError) as info:
        fn(*args)
    assert str(info.value) == message
