import math

import pytest

from mlpoly._pcg import Generator
from mlpoly.errors import DomainError, FloatOverflowError
from mlpoly.fracpoly import FracPoly
from mlpoly.fractional_hermite import (
    convolution_identity_i_rhs,
    convolution_identity_ii_rhs,
    fhp_at_zero,
    fhp_coeffs,
    fhp_eval,
    fhp_oplus_eval,
    oplus_power,
    umbral_hermite_shift,
)
from mlpoly.gamma_core import frac_binom, rgamma
from mlpoly.mittag_leffler import ml_one
from mlpoly.verify import _classical_hermite as classical_hermite

import oracles


class TestCoefficients:
    @pytest.mark.parametrize("alpha", [0.25, 0.5, 0.75, 1.0])
    @pytest.mark.parametrize("y", [-1.0, 0.5, 2.0])
    def test_first_four_closed_forms(self, alpha, y):
        g1 = rgamma(1.0 + alpha)
        expected = [
            FracPoly([(1.0, 0)]),
            FracPoly([(1.0, 1)]),
            FracPoly([(2.0 * y * g1, 0), (1.0, 2)]),
            FracPoly([(6.0 * y * g1, 1), (1.0, 3)]),
        ]
        for n, want in enumerate(expected):
            assert fhp_coeffs(n, alpha, y).max_coeff_diff(want) <= 1e-12

    def test_classical_fourth(self):
        # H_4(x, y) = x**4 + 12 x**2 y + 12 y**2
        for y in (-0.5, 1.0, 3.0):
            want = FracPoly([(12.0 * y * y, 0), (12.0 * y, 2), (1.0, 4)])
            assert fhp_coeffs(4, 1.0, y).max_coeff_diff(want) <= 1e-10

    def test_term_count_and_leading(self):
        for n in range(12):
            p = fhp_coeffs(n, 0.6, 0.7)
            assert len(p.terms) == n // 2 + 1
            assert p.terms[-1] == (1.0, float(n))

    def test_matches_eval(self):
        rng = Generator(5)
        for _ in range(20):
            n = int(rng.integers(0, 12))
            alpha = rng.uniform(0.2, 1.0)
            x = rng.uniform(-2.0, 2.0)
            y = rng.uniform(-1.0, 1.0)
            assert fhp_coeffs(n, alpha, y)(x) == pytest.approx(
                fhp_eval(n, alpha, x, y), rel=1e-12, abs=1e-12
            )


class TestEvaluation:
    def test_unit_point(self):
        assert fhp_eval(2, 1.0, 1.0, 1.0) == pytest.approx(3.0, rel=1e-14)

    def test_y_zero_is_monomial(self):
        for n in range(9):
            assert fhp_eval(n, 0.4, 1.3, 0.0) == pytest.approx(1.3 ** n, rel=1e-14)

    def test_against_high_precision_oracle(self):
        # the (5, 0.5, 0.7, -0.2) point frozen from the 50-digit sum
        assert fhp_eval(5, 0.5, 0.7, -0.2) == pytest.approx(
            1.9799337827449567486, rel=1e-13
        )
        rng = Generator(17)
        for _ in range(25):
            n = int(rng.integers(0, 15))
            alpha = rng.uniform(0.15, 1.0)
            x = rng.uniform(-2.0, 2.0)
            y = rng.uniform(-1.5, 1.5)
            assert fhp_eval(n, alpha, x, y) == pytest.approx(
                oracles.fhp(n, alpha, x, y)[0], rel=1e-12, abs=1e-12
            )

    def test_classical_reduction(self):
        rng = Generator(23)
        for n in range(16):
            x, y = rng.uniform(-1.5, 1.5, size=2)
            assert fhp_eval(n, 1.0, x, y) == pytest.approx(
                classical_hermite(n, x, y), rel=1e-10, abs=1e-10
            )

    def test_homogeneity(self):
        rng = Generator(29)
        for _ in range(20):
            n = int(rng.integers(0, 11))
            alpha = rng.uniform(0.2, 1.0)
            x, y = rng.uniform(-1.0, 1.0, size=2)
            s = rng.uniform(0.2, 2.5)
            assert fhp_eval(n, alpha, s * x, s * s * y) == pytest.approx(
                s ** n * fhp_eval(n, alpha, x, y), rel=1e-10, abs=1e-12
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            fhp_eval(-1, 0.5, 0.0, 0.0)
        with pytest.raises(DomainError):
            fhp_eval(2, 1.5, 0.0, 0.0)


class TestAtZero:
    def test_odd_vanishes(self):
        for n in (1, 3, 5, 11):
            assert fhp_at_zero(n, 0.7, 2.0) == 0.0

    def test_classical_value(self):
        assert fhp_at_zero(2, 1.0, 1.0) == pytest.approx(2.0, rel=1e-14)

    def test_even_closed_form(self):
        # 4! * 2**2 / Gamma(2) = 96
        assert fhp_at_zero(4, 0.5, 2.0) == pytest.approx(96.0, rel=1e-13)

    def test_agrees_with_eval(self):
        for n in range(13):
            for alpha in (0.3, 0.8, 1.0):
                for y in (-1.0, 0.6, 2.0):
                    assert fhp_at_zero(n, alpha, y) == pytest.approx(
                        fhp_eval(n, alpha, 0.0, y), abs=1e-12, rel=1e-12
                    )


class TestOplusPower:
    def test_alpha_one_is_binomial(self):
        rng = Generator(31)
        for _ in range(15):
            x, y = rng.uniform(-2.0, 2.0, size=2)
            n = int(rng.integers(0, 9))
            assert oplus_power(x, y, n, 1.0) == pytest.approx((x + y) ** n, rel=1e-12, abs=1e-12)

    def test_zero_second_argument(self):
        assert oplus_power(1.7, 0.0, 5, 0.6) == pytest.approx(1.7 ** 5, rel=1e-14)

    def test_fractional_binomial_sum(self):
        # (1 (+)_0.5 1)**3 = sum_r (3 r)_0.5 = 5 exactly, frozen from the oracle
        want = sum(frac_binom(3, r, 0.5) for r in range(4))
        assert oplus_power(1.0, 1.0, 3, 0.5) == pytest.approx(want, rel=1e-14)
        assert want == pytest.approx(5.0, rel=1e-13)

    def test_homogeneity(self):
        rng = Generator(37)
        for _ in range(15):
            x, y = rng.uniform(-1.5, 1.5, size=2)
            a = rng.uniform(0.2, 2.0)
            n = int(rng.integers(0, 8))
            alpha = rng.uniform(0.2, 1.0)
            assert oplus_power(a * x, a * y, n, alpha) == pytest.approx(
                a ** n * oplus_power(x, y, n, alpha), rel=1e-11, abs=1e-12
            )


class TestUmbralShift:
    def test_w_zero_is_classical(self):
        rng = Generator(41)
        for _ in range(10):
            n = int(rng.integers(0, 10))
            x, a = rng.uniform(-1.5, 1.5, size=2)
            assert umbral_hermite_shift(n, x, a, 0.0, 0.6) == pytest.approx(
                classical_hermite(n, x, a), rel=1e-12, abs=1e-12
            )

    def test_a_zero_is_fhp(self):
        rng = Generator(43)
        for _ in range(10):
            n = int(rng.integers(0, 10))
            x, w = rng.uniform(-1.5, 1.5, size=2)
            alpha = rng.uniform(0.1, 0.95)
            assert umbral_hermite_shift(n, x, 0.0, w, alpha) == pytest.approx(
                fhp_eval(n, alpha, x, w), rel=1e-12, abs=1e-12
            )

    def test_double_sum_oracle_point(self):
        # frozen from the 50-digit double sum at (4, 0.3, 0.2, 0.5, 0.6)
        assert umbral_hermite_shift(4, 0.3, 0.2, 0.5, 0.6) == pytest.approx(
            9.4400964702578409943, rel=1e-13
        )

    def test_alpha_open_interval(self):
        with pytest.raises(DomainError):
            umbral_hermite_shift(3, 0.5, 0.1, 0.2, 1.0)


_RANGE = "exceeds the double-precision range at"


@pytest.mark.parametrize("fn, args, message", [
    (umbral_hermite_shift, (4, 1e200, 0.3, 0.2, 0.5), f"x**4 {_RANGE} x = 1e+200"),
    (umbral_hermite_shift, (4, 1.0, 1e200, 0.2, 0.5), f"a**2 {_RANGE} a = 1e+200"),
    (umbral_hermite_shift, (4, 1.0, 0.3, 1e200, 0.5), f"w**2 {_RANGE} w = 1e+200"),
    (fhp_at_zero, (4, 0.5, 1e300), f"y**2 {_RANGE} y = 1e+300"),
], ids=["umbral-x", "umbral-a", "umbral-w", "at-zero-y"])
def test_overflowing_power_names_its_base(fn, args, message):
    # was a raw OverflowError: (34, 'Numerical result out of range')
    with pytest.raises(FloatOverflowError) as info:
        fn(*args)
    assert str(info.value) == message


class TestConvolutionIdentities:
    def test_identity_i_sweep(self):
        rng = Generator(42)
        for _ in range(50):
            x = rng.uniform(-1.5, 1.5)
            a, w = rng.uniform(-1.0, 1.0, size=2)
            alpha = rng.uniform(0.15, 0.95)
            for n in range(13):
                lhs = umbral_hermite_shift(n, x, a, w, alpha)
                rhs = convolution_identity_i_rhs(n, x, a, w, alpha)
                assert abs(lhs - rhs) <= max(1e-9 * max(abs(lhs), abs(rhs)), 1e-12)

    def test_identity_ii_sweep(self):
        rng = Generator(43)
        for _ in range(50):
            x = rng.uniform(-1.5, 1.5)
            a, w = rng.uniform(-1.0, 1.0, size=2)
            alpha = rng.uniform(0.15, 0.95)
            for n in range(13):
                lhs = fhp_oplus_eval(n, x, w, a, alpha)
                rhs = convolution_identity_ii_rhs(n, x, a, w, alpha)
                assert abs(lhs - rhs) <= max(1e-9 * max(abs(lhs), abs(rhs)), 1e-12)

    def test_identity_i_classical_collapse(self):
        rng = Generator(47)
        for n in range(10):
            x, a, w = rng.uniform(-1.0, 1.0, size=3)
            assert convolution_identity_i_rhs(n, x, a, w, 1.0) == pytest.approx(
                classical_hermite(n, x, a + w), rel=1e-11, abs=1e-12
            )

    def test_identity_i_degree_two(self):
        x, a, w, alpha = 0.7, 0.3, 0.4, 0.6
        want = x * x + 2.0 * w * rgamma(1.0 + alpha) + 2.0 * a
        assert convolution_identity_i_rhs(2, x, a, w, alpha) == pytest.approx(want, rel=1e-13)

    def test_identity_i_a_zero(self):
        assert convolution_identity_i_rhs(6, 0.8, 0.0, 0.5, 0.7) == pytest.approx(
            fhp_eval(6, 0.7, 0.8, 0.5), rel=1e-13
        )

    def test_identity_ii_trivials(self):
        assert convolution_identity_ii_rhs(5, 0.9, 0.0, 0.4, 0.6) == pytest.approx(
            fhp_eval(5, 0.6, 0.9, 0.4), rel=1e-13
        )
        # frozen from the 50-digit sum at (6, 0.5, 0.1, 0.2, 0.7)
        assert convolution_identity_ii_rhs(6, 0.5, 0.1, 0.2, 0.7) == pytest.approx(
            13.213658814849048403, rel=1e-13
        )

    def test_identity_ii_classical_collapse(self):
        rng = Generator(53)
        for n in range(10):
            x, a, w = rng.uniform(-1.0, 1.0, size=3)
            assert convolution_identity_ii_rhs(n, x, a, w, 1.0) == pytest.approx(
                classical_hermite(n, x, w + a), rel=1e-11, abs=1e-12
            )

    def test_oplus_eval_trivials(self):
        assert fhp_oplus_eval(4, 1.2, 0.5, 0.0, 0.8) == pytest.approx(
            fhp_eval(4, 0.8, 1.2, 0.5), rel=1e-13
        )
        rng = Generator(59)
        for n in range(9):
            x, w, a = rng.uniform(-1.0, 1.0, size=3)
            assert fhp_oplus_eval(n, x, w, a, 1.0) == pytest.approx(
                classical_hermite(n, x, w + a), rel=1e-11, abs=1e-12
            )
        # frozen from the nested 50-digit sum at (5, 1.1, 0.3, 0.4, 0.5)
        assert fhp_oplus_eval(5, 1.1, 0.3, 0.4, 0.5) == pytest.approx(
            75.804841788262758251, rel=1e-13
        )


class TestForwardShifts:
    def test_x_shift_coefficientwise(self):
        for n in range(1, 16):
            for alpha in (0.3, 0.5, 0.8, 1.0):
                for y in (-1.0, 0.5, 2.0):
                    image = fhp_coeffs(n, alpha, y).derivative()
                    target = fhp_coeffs(n - 1, alpha, y).scale(float(n))
                    scale = max(1.0, max(abs(c) for c in target.coefficients))
                    assert image.max_coeff_diff(target) / scale <= 1e-13


class TestGeneratingFunction:
    def test_egf_against_closed_product(self):
        rng = Generator(61)
        for alpha in (0.4, 0.6, 0.9):
            for _ in range(34):
                lam = rng.uniform(-0.4, 0.4)
                x, y = rng.uniform(-1.0, 1.0, size=2)
                partial = sum(
                    lam ** n / math.factorial(n) * fhp_eval(n, alpha, x, y)
                    for n in range(31)
                )
                closed = math.exp(x * lam) * ml_one(alpha, y * lam * lam).value
                assert abs(partial - closed) <= 1e-10
