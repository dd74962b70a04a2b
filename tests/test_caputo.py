import math
from array import array

import mpmath as mp
import pytest

from mlpoly._pcg import Generator
from mlpoly.caputo import caputo_l1, caputo_monomial, caputo_poly, rl_from_caputo
from mlpoly.cli import _linspace
from mlpoly.errors import DomainError
from mlpoly.fracpoly import FracPoly
from mlpoly.gamma_core import rgamma
from mlpoly.mittag_leffler import ml_one


def caputo_monomial_mp(gamma_exp, alpha):
    """Gamma(1+g)/Gamma(1+g-a), the coefficient of the exact rule, at 50 digits."""
    with mp.workdps(50):
        g, a = mp.mpf(gamma_exp), mp.mpf(alpha)
        return float(mp.gamma(1 + g) / mp.gamma(1 + g - a))


def _ml_truncation(alpha, a, n_terms):
    return FracPoly(
        [(a ** r * rgamma(1.0 + alpha * r), alpha * r) for r in range(n_terms)]
    )


class TestMonomialRule:
    def test_constant_annihilated(self):
        assert caputo_monomial(0.0, 0.5) == (0.0, 0.0)

    def test_linear(self):
        coeff, expo = caputo_monomial(1.0, 0.5)
        assert coeff == pytest.approx(1.0 / (0.5 * math.sqrt(math.pi)), rel=1e-13)
        assert expo == pytest.approx(0.5)

    def test_alpha_multiples(self):
        for alpha in (0.3, 0.6):
            for n in range(1, 8):
                coeff, expo = caputo_monomial(alpha * n, alpha)
                assert coeff == pytest.approx(
                    caputo_monomial_mp(alpha * n, alpha), rel=1e-12
                )
                assert expo == pytest.approx(alpha * (n - 1), abs=1e-12)

    def test_oracle_sweep(self):
        rng = Generator(3)
        for _ in range(25):
            alpha = rng.uniform(0.05, 0.95)
            g = rng.uniform(alpha, 6.0)
            coeff, expo = caputo_monomial(g, alpha)
            assert coeff == pytest.approx(caputo_monomial_mp(g, alpha), rel=1e-12)
            assert expo == pytest.approx(g - alpha, abs=1e-12)

    def test_gap_rejected(self):
        with pytest.raises(DomainError):
            caputo_monomial(0.3, 0.5)

    def test_order_domain(self):
        for bad in (0.0, 1.0, 1.5):
            with pytest.raises(DomainError):
                caputo_monomial(1.0, bad)


class TestPolyRule:
    def test_constant_poly(self):
        assert caputo_poly(FracPoly.one(), 0.4).is_zero()

    def test_linearity_exact(self):
        rng = Generator(5)
        for _ in range(15):
            alpha = rng.uniform(0.1, 0.9)
            p = FracPoly([(rng.uniform(-2, 2), float(k)) for k in range(5)])
            q = FracPoly([(rng.uniform(-2, 2), alpha + 0.4 * k) for k in range(4)])
            a, b = rng.uniform(-3, 3, size=2)
            combo = caputo_poly(p.scale(a) + q.scale(b), alpha)
            split = caputo_poly(p, alpha).scale(a) + caputo_poly(q, alpha).scale(b)
            assert combo.max_coeff_diff(split) <= 1e-12

    def test_eigenfunction_truncation_exact(self):
        for alpha in (0.3, 0.5, 0.8):
            for a in (-1.0, 0.5):
                image = caputo_poly(_ml_truncation(alpha, a, 12), alpha)
                target = _ml_truncation(alpha, a, 11).scale(a)
                assert image.max_coeff_diff(target) <= 1e-13

    def test_offending_exponent_reported(self):
        with pytest.raises(DomainError) as excinfo:
            caputo_poly(FracPoly([(1.0, 0.2), (1.0, 2.0)]), 0.5)
        assert "0.2" in str(excinfo.value)

    def test_fhp_forward_shift_in_y(self):
        # Caputo in the y variable drops the degree by two:
        # the y-profile of H[alpha]_n(x, y**alpha) maps to n(n-1) times the
        # profile of H[alpha]_{n-2}(x, y**alpha)
        for n in range(2, 13):
            for alpha in (0.3, 0.5, 0.8):
                p = FracPoly(
                    [
                        (
                            math.factorial(n) // math.factorial(n - 2 * r)
                            * rgamma(1.0 + alpha * r),
                            alpha * r,
                        )
                        for r in range(n // 2 + 1)
                    ]
                )
                q = FracPoly(
                    [
                        (
                            math.factorial(n - 2) // math.factorial(n - 2 - 2 * s)
                            * rgamma(1.0 + alpha * s),
                            alpha * s,
                        )
                        for s in range((n - 2) // 2 + 1)
                    ]
                )
                image = caputo_poly(p, alpha)
                target = q.scale(float(n * (n - 1)))
                scale = max(1.0, max(abs(c) for c in target.coefficients))
                assert image.max_coeff_diff(target) / scale <= 1e-10


class TestL1Quadrature:
    def test_constant_is_zero(self):
        g = [1.0] * 65
        assert abs(caputo_l1(g, 1.0 / 64.0, 0.5, 64)) <= 1e-12

    def test_linear_function(self):
        # exact up to rounding: the L1 interpolant of t is t itself
        m = 128
        grid = _linspace(0.0, 1.0, m + 1)
        got = caputo_l1(grid, 1.0 / m, 0.5, m)
        coeff, _ = caputo_monomial(1.0, 0.5)
        assert got == pytest.approx(coeff, rel=1e-12)

    def test_truncated_eigenfunction(self):
        # g(t) = truncated E_{1/2}(-t**(1/2)); its Caputo derivative is -g
        # plus the truncation remainder
        alpha, a = 0.5, -1.0
        p = _ml_truncation(alpha, a, 30)
        m = 512
        h = 0.8 / m
        grid = array("d", [p(j * h) for j in range(m + 1)])
        got = caputo_l1(grid, h, alpha, m)
        want = caputo_poly(p, alpha)(0.8)
        assert got == pytest.approx(want, abs=5.0 * h ** (2.0 - alpha))
        assert want == pytest.approx(-p(0.8), abs=1e-10)

    def test_convergence_order(self):
        for gamma_exp in (0.7, 1.0, 2.3):
            for alpha in (0.3, 0.5, 0.8):
                if 0.0 < gamma_exp < alpha:
                    continue  # outside the exact rule's domain
                errs = []
                for level in range(5):
                    m = 64 * 2 ** level
                    samples = array("d", [t ** gamma_exp for t in _linspace(0.0, 1.0, m + 1)])
                    coeff, _ = caputo_monomial(gamma_exp, alpha)
                    errs.append(abs(caputo_l1(samples, 1.0 / m, alpha, m) - coeff))
                if max(errs) < 1e-12:
                    continue  # exact for piecewise-linear data
                for i in range(4):
                    order = math.log2(errs[i] / errs[i + 1])
                    assert abs(order - (2.0 - alpha)) <= 0.3

    def test_any_sequence_of_numbers_gives_one_float(self):
        m = 64
        samples = [(j / m) ** 1.5 for j in range(m + 1)]
        values = {caputo_l1(seq, 1.0 / m, 0.5, m)
                  for seq in (samples, tuple(samples), array("d", samples))}
        assert len(values) == 1 and type(values.pop()) is float
        assert type(caputo_l1(list(range(m + 1)), 1.0 / m, 0.5, m)) is float

    def test_grid_validation(self):
        with pytest.raises(DomainError):
            caputo_l1([1.0] * 3, 0.1, 0.5, 1)
        with pytest.raises(DomainError):
            caputo_l1([1.0] * 3, 0.1, 0.5, 5)
        with pytest.raises(DomainError):
            caputo_l1([1.0] * 5, 0.0, 0.5, 3)


class TestRiemannLiouvilleShift:
    def test_zero_initial_value(self):
        assert rl_from_caputo(1.7, 0.0, 0.5, 0.3) == 1.7

    def test_eigenfunction_theorem_form(self):
        # RL of E_alpha(a t**alpha) = t**(-alpha)/Gamma(1-alpha) + a E_alpha(a t**alpha)
        for alpha in (0.3, 0.6):
            for a in (-1.0, 0.5):
                for t in (0.4, 1.2):
                    e_val = ml_one(alpha, a * t ** alpha).value
                    got = rl_from_caputo(a * e_val, 1.0, t, alpha)
                    want = t ** (-alpha) * rgamma(1.0 - alpha) + a * e_val
                    assert got == pytest.approx(want, rel=1e-12)

    def test_pure_shift(self):
        assert rl_from_caputo(0.0, 1.0, 1.0, 0.5) == pytest.approx(
            1.0 / math.sqrt(math.pi), rel=1e-13
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            rl_from_caputo(0.0, 1.0, 0.0, 0.5)
