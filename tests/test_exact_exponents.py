"""Exponents are compared exactly, and Caputo steps stay on the alpha-lattice.

Every exponent of the paper's constructions lies on the lattice alpha*k: the
operational construction steps x**(alpha*n) down by alpha, and the
Fokker-Planck solutions are sums of t**(alpha*r) and x**(alpha*r) terms.
``FracPoly`` merges two terms only when their exponents are the same float,
``caputo_monomial`` tests "gamma = 0" and "gamma < alpha" exactly, and a step
from ``alpha*k`` lands on ``alpha*(k-1)``.  The rows below gave wrong answers
or false failures while exponents within 1e-9 of each other counted as equal:
at alpha <= 1e-9 distinct lattice points merged.
"""

import math
import random

import pytest

from mlpoly import (
    DiffusionProblem,
    DomainError,
    FhpInitial,
    FracPoly,
    HermiteInitial,
    LaguerreMonomialInitial,
    LaguerreProblem,
    MonomialInitial,
    aux_v_h_fhp,
    caputo_monomial,
    config,
    mlp_coeffs,
    mlp_egf_closed,
    mlp_ogf_closed,
    mlp_operational_check,
    ml_one,
    ml_two,
    rgamma,
    residual,
    wright,
)
from mlpoly.cli import run

# 1e-8 lies above the old tolerance and passed before; the others failed
ORDERS = (1e-8, 1e-9, 1e-10, 1e-300)


def _alpha(rng):
    """alpha log-uniform in [1e-300, 1)."""
    return 10.0 ** (-300.0 * (1.0 - rng.random()))


class TestFracPoly:
    def test_exponents_1e_10_apart_stay_two_terms(self):
        # was 2*x^0
        assert FracPoly([(1.0, 1e-10), (1.0, 3e-10)]).terms == ((1.0, 1e-10), (1.0, 3e-10))

    def test_float_noise_gives_two_exponents(self):
        assert FracPoly([(1.0, 0.1 + 0.2), (2.0, 0.3)]).terms == (
            (2.0, 0.3), (1.0, 0.30000000000000004))

    def test_negative_zero_is_zero(self):
        (term,) = FracPoly([(1.0, -0.0), (2.0, 0.0)]).terms
        assert term == (3.0, 0.0) and math.copysign(1.0, term[1]) == 1.0

    def test_the_exact_comparisons(self):
        p = FracPoly([(1.0, 2.0), (1.0, 2.0 + 2.0 ** -51)])
        assert not p.has_integer_exponents()
        assert p.coeff_at(2.0) == 1.0 and p.coeff_at(2.0 + 1e-12) == 0.0
        with pytest.raises(DomainError, match="is not real for x = -1.0 < 0"):
            p(-1.0)
        with pytest.raises(DomainError, match="has a negative exponent"):
            FracPoly([(1.0, 1.0 - 2.0 ** -53)]).derivative()

    def test_equal_exponents_merge_in_input_order(self):
        rng = random.Random(24)
        for _ in range(500):
            alpha, n = _alpha(rng), rng.randint(1, 60)
            terms = [(rng.uniform(-1.0, 1.0), alpha * rng.randint(0, n))
                     for _ in range(rng.randint(0, 3 * n))]
            for mu in {mu for _, mu in terms if rng.random() < 0.2}:
                # cancel a sum exactly, so that its term is dropped
                terms.append((-_left_sum([c for c, m in terms if m == mu]), mu))
            rng.shuffle(terms)
            sums = {mu: _left_sum([c for c, m in terms if m == mu]) for _, mu in terms}
            expected = tuple((sums[mu], mu) for mu in sorted(sums) if sums[mu] != 0.0)
            assert FracPoly(terms).terms == expected


def _left_sum(coeffs):
    total = coeffs[0]
    for c in coeffs[1:]:
        total += c
    return total


class TestCaputoLattice:
    def test_a_tiny_exponent_below_alpha_is_refused(self):
        # was (0.0, 0.0): x**1e-10 counted as a constant
        with pytest.raises(DomainError, match=r"^exponent 1e-10 in \(0, alpha=0.5\) leaves"):
            caputo_monomial(1e-10, 0.5)

    def test_an_overflowing_quotient_keeps_the_log_gamma_refusal(self):
        with pytest.raises(OverflowError, match="log Gamma"):
            caputo_monomial(1e308, 1e-300)

    def test_steps_from_alpha_n_stay_on_the_lattice(self):
        rng = random.Random(24)
        for _ in range(5000):
            alpha, n = _alpha(rng), rng.randint(1, 60)
            mu = alpha * n
            for k in range(1, n + 1):
                _, mu = caputo_monomial(mu, alpha)
                assert mu == alpha * (n - k), (alpha, n, k)
            assert caputo_monomial(mu, alpha) == (0.0, 0.0)

    def test_an_exponent_off_the_lattice_steps_by_subtraction(self):
        assert caputo_monomial(1.0, 0.3)[1] == 1.0 - 0.3
        # the float 0.1*3 is 0.1+0.2, not 0.3: only the former is on the lattice
        assert caputo_monomial(0.1 + 0.2, 0.1)[1] == 0.1 * 2 == 0.2
        assert caputo_monomial(0.3, 0.1)[1] == 0.3 - 0.1 == 0.19999999999999998


@pytest.mark.parametrize("alpha", ORDERS)
def test_the_operational_construction_holds_at_tiny_alpha(alpha):
    mlp_operational_check(6, alpha, 1.0)


def test_the_operational_construction_holds_at_degree_400():
    # a false gap of 3.0e-10; the exact sums at degree 400 take seconds
    mlp_operational_check(400, 1e-10, 1e-300)


_PROBLEMS = {
    "monomial": lambda a: DiffusionProblem(a, 1.0, MonomialInitial(6)),
    "hermite": lambda a: DiffusionProblem(a, 1.0, HermiteInitial(6, 0.3)),
    "fhp": lambda a: DiffusionProblem(a, 1.0, FhpInitial(6, 0.3)),
    "laguerre-alpha": lambda a: LaguerreProblem(a, 0.5, 1.0, LaguerreMonomialInitial(6)),
    "laguerre-beta": lambda a: LaguerreProblem(0.5, a, 1.0, LaguerreMonomialInitial(6)),
}


@pytest.mark.parametrize("order", ORDERS)
@pytest.mark.parametrize("name", sorted(_PROBLEMS))
def test_residuals_hold_at_tiny_orders(name, order):
    # each read a false 1.0 at orders <= 1e-9
    assert residual(_PROBLEMS[name](order)) <= config.RESIDUAL_TOL


@pytest.mark.parametrize("argv", [
    ["eval-mlp", "--n", "1100", "--alpha", "0.5", "--beta", "1", "--x", "0.5", "--coeffs"],
    ["eval-mlp", "--n", "1100", "--alpha", "0.5", "--beta", "1", "--x", "0.5", "--coeffs",
     "--format", "csv"],
], ids=["json", "csv"])
def test_an_overflowing_binomial_exits_2(capsys, argv):
    # ended in a raw OverflowError traceback
    assert run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("numerical failure: n = 1100: an integer factor n!/(...) "
                   "exceeds the double-precision range\n")


def test_finite_results_keep_their_bits():
    rng = random.Random(5)
    for _ in range(50):
        alpha, beta = rng.uniform(0.2, 0.95), rng.uniform(0.3, 2.0)
        lam, x, y = rng.uniform(-0.8, 0.8), rng.uniform(0.0, 1.5), rng.uniform(-1.0, 1.0)
        n = rng.randint(0, 400)
        assert mlp_coeffs(n, alpha, beta, x).terms == FracPoly([
            (math.comb(n, r) * (-x) ** r * rgamma(beta + alpha * r), float(n - r))
            for r in range(n + 1)]).terms
        assert mlp_egf_closed(lam, alpha, beta, x, y) == (
            math.exp(lam * y) * wright(alpha, beta, -lam * x).value)
        assert mlp_ogf_closed(lam, alpha, beta, x, y) == (
            ml_two(alpha, beta, -lam * x / (1.0 - lam * y)).value / (1.0 - lam * y))
        if x != 1.0:
            s = x - 1.0
            z = y * s * s
            assert aux_v_h_fhp(lam, x, alpha, y)[0] == (
                2.0 / (alpha * s) * ml_two(alpha, 0.0, z).value / ml_one(alpha, z).value)
