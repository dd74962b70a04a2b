"""Executable identity suites.

Each suite re-checks one module's invariants at runtime with a seeded sweep,
so the library's mathematical claims can be exercised from the command line
(`mlpoly verify`).  Every check is deterministic in (n_max, seed).
"""

import math
from collections import namedtuple

from . import config
from ._pcg import Generator
from .caputo import caputo_l1, caputo_monomial, caputo_poly, rl_from_caputo
from .config import SUITE_NAMES
from .fokker_planck import (
    residual_laguerre,
    residual_tf_diffusion,
    solve_case_i,
    solve_case_ii,
    solve_laguerre_monomial,
    solve_laguerre_wright,
)
from .fracpoly import FracPoly
from .fractional_hermite import (
    _fhp_table,
    _gamma_weights,
    convolution_identity_i_rhs,
    convolution_identity_ii_rhs,
    fhp_at_zero,
    fhp_coeffs,
    fhp_eval,
    fhp_oplus_eval,
    oplus_power,
    umbral_hermite_shift,
)
from .gamma_core import _worst, levy_subordination_moment, rgamma
from .mittag_leffler import ml_one, ml_two, wright
from .ml_polynomials import (
    _operational_sides,
    konhauser,
    mlp_coeffs,
    mlp_egf_closed,
    mlp_eval,
    mlp_ogf_closed,
    mlp_one_var_reduction,
)
from .sheffer import (
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

_ALIASES = {"identities": "fhp-identities", "all": None}


class CheckResult(namedtuple("CheckResult", "name passed max_err tol")):
    __slots__ = ()


def _rel_gap(a, b):
    # relative gap whose floor makes "gap <= IDENTITY_RTOL" equivalent to
    # |a-b| <= max(IDENTITY_RTOL*max(|a|,|b|), IDENTITY_ATOL)
    return abs(a - b) / max(
        config.IDENTITY_ATOL / config.IDENTITY_RTOL, abs(a), abs(b)
    )


def _scaled_gap(image, target):
    """Largest coefficient gap, relative to target's largest coefficient (at least 1)."""
    return image.max_coeff_diff(target) / max(1.0, max(abs(c) for c in target.coefficients))


def _classical_hermite(n, x, y):
    # independent factorial-sum oracle for the two-variable Hermite polynomial
    return sum(
        math.factorial(n)
        / (math.factorial(n - 2 * r) * math.factorial(r))
        * x ** (n - 2 * r)
        * y ** r
        for r in range(n // 2 + 1)
    )


def _laguerre_explicit(n, x):
    return sum(
        math.comb(n, k) * (-x) ** k / math.factorial(k) for k in range(n + 1)
    )


# -- fractional Hermite ------------------------------------------------------------


def suite_fhp_identities(n_max=12, seed=42):
    rng = Generator(seed)
    results = []

    # first four closed forms, coefficient-wise
    worst = 0.0
    for alpha in (0.25, 0.5, 0.75, 1.0):
        for y in (-1.0, 0.5, 2.0):
            g1 = rgamma(1.0 + alpha)
            expected = [
                FracPoly([(1.0, 0)]),
                FracPoly([(1.0, 1)]),
                FracPoly([(2.0 * y * g1, 0), (1.0, 2)]),
                FracPoly([(6.0 * y * g1, 1), (1.0, 3)]),
            ]
            for n, want in enumerate(expected):
                worst = _worst(worst, fhp_coeffs(n, alpha, y).max_coeff_diff(want))
    results.append(CheckResult("fhp-low-order-closed-forms", worst <= 1e-12, worst, 1e-12))

    # alpha = 1 is the classical family
    worst = 0.0
    for n in range(min(n_max, 15) + 1):
        for _ in range(5):
            x, y = rng.uniform(-1.5, 1.5, size=2)
            worst = _worst(worst, _rel_gap(fhp_eval(n, 1.0, x, y), _classical_hermite(n, x, y)))
    results.append(CheckResult("fhp-classical-reduction", worst <= 1e-10, worst, 1e-10))

    # closed zero-argument values against the evaluator
    worst = 0.0
    for n in range(n_max + 1):
        for alpha in (0.3, 0.5, 0.8, 1.0):
            for y in (-1.0, 0.5, 2.0):
                worst = _worst(worst, abs(fhp_at_zero(n, alpha, y) - fhp_eval(n, alpha, 0.0, y)))
    results.append(CheckResult("fhp-at-zero", worst <= 1e-12, worst, 1e-12))

    # forward shift in x: d/dx lowers n by one with the same gamma values
    worst = 0.0
    for n in range(1, min(n_max, 15) + 1):
        for alpha in (0.3, 0.5, 0.8):
            for y in (-1.0, 0.5, 2.0):
                image = fhp_coeffs(n, alpha, y).derivative()
                target = fhp_coeffs(n - 1, alpha, y).scale(float(n))
                worst = _worst(worst, _scaled_gap(image, target))
    results.append(CheckResult("fhp-forward-shift-x", worst <= 1e-12, worst, 1e-12))

    # forward shift in y: the Caputo derivative drops n by two
    worst = 0.0
    for n in range(2, min(n_max, 12) + 1):
        for alpha in (0.3, 0.5, 0.8):
            rows = (_gamma_weights(_fhp_table((m,), alpha)) for m in (n, n - 2))
            p, q = (FracPoly([(c, alpha * r) for r, c in enumerate(row)]) for row in rows)
            worst = _worst(worst, _scaled_gap(caputo_poly(p, alpha), q.scale(float(n * (n - 1)))))
    results.append(CheckResult("fhp-forward-shift-y", worst <= 1e-10, worst, 1e-10))

    # exponential generating function against the closed product
    worst = 0.0
    for alpha in (0.4, 0.6, 0.9):
        for _ in range(34):
            lam = rng.uniform(-0.4, 0.4)
            x, y = rng.uniform(-1.0, 1.0, size=2)
            partial = sum(
                lam ** n / math.factorial(n) * fhp_eval(n, alpha, x, y) for n in range(31)
            )
            closed = math.exp(x * lam) * ml_one(alpha, y * lam * lam).value
            worst = _worst(worst, abs(partial - closed))
    results.append(CheckResult("fhp-egf", worst <= 1e-10, worst, 1e-10))

    # the two convolution identities
    worst_i = worst_ii = 0.0
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5)
        a, w = rng.uniform(-1.0, 1.0, size=2)
        alpha = rng.uniform(0.15, 0.95)
        for n in range(n_max + 1):
            worst_i = _worst(
                worst_i,
                _rel_gap(
                    umbral_hermite_shift(n, x, a, w, alpha),
                    convolution_identity_i_rhs(n, x, a, w, alpha),
                ),
            )
            worst_ii = _worst(
                worst_ii,
                _rel_gap(
                    fhp_oplus_eval(n, x, w, a, alpha),
                    convolution_identity_ii_rhs(n, x, a, w, alpha),
                ),
            )
    results.append(CheckResult("fhp-identity-hermite-seed", worst_i <= 1e-9, worst_i, 1e-9))
    results.append(CheckResult("fhp-identity-oplus-seed", worst_ii <= 1e-9, worst_ii, 1e-9))

    # scaling homogeneity of the polynomial and of the deformed power
    worst = 0.0
    for _ in range(20):
        x, y = rng.uniform(-1.0, 1.0, size=2)
        s = rng.uniform(0.2, 2.0)
        alpha = rng.uniform(0.2, 1.0)
        for n in range(min(n_max, 10) + 1):
            worst = _worst(
                worst,
                _rel_gap(fhp_eval(n, alpha, s * x, s * s * y), s ** n * fhp_eval(n, alpha, x, y)),
                _rel_gap(oplus_power(s * x, s * y, n, alpha), s ** n * oplus_power(x, y, n, alpha)),
            )
    results.append(CheckResult("fhp-homogeneity", worst <= 1e-9, worst, 1e-9))

    return results


# -- Mittag-Leffler polynomials ------------------------------------------------------


def suite_mlp_gf(n_max=10, seed=42):
    rng = Generator(seed)
    results = []

    worst = 0.0
    for _ in range(30):
        alpha = rng.uniform(0.3, 0.95)
        beta = rng.uniform(0.6, 2.0)
        x = rng.uniform(0.4, 1.1)
        y = rng.uniform(0.4, 1.1)
        lam = rng.uniform(0.3, 1.0) * 0.5 / (abs(x) + abs(y))
        partial = sum(lam ** n * mlp_eval(n, alpha, beta, x, y) for n in range(41))
        worst = _worst(worst, abs(partial - mlp_ogf_closed(lam, alpha, beta, x, y)))
    results.append(CheckResult("mlp-ogf", worst <= 1e-9, worst, 1e-9))

    worst = 0.0
    for _ in range(30):
        alpha = rng.uniform(0.3, 0.95)
        beta = rng.uniform(0.6, 2.0)
        x = rng.uniform(0.2, 1.2)
        y = rng.uniform(0.2, 1.2)
        lam = rng.uniform(-0.8, 0.8)
        partial = sum(
            lam ** n / math.factorial(n) * mlp_eval(n, alpha, beta, x, y)
            for n in range(31)
        )
        worst = _worst(worst, abs(partial - mlp_egf_closed(lam, alpha, beta, x, y)))
    results.append(CheckResult("mlp-egf", worst <= 1e-9, worst, 1e-9))

    worst = 0.0
    for _ in range(30):
        alpha = rng.uniform(0.3, 1.5)
        beta = rng.uniform(0.5, 2.0)
        x = rng.uniform(-1.0, 1.0)
        y = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        for n in range(n_max + 1):
            worst = _worst(
                worst,
                _rel_gap(mlp_one_var_reduction(n, alpha, beta, x, y), mlp_eval(n, alpha, beta, x, y)),
            )
    results.append(CheckResult("mlp-one-var-reduction", worst <= 1e-12, worst, 1e-12))

    worst = 0.0
    for n in range(min(n_max, 10) + 1):
        for x in [0.5 * i for i in range(9)]:
            worst = _worst(
                worst,
                _rel_gap(konhauser(n, 1.0, 1.0, x, 1.0), _laguerre_explicit(n, x)),
            )
    results.append(CheckResult("konhauser-laguerre", worst <= 1e-10, worst, 1e-10))

    # negative-integer upper parameter of the three-parameter function,
    # coefficient against coefficient
    worst = 0.0
    for n in range(min(n_max, 6) + 1):
        for alpha in (0.3, 0.7):
            for beta in (0.5, 1.0, 1.7):
                poly = mlp_coeffs(n, alpha, beta, 1.0)  # coefficient of y**(n-r) is C(n,r)(-1)^r/Gamma
                for r in range(n + 1):
                    poch = 1.0
                    for j in range(r):
                        poch *= (-n + j)
                    series_coeff = poch / math.factorial(r) * rgamma(beta + alpha * r)
                    worst = _worst(worst, abs(series_coeff - poly.coeff_at(float(n - r))))
    results.append(CheckResult("mlp-prabhakar-consistency", worst <= 1e-12, worst, 1e-12))

    worst = 0.0
    for n in range(min(n_max, 8) + 1):
        for alpha in (0.3, 0.5, 0.9):
            for y in (0.5, 1.0, 2.0):
                lhs, rhs = _operational_sides(n, alpha, y)
                worst = _worst(worst, *(abs(a - b) for a, b in zip(lhs, rhs)))
    results.append(CheckResult("mlp-operational", worst <= 1e-10, worst, 1e-10))

    return results


# -- Caputo derivative ------------------------------------------------------------


def _ml_truncation_poly(alpha, a, n_terms):
    """First n_terms terms of E_alpha(a t**alpha) as a FracPoly in t."""
    return FracPoly(
        [(a ** r * rgamma(1.0 + alpha * r), alpha * r) for r in range(n_terms)]
    )


def suite_caputo(n_max=12, seed=42):
    rng = Generator(seed)
    results = []

    worst = 0.0
    for _ in range(20):
        alpha = rng.uniform(0.1, 0.9)
        p = FracPoly([(rng.uniform(-2, 2), float(k)) for k in range(6)])
        q = FracPoly([(rng.uniform(-2, 2), alpha + 0.3 * k) for k in range(5)])
        a, b = rng.uniform(-3, 3, size=2)
        combo = caputo_poly(p.scale(a) + q.scale(b), alpha)
        split = caputo_poly(p, alpha).scale(a) + caputo_poly(q, alpha).scale(b)
        worst = _worst(worst, combo.max_coeff_diff(split))
    results.append(CheckResult("caputo-linearity", worst <= 1e-12, worst, 1e-12))

    worst = 0.0
    for alpha in (0.3, 0.5, 0.8):
        for a in (-1.0, 0.5):
            for n_terms in (6, 12, 14):
                image = caputo_poly(_ml_truncation_poly(alpha, a, n_terms), alpha)
                target = _ml_truncation_poly(alpha, a, n_terms - 1).scale(a)
                worst = _worst(worst, image.max_coeff_diff(target))
    results.append(CheckResult("caputo-eigenfunction-truncation", worst <= 1e-13, worst, 1e-13))

    worst = 0.0
    for gamma_exp in (0.7, 1.0, 2.3):
        for alpha in (0.3, 0.5, 0.8):
            if 0.0 < gamma_exp < alpha:
                continue  # outside the exact rule's domain (image exponent < 0)
            errs = []
            for level in range(5):
                m = 64 * 2 ** level
                h = 1.0 / m
                samples = [(i * h) ** gamma_exp for i in range(m + 1)]
                coeff, expo = caputo_monomial(gamma_exp, alpha)
                exact = coeff * 1.0 ** expo
                errs.append(abs(caputo_l1(samples, h, alpha, m) - exact))
            if _worst(*errs) < 1e-12:
                continue  # the scheme is exact for linear data
            orders = [math.log2(errs[i] / errs[i + 1]) for i in range(4)]
            worst = _worst(worst, *(abs(o - (2.0 - alpha)) for o in orders))
    results.append(CheckResult("caputo-l1-order", worst <= 0.3, worst, 0.3))

    worst = 0.0
    for alpha in (0.3, 0.5, 0.8):
        for t in (0.4, 1.0, 2.5):
            for a in (-1.0, 0.7):
                caputo_value = a * ml_one(alpha, a * t ** alpha).value
                want = t ** (-alpha) * rgamma(1.0 - alpha) + a * ml_one(alpha, a * t ** alpha).value
                worst = _worst(worst, _rel_gap(rl_from_caputo(caputo_value, 1.0, t, alpha), want))
    results.append(CheckResult("caputo-riemann-liouville-shift", worst <= 1e-12, worst, 1e-12))

    return results


# -- Fokker-Planck solutions --------------------------------------------------------


def suite_pde_residuals(n_max=10, seed=42):
    rng = Generator(seed)
    results = []

    worst = 0.0
    for n in range(min(n_max, 10) + 1):
        for alpha in (0.3, 0.5, 0.8):
            worst = _worst(worst, residual_tf_diffusion(n, alpha, 1.0),
                           residual_tf_diffusion(n, alpha, 0.7))
    results.append(CheckResult("tf-diffusion-residual", worst <= 1e-10, worst, 1e-10))

    worst = 0.0
    for n in range(min(n_max, 6) + 1):
        for alpha in (0.3, 0.5, 0.8):
            for beta in (0.3, 0.5, 0.8):
                worst = _worst(worst, residual_laguerre(n, alpha, beta, 1.0))
    results.append(CheckResult("laguerre-residual", worst <= 1e-10, worst, 1e-10))

    # every solution reproduces its initial datum at t -> 0+
    worst = 0.0
    tiny = 1e-9
    for _ in range(15):
        n = rng.integers(0, min(n_max, 8) + 1)
        a = rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(0.2, 0.9)
        beta = rng.uniform(0.2, 0.9)
        k = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        x = rng.uniform(0.1, 1.5)
        y = rng.uniform(0.2, 1.5)
        worst = _worst(worst, abs(solve_case_i(n, a, alpha, k, x, 0.0) - _classical_hermite(n, x, a)))
        worst = _worst(worst, abs(solve_case_ii(n, a, alpha, k, x, 0.0) - fhp_eval(n, alpha, x, a)))
        ic = (-(x ** alpha)) ** n * rgamma(1.0 + alpha * n)
        worst = _worst(worst, abs(solve_laguerre_monomial(n, alpha, beta, b, x, tiny ** (1.0 / beta)) - ic))
        worst = _worst(
            worst,
            abs(
                solve_laguerre_wright(y, alpha, beta, b, x, (tiny / (b * y)) ** (1.0 / beta))
                - wright(alpha, 1.0, -y * x ** alpha).value
            ),
        )
    results.append(CheckResult("initial-condition-recovery", worst <= 1e-8, worst, 1e-8))

    worst_i = worst_ii = 0.0
    for _ in range(25):
        n = rng.integers(0, n_max + 1)
        a = rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(0.15, 0.95)
        k = rng.uniform(0.5, 2.0)
        x = rng.uniform(-1.5, 1.5)
        t = rng.uniform(0.1, 1.5)
        w = k * t ** alpha
        worst_i = _worst(
            worst_i,
            _rel_gap(solve_case_i(n, a, alpha, k, x, t), umbral_hermite_shift(n, x, a, w, alpha)),
        )
        worst_ii = _worst(
            worst_ii,
            _rel_gap(solve_case_ii(n, a, alpha, k, x, t), fhp_oplus_eval(n, x, w, a, alpha)),
        )
    results.append(CheckResult("case-i-umbral-equality", worst_i <= 1e-9, worst_i, 1e-9))
    results.append(CheckResult("case-ii-both-forms", worst_ii <= 1e-9, worst_ii, 1e-9))

    # moment expansion against the direct double-gamma sum, term by term
    worst = 0.0
    pairs = ((0.3, 0.4), (0.3, 0.7), (0.6, 0.4), (0.6, 0.7), (0.5, 0.7), (0.8, 0.6))
    for n in range(min(n_max, 8) + 1):
        for alpha, beta in pairs:
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
                worst = _worst(worst, _rel_gap(direct, moment))
    results.append(CheckResult("subordination-term-consistency", worst <= 1e-13, worst, 1e-13))

    return results


# -- Sheffer ladder -------------------------------------------------------------------


def _ladder_gaps(coeffs, gd, n_max):
    """Worst (raising, lowering, commutator) gaps of the ladder with log-derivative
    ``gd`` on the polynomials ``coeffs(n)``, n = 0..n_max."""
    up = down = comm = 0.0
    for n in range(n_max + 1):
        p = coeffs(n)
        up = _worst(up, _scaled_gap(raising_apply(p, gd), coeffs(n + 1)))
        if n >= 1:
            down = _worst(down, _scaled_gap(lowering_apply(p), coeffs(n - 1).scale(float(n))))
        commutator = lowering_apply(raising_apply(p, gd)) - raising_apply(lowering_apply(p), gd)
        comm = _worst(comm, _scaled_gap(commutator, p))
    return up, down, comm


def suite_sheffer_ladder(n_max=10, seed=42):
    rng = Generator(seed)
    results = []
    n_max = min(n_max, 10)

    fhp = (0.0, 0.0, 0.0)
    for alpha in (0.3, 0.5, 0.8):
        for y in (-1.0, 0.5, 2.0):
            gd = series_log_derivative(series_reciprocal(appell_A_fhp(alpha, y, n_max + 4)))
            gaps = _ladder_gaps(lambda n: fhp_coeffs(n, alpha, y), gd, n_max)
            fhp = tuple(map(_worst, fhp, gaps))

    # x stays moderate: large x pushes the first zero of the Wright prefactor
    # toward the origin and the reciprocal-series route becomes ill-conditioned
    mlp = (0.0, 0.0, 0.0)
    for alpha in (0.3, 0.5, 0.8):
        for beta in (0.5, 1.0, 1.6):
            for x in (0.4, 0.6):
                gd = series_log_derivative(series_reciprocal(appell_A_mlp(alpha, beta, x, n_max + 4)))
                gaps = _ladder_gaps(lambda n: mlp_coeffs(n, alpha, beta, x), gd, n_max)
                mlp = tuple(map(_worst, mlp, gaps))

    for name, worst in (
        ("ladder-raising-fhp", fhp[0]),
        ("ladder-lowering-fhp", fhp[1]),
        ("ladder-raising-mlp", mlp[0]),
        ("ladder-lowering-mlp", mlp[1]),
        ("ladder-commutator", _worst(fhp[2], mlp[2])),
    ):
        results.append(CheckResult(name, worst <= 1e-9, worst, 1e-9))

    # derivative of the Hermite-family prefactor: A'(lam) = (2/(alpha lam)) E_{alpha,0}(y lam^2)
    worst = 0.0
    for alpha in (0.3, 0.5, 0.8):
        for y in (-1.0, 0.5, 2.0):
            deriv = appell_A_fhp(alpha, y, 14).derivative()
            for r in range(1, 7):
                closed = (2.0 / alpha) * y ** r * rgamma(alpha * r)
                worst = _worst(worst, abs(deriv.coeffs[2 * r - 1] - closed))
    results.append(CheckResult("appell-A-prime-consistency", worst <= 1e-10, worst, 1e-10))

    # cocycle of h for both families
    worst = 0.0
    for _ in range(20):
        l1, l2 = rng.uniform(-0.3, 0.3, size=2)
        alpha = rng.uniform(0.3, 0.9)
        beta = rng.uniform(0.5, 1.5)
        y = rng.uniform(-0.8, 0.8)
        x = rng.uniform(1.2, 2.0)
        _, h12 = aux_v_h_fhp(l1 + l2, x, alpha, y)
        _, ha = aux_v_h_fhp(l1, x, alpha, y)
        _, hb = aux_v_h_fhp(l2, l1 + x, alpha, y)
        worst = _worst(worst, _rel_gap(h12, ha * hb))
        xp = rng.uniform(0.2, 1.0)
        _, h12 = aux_v_h_mlp(l1 + l2, x, alpha, beta, xp)
        _, ha = aux_v_h_mlp(l1, x, alpha, beta, xp)
        _, hb = aux_v_h_mlp(l2, l1 + x, alpha, beta, xp)
        worst = _worst(worst, _rel_gap(h12, ha * hb))
    results.append(CheckResult("h-cocycle", worst <= 1e-9, worst, 1e-9))

    # the generic evaluator collapses to q = 1, T = lam + x and the closed v, h
    worst = 0.0
    for _ in range(10):
        lam = rng.uniform(-0.3, 0.3)
        x = rng.uniform(1.3, 2.2)
        alpha = rng.uniform(0.3, 0.9)
        y = rng.uniform(-0.8, 0.8)
        a_fn = lambda u: ml_one(alpha, y * u * u).value
        a_prime = lambda u: (2.0 / (alpha * u)) * ml_two(alpha, 0.0, y * u * u).value
        q, v, big_t, h = appell_auxiliary(a_fn, a_prime, lam, x)
        if q != 1.0 or big_t != lam + x:
            worst = math.inf
        v2, h2 = aux_v_h_fhp(lam, x, alpha, y)
        worst = _worst(worst, _rel_gap(v, v2), _rel_gap(h, h2))
    results.append(CheckResult("appell-specialization", worst <= 1e-9, worst, 1e-9))

    return results


_SUITES = {
    "fhp-identities": suite_fhp_identities,
    "mlp-gf": suite_mlp_gf,
    "caputo": suite_caputo,
    "pde-residuals": suite_pde_residuals,
    "sheffer-ladder": suite_sheffer_ladder,
}


def run_suites(names, n_max=10, seed=42):
    """Run the named suites (or all of them) and return [(suite, [CheckResult])]."""
    if isinstance(names, str):
        names = [names]
    expanded = []
    for name in names:
        name = _ALIASES.get(name, name)
        if name is None:
            expanded.extend(SUITE_NAMES)
        elif name in _SUITES:
            expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    out = []
    for name in expanded:
        out.append((name, _SUITES[name](n_max=n_max, seed=seed)))
    return out


def format_report(suite_results, n_max, seed):
    """A header, one line per check, then a summary; deterministic for fixed inputs."""
    lines = [f"# suites={','.join(s for s, _ in suite_results)} n_max={n_max} seed={seed}"]
    checks = [(suite, check) for suite, suite_checks in suite_results for check in suite_checks]
    for suite, check in checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(
            f"{status} {suite}/{check.name} max_err={check.max_err:.15g} tol={check.tol:.15g}"
        )
    passed = sum(check.passed for _, check in checks)
    lines.append(f"passed {passed}/{len(checks)}")
    return "\n".join(lines) + "\n", passed == len(checks)
