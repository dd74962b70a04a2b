"""Executable identity suites.

Each suite re-checks one module's invariants at runtime with a seeded sweep,
so the library's mathematical claims can be exercised from the command line
(`mlpoly verify`).  Every check is deterministic in (n_max, seed).

A suite's sweep yields ``(check, gap)`` pairs; ``_CHECKS`` states each check's
tolerance once, and :func:`_fold` passes a check whose largest gap is within it.
"""

import math
from collections import namedtuple

from . import config
from ._pcg import Generator
from .caputo import caputo_l1, caputo_monomial, caputo_poly, rl_from_caputo
from .config import SUITE_NAMES
from .fokker_planck import (
    DiffusionProblem,
    FhpInitial,
    HermiteInitial,
    LaguerreMonomialInitial,
    LaguerreProblem,
    MonomialInitial,
    SeriesInitial,
    residual,
    solve_case_i,
    solve_case_ii,
    solve_laguerre_monomial,
    solve_laguerre_wright,
)
from .fracpoly import FracPoly
from .fractional_hermite import (
    _fhp_values,
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
    _mlp_values,
    _operational_sides,
    konhauser,
    mlp_coeffs,
    mlp_egf_closed,
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


def _fhp_identities(rng, n_max):
    # first four closed forms, coefficient-wise
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
                yield "fhp-low-order-closed-forms", fhp_coeffs(n, alpha, y).max_coeff_diff(want)

    # alpha = 1 is the classical family
    for n in range(min(n_max, 15) + 1):
        for _ in range(5):
            x, y = rng.uniform(-1.5, 1.5, size=2)
            gap = _rel_gap(fhp_eval(n, 1.0, x, y), _classical_hermite(n, x, y))
            yield "fhp-classical-reduction", gap

    # closed zero-argument values against the evaluator
    for n in range(n_max + 1):
        for alpha in (0.3, 0.5, 0.8, 1.0):
            for y in (-1.0, 0.5, 2.0):
                yield "fhp-at-zero", abs(fhp_at_zero(n, alpha, y) - fhp_eval(n, alpha, 0.0, y))

    # forward shift in x: d/dx lowers n by one with the same gamma values
    for n in range(1, min(n_max, 15) + 1):
        for alpha in (0.3, 0.5, 0.8):
            for y in (-1.0, 0.5, 2.0):
                image = fhp_coeffs(n, alpha, y).derivative()
                target = fhp_coeffs(n - 1, alpha, y).scale(float(n))
                yield "fhp-forward-shift-x", _scaled_gap(image, target)

    # forward shift in y: the Caputo derivative drops n by two; the coefficients
    # at y = 1, lowest power of x first, become those of t**(alpha*r)
    for n in range(2, min(n_max, 12) + 1):
        for alpha in (0.3, 0.5, 0.8):
            rows = (fhp_coeffs(m, alpha, 1.0).coefficients[::-1] for m in (n, n - 2))
            p, q = (FracPoly([(c, alpha * r) for r, c in enumerate(row)]) for row in rows)
            image, target = caputo_poly(p, alpha), q.scale(float(n * (n - 1)))
            yield "fhp-forward-shift-y", _scaled_gap(image, target)

    # exponential generating function against the closed product
    for alpha in (0.4, 0.6, 0.9):
        for _ in range(34):
            lam = rng.uniform(-0.4, 0.4)
            x, y = rng.uniform(-1.0, 1.0, size=2)
            values = _fhp_values(30, alpha, x, y)
            partial = sum(lam ** n / math.factorial(n) * v for n, v in enumerate(values))
            closed = math.exp(x * lam) * ml_one(alpha, y * lam * lam).value
            yield "fhp-egf", abs(partial - closed)

    # the two convolution identities
    for _ in range(50):
        x = rng.uniform(-1.5, 1.5)
        a, w = rng.uniform(-1.0, 1.0, size=2)
        alpha = rng.uniform(0.15, 0.95)
        for n in range(n_max + 1):
            yield "fhp-identity-hermite-seed", _rel_gap(
                umbral_hermite_shift(n, x, a, w, alpha),
                convolution_identity_i_rhs(n, x, a, w, alpha),
            )
            yield "fhp-identity-oplus-seed", _rel_gap(
                fhp_oplus_eval(n, x, w, a, alpha),
                convolution_identity_ii_rhs(n, x, a, w, alpha),
            )

    # scaling homogeneity of the polynomial and of the deformed power
    for _ in range(20):
        x, y = rng.uniform(-1.0, 1.0, size=2)
        s = rng.uniform(0.2, 2.0)
        alpha = rng.uniform(0.2, 1.0)
        top = min(n_max, 10)
        scaled, plain = _fhp_values(top, alpha, s * x, s * s * y), _fhp_values(top, alpha, x, y)
        for n in range(top + 1):
            yield "fhp-homogeneity", _rel_gap(scaled[n], s ** n * plain[n])
            yield "fhp-homogeneity", _rel_gap(
                oplus_power(s * x, s * y, n, alpha), s ** n * oplus_power(x, y, n, alpha)
            )


# -- Mittag-Leffler polynomials ------------------------------------------------------


def _mlp_gf(rng, n_max):
    for _ in range(30):
        alpha = rng.uniform(0.3, 0.95)
        beta = rng.uniform(0.6, 2.0)
        x = rng.uniform(0.4, 1.1)
        y = rng.uniform(0.4, 1.1)
        lam = rng.uniform(0.3, 1.0) * 0.5 / (abs(x) + abs(y))
        partial = sum(lam ** n * v for n, v in enumerate(_mlp_values(40, alpha, beta, x, y)))
        yield "mlp-ogf", abs(partial - mlp_ogf_closed(lam, alpha, beta, x, y))

    for _ in range(30):
        alpha = rng.uniform(0.3, 0.95)
        beta = rng.uniform(0.6, 2.0)
        x = rng.uniform(0.2, 1.2)
        y = rng.uniform(0.2, 1.2)
        lam = rng.uniform(-0.8, 0.8)
        values = _mlp_values(30, alpha, beta, x, y)
        partial = sum(lam ** n / math.factorial(n) * v for n, v in enumerate(values))
        yield "mlp-egf", abs(partial - mlp_egf_closed(lam, alpha, beta, x, y))

    for _ in range(30):
        alpha = rng.uniform(0.3, 1.5)
        beta = rng.uniform(0.5, 2.0)
        x = rng.uniform(-1.0, 1.0)
        y = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        direct = _mlp_values(n_max, alpha, beta, x, y)
        for n in range(n_max + 1):
            yield "mlp-one-var-reduction", _rel_gap(
                mlp_one_var_reduction(n, alpha, beta, x, y), direct[n]
            )

    for n in range(min(n_max, 10) + 1):
        for x in [0.5 * i for i in range(9)]:
            gap = _rel_gap(konhauser(n, 1.0, 1.0, x, 1.0), _laguerre_explicit(n, x))
            yield "konhauser-laguerre", gap

    # negative-integer upper parameter of the three-parameter function,
    # coefficient against coefficient
    for n in range(min(n_max, 6) + 1):
        for alpha in (0.3, 0.7):
            for beta in (0.5, 1.0, 1.7):
                poly = mlp_coeffs(n, alpha, beta, 1.0)  # coefficient of y**(n-r) is C(n,r)(-1)^r/Gamma
                for r in range(n + 1):
                    poch = 1.0
                    for j in range(r):
                        poch *= (-n + j)
                    series_coeff = poch / math.factorial(r) * rgamma(beta + alpha * r)
                    gap = abs(series_coeff - poly.coeff_at(float(n - r)))
                    yield "mlp-prabhakar-consistency", gap

    for n in range(min(n_max, 8) + 1):
        for alpha in (0.3, 0.5, 0.9):
            for y in (0.5, 1.0, 2.0):
                lhs, rhs = _operational_sides(n, alpha, y)
                for a, b in zip(lhs, rhs):
                    yield "mlp-operational", abs(a - b)


# -- Caputo derivative ------------------------------------------------------------


def _ml_truncation_poly(alpha, a, n_terms):
    """First n_terms terms of E_alpha(a t**alpha) as a FracPoly in t."""
    return FracPoly(
        [(a ** r * rgamma(1.0 + alpha * r), alpha * r) for r in range(n_terms)]
    )


def _caputo(rng, n_max):
    for _ in range(20):
        alpha = rng.uniform(0.1, 0.9)
        p = FracPoly([(rng.uniform(-2, 2), float(k)) for k in range(6)])
        q = FracPoly([(rng.uniform(-2, 2), alpha + 0.3 * k) for k in range(5)])
        a, b = rng.uniform(-3, 3, size=2)
        combo = caputo_poly(p.scale(a) + q.scale(b), alpha)
        split = caputo_poly(p, alpha).scale(a) + caputo_poly(q, alpha).scale(b)
        yield "caputo-linearity", combo.max_coeff_diff(split)

    for alpha in (0.3, 0.5, 0.8):
        for a in (-1.0, 0.5):
            for n_terms in (6, 12, 14):
                image = caputo_poly(_ml_truncation_poly(alpha, a, n_terms), alpha)
                target = _ml_truncation_poly(alpha, a, n_terms - 1).scale(a)
                yield "caputo-eigenfunction-truncation", image.max_coeff_diff(target)

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
            for i in range(4):
                yield "caputo-l1-order", abs(math.log2(errs[i] / errs[i + 1]) - (2.0 - alpha))

    for alpha in (0.3, 0.5, 0.8):
        for t in (0.4, 1.0, 2.5):
            for a in (-1.0, 0.7):
                caputo_value = a * ml_one(alpha, a * t ** alpha).value
                want = t ** (-alpha) * rgamma(1.0 - alpha) + a * ml_one(alpha, a * t ** alpha).value
                gap = _rel_gap(rl_from_caputo(caputo_value, 1.0, t, alpha), want)
                yield "caputo-riemann-liouville-shift", gap


# -- Fokker-Planck solutions --------------------------------------------------------


def _pde_residuals(rng, n_max):
    for n in range(min(n_max, 10) + 1):
        series = SeriesInitial([(-0.6) ** r for r in range(n + 1)])
        for alpha in (0.3, 0.5, 0.8):
            for k in (1.0, 0.7):
                prob = DiffusionProblem(alpha, k, MonomialInitial(n))
                yield "tf-diffusion-residual", residual(prob)
            for a in (-0.7, 0.4):
                case_i = DiffusionProblem(alpha, 1.3, HermiteInitial(n, a))
                case_ii = DiffusionProblem(alpha, 1.3, FhpInitial(n, a))
                yield "case-i-residual", residual(case_i)
                yield "case-ii-residual", residual(case_ii)
            yield "series-residual", residual(DiffusionProblem(alpha, 0.7, series))

    for n in range(min(n_max, 6) + 1):
        for alpha in (0.3, 0.5, 0.8):
            for beta in (0.3, 0.5, 0.8):
                prob = LaguerreProblem(alpha, beta, 1.0, LaguerreMonomialInitial(n))
                yield "laguerre-residual", residual(prob)

    # every solution reproduces its initial datum at t = 0
    for _ in range(15):
        n = rng.integers(0, min(n_max, 8) + 1)
        a = rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(0.2, 0.9)
        beta = rng.uniform(0.2, 0.9)
        k = rng.uniform(0.5, 2.0)
        b = rng.uniform(0.5, 2.0)
        x = rng.uniform(0.1, 1.5)
        y = rng.uniform(0.2, 1.5)
        check = "initial-condition-recovery"
        yield check, abs(solve_case_i(n, a, alpha, k, x, 0.0) - _classical_hermite(n, x, a))
        yield check, abs(solve_case_ii(n, a, alpha, k, x, 0.0) - fhp_eval(n, alpha, x, a))
        ic = (-(x ** alpha)) ** n * rgamma(1.0 + alpha * n)
        yield check, abs(solve_laguerre_monomial(n, alpha, beta, b, x, 0.0) - ic)
        datum = wright(alpha, 1.0, -y * x ** alpha).value
        yield check, abs(solve_laguerre_wright(y, alpha, beta, b, x, 0.0) - datum)

    for _ in range(25):
        n = rng.integers(0, n_max + 1)
        a = rng.uniform(-1.0, 1.0)
        alpha = rng.uniform(0.15, 0.95)
        k = rng.uniform(0.5, 2.0)
        x = rng.uniform(-1.5, 1.5)
        t = rng.uniform(0.1, 1.5)
        w = k * t ** alpha
        yield "case-i-umbral-equality", _rel_gap(
            solve_case_i(n, a, alpha, k, x, t), umbral_hermite_shift(n, x, a, w, alpha)
        )
        yield "case-ii-both-forms", _rel_gap(
            solve_case_ii(n, a, alpha, k, x, t), fhp_oplus_eval(n, x, w, a, alpha)
        )

    # moment expansion against the direct double-gamma sum, term by term
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
                yield "subordination-term-consistency", _rel_gap(direct, moment)


# -- Sheffer ladder -------------------------------------------------------------------


def _ladder_gaps(family, coeffs, gd, n_max):
    """The raising, lowering and commutator gaps of the ladder with log-derivative
    ``gd`` on the polynomials ``coeffs(n)`` of ``family``, n = 0..n_max; each
    polynomial and each of its two images is built once."""
    prev, p = None, coeffs(0)
    for n in range(n_max + 1):
        following = coeffs(n + 1)
        raised, lowered = raising_apply(p, gd), lowering_apply(p)
        yield f"ladder-raising-{family}", _scaled_gap(raised, following)
        if n >= 1:
            yield f"ladder-lowering-{family}", _scaled_gap(lowered, prev.scale(float(n)))
        commutator = lowering_apply(raised) - raising_apply(lowered, gd)
        yield "ladder-commutator", _scaled_gap(commutator, p)
        prev, p = p, following


def _sheffer_ladder(rng, n_max):
    n_max = min(n_max, 10)

    for alpha in (0.3, 0.5, 0.8):
        for y in (-1.0, 0.5, 2.0):
            gd = series_log_derivative(series_reciprocal(appell_A_fhp(alpha, y, n_max + 4)))
            yield from _ladder_gaps("fhp", lambda n: fhp_coeffs(n, alpha, y), gd, n_max)

    # x stays moderate: large x pushes the first zero of the Wright prefactor
    # toward the origin and the reciprocal-series route becomes ill-conditioned
    for alpha in (0.3, 0.5, 0.8):
        for beta in (0.5, 1.0, 1.6):
            for x in (0.4, 0.6):
                gd = series_log_derivative(series_reciprocal(appell_A_mlp(alpha, beta, x, n_max + 4)))
                yield from _ladder_gaps("mlp", lambda n: mlp_coeffs(n, alpha, beta, x), gd, n_max)

    # derivative of the Hermite-family prefactor: A'(lam) = (2/(alpha lam)) E_{alpha,0}(y lam^2)
    for alpha in (0.3, 0.5, 0.8):
        for y in (-1.0, 0.5, 2.0):
            deriv = appell_A_fhp(alpha, y, 14).derivative()
            for r in range(1, 7):
                closed = (2.0 / alpha) * y ** r * rgamma(alpha * r)
                yield "appell-A-prime-consistency", abs(deriv.coeffs[2 * r - 1] - closed)

    # cocycle of h for both families
    for _ in range(20):
        l1, l2 = rng.uniform(-0.3, 0.3, size=2)
        alpha = rng.uniform(0.3, 0.9)
        beta = rng.uniform(0.5, 1.5)
        y = rng.uniform(-0.8, 0.8)
        x = rng.uniform(1.2, 2.0)
        _, h12 = aux_v_h_fhp(l1 + l2, x, alpha, y)
        _, ha = aux_v_h_fhp(l1, x, alpha, y)
        _, hb = aux_v_h_fhp(l2, l1 + x, alpha, y)
        yield "h-cocycle", _rel_gap(h12, ha * hb)
        xp = rng.uniform(0.2, 1.0)
        _, h12 = aux_v_h_mlp(l1 + l2, x, alpha, beta, xp)
        _, ha = aux_v_h_mlp(l1, x, alpha, beta, xp)
        _, hb = aux_v_h_mlp(l2, l1 + x, alpha, beta, xp)
        yield "h-cocycle", _rel_gap(h12, ha * hb)

    # the generic evaluator collapses to q = 1, T = lam + x and the closed v, h
    for _ in range(10):
        lam = rng.uniform(-0.3, 0.3)
        x = rng.uniform(1.3, 2.2)
        alpha = rng.uniform(0.3, 0.9)
        y = rng.uniform(-0.8, 0.8)
        a_fn = lambda u: ml_one(alpha, y * u * u).value
        a_prime = lambda u: (2.0 / (alpha * u)) * ml_two(alpha, 0.0, y * u * u).value
        q, v, big_t, h = appell_auxiliary(a_fn, a_prime, lam, x)
        if q != 1.0 or big_t != lam + x:
            yield "appell-specialization", math.inf
        v2, h2 = aux_v_h_fhp(lam, x, alpha, y)
        yield "appell-specialization", _rel_gap(v, v2)
        yield "appell-specialization", _rel_gap(h, h2)


#: suite -> (its sweep, its checks in report order with their tolerances)
_CHECKS = {
    "fhp-identities": (_fhp_identities, (
        ("fhp-low-order-closed-forms", 1e-12),
        ("fhp-classical-reduction", 1e-10),
        ("fhp-at-zero", 1e-12),
        ("fhp-forward-shift-x", 1e-12),
        ("fhp-forward-shift-y", 1e-10),
        ("fhp-egf", 1e-10),
        ("fhp-identity-hermite-seed", 1e-9),
        ("fhp-identity-oplus-seed", 1e-9),
        ("fhp-homogeneity", 1e-9),
    )),
    "mlp-gf": (_mlp_gf, (
        ("mlp-ogf", 1e-9),
        ("mlp-egf", 1e-9),
        ("mlp-one-var-reduction", 1e-12),
        ("konhauser-laguerre", 1e-10),
        ("mlp-prabhakar-consistency", 1e-12),
        ("mlp-operational", 1e-10),
    )),
    "caputo": (_caputo, (
        ("caputo-linearity", 1e-12),
        ("caputo-eigenfunction-truncation", 1e-13),
        ("caputo-l1-order", 0.3),
        ("caputo-riemann-liouville-shift", 1e-12),
    )),
    "pde-residuals": (_pde_residuals, (
        ("tf-diffusion-residual", 1e-10),
        ("laguerre-residual", 1e-10),
        ("case-i-residual", 1e-10),
        ("case-ii-residual", 1e-10),
        ("series-residual", 1e-10),
        ("initial-condition-recovery", 1e-8),
        ("case-i-umbral-equality", 1e-9),
        ("case-ii-both-forms", 1e-9),
        ("subordination-term-consistency", 1e-13),
    )),
    "sheffer-ladder": (_sheffer_ladder, (
        ("ladder-raising-fhp", 1e-9),
        ("ladder-lowering-fhp", 1e-9),
        ("ladder-raising-mlp", 1e-9),
        ("ladder-lowering-mlp", 1e-9),
        ("ladder-commutator", 1e-9),
        ("appell-A-prime-consistency", 1e-10),
        ("h-cocycle", 1e-9),
        ("appell-specialization", 1e-9),
    )),
}


def _fold(suite, n_max, seed):
    """Each check's largest gap (NaN if any is NaN, 0.0 if none) against its tolerance."""
    sweep, checks = _CHECKS[suite]
    worst = {name: 0.0 for name, _ in checks}
    for name, gap in sweep(Generator(seed), n_max):
        worst[name] = _worst(worst[name], gap)
    return [CheckResult(name, worst[name] <= tol, worst[name], tol) for name, tol in checks]


def run_suites(names, n_max=10, seed=42):
    """Run the named suites (or all of them) and return [(suite, [CheckResult])]."""
    if isinstance(names, str):
        names = [names]
    expanded = []
    for name in names:
        name = _ALIASES.get(name, name)
        if name is None:
            expanded.extend(SUITE_NAMES)
        elif name in _CHECKS:
            expanded.append(name)
        else:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES + ('all',)}")
    return [(name, _fold(name, n_max, seed)) for name in expanded]


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
