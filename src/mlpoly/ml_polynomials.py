"""Mittag-Leffler polynomials in two variables.

    E^{-n}_{alpha,beta}(x, y) = sum_{r=0..n} C(n,r) (-x)**r y**(n-r) / Gamma(beta+alpha*r)

the finite truncation of the three-parameter Mittag-Leffler series at
negative integer upper parameter.  This module adds the Konhauser
regularization (which reaches the classical Laguerre polynomials at
alpha = beta = 1, y = 1), the closed-form ordinary/exponential generating
functions, and the operational construction: the generator

    K = CaputoD_x^alpha . x d/dx,      K x**g = g * Gamma(1+g)/Gamma(1+g-alpha) * x**(g-alpha)

annihilates constants and lowers exponents by alpha, so the operator
exponential exp(-(y/alpha) K) applied to (-1)**n x**(alpha n)/Gamma(1+alpha n)
truncates exactly after n applications and reproduces the polynomial.
"""

import math
from operator import add

from . import config
from ._validate import FLOAT_MAX, degree, finite, finite_float, open_unit, positive, positive_finite
from .caputo import caputo_monomial
from .errors import DomainError, FloatOverflowError, VerificationError
from .fracpoly import FracPoly
from .gamma_core import (
    _check_degree,
    _check_gamma_argument,
    _check_power,
    _dyadic,
    _factor_overflow,
    _power_overflow,
    _powers,
    _rgammas,
    _round_dyadic,
    _row_cache,
    _worst,
    ln_gamma,
    rgamma,
)
from .mittag_leffler import _series_argument, ml_two, wright

#: the largest n with every binomial C(n, r) in the double range
_MAX_BINOMIAL_DEGREE = 1029


@_row_cache(maxsize=64)
def _rgamma_row(top, alpha, beta):
    """The row 1/Gamma(beta + alpha*r), r = 0..top, as ``_dyadic`` integers: a
    tuple of mantissas and their one exponent, shared by every sum at
    (top, alpha, beta)."""
    gm, ge = _dyadic(_rgammas(top, alpha, beta))
    return tuple(gm), ge


def _binomial_row(n):
    """[C(n, 0), ..., C(n, n)], exact integers from one recurrence."""
    row = [1]
    for r in range(n):
        row.append(row[r] * (n - r) // (r + 1))
    return row


def _checked_args(n, alpha, beta, x, y):
    """The argument checks of :func:`mlp_eval`; returns n, x and y as int and floats."""
    n = degree(n, "n")
    positive_finite(alpha, "alpha")
    positive_finite(beta, "beta")
    return n, finite_float(x, "x"), finite_float(y, "y")


def _check_powers(n, x, y):
    # a power beyond the double range is refused, naming its base, even where
    # the exact sum would fit
    _check_power(-x, n, "(-x)")
    _check_power(y, n, "y")


def _rounded_value(total, e, n, alpha, beta, x, y):
    try:
        return _round_dyadic(total, e)
    except OverflowError:
        raise FloatOverflowError(
            f"E^-{n}_({alpha},{beta})({x!r}, {y!r}) exceeds the double-precision range"
        ) from None


def mlp_eval(n, alpha, beta, x, y):
    """Value of E^{-n}_{alpha,beta}(x, y); the n = 0 polynomial is 1/Gamma(beta).

    The sum over the float arguments and the float row 1/Gamma(beta+alpha*r)
    is formed exactly, in integers on their mantissas and exponents, and
    rounded once: the value is the correctly rounded sum, however much its
    terms cancel.
    """
    n, x, y = _checked_args(n, alpha, beta, x, y)
    _check_powers(n, x, y)
    gm, ge = _rgamma_row(n, alpha, beta)
    # (-x)**r y**(n-r) = xm**r ym**(n-r) 2**(n*e)
    (xm, ym), e = _dyadic((-x, y))
    # Horner in xm: total = sum_r C(n,r) gm[r] xm**r ym**(n-r)
    binoms = _binomial_row(n)
    total = 0
    ypow = 1
    for r in range(n, -1, -1):
        total = total * xm + binoms[r] * gm[r] * ypow
        ypow *= ym
    return _rounded_value(total, ge + n * e, n, alpha, beta, x, y)


def _mlp_values(top, alpha, beta, x, y):
    """[E^{-n}_{alpha,beta}(x, y) for n = 0..top], each equal to ``mlp_eval``'s.

    With a_r = gm[r] xm**r, the exact sum of degree n is
    S_n = sum_r C(n,r) a_r ym**(n-r), and one pass b_r <- ym*b_r + b_{r+1}
    over b = a takes every S_n to the next: S_n is b_0 after n passes.  Each
    S_n is rounded once, as ``mlp_eval`` rounds it, so the bits agree, and a
    refusal comes at the first degree that ``mlp_eval`` refuses, with its
    message.  The passes cost O(top**2) in all; one degree alone is cheaper
    by Horner.
    """
    top, x, y = _checked_args(top, alpha, beta, x, y)
    gm, ge = _rgamma_row(top, alpha, beta)
    (xm, ym), e = _dyadic((-x, y))
    b = []
    xpow = 1
    for g in gm:
        b.append(g * xpow)
        xpow *= xm
    values = []
    for n in range(top + 1):
        _check_powers(n, x, y)
        values.append(_rounded_value(b[0], ge + n * e, n, alpha, beta, x, y))
        for r in range(top - n):
            b[r] = ym * b[r] + b[r + 1]
    return values


def mlp_coeffs(n, alpha, beta, x):
    """Coefficient form of E^{-n}_{alpha,beta}(x, .) as a :class:`FracPoly` in y."""
    n = degree(n, "n")
    positive_finite(alpha, "alpha")
    positive_finite(beta, "beta")
    x = finite_float(x, "x")
    # the refusals of the rows below, in their order, before any row is built
    _check_power(-x, n, "(-x)")
    _check_gamma_argument(n, alpha, beta)
    if n > _MAX_BINOMIAL_DEGREE:
        raise _factor_overflow(n)
    return _coeff_poly(n, _binomial_row(n), _powers(-x, n, "(-x)"), _rgammas(n, alpha, beta))


def _coeff_poly(n, binoms, xp, rg):
    """sum_r C(n,r) (-x)**r y**(n-r) / Gamma(beta+alpha*r) from the rows
    C(n, .), (-x)**. and 1/Gamma(beta+alpha*.), each read to entry n."""
    try:
        terms = [(c * xp[r] * rg[r], float(n - r)) for r, c in enumerate(binoms)]
    except OverflowError:  # C(n, r) beyond the double range
        raise _factor_overflow(n) from None
    return FracPoly(terms)


def _mlp_coeff_table(top, alpha, beta, x):
    """Yield ``mlp_coeffs(n, alpha, beta, x)`` for n = 0..top, and raise the
    refusal of the first degree that ``mlp_coeffs`` refuses.

    The powers of -x and the row 1/Gamma(beta+alpha*r) grow by one entry per
    degree, each entry as ``mlp_coeffs`` computes it, and the binomial row by
    Pascal's rule, so every degree reads a prefix of rows built once: O(top)
    powers and reciprocal gammas in all, where a call per degree builds
    O(top**2).  Nothing is checked for top < 0, which has no degree.
    """
    if top < 0:
        return
    positive_finite(alpha, "alpha")
    positive_finite(beta, "beta")
    x = finite_float(x, "x")
    xp, rg, binoms = [], [], []
    for n in range(top + 1):
        try:
            xp.append((-x) ** n)
        except OverflowError:
            raise _power_overflow(-x, n, "(-x)") from None
        _check_gamma_argument(n, alpha, beta)
        rg.append(rgamma(beta + alpha * n))
        binoms = [1, *map(add, binoms[:-1], binoms[1:]), 1] if n else [1]
        yield _coeff_poly(n, binoms, xp, rg)


def mlp_one_var_reduction(n, alpha, beta, x, y):
    """Homogeneity route y**n * E^{-n}_{alpha,beta}(x/y, 1); undefined at y = 0."""
    n = degree(n, "n")
    finite(y, "y")
    if y == 0.0:
        raise DomainError("one-variable reduction is undefined at y = 0; use mlp_eval")
    _check_power(y, n, "y")
    ratio = x / y
    if math.isinf(ratio):
        raise FloatOverflowError(f"x/y exceeds the double-precision range at x = {x!r}, y = {y!r}")
    return y ** n * mlp_eval(n, alpha, beta, ratio, 1.0)


def konhauser(n, alpha, beta, x, y):
    """Regularized form Gamma(beta+alpha*n) * E^{-n}_{alpha,beta}(x**alpha, y) / n!.

    Equals 1 at n = 0 for every beta; at alpha = beta = 1, y = 1 it is the
    classical Laguerre polynomial L_n(x).
    """
    n = degree(n, "n")
    positive_finite(alpha, "alpha")
    positive_finite(beta, "beta")
    integer_alpha = alpha == int(alpha)
    if x < 0.0 and not integer_alpha:
        raise DomainError(f"x**{alpha} is not real for x = {x} < 0")
    try:
        xa = x ** int(alpha) if integer_alpha else math.pow(x, alpha)
    except OverflowError:
        if abs(x) > FLOAT_MAX:  # an int beyond the double range
            raise FloatOverflowError("x exceeds the double-precision range") from None
        raise _power_overflow(x, alpha, "x") from None
    _check_degree(n)
    _check_gamma_argument(n, alpha, beta)
    arg = beta + alpha * n
    try:
        gamma_factor = math.exp(ln_gamma(arg))
        if gamma_factor == math.inf:  # ln_gamma itself overflowed, and exp(inf) raises nothing
            raise OverflowError
    except OverflowError:
        raise FloatOverflowError(
            f"Gamma(beta+alpha*n) = Gamma({arg!r}) exceeds the double-precision range"
        ) from None
    return gamma_factor * mlp_eval(n, alpha, beta, xa, y) / math.factorial(n)


def mlp_ogf_closed(lam, alpha, beta, x, y):
    """Closed ordinary generating function
    sum_n lam**n E^{-n}_{alpha,beta}(x, y) = E_{alpha,beta}(-lam*x/(1-lam*y)) / (1-lam*y),
    valid for |lam*y| < 1.
    """
    positive(alpha, "alpha")
    positive(beta, "beta")
    if abs(lam * y) >= 1.0:
        raise DomainError(f"|lambda*y| must be < 1, got {abs(lam * y)}")
    finite(lam, "lam")
    finite(x, "x")
    finite(y, "y")
    z = _series_argument("-lam*x/(1-lam*y)", lambda: -lam * x / (1.0 - lam * y))
    return ml_two(alpha, beta, z).value / (1.0 - lam * y)


def mlp_egf_closed(lam, alpha, beta, x, y):
    """Closed exponential generating function
    sum_n lam**n/n! E^{-n}_{alpha,beta}(x, y) = exp(lam*y) * W_{alpha,beta}(-lam*x).
    """
    positive(alpha, "alpha")
    positive(beta, "beta")
    finite(lam, "lam")
    finite(x, "x")
    finite(y, "y")
    try:
        growth = math.exp(lam * y)
        if growth == math.inf:  # lam*y itself overflowed, and exp(inf) raises nothing
            raise OverflowError
    except OverflowError:
        raise FloatOverflowError(
            f"exp(lam*y) exceeds the double-precision range at lam*y = {lam * y!r}"
        ) from None
    return growth * wright(alpha, beta, _series_argument("-lam*x", lambda: -lam * x)).value


def frac_laguerre_apply(p, alpha):
    """One application of the generator K = CaputoD^alpha . x d/dx on a FracPoly.

    Term-wise: x**g -> g * Gamma(1+g)/Gamma(1+g-alpha) * x**(g-alpha);
    constants are annihilated (x d/dx kills them before the Caputo step).
    Exponents in (0, alpha) would go negative and raise.
    """
    open_unit(alpha, "alpha")

    def rule(c, mu):
        if mu == 0.0:
            return None
        factor, nu = caputo_monomial(mu, alpha)
        return c * mu * factor, nu

    return p.map_terms(rule)


#: the x grid of :func:`mlp_operational_check`, ``numpy.linspace(0.0, 2.0, 41)``
_OPERATIONAL_GRID = tuple(i * (2.0 / 40) for i in range(41))


def _operational_sides(n, alpha, y):
    """The ``(lhs, rhs)`` of :func:`mlp_operational_check`, however far apart."""
    n = degree(n, "n")
    open_unit(alpha, "alpha")

    seed = FracPoly([((-1.0) ** n * rgamma(1.0 + alpha * n), alpha * n)])
    acc = seed
    power = seed
    for r in range(1, n + 1):  # per step, K's alpha cancels 1/alpha before (1/alpha)**r overflows
        power = frac_laguerre_apply(power, alpha).scale((-y / alpha) / r)
        acc = acc + power

    lhs = tuple(mlp_eval(n, alpha, 1.0, xi ** alpha, y) for xi in _OPERATIONAL_GRID)
    rhs = tuple(acc(xi) for xi in _OPERATIONAL_GRID)
    return lhs, rhs


def mlp_operational_check(n, alpha, y):
    """Compare the polynomial against its operator-exponential construction.

    Returns ``(lhs, rhs)``, two tuples of 41 floats sampled on the points
    ``_OPERATIONAL_GRID`` of [0, 2], where lhs = E^{-n}_{alpha,1}(x**alpha, y)
    and rhs applies the exponential of -(y/alpha) K to
    (-1)**n x**(alpha n)/Gamma(1+alpha n); the exponential series ends
    exactly after n applications of K.  The two tuples must agree pointwise
    to ``config.RESIDUAL_TOL`` or a :class:`VerificationError` is raised.
    """
    lhs, rhs = _operational_sides(n, alpha, y)
    worst = _worst(*(abs(a - b) for a, b in zip(lhs, rhs)))
    if not worst <= config.RESIDUAL_TOL:  # a NaN gap fails too
        raise VerificationError(
            f"operational construction disagrees with the polynomial: "
            f"max |lhs-rhs| = {worst:.3e}"
        )
    return lhs, rhs
