"""Fractional Hermite polynomials in two variables.

The family is the two-variable Hermite sum with the inner factorial replaced
by Gamma(1 + alpha*r):

    H[alpha]_n(x, y) = n! * sum_{r=0..n//2} x**(n-2r) y**r / ((n-2r)! Gamma(1+alpha*r))

At alpha = 1 this is the classical heat-polynomial family.  The module also
provides the deformed binomial power (x (+)_alpha y)**n built from the
fractional binomial, the umbral shift of a Hermite initial datum, and both
convolution identities that the diffusion solver relies on.  Integer ratios
like n!/(n-2r)! are taken in exact integer arithmetic before converting to
float, so coefficients are correct to the last unit even at n = 15.

Every weighted sum of fractional Hermite polynomials is one
:class:`_FhpSum`, a function of x and w: the convolution identities
evaluate it at one point, and the diffusion plans of :mod:`.fokker_planck`
evaluate its table and weights over a whole grid at w = k t**alpha, in the
same operation order.  :class:`_OplusSum` is the second route to
convolution ii, H[alpha]_n(x, w (+)_alpha a).  The scalar
convolution routes and the umbral shift refuse a value beyond the double
range with :class:`FloatOverflowError`.
"""

import functools
import math
from operator import mul

from ._validate import degree, finite, half_open_unit, open_unit
from .fracpoly import FracPoly
from .gamma_core import (
    _MAX_DEGREE,
    _check_degree,
    _check_power,
    _factor_overflow,
    _in_range,
    _lgamma,
    _powers,
    _rgammas,
    _row_cache,
    factorial_ratios,
    frac_binom,
    rgamma,
)


@functools.lru_cache(maxsize=_MAX_DEGREE + 1)
def _hermite_ratios(m):
    """The exact integer ratios m!/(m-2r)!, r = 0..m//2, each rounded once to
    float: a tuple, shared by every table that holds degree m at any alpha."""
    return tuple(factorial_ratios(m, tuple(math.factorial(m - 2 * r) for r in range(m // 2 + 1))))


@functools.lru_cache(maxsize=_MAX_DEGREE + 1)
def _hermite_weights(n):
    """The exact integer ratios n!/(r! (n-2r)!), r = 0..n//2, each rounded once to
    float: the weights of the classical H_n(x, y) = sum_r w_r x**(n-2r) y**r."""
    return tuple(
        factorial_ratios(
            n, tuple(math.factorial(r) * math.factorial(n - 2 * r) for r in range(n // 2 + 1))
        )
    )


class _FhpTable:
    """What H[alpha]_m(x, y) needs that depends on neither x nor y.

    For each degree m in ``degrees`` it holds the exact integer ratios
    m!/(m-2r)!, rounded once to float, and it shares one row
    rgamma(1 + alpha*r) among the degrees.  ``coeffs`` builds the part that
    depends on y, ``x_powers`` the part that depends on x, and ``values``
    combines them.  Each step performs the operations of the direct sum in
    the same order, so whichever part a caller keeps fixed over a grid, every
    value is the same to the last bit.  (The products run through
    ``map(mul, ...)`` and the sums through explicit loops: ``sum`` adds with
    compensation from Python 3.12 on, which would change those bits.)
    """

    __slots__ = ("degrees", "top", "rgammas", "ratios")

    def __init__(self, degrees, alpha):
        """``degrees``: checked nonnegative integers; ``alpha`` is checked here.

        The largest ratio of degree m is m!, which leaves the double range from
        m = 171 on, so such a degree is refused before any row is built.
        """
        half_open_unit(alpha, "alpha")
        self.degrees = degrees
        self.top = max(degrees)
        if self.top > _MAX_DEGREE:
            raise _factor_overflow(next(m for m in degrees if m > _MAX_DEGREE))
        self.rgammas = _rgammas(self.top // 2, alpha, 1.0)
        self.ratios = tuple(map(_hermite_ratios, degrees))

    def y_powers(self, y):
        return _powers(y, self.top // 2, "y")

    def x_powers(self, x):
        finite(x, "x")
        return _powers(x, self.top, "x")

    def coeffs(self, yp):
        """Per degree, the coefficients m!/(m-2r)! y**r / Gamma(1+alpha*r) of x**(m-2r)."""
        rg = self.rgammas
        return [list(map(mul, map(mul, row, yp), rg)) for row in self.ratios]

    def values(self, coeffs, xp):
        """H[alpha]_m(x, y) for each degree m, from ``coeffs(y_powers(y))`` and ``x_powers(x)``."""
        out = []
        for m, row in zip(self.degrees, coeffs):
            total = 0.0
            for term in map(mul, row, xp[m::-2]):  # times x**m, x**(m-2), ...
                total += term
            out.append(total)
        return out


@functools.lru_cache(maxsize=256)
def _fhp_table(degrees, alpha):
    """The :class:`_FhpTable` of ``degrees`` (a tuple or range) at alpha.

    Built once per distinct pair and shared, so repeated scalar calls (the
    verification sweeps call each (n, alpha) many times) skip the gamma row.
    The table is immutable, so sharing it cannot change a result.
    """
    return _FhpTable(degrees, alpha)


def fhp_coeffs(n, alpha, y):
    """Coefficient form of H[alpha]_n(., y) as a :class:`FracPoly` in x.

    Degree n, one monomial per r = 0..n//2, leading coefficient 1.
    """
    n = degree(n, "n")
    table = _fhp_table((n,), alpha)
    return FracPoly(
        [(c, float(n - 2 * r)) for r, c in enumerate(table.coeffs(table.y_powers(y))[0])]
    )


def fhp_eval(n, alpha, x, y):
    """Value of H[alpha]_n(x, y) by the direct finite sum."""
    n = degree(n, "n")
    table = _fhp_table((n,), alpha)
    finite(y, "y")
    value = table.values(table.coeffs(table.y_powers(y)), table.x_powers(x))[0]
    if -math.inf < value < math.inf:  # the name is formatted only for a refusal
        return value
    return _in_range(value, f"H[alpha]_{n}({x!r}, {y!r})")


def _fhp_values(top, alpha, x, y):
    """[H[alpha]_n(x, y) for n = 0..top] from one table; the table performs the
    direct sum's operations for each degree, so each value equals ``fhp_eval``'s."""
    table = _fhp_table(range(degree(top, "n") + 1), alpha)
    finite(y, "y")
    return table.values(table.coeffs(table.y_powers(y)), table.x_powers(x))


def fhp_at_zero(n, alpha, y):
    """H[alpha]_n(0, y): zero for odd n, n! y**(n/2) / Gamma(1+alpha*n/2) for even n.

    Parity is decided on the integer n, never through floating trigonometry.
    """
    n = degree(n, "n")
    half_open_unit(alpha, "alpha")
    finite(y, "y")
    _check_degree(n)
    if n % 2:
        return 0.0
    half = n // 2
    _check_power(y, half, "y")
    value = math.factorial(n) * (y ** half) * rgamma(1.0 + alpha * half)
    return _in_range(value, f"H[alpha]_{n}(0, {y!r})")


def oplus_power(x, y, n, alpha):
    """Deformed binomial power (x (+)_alpha y)**n = sum_r C_alpha(n, r) x**(n-r) y**r.

    C_alpha is the fractional binomial; alpha = 1 recovers (x + y)**n and the
    power is homogeneous: (a*x (+)_alpha a*y)**n = a**n (x (+)_alpha y)**n.
    """
    n = degree(n, "n")
    half_open_unit(alpha, "alpha")
    finite(x, "x")
    finite(y, "y")
    return _oplus(_frac_binom_row(n, alpha), _powers(x, n, "x"), _powers(y, n, "y"))


@_row_cache(maxsize=256)
def _frac_binom_row(n, alpha):
    """The row C_alpha(n, r), r = 0..n, for a checked degree n and alpha: a
    tuple of ``frac_binom(n, r, alpha)`` to the last bit, from frac_binom's
    log-gamma values read from one row instead of three per entry.

    The middle entry is the largest (log Gamma is convex), so where the row
    leaves the double range it is refused, as frac_binom refuses that entry,
    before any entry is built."""
    frac_binom(n, n // 2, alpha)
    if alpha == 1.0:
        return tuple(frac_binom(n, r, alpha) for r in range(n + 1))  # the exact comb
    lg = [_lgamma(1.0 + alpha * j) for j in range(n + 1)]
    return tuple(math.exp(lg[n] - lg[r] - lg[n - r]) for r in range(n + 1))


def _oplus(binoms, xp, yp):
    """(x (+)_alpha y)**n from the row C_alpha(n, .) and the powers of x and y."""
    total = 0.0
    for term in map(mul, map(mul, binoms, xp[len(binoms) - 1::-1]), yp):
        total += term
    return total


def umbral_hermite_shift(n, x, a, w, alpha):
    """Hermite polynomial with umbrally shifted second argument.

    Evaluates H_n(x, a + w*d) under the Levy-moment realization of the shift
    operator d, which turns the formal expression into the double sum

        n! sum_r x**(n-2r)/((n-2r)! r!) *
               sum_k C(r,k) a**k w**(r-k) (r-k)!/Gamma(1+alpha(r-k)).

    w = 0 recovers the classical H_n(x, a); a = 0 recovers fhp_eval(n, alpha, x, w).
    """
    n = degree(n, "n")
    open_unit(alpha, "alpha")
    finite(x, "x")
    finite(a, "a")
    finite(w, "w")
    _check_degree(n)
    xp, ap, wp = _powers(x, n, "x"), _powers(a, n // 2, "a"), _powers(w, n // 2, "w")
    rg = _rgammas(n // 2, alpha, 1.0)
    total = 0.0
    for r, ratio in enumerate(_hermite_weights(n)):
        inner = 0.0
        for k in range(r + 1):
            inner += math.comb(r, k) * ap[k] * wp[r - k] * math.factorial(r - k) * rg[r - k]
        total += ratio * xp[n - 2 * r] * inner
    return _in_range(total, "the umbral shift")


def convolution_identity_i_rhs(n, x, a, w, alpha):
    """Convolution form of the Hermite-initial-datum solution:

        n! sum_r a**r H[alpha]_{n-2r}(x, w) / (r! (n-2r)!)

    Equal to :func:`umbral_hermite_shift` for alpha in (0, 1); at alpha = 1 it
    collapses to the classical addition H_n(x, a + w).
    """
    return _convolution_rhs(_FhpSum.convolution_i, n, x, a, w, alpha)


def convolution_identity_ii_rhs(n, x, a, w, alpha):
    """Convolution form with gamma weights:

        n! sum_r H[alpha]_{n-2r}(x, w) a**r / ((n-2r)! Gamma(1+alpha*r))

    Equal to H[alpha]_n(x, w (+)_alpha a), cf. :func:`fhp_oplus_eval`.
    """
    return _convolution_rhs(_FhpSum.convolution_ii, n, x, a, w, alpha)


def fhp_oplus_eval(n, x, w, a, alpha):
    """H[alpha]_n(x, w (+)_alpha a): the second argument's powers are expanded
    through the deformed binomial before being inserted into the defining sum.
    """
    table = _fhp_table((degree(n, "n"),), alpha)
    finite(w, "w")
    finite(a, "a")
    wp = table.y_powers(w)
    route = _OplusSum(table, a, alpha)
    return _in_range(route._formula(table.x_powers(x), route._rows(wp)), "the (+)_alpha sum")


# -- the sums the convolution forms share with the grid solver -------------------


def _convolution_degrees(n):
    """n, n-2, ..., the degrees of the Hermite polynomials in a convolution sum."""
    return range(degree(n, "n"), -1, -2)


def _convolution_rhs(build, n, x, a, w, alpha):
    """A convolution identity at (x, w); ``build(table, a)`` is its :class:`_FhpSum`.

    The weights are built after the x and w sides, so a refusal names the
    same argument as it always has.
    """
    table = _fhp_table(_convolution_degrees(n), alpha)
    finite(a, "a")
    finite(w, "w")
    coeffs = table.coeffs(table.y_powers(w))
    xp = table.x_powers(x)
    return _in_range(build(table, a)._formula(xp, coeffs), "the convolution sum")


def _gamma_weights(table):
    """n!/(n-2r)! / Gamma(1+alpha*r) for the first degree n of ``table``, its top."""
    return [ratio * rg for ratio, rg in zip(table.ratios[0], table.rgammas)]


class _FhpSum:
    """sum_j weights[j] H[alpha]_{m_j}(x, w) over the degrees m_j of a :class:`_FhpTable`.

    ``_formula`` combines the table's powers of x and coefficient rows at w
    in the operation order of the direct sum.  The two class methods build
    the sums of the convolution identities on a table of the degrees n,
    n-2, ..., 0.
    """

    def __init__(self, table, weights):
        self._table = table
        self._weights = weights

    @classmethod
    def convolution_i(cls, table, a):
        """Weights n!/(r! (n-2r)!) a**r, n the top degree of ``table``."""
        n = table.top
        return cls(table, list(map(mul, _hermite_weights(n), _powers(a, n // 2, "a"))))

    @classmethod
    def convolution_ii(cls, table, a):
        """Weights n!/(n-2r)! a**r / Gamma(1+alpha*r), n the top degree of ``table``."""
        return cls(table, list(map(mul, _gamma_weights(table), _powers(a, table.top // 2, "a"))))

    def _formula(self, xp, coeffs):
        total = 0.0
        for term in map(mul, self._weights, self._table.values(coeffs, xp)):
            total += term
        return total


class _OplusSum:
    """H[alpha]_n(x, w (+)_alpha a) for the top degree n of a table, at fixed a:

        sum_r n!/(n-2r)! / Gamma(1+alpha*r) x**(n-2r) (w (+)_alpha a)**r

    ``_rows(wp)`` expands each (w (+)_alpha a)**r from the powers of w, and
    ``_formula`` sums them against the table's powers of x, x**n first.
    """

    def __init__(self, table, a, alpha):
        self._a_powers = _powers(a, table.top // 2, "a")
        self._binoms = [_frac_binom_row(r, alpha) for r in range(table.top // 2 + 1)]
        self._gammas = _gamma_weights(table)

    def _rows(self, wp):
        ap = self._a_powers
        return [_oplus(binoms, wp, ap) for binoms in self._binoms]

    def _formula(self, xp, rows):
        total = 0.0
        for term in map(mul, map(mul, self._gammas, xp[::-2]), rows):
            total += term
        return total
