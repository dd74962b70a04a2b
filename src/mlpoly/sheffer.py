"""Appell/Sheffer machinery for both polynomial families.

An Appell sequence w_n has the exponential generating function
exp(u*lam)/g(lam); its ladder operators are P = D (lowering) and
M = X - (g'/g)(D) (raising), with commutator [P, M] = 1.  Both families here
are Appell: the fractional Hermite polynomials in x (with
A(lam) = E_alpha(y lam**2), g = 1/A), and the Mittag-Leffler polynomials in
y (with A(lam) = W_{alpha,beta}(-lam x)).

Because only the Appell case B(lam) = lam occurs, the generic auxiliary
functions of the exponentiated first-order operator collapse: q(x) = 1,
T(lam, x) = lam + x, and only v and h carry content:

    v(x) = A'(x-1)/A(x-1),      h(lam, x) = A(lam+x-1)/A(x-1).

On polynomials the operator series g'(D)/g(D) truncates at the degree, so
the raising operator is realized as a finite differential sum.

The series recurrences and the raising sum, which cancel heavily near a zero
of the series, run exactly on the float inputs (``gamma_core._dyadic``) and
round each output coefficient once: correctly rounded on every platform.
"""

import math
from collections import namedtuple
from itertools import accumulate
from operator import mul

from ._validate import degree, finite, finite_float, positive
from .errors import DomainError, FloatOverflowError, SingularityError
from .fracpoly import FracPoly, _coefficient_overflow
from .gamma_core import (
    _check_gamma_argument,
    _check_power,
    _dyadic,
    _in_range,
    _powers,
    _rgammas,
    _round_dyadic,
)
from .mittag_leffler import _series_argument, ml_one, ml_two, wright


class PowerSeries(namedtuple("PowerSeries", "coeffs")):
    """Truncated formal power series: coeffs[r] multiplies lam**r."""

    __slots__ = ()

    def __new__(cls, coeffs):
        try:
            coeffs = tuple(float(c) for c in coeffs)
        except OverflowError:  # an int beyond the double range
            raise FloatOverflowError("a coefficient exceeds the double-precision range") from None
        if len(coeffs) < 2:
            raise DomainError("a PowerSeries needs order >= 1 (at least 2 coefficients)")
        if not all(math.isfinite(c) for c in coeffs):
            r, c = next((r, c) for r, c in enumerate(coeffs) if not math.isfinite(c))
            if math.isinf(c):  # a product or derivative that overflowed
                raise _coefficient_overflow(f"lam**{r}")
            raise DomainError("coefficients must be finite")
        return tuple.__new__(cls, (coeffs,))

    @property
    def order(self):
        return len(self.coeffs) - 1

    def __call__(self, lam):
        finite(lam, "lam")
        total = 0.0
        for c in reversed(self.coeffs):
            total = total * lam + c
        return _in_range(total, "the power series value")

    def derivative(self):
        return PowerSeries(tuple(r * self.coeffs[r] for r in range(1, len(self.coeffs))))

    def __mul__(self, other):
        if not isinstance(other, PowerSeries):
            return NotImplemented
        n = min(self.order, other.order)
        out = [0.0] * (n + 1)
        for i, a in enumerate(self.coeffs[: n + 1]):
            for j in range(n + 1 - i):
                out[i + j] += a * other.coeffs[j]
        return PowerSeries(tuple(out))

    # without this, int * series would fall back to tuple repetition
    __rmul__ = __mul__


def _rounded(nums, e, dens, term):
    """nums[j] * 2**e / dens[j], each rounded once to a float; an overflow is
    refused naming the coefficient of ``term.format(j)``."""
    out = []
    for j, (num, den) in enumerate(zip(nums, dens)):
        try:
            out.append(_round_dyadic(num, e, den))
        except OverflowError:
            raise _coefficient_overflow(term.format(j)) from None
    return out


def _series_quotient(am, dm, e, what):
    """Each out[r], r < len(dm), rounded once from the exact solution of
    am[0] out[r] = dm[r] 2**e - sum_{k>=1} am[k] out[r-k] for integers am and dm,
    as out[r] = p[r] 2**e / am[0]**(r+1) with integers p[r]."""
    powers = [am[0] ** j for j in range(len(dm) + 1)]
    scaled = [m * powers[k] for k, m in enumerate(am[1 : len(dm)])]  # am[k+1] am[0]**k
    p = []
    for d, power in zip(dm, powers):
        p.append(d * power - sum(c * q for c, q in zip(scaled, reversed(p))))
    return _rounded(p, e, powers[1:], "lam**{} of the " + what)


def series_reciprocal(s):
    """Multiplicative inverse: (s * result) = 1 + O(lam**(N+1)).

    Requires a nonzero constant term.
    """
    if s.coeffs[0] == 0.0:
        raise DomainError("series with zero constant term has no reciprocal")
    am, e = _dyadic(s.coeffs)
    return PowerSeries(_series_quotient(am, [1] + [0] * s.order, -e, "reciprocal series"))


def series_log_derivative(s):
    """Logarithmic derivative s'/s as a series of order N-1."""
    if s.coeffs[0] == 0.0:
        raise DomainError("series with zero constant term has no logarithmic derivative")
    am, _ = _dyadic(s.coeffs)
    dm = [r * m for r, m in enumerate(am)][1:]  # s' = sum_r (r+1) s[r+1] lam**r, on am's exponent
    coeffs = _series_quotient(am, dm, 0, "logarithmic derivative")
    if len(coeffs) == 1:
        coeffs.append(0.0)  # keep a valid series when N-1 would be order 0
    return PowerSeries(coeffs)


#: The largest order of an Appell prefactor.  The prefactors feed the
#: ladder's exact recurrences, and ``series_reciprocal`` already takes 1.6 s
#: at order 400; ``appell_A_mlp`` answers at order 4000 in 0.008 s and at
#: 8000 in 0.025 s (``appell_A_fhp`` at order 10**6 in 0.31 s), best of
#: several runs on one core of a 2-core Intel Xeon.  Past the cap,
#: a base whose powers neither overflow nor raise, such as 1.0, would build
#: its list of powers until memory runs out.
_MAX_ORDER = 4000


def _check_order(n_order, base, top, name, alpha, beta):
    """Refuse an order above ``_MAX_ORDER`` in O(1), after what building the
    series refuses first: base**top, then the gamma argument beta + alpha*top."""
    if n_order > _MAX_ORDER:
        _check_power(base, top, name)
        _check_gamma_argument(top, alpha, beta)
        raise DomainError(f"order {n_order} exceeds {_MAX_ORDER}, the largest Appell order")


def appell_A_fhp(alpha, y, n_order):
    """EGF prefactor of the fractional Hermite family: A(lam) = E_alpha(y lam**2).

    Even coefficients y**r / Gamma(1+alpha*r); odd coefficients vanish.
    """
    positive(alpha, "alpha")
    finite(y, "y")
    if n_order < 2:
        raise DomainError(f"order must be >= 2, got {n_order}")
    top = degree(n_order, "order") // 2
    _check_order(n_order, y, top, "y", alpha, 1.0)
    coeffs = [0.0] * (int(n_order) + 1)
    coeffs[::2] = [yr * rg for yr, rg in zip(_powers(y, top, "y"), _rgammas(top, alpha, 1.0))]
    return PowerSeries(tuple(coeffs))


def appell_A_mlp(alpha, beta, x, n_order):
    """EGF prefactor of the Mittag-Leffler family: A(lam) = W_{alpha,beta}(-lam x)."""
    positive(alpha, "alpha")
    positive(beta, "beta")
    x = finite_float(x, "x")
    if n_order < 1:
        raise DomainError(f"order must be >= 1, got {n_order}")
    top = max(degree(n_order, "order"), 2)
    _check_order(n_order, -x, top, "(-x)", alpha, beta)
    xp = _powers(-x, top, "(-x)")
    rg = _rgammas(top, alpha, beta)
    factorials = accumulate(range(1, top + 1), mul, initial=1)  # r! for r = 0..top
    return PowerSeries(tuple(_over_integer(v * g, f) for v, g, f in zip(xp, rg, factorials)))


def _over_integer(v, d):
    """v / d rounded once for a positive integer d, also one with no float
    value (r! for r > 170)."""
    num, den = v.as_integer_ratio()
    return math.copysign(abs(num) / (den * d), v)


def appell_auxiliary(a_fn, a_prime_fn, lam, x):
    """Generic auxiliary functions of the exponentiated operator, Appell case.

    Given callables for A and A', returns (q, v, T, h) with q = 1 and
    T = lam + x holding identically, v = A'(x-1)/A(x-1), and
    h = A(lam+x-1)/A(x-1).
    """
    den = a_fn(x - 1.0)
    if den == 0.0:
        raise SingularityError(f"A({x - 1.0}) = 0: auxiliary functions undefined")
    v = _series_argument("A'(x-1)/A(x-1)", lambda: a_prime_fn(x - 1.0) / den)
    h = _series_argument("A(lam+x-1)/A(x-1)", lambda: a_fn(lam + x - 1.0) / den)
    return 1.0, v, lam + x, h


def aux_v_h_fhp(lam, x, alpha, y):
    """Auxiliary pair (v, h) for the fractional Hermite family:

        v = 2/(alpha*(x-1)) * E_{alpha,0}[y(x-1)**2] / E_alpha[y(x-1)**2]
        h = E_alpha[y(lam+x-1)**2] / E_alpha[y(x-1)**2]

    x = 1 is a pole of the prefactor and raises.
    """
    positive(alpha, "alpha")
    finite(lam, "lam")
    finite(x, "x")
    finite(y, "y")
    if x == 1.0:
        raise SingularityError("v has a pole at x = 1")
    s = x - 1.0
    z = _series_argument("y*(x-1)**2", lambda: y * s * s)
    den = ml_one(alpha, z).value
    if den == 0.0:
        raise SingularityError("E_alpha[y(x-1)**2] = 0: denominators vanish")
    e0 = ml_two(alpha, 0.0, z).value
    v = _series_argument("2/(alpha*(x-1)) * E_(alpha,0)/E_alpha",
                         lambda: 2.0 / (alpha * s) * e0 / den)
    zh = _series_argument("y*(lam+x-1)**2", lambda: y * (lam + s) ** 2)
    h = ml_one(alpha, zh).value / den
    return v, h


def aux_v_h_mlp(lam, y, alpha, beta, x):
    """Auxiliary pair (v, h) for the Mittag-Leffler family:

        v = -x * W_{alpha,beta+alpha}[-x(y-1)] / W_{alpha,beta}[-x(y-1)]
        h = W_{alpha,beta}[-x(lam+y-1)] / W_{alpha,beta}[-x(y-1)]
    """
    positive(alpha, "alpha")
    positive(beta, "beta")
    finite(lam, "lam")
    finite(y, "y")
    finite(x, "x")
    z = _series_argument("-x*(y-1)", lambda: -x * (y - 1.0))
    den = wright(alpha, beta, z).value
    if den == 0.0:
        raise SingularityError("W_{alpha,beta}[-x(y-1)] = 0: denominators vanish")
    v = -x * wright(alpha, beta + alpha, z).value / den
    zh = _series_argument("-x*(lam+y-1)", lambda: -x * (lam + y - 1.0))
    h = wright(alpha, beta, zh).value / den
    return v, h


def _require_integer_exponents(p):
    if not p.has_integer_exponents():
        raise DomainError(
            f"operation requires integer exponents, got {p.exponents}"
        )


def lowering_apply(p):
    """Lowering ladder operator P = D: term-wise derivative on integer exponents."""
    _require_integer_exponents(p)
    return p.derivative()


def raising_apply(p, log_deriv_g):
    """Raising ladder operator M = X - (g'/g)(D) on a polynomial.

    ``log_deriv_g`` supplies the coefficients c_k of g'/g; the operator sum
    sum_k c_k D**k truncates at deg(p), so the series must carry at least
    deg(p)+1 coefficients.
    """
    _require_integer_exponents(p)
    deg = p.degree()
    deg = 0 if deg is None else int(round(deg))
    if len(log_deriv_g.coeffs) < deg + 1:
        raise DomainError(
            f"series order {log_deriv_g.order} is insufficient for degree {deg}"
        )
    dense = [0.0] * (deg + 1)
    for c, mu in p.terms:
        dense[int(round(mu))] = c
    pm, pe = _dyadic(dense)
    cm, ce = _dyadic(log_deriv_g.coeffs[: deg + 1])
    # (g'/g)(D) p = sum_i acc[i] x**i 2**(pe+ce), as D**k x**(i+k) = (i+k)!/i! x**i
    acc = [sum(cm[k] * pm[i + k] * math.perm(i + k, k) for k in range(deg + 1 - i))
           for i in range(deg + 1)]
    nums = [(m << -ce) - a for m, a in zip([0] + pm, acc + [0])]  # x * p - (g'/g)(D) p
    coeffs = _rounded(nums, pe + ce, [1] * len(nums), "x**{:.1f}")
    return FracPoly([(c, float(j)) for j, c in enumerate(coeffs)])
