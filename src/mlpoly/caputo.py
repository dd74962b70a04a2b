"""Caputo fractional derivative of order 0 < alpha < 1.

The production rule is exact: on a generalized monomial x**g the Caputo
derivative is Gamma(1+g)/Gamma(1+g-alpha) * x**(g-alpha), and constants map
to zero.  A numerical L1 quadrature is provided purely as an independent
cross-check; nothing in the library consumes it.
"""

import math

from ._validate import degree, finite, open_unit, positive
from .errors import DomainError, FloatOverflowError
from .gamma_core import _check_power, _in_range, _lgamma, rgamma


def caputo_monomial(gamma_exp, alpha):
    """Exact rule on x**gamma_exp: returns (coefficient, exponent).

    gamma_exp = 0 gives (0, 0) — constants are annihilated.  Exponents in
    (0, alpha) would map below exponent zero and are rejected.  Comparisons
    are exact, and a step keeps the alpha-lattice: the float ``alpha * k``
    (k an integer) maps to ``alpha * (k - 1)``, any other exponent to
    ``gamma_exp - alpha``.
    """
    open_unit(alpha, "Caputo order")
    try:
        finite = math.isfinite(gamma_exp)
    except OverflowError:  # an int beyond the double range
        raise FloatOverflowError("exponent exceeds the double-precision range") from None
    if not finite or gamma_exp < 0.0:
        raise DomainError(f"exponent must be finite and >= 0, got {gamma_exp}")
    if gamma_exp == 0.0:
        return 0.0, 0.0
    if gamma_exp < alpha:
        raise DomainError(
            f"exponent {gamma_exp} in (0, alpha={alpha}) leaves the representable domain"
        )
    coeff = math.exp(_lgamma(1.0 + gamma_exp) - _lgamma(1.0 + gamma_exp - alpha))
    if not math.isfinite(coeff):  # inf - inf: log Gamma left the double range
        raise FloatOverflowError(
            "log Gamma(1 + exponent) exceeds the double-precision range "
            f"at exponent = {gamma_exp!r}"
        )
    k = gamma_exp / alpha  # inf where the quotient overflows
    if k < 2.0 ** 53:
        k = round(k)
        if alpha * k == gamma_exp:
            return coeff, alpha * (k - 1)
    return coeff, gamma_exp - alpha


def caputo_poly(p, alpha):
    """Term-wise Caputo derivative of a :class:`FracPoly`."""
    open_unit(alpha, "Caputo order")

    def rule(c, mu):
        try:
            factor, nu = caputo_monomial(mu, alpha)
        except DomainError as exc:
            raise DomainError(f"term with exponent {mu}: {exc}") from exc
        if factor == 0.0:
            return None
        return c * factor, nu

    return p.map_terms(rule)


def caputo_l1(samples, h, alpha, t_index):
    """L1 quadrature for the Caputo derivative at grid node ``t_index``.

    ``samples`` is a sequence of numbers (a list, a tuple or a 1-D array)
    holding function values on the uniform grid 0, h, 2h, ...; the result is
    a float whose error is O(h**(2-alpha)) for twice-differentiable
    integrands.  The weighted increments are summed exactly and rounded once
    (``math.fsum``).  This is the validation oracle for
    :func:`caputo_monomial`, not a production path.
    """
    open_unit(alpha, "Caputo order")
    positive(h, "grid spacing")
    if t_index < 2:
        raise DomainError(f"need at least 2 grid points before t_index, got {t_index}")
    n = degree(t_index, "t_index")
    if len(samples) <= n:
        raise DomainError(
            f"samples must cover indices 0..{n}, got {len(samples)} values"
        )
    _check_power(h, -alpha, "h")
    e = 1.0 - alpha
    try:
        total = math.fsum(
            ((k + 1.0) ** e - k ** e) * (samples[n - k] - samples[n - 1 - k]) for k in range(n)
        )
    except (OverflowError, ValueError):  # an exact sum beyond the range, or inf - inf
        total = math.nan
    value = total * h ** (-alpha) * rgamma(2.0 - alpha)
    if -math.inf < value < math.inf:
        return value
    for v in samples[: n + 1]:  # a sample that is not finite is refused as input
        finite(v, "each sample")
    return _in_range(value, "the L1 sum")


def rl_from_caputo(caputo_value, g0, t, alpha):
    """Riemann-Liouville value from the Caputo one:
    RL = Caputo + t**(-alpha) * g(0) / Gamma(1 - alpha).
    """
    open_unit(alpha, "Caputo order")
    finite(caputo_value, "caputo_value")
    finite(g0, "g0")
    positive(t, "t")
    _check_power(t, -alpha, "t")
    value = caputo_value + g0 * t ** (-alpha) * rgamma(1.0 - alpha)
    if math.isinf(value):
        raise FloatOverflowError("the Riemann-Liouville value exceeds the double-precision range")
    return value
