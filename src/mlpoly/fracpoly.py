"""Generalized polynomials: finite sums  sum_i c_i * x**mu_i  with real mu_i >= 0.

One carrier type serves ordinary polynomials, the fractional Hermite and
Mittag-Leffler polynomials, and truncated power series with fractional
exponents.  Terms are kept sorted by strictly increasing exponent; terms with
equal exponents are merged, summed in input order, and exact zero
coefficients are removed.  Exponents are compared exactly: 0.1 + 0.2 and 0.3
are two exponents.
"""

import math
import numbers

from ._validate import finite_float
from .errors import DomainError, FloatOverflowError
from .gamma_core import _in_range, _power_overflow


def _coefficient_overflow(exponent):
    return FloatOverflowError(f"the coefficient of x**{exponent} exceeds the double-precision range")


class FracPoly:
    """Immutable generalized polynomial in one variable."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        merged = {}  # exponent -> coefficient sum
        for coeff, exponent in terms:
            try:
                coeff = float(coeff)
                exponent = float(exponent)
            except OverflowError:  # an int beyond the double range
                name = "an exponent" if isinstance(coeff, float) else "a coefficient"
                raise FloatOverflowError(f"{name} exceeds the double-precision range") from None
            if not (math.isfinite(coeff) and math.isfinite(exponent)):
                if math.isinf(coeff) and math.isfinite(exponent):
                    raise _coefficient_overflow(exponent)
                raise DomainError(f"non-finite term ({coeff}, {exponent})")
            if exponent < 0.0:
                raise DomainError(f"negative exponent {exponent} not representable")
            exponent += 0.0  # -0.0 becomes 0.0
            if exponent in merged:  # a sum of two finite floats is finite or infinite
                coeff += merged[exponent]
                if not math.isfinite(coeff):
                    raise _coefficient_overflow(exponent)
            merged[exponent] = coeff
        self._terms = tuple((merged[mu], mu) for mu in sorted(merged) if merged[mu] != 0.0)

    # -- construction helpers --------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls([(1.0, 0.0)])

    @classmethod
    def monomial(cls, coeff, exponent):
        return cls([(coeff, exponent)])

    # -- inspection --------------------------------------------------------

    @property
    def terms(self):
        """Tuple of (coefficient, exponent), exponents strictly increasing."""
        return self._terms

    @property
    def exponents(self):
        return tuple(mu for _, mu in self._terms)

    @property
    def coefficients(self):
        return tuple(c for c, _ in self._terms)

    def is_zero(self):
        return not self._terms

    def degree(self):
        """Largest exponent, or None for the zero polynomial."""
        return self._terms[-1][1] if self._terms else None

    def has_integer_exponents(self):
        return all(mu.is_integer() for _, mu in self._terms)

    def coeff_at(self, exponent):
        for c, mu in self._terms:
            if mu == exponent:
                return c
        return 0.0

    # -- algebra -----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, FracPoly):
            return NotImplemented
        return FracPoly(list(self._terms) + list(other._terms))

    def __sub__(self, other):
        if not isinstance(other, FracPoly):
            return NotImplemented
        # negating a canonical polynomial moves no exponent and drops no term
        return FracPoly(list(self._terms) + [(-c, mu) for c, mu in other._terms])

    def __neg__(self):
        return FracPoly([(-c, mu) for c, mu in self._terms])

    def scale(self, factor):
        try:
            factor = float(factor)
        except OverflowError:  # an int beyond the double range
            raise FloatOverflowError("factor exceeds the double-precision range") from None
        if factor == 0.0:
            return FracPoly()
        return FracPoly([(factor * c, mu) for c, mu in self._terms])

    def __mul__(self, factor):
        """``p * c`` and ``c * p`` scale by a real number; two polynomials do not multiply."""
        if not isinstance(factor, numbers.Real):
            return NotImplemented
        return self.scale(factor)

    __rmul__ = __mul__

    def times_x(self):
        """Multiply by the variable (shift every exponent by one)."""
        return FracPoly([(c, mu + 1.0) for c, mu in self._terms])

    def map_terms(self, fn):
        """Apply ``fn(coeff, exponent) -> (coeff, exponent) | None`` term-wise."""
        out = []
        for c, mu in self._terms:
            image = fn(c, mu)
            if image is not None:
                out.append(image)
        return FracPoly(out)

    def derivative(self):
        """Term-wise d/dx; constants vanish.

        Exponents in (0, 1) would leave the representable domain and raise.
        """
        out = []
        for c, mu in self._terms:
            if mu == 0.0:
                continue
            if mu < 1.0:
                raise DomainError(f"derivative of x**{mu} has a negative exponent")
            out.append((c * mu, mu - 1.0))
        return FracPoly(out)

    # -- evaluation ----------------------------------------------------------

    def __call__(self, x):
        x = finite_float(x, "x")
        total = 0.0
        for c, mu in self._terms:
            if x < 0.0 and not mu.is_integer():
                raise DomainError(f"x**{mu} is not real for x = {x} < 0")
            try:
                total += c * (x ** int(mu) if x < 0.0 else math.pow(x, mu))
            except OverflowError:
                raise _power_overflow(x, mu, "x") from None
        return _in_range(total, "the polynomial value")

    # -- comparison / serialization -------------------------------------------

    def max_coeff_diff(self, other):
        """Largest |coefficient difference| across the union of exponents."""
        diff = self - other
        return max((abs(c) for c, _ in diff._terms), default=0.0)

    def to_json_obj(self):
        return [{"c": c, "mu": mu} for c, mu in self._terms]

    def __eq__(self, other):
        return isinstance(other, FracPoly) and self._terms == other._terms

    def __hash__(self):
        return hash(self._terms)

    def __repr__(self):
        if not self._terms:
            return "FracPoly(0)"
        body = " + ".join(f"{c:.6g}*x^{mu:g}" for c, mu in self._terms)
        return f"FracPoly({body})"
