"""Parameter domains: one check and one message per kind of domain.

Each function takes a value and the name it goes by in the message, and
raises :class:`DomainError` when the value lies outside the domain.  Every
comparison is written so that NaN fails it.  The module imports nothing
but the error classes, so importing it costs every caller nothing.
"""

from .errors import DomainError, FloatOverflowError

_INF = float("inf")


def open_unit(v, name):
    if not 0.0 < v < 1.0:
        raise DomainError(f"{name} must lie in (0, 1), got {v}")


def half_open_unit(v, name):
    if not 0.0 < v <= 1.0:
        raise DomainError(f"{name} must lie in (0, 1], got {v}")


def positive(v, name):
    if not v > 0.0:
        raise DomainError(f"{name} must be positive, got {v}")


def nonnegative(v, name):
    if not v >= 0.0:
        raise DomainError(f"{name} must be nonnegative, got {v}")


def positive_finite(v, name):
    """A positive finite value; NaN and -inf get the "positive" message."""
    if not 0.0 < v < _INF:
        positive(v, name)
        finite(v, name)


def nonnegative_finite(v, name):
    """A nonnegative finite value; NaN and -inf get the "nonnegative" message."""
    if not 0.0 <= v < _INF:
        nonnegative(v, name)
        finite(v, name)


def degree(n, name):
    """A nonnegative integer (an int or an integral float), returned as int."""
    if not (0 <= n < _INF and int(n) == n):
        raise DomainError(f"{name} must be a nonnegative integer, got {n}")
    return int(n)


def finite(v, name):
    if not -_INF < v < _INF:
        raise DomainError(f"{name} must be finite, got {v!r}")


def finite_float(v, name):
    """v as a finite float; an integer beyond the float range is a :class:`FloatOverflowError`."""
    try:
        v = float(v)
    except OverflowError:
        raise FloatOverflowError(f"{name} exceeds the double-precision range") from None
    finite(v, name)
    return v
