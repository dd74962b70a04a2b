"""Parameter domains: one check and one message per kind of domain.

Each function takes a value and the name it goes by in the message, and
raises :class:`DomainError` when the value lies outside the domain.  Every
comparison is written so that NaN fails it.  A Python int beyond the
double range is finite but has no float value: the checks for finiteness
name it with a :class:`FloatOverflowError`.  The ``*_each`` checks take a
sequence of values, all under one name: one pass over the sequence where
every value passes, and a walk in order, refusing the first value that
fails, where one does not.  The module imports nothing but the error
classes, ``math`` and ``sys``, so importing it costs every caller nothing.
"""

import math
import sys

from .errors import DomainError, FloatOverflowError

_INF = float("inf")
FLOAT_MAX = sys.float_info.max


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
    if not 0.0 < v <= FLOAT_MAX:
        positive(v, name)
        finite(v, name)


def nonnegative_finite(v, name):
    """A nonnegative finite value; NaN and -inf get the "nonnegative" message."""
    if not 0.0 <= v <= FLOAT_MAX:
        nonnegative(v, name)
        finite(v, name)


def degree(n, name):
    """A nonnegative integer (an int or an integral float), returned as int."""
    if not (0 <= n < _INF and int(n) == n):
        raise DomainError(f"{name} must be a nonnegative integer, got {n}")
    return int(n)


def finite(v, name, message=None):
    """A value in the double range; ``message`` replaces the default refusal
    of NaN and of the infinities."""
    if not -FLOAT_MAX <= v <= FLOAT_MAX:
        if -_INF < v < _INF:  # an integer beyond the double range
            raise FloatOverflowError(f"{name} exceeds the double-precision range")
        raise DomainError(message or f"{name} must be finite, got {v!r}")


def finite_float(v, name):
    """v as a finite float."""
    finite(v, name)
    return float(v)


def _all_finite(values):
    try:
        return all(map(math.isfinite, values))
    except OverflowError:  # an int beyond the double range
        return False


def finite_each(values, name):
    """finite(v, name) for each v of the sequence values."""
    if not _all_finite(values):
        for v in values:
            finite(v, name)


def nonnegative_finite_each(values, name):
    """nonnegative_finite(v, name) for each v of the sequence values."""
    if not (_all_finite(values) and min(values, default=0.0) >= 0.0):
        for v in values:
            nonnegative_finite(v, name)
