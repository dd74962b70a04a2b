"""Exception hierarchy for mlpoly.

All library errors derive from :class:`MLPolyError` so callers can catch one
base class.  Validation failures additionally derive from ``ValueError`` and
numerical failures from ``ArithmeticError``.
"""


class MLPolyError(Exception):
    """Base class for all mlpoly errors."""


class DomainError(MLPolyError, ValueError):
    """An argument lies outside the operation's domain."""


class ConvergenceError(MLPolyError, ArithmeticError):
    """A series evaluation could not honestly reach the requested tolerance.

    Carries the partial result so callers can inspect how far the
    summation got before giving up.
    """

    def __init__(self, message, partial=None, error_estimate=None, terms_used=None):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate
        self.terms_used = terms_used


class IndeterminateFormError(MLPolyError, ArithmeticError):
    """A gamma-function ratio hit poles and has no finite value."""


class SingularityError(MLPolyError, ArithmeticError):
    """Evaluation requested at a pole or with a vanishing denominator."""


class FloatOverflowError(MLPolyError, OverflowError):
    """An exact intermediate (such as a factorial ratio) exceeds the double-precision range."""


class VerificationError(MLPolyError, ArithmeticError):
    """A built-in cross-check between two computations of the same quantity failed."""
