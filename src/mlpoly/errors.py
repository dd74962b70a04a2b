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
    summation got before giving up, and the ``reason`` it gave up:
    ``"budget"`` (no convergence within the term budget), ``"honesty"`` (the
    error estimate exceeds the honest allowance) or ``"overflow"`` (a term
    left the double-precision range).
    """

    def __init__(self, message, partial=None, error_estimate=None, terms_used=None, reason=None):
        super().__init__(message)
        self.partial = partial
        self.error_estimate = error_estimate
        self.terms_used = terms_used
        self.reason = reason


class IndeterminateFormError(MLPolyError, ArithmeticError):
    """A gamma-function ratio hit poles and has no finite value."""


class SingularityError(MLPolyError, ArithmeticError):
    """Evaluation requested at a pole or with a vanishing denominator."""


class FloatOverflowError(MLPolyError, OverflowError):
    """An exact intermediate (such as a factorial ratio) exceeds the double-precision range."""


class VerificationError(MLPolyError, ArithmeticError):
    """A built-in cross-check between two computations of the same quantity failed."""
