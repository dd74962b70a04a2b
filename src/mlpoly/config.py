"""Numeric settings, kept in one place.

Only ``SERIES_TOL`` and ``TERM_BUDGET`` can be changed, and only inside a
``with override(...)`` block, which restores them on exit.  The other names
are constants.
"""

import math
from contextlib import contextmanager

from .errors import DomainError

# Series evaluation -----------------------------------------------------------

#: Target absolute/relative tolerance for truncated series evaluators.
SERIES_TOL = 1e-12

#: Hard cap on the number of series terms before giving up.
TERM_BUDGET = 400

#: An evaluation is rejected as dishonest when its error estimate exceeds
#: HONESTY_FACTOR * max(tol*|value|, tol).  The slack absorbs the rounding
#: floor of mildly alternating sums while still refusing results whose
#: cancellation noise dwarfs the requested tolerance.
HONESTY_FACTOR = 100.0

# Identity / residual checks ---------------------------------------------------

IDENTITY_RTOL = 1e-9
IDENTITY_ATOL = 1e-12
RESIDUAL_TOL = 1e-10

#: The suites of ``mlpoly.verify``, named here so that the CLI can offer them
#: without importing the suites.
SUITE_NAMES = ("fhp-identities", "mlp-gf", "caputo", "pde-residuals", "sheffer-ladder")


def _series_tol(value):
    try:
        tol = float(value)
    except (TypeError, ValueError):
        tol = math.nan
    if not 0.0 < tol < math.inf:  # NaN fails too
        raise DomainError(f"series_tol must be a finite number > 0, got {value!r}")
    return tol


def _term_budget(value):
    try:  # only ints and strings parse: int(1.5) would truncate, int("1.5") raises
        budget = int(value) if isinstance(value, (int, str)) else 0
    except ValueError:
        budget = 0
    if budget < 1:
        raise DomainError(f"term_budget must be an integer >= 1, got {value!r}")
    return budget


_SETTINGS = {"series_tol": _series_tol, "term_budget": _term_budget}


@contextmanager
def override(**settings):
    """Set ``series_tol`` and ``term_budget`` for the length of a ``with`` block.

    Values may be numbers or strings (as read from a config file); all are
    checked before any is set, and an unknown key or a bad value raises
    :class:`DomainError` naming the key.  The values hold process-wide (not
    per thread) while the block runs and are restored however it ends.
    """
    for key in settings:
        if key not in _SETTINGS:
            raise DomainError(f"unknown configuration key: {key!r}, not one of {sorted(_SETTINGS)}")
    parsed = {key.upper(): _SETTINGS[key](value) for key, value in settings.items()}
    saved = {name: globals()[name] for name in parsed}
    globals().update(parsed)
    try:
        yield
    finally:
        globals().update(saved)


def load_config_file(path):
    """Read ``key = value`` lines ('#' comments) from *path* into a dict of
    strings, without applying them: :func:`override` checks and applies them.
    Bytes that are not UTF-8 become U+FFFD, which no key or value accepts."""
    pairs = {}
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            pairs[key.strip()] = value.strip()
    return pairs
