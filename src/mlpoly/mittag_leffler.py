"""Series evaluators for the Mittag-Leffler family and the Wright function.

All evaluators share one engine, :func:`_sum_series`, the one summation
loop.  Each evaluator describes its series by a row: entry r is a tuple
``(sign, a, b, p)`` with

* ``sign`` the sign of the coefficient (0.0 for an exact-zero term, at a
  pole of Gamma or past a Pochhammer truncation),
* ``a`` the log of the coefficient's numerator (``-log|Gamma(beta+alpha*r)|``,
  plus ``log|(gamma)_r|`` in the Prabhakar function),
* ``b`` the log of its denominator (``log r!``, or 0.0 in E_{alpha,beta}),
* ``p`` the magnitude of the numerator's log pieces (``|a|``, or
  ``|log|(gamma)_r|| + |log|1/Gamma||``),

and the loop forms term r inline as ``sign * zsign * exp((a + r*log|z|) - b)``
in log space (so huge intermediate terms cannot overflow), where zsign is the
sign of z**r.  The row is built lazily through a ``grow(r)`` callback, and
:class:`MLSeries` and :class:`WrightSeries` keep theirs across arguments.
The terms are summed with Neumaier compensation, and
the run stops once two consecutive terms fall below ``tol * |partial sum|``
and the geometric bound on the neglected tail, ``|t_r| rho / (1 - rho)`` with
``rho`` the last term ratio, falls below ``tol/2 * |partial sum|``, where
``tol`` is ``config.SERIES_TOL``; a run gives up after ``config.TERM_BUDGET``
terms.  Both change only inside ``config.override``: no evaluator takes a
per-call tolerance or budget.  The tail bound is certified once the term
ratios can no longer increase: Gamma is log-convex, so Gamma(x)/Gamma(x + alpha)
decreases for x > 0 (Gorenflo, Loutchko & Luchko, Fract. Calc. Appl. Anal. 5
(2002); Hilfer & Seybold, Integral Transforms Spec. Funct. 17 (2006)).
The returned error estimate is a documented heuristic, not a proven bound:
the last two terms plus the tail bound (truncation), plus
``8 * eps * sum|terms|`` (summation rounding under cancellation), plus
``32 * eps * max_exponent * |value|`` (rounding of the log-space exponents
themselves, which dominates when the terms carry exponents of hundreds).
An evaluation whose estimate exceeds ``HONESTY_FACTOR * max(tol*|value|, tol)``
is refused with a :class:`ConvergenceError` instead of silently returning
cancellation noise — this is what bounds the honest domain for strongly
alternating arguments (large negative z at small alpha).  Every refusal
carries its ``reason``: ``"budget"``, ``"honesty"`` or ``"overflow"``.
"""

import math
from collections import namedtuple

from . import config
from ._validate import FLOAT_MAX, finite, half_open_unit, nonnegative, positive, positive_finite
from .errors import ConvergenceError, DomainError, FloatOverflowError
from .gamma_core import _check_power, log_abs_rgamma

_EPS = 2.220446049250313e-16
_SUM_ERR_FACTOR = 8.0
_EXP_ERR_FACTOR = 32.0


def _series_argument(expr, compute):
    """``compute()``, or :class:`FloatOverflowError` naming the quantity ``expr``."""
    try:
        z = compute()
    except (OverflowError, ZeroDivisionError):  # where float * and / give inf, ** and /0 raise
        z = math.inf
    if not math.isfinite(z):  # inf, or the NaN of inf * 0
        raise FloatOverflowError(f"{expr} exceeds the double-precision range")
    return z


class MLParams(namedtuple("MLParams", "alpha beta gamma")):
    """Parameter triple (alpha, beta, gamma) of the three-parameter function.

    ``alpha`` must be positive.  A negative integer ``gamma = -n`` truncates
    the series to n + 1 terms (the polynomial case).
    """

    __slots__ = ()

    def __new__(cls, alpha, beta, gamma=1.0):
        for v, name in ((alpha, "alpha"), (beta, "beta"), (gamma, "gamma")):
            finite(v, name, "MLParams fields must be finite")
        positive(alpha, "alpha")
        return tuple.__new__(cls, (alpha, beta, gamma))

    @property
    def truncates(self):
        """True when gamma is a negative integer or zero, so the series is finite."""
        return self.gamma <= 0.0 and self.gamma == int(self.gamma)


class EvalResult(namedtuple("EvalResult", "value abs_error_estimate terms_used")):
    """Value of a truncated series together with its accounting."""

    __slots__ = ()

    def __new__(cls, value, abs_error_estimate, terms_used):
        if abs_error_estimate < 0.0:
            raise DomainError("abs_error_estimate must be nonnegative")
        return tuple.__new__(cls, (value, abs_error_estimate, terms_used))


def _tail_bound(at, aprev, factor):
    """Bound on the sum of the terms after |t_r| = ``at`` when every later
    term ratio is at most ``factor * at / aprev`` (a geometric series);
    inf when that ratio is not below 1.  An exact-zero term ends the series."""
    if at == 0.0:
        return 0.0
    rho = factor * at / aprev if aprev else math.inf
    return at * rho / (1.0 - rho) if rho < 1.0 else math.inf


def _sum_series(row, grow, z, label, ratio_factor):
    """Compensated summation of sum_r row[r] z**r with stop control.

    Entry r of ``row`` is ``(sign, a, b, p)`` as the module docstring
    describes; ``(p + |r*log|z||) + b`` is the magnitude of the log-space
    exponent pieces of term r.  ``grow(r)`` appends entry r to ``row`` and
    returns it; entries already in ``row`` are reused.  ``label()`` names the
    series in a refusal and is formatted only then.  ``ratio_factor(r)``
    returns m such that every term ratio |t_(k+1)/t_k|, k >= r, is at most
    m * |t_r/t_(r-1)|, or inf where no such m is known.  The tolerance and
    term budget are ``config.SERIES_TOL`` and ``config.TERM_BUDGET``.
    """
    tol = config.SERIES_TOL
    budget = config.TERM_BUDGET
    exp = math.exp
    ninf = -math.inf
    # log|z| (-inf at z = 0), taken once: z**r has log-magnitude r*log|z| and,
    # when z < 0, sign -1 for odd r
    zlog1 = math.log(abs(z)) if z != 0.0 else ninf
    zflip = -1.0 if z < 0.0 else 1.0
    zsign = 1.0
    built = len(row)
    s = 0.0
    comp = 0.0
    sum_abs = 0.0
    max_scale = 1.0
    prev = math.inf
    converged = False
    used = 0
    last = 0.0
    tail = 0.0
    for r in range(budget):
        try:
            sign, a, b, p = row[r] if r < built else grow(r)
            zlog = r * zlog1 if r else 0.0
            if sign == 0.0 or zlog == ninf:
                t = 0.0
                scale = 1.0
            else:
                t = sign * zsign * exp(a + zlog - b)
                scale = p + abs(zlog) + b
        except OverflowError:
            value = s + comp
            raise ConvergenceError(
                f"{label()}: term {r} overflows the double-precision range "
                f"(partial={value!r})",
                partial=value, terms_used=r, reason="overflow",
            ) from None
        used = r + 1
        at = abs(t)
        sum_abs += at
        if scale > max_scale:
            max_scale = scale
        # Neumaier update
        u = s + t
        if abs(s) >= at:
            comp += (s - u) + t
        else:
            comp += (t - u) + s
        s = u
        thresh = tol * abs(s + comp)
        if r >= 1 and at <= thresh and abs(prev) <= thresh:
            tail = _tail_bound(at, abs(prev), ratio_factor(r))
            if tail <= 0.5 * thresh:
                last = at
                converged = True
                break
            tail = 0.0
        prev = t
        last = at
        zsign *= zflip
    value = s + comp
    estimate = (
        last
        + (abs(prev) if math.isfinite(prev) else 0.0)
        + tail
        + _SUM_ERR_FACTOR * _EPS * sum_abs
        # an exact zero has no exponent rounding, even where a log-gamma
        # scale left the double range (inf * 0 would be NaN)
        + (_EXP_ERR_FACTOR * _EPS * max_scale * abs(value) if value else 0.0)
    )
    if not converged:
        raise ConvergenceError(
            f"{label()}: no convergence within {budget} terms "
            f"(partial={value!r}, estimate={estimate!r})",
            partial=value, error_estimate=estimate, terms_used=used, reason="budget",
        )
    allowance = config.HONESTY_FACTOR * max(tol * abs(value), tol)
    if estimate > allowance:
        raise ConvergenceError(
            f"{label()}: rounding floor {estimate:.3e} exceeds the honest allowance "
            f"{allowance:.3e}; the argument lies outside the double-precision domain "
            f"(partial={value!r})",
            partial=value, error_estimate=estimate, terms_used=used, reason="honesty",
        )
    return EvalResult(value, estimate, used)


def ml_one(alpha, z):
    """One-parameter Mittag-Leffler function E_alpha(z) = sum z**r / Gamma(1+alpha*r)."""
    return ml_two(alpha, 1.0, z)


def ml_two(alpha, beta, z):
    """Two-parameter (Wiman) function E_{alpha,beta}(z) = sum z**r / Gamma(beta+alpha*r).

    beta = 0 is legal: the r = 0 term carries 1/Gamma(0) = 0 and drops out.
    """
    return MLSeries(alpha, beta)(z)


class MLSeries:
    """E_{alpha,beta}(z) at many arguments z, as :func:`ml_two` computes it.

    The row of gamma terms is computed once per index r and shared by every
    z, so a grid pays the gamma kernel once per index rather than once per
    term.  Each call keeps its own stopping rule and error estimate.
    :class:`WrightSeries` is the same series with 1/r! in each term.
    """

    _symbol, _param, _factorial = "E", "beta", False

    def __init__(self, alpha, beta):
        positive_finite(alpha, "alpha")
        if not -FLOAT_MAX <= beta <= FLOAT_MAX:
            finite(beta, self._param, f"{self._param} and z must be finite")
        self.alpha = alpha
        self.beta = beta
        # entry r (see _sum_series): 1/Gamma(beta + alpha*r) as sign and log,
        # and log r! (0.0 in E_{alpha,beta}), filled in order of r
        self._row = []

    def _grow(self, r):
        gsign, glog = log_abs_rgamma(self.beta + self.alpha * r)
        entry = (gsign, glog, math.lgamma(r + 1) if self._factorial else 0.0, abs(glog))
        self._row.append(entry)
        return entry

    def __call__(self, z):
        if not -FLOAT_MAX <= z <= FLOAT_MAX:
            finite(z, "z", f"{self._param} and z must be finite")
        alpha, beta = self.alpha, self.beta
        # the term ratio is |z| Gamma(beta+alpha(r-1)) / Gamma(beta+alpha r) times
        # a nonincreasing factor (1, or 1/r in W): the gamma quotient stops
        # increasing once both arguments are positive (log-convexity of Gamma)
        return _sum_series(self._row, self._grow, z,
                           lambda: f"{self._symbol}_({alpha},{beta})({z})",
                           lambda r: 1.0 if beta + alpha * (r - 1) > 0.0 else math.inf)


def ml_three(alpha, beta, gamma, z):
    """Three-parameter (Prabhakar) function
    E^gamma_{alpha,beta}(z) = sum (gamma)_r z**r / (r! Gamma(beta+alpha*r)).

    The Pochhammer weight is accumulated as the running product
    gamma (gamma+1) ... (gamma+r-1), so a negative integer gamma truncates
    the series exactly.
    """
    MLParams(alpha, beta, gamma)  # validates alpha and finiteness
    if not beta > 0.0:
        raise DomainError(f"beta must be positive here, got {beta}")
    finite(z, "z", "z must be finite")

    row = []
    psign, plog = 1.0, 0.0  # (gamma)_r as sign and log, r the last index grown

    def grow(r):
        nonlocal psign, plog
        if r > 0:
            factor = gamma + (r - 1)
            if psign == 0.0 or factor == 0.0:
                psign = 0.0
            else:
                if factor < 0.0:
                    psign = -psign
                plog += math.log(abs(factor))
        if psign == 0.0:
            entry = (0.0, 0.0, 0.0, 0.0)
        else:
            gsign, glog = log_abs_rgamma(beta + alpha * r)
            entry = (psign * gsign, plog + glog, math.lgamma(r + 1), abs(plog) + abs(glog))
        row.append(entry)
        return entry

    def ratio_factor(r):
        # the ratio carries |gamma+r-1|/r beside the gamma quotient (beta > 0):
        # nonincreasing for gamma >= 1, increasing towards its limit 1 otherwise
        if gamma >= 1.0:
            return 1.0
        return r / (gamma + r - 1) if gamma + r - 1 > 0.0 else math.inf

    return _sum_series(row, grow, z, lambda: f"E^{gamma}_({alpha},{beta})({z})", ratio_factor)


def wright(alpha, mu, z):
    """Wright function W_{alpha,mu}(z) = sum z**r / (r! Gamma(mu+alpha*r))."""
    return WrightSeries(alpha, mu)(z)


class WrightSeries(MLSeries):
    """W_{alpha,mu}(z) at many arguments z, as :func:`wright` computes it,
    sharing the row of gamma terms like :class:`MLSeries`."""

    _symbol, _param, _factorial = "W", "mu", True

    def __init__(self, alpha, mu):
        super().__init__(alpha, mu)
        self.mu = mu


def relaxation_cole_cole(alpha, tau, t):
    """Cole-Cole relaxation E_alpha(-(t/tau)**alpha); equals 1 at t = 0.

    alpha = 1 is the Debye limit exp(-t/tau).
    """
    half_open_unit(alpha, "alpha")
    positive(tau, "tau")
    nonnegative(t, "t")
    return ml_one(alpha, -((t / tau) ** alpha)).value


def relaxation_hn(alpha, beta, tau, t):
    """Havriliak-Negami relaxation
    1 - (t/tau)**(alpha*beta) * E^beta_{alpha,1+alpha*beta}(-(t/tau)**alpha).

    beta = 1 recovers the Cole-Cole function.
    """
    half_open_unit(alpha, "alpha")
    positive(beta, "beta")
    positive(tau, "tau")
    nonnegative(t, "t")
    if t == 0.0:
        return 1.0
    u = (t / tau) ** alpha
    prab = ml_three(alpha, 1.0 + alpha * beta, beta, -u).value
    _check_power(u, beta, "u")
    return 1.0 - u ** beta * prab
