"""Series evaluators for the Mittag-Leffler family and the Wright function.

All evaluators share one engine, :func:`_sum_series`, the one summation
loop.  It forms entry r of the coefficient row inline as ``(sign, a, b, p)``:

* ``sign`` the sign of the coefficient (0.0 for an exact-zero term, at a
  pole of Gamma or past a Pochhammer truncation),
* ``a`` the log of the coefficient's numerator (``-log|Gamma(beta+alpha*r)|``
  from ``gamma_core.log_abs_rgamma``, plus ``log|(gamma)_r|`` in the Prabhakar
  function, whose sign and log the loop carries from term to term),
* ``b`` the log of its denominator (``log r!``, or 0.0 in E_{alpha,beta}),
* ``p`` the magnitude of the numerator's log pieces (``|a|``, or
  ``|log|(gamma)_r|| + |log|1/Gamma||``),

and term r as ``sign * zsign * exp((a + r*log|z|) - b)`` in log space (so huge
intermediate terms cannot overflow), where zsign is the sign of z**r.
:class:`MLSeries` and :class:`WrightSeries` keep their entries, which do not
depend on z, in a row shared across arguments.  The terms are summed with
Neumaier compensation, and the run stops once two consecutive terms fall
below ``tol * |partial sum|`` and the geometric bound on the neglected tail,
``|t_r| rho / (1 - rho)`` with ``rho`` the last term ratio, falls below
``tol/2 * |partial sum|``, where ``tol`` is ``config.SERIES_TOL``; a run gives
up after ``config.TERM_BUDGET`` terms.  Both change only inside
``config.override``: no evaluator takes a per-call tolerance or budget.  The
tail bound is certified once the term ratios can no longer increase: Gamma is
log-convex, so Gamma(x)/Gamma(x + alpha) decreases for x > 0 (Gorenflo,
Loutchko & Luchko, Fract. Calc. Appl. Anal. 5 (2002); Hilfer & Seybold,
Integral Transforms Spec. Funct. 17 (2006)).  The returned error estimate is
a documented heuristic, not a proven bound: the last two terms plus the tail
bound (truncation), plus ``8 * eps * sum|terms|`` (summation rounding under
cancellation), plus ``32 * eps * max_exponent * |value|`` (rounding of the
log-space exponents themselves, which dominates when the terms carry
exponents of hundreds).  An evaluation whose estimate exceeds
``HONESTY_FACTOR * max(tol*|value|, tol)`` is refused with a
:class:`ConvergenceError` instead of silently returning cancellation noise —
this is what bounds the honest domain for strongly alternating arguments
(large negative z at small alpha).  Every refusal carries its ``reason``:
``"budget"``, ``"honesty"`` or ``"overflow"``.
"""

import math
from collections import namedtuple

from . import config
from ._validate import FLOAT_MAX, finite, half_open_unit, nonnegative_finite, positive, positive_finite
from .errors import ConvergenceError, DomainError, FloatOverflowError
from .gamma_core import _check_power, log_abs_rgamma

_EPS = 2.220446049250313e-16
_SUM_ERR_FACTOR = 8.0
_EXP_ERR_FACTOR = 32.0


def _argument_overflow(expr):
    """The refusal of a series argument, the quantity ``expr``, beyond the double range."""
    return FloatOverflowError(f"{expr} exceeds the double-precision range")


def _series_argument(expr, compute):
    """``compute()``, or :class:`FloatOverflowError` naming the quantity ``expr``."""
    try:
        z = compute()
    except (OverflowError, ZeroDivisionError):  # where float * and / give inf, ** and /0 raise
        z = math.inf
    if not math.isfinite(z):  # inf, or the NaN of inf * 0
        raise _argument_overflow(expr)
    return z


def _argument_column(expr, zs):
    """The list ``zs`` of a grid's series arguments, or the refusal of
    :func:`_series_argument` where one is not finite: one pass over the column."""
    if all(map(math.isfinite, zs)):
        return zs
    raise _argument_overflow(expr)


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


def _ratio_factor(r, alpha, beta, gamma):
    """m with every term ratio |t_(k+1)/t_k|, k >= r >= 1, at most m * |t_r/t_(r-1)|,
    or inf where no such m is known.  Beside |z|, a ratio is the quotient
    Gamma(beta+alpha(r-1)) / Gamma(beta+alpha r), which stops increasing once
    both arguments are positive (Gamma is log-convex), times 1, 1/r (in W) or
    |gamma+r-1|/r (Prabhakar, beta > 0): nonincreasing for gamma >= 1 and
    increasing towards 1 otherwise."""
    if gamma is None:
        return 1.0 if beta + alpha * (r - 1) > 0.0 else math.inf
    if gamma >= 1.0:
        return 1.0
    return r / (gamma + r - 1) if gamma + r - 1 > 0.0 else math.inf


def _sum_series(alpha, beta, z, factorial=False, gamma=None, row=None):
    """Compensated summation of sum_r c_r z**r with stop control: c_r is
    1/Gamma(beta+alpha*r), times 1/r! when ``factorial``, and times (gamma)_r
    when ``gamma`` is not None (the Prabhakar function, with ``factorial``).

    The loop forms entry r ``(sign, a, b, p)`` as the module docstring
    describes; ``(p + |r*log|z||) + b`` is the magnitude of the log-space
    exponent pieces of term r.  ``row``, if not None, is the list of entries
    that calls of one series without ``gamma`` share: the loop reads the
    entries in it and appends those it forms.  The series is named only in a
    refusal, formatted then.  The tolerance and term budget are
    ``config.SERIES_TOL`` and ``config.TERM_BUDGET``.
    """
    tol, budget = config.SERIES_TOL, config.TERM_BUDGET
    exp, lgamma = math.exp, math.lgamma
    rgam = log_abs_rgamma  # the module's binding at call time, which a tracer may swap
    ninf = -math.inf
    # log|z| (-inf at z = 0), taken once: z**r has log-magnitude r*log|z| and,
    # when z < 0, sign -1 for odd r
    zlog1 = math.log(abs(z)) if z != 0.0 else ninf
    zflip = -1.0 if z < 0.0 else 1.0
    zsign = 1.0
    built = len(row) if row else 0
    psign, plog = 1.0, 0.0  # (gamma)_r as sign and log
    s = comp = sum_abs = tail = 0.0
    max_scale = 1.0
    prev = math.inf
    converged = False
    for r in range(budget):
        try:
            if r < built:
                sign, a, b, p = row[r]
            elif gamma is None:
                sign, a = rgam(beta + alpha * r)
                b = lgamma(r + 1) if factorial else 0.0
                p = abs(a)
                if row is not None:
                    row.append((sign, a, b, p))
            else:  # (gamma)_r = (gamma)_(r-1) (gamma+r-1), zero from a zero factor on
                factor = gamma + (r - 1)
                if r and (psign == 0.0 or factor == 0.0):
                    psign = 0.0
                elif r:
                    psign = -psign if factor < 0.0 else psign
                    plog += math.log(abs(factor))
                sign = psign
                if psign != 0.0:
                    gsign, glog = rgam(beta + alpha * r)
                    sign, a, b, p = psign * gsign, plog + glog, lgamma(r + 1), abs(plog) + abs(glog)
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
                f"{_label(alpha, beta, z, factorial, gamma)}: term {r} overflows the "
                f"double-precision range (partial={value!r})",
                partial=value, terms_used=r, reason="overflow",
            ) from None
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
        if at <= thresh and r >= 1 and abs(prev) <= thresh:
            tail = _tail_bound(at, abs(prev), _ratio_factor(r, alpha, beta, gamma))
            if tail <= 0.5 * thresh:
                converged = True
                break
            tail = 0.0
        prev = t
        zsign *= zflip
    used = r + 1  # config.override keeps the budget >= 1, so the loop ran
    value = s + comp
    estimate = (
        at
        + (abs(prev) if math.isfinite(prev) else 0.0)
        + tail
        + _SUM_ERR_FACTOR * _EPS * sum_abs
        # an exact zero has no exponent rounding, even where a log-gamma
        # scale left the double range (inf * 0 would be NaN)
        + (_EXP_ERR_FACTOR * _EPS * max_scale * abs(value) if value else 0.0)
    )
    if not converged:
        raise ConvergenceError(
            f"{_label(alpha, beta, z, factorial, gamma)}: no convergence within {budget} "
            f"terms (partial={value!r}, estimate={estimate!r})",
            partial=value, error_estimate=estimate, terms_used=used, reason="budget",
        )
    allowance = config.HONESTY_FACTOR * max(tol * abs(value), tol)
    if estimate > allowance:
        raise ConvergenceError(
            f"{_label(alpha, beta, z, factorial, gamma)}: rounding floor {estimate:.3e} "
            f"exceeds the honest allowance {allowance:.3e}; the argument lies outside the "
            f"double-precision domain (partial={value!r})",
            partial=value, error_estimate=estimate, terms_used=used, reason="honesty",
        )
    # a sum of nonnegative terms: EvalResult's check of the estimate cannot fail
    return tuple.__new__(EvalResult, (value, estimate, used))


def _label(alpha, beta, z, factorial, gamma):
    """The series' name in a refusal."""
    head = f"E^{gamma}" if gamma is not None else "W" if factorial else "E"
    return f"{head}_({alpha},{beta})({z})"


def ml_one(alpha, z):
    """One-parameter Mittag-Leffler function E_alpha(z) = sum z**r / Gamma(1+alpha*r)."""
    return ml_two(alpha, 1.0, z)


def ml_two(alpha, beta, z):
    """Two-parameter (Wiman) function E_{alpha,beta}(z) = sum z**r / Gamma(beta+alpha*r).

    beta = 0 is legal: the r = 0 term carries 1/Gamma(0) = 0 and drops out.
    """
    series = MLSeries(alpha, beta)
    series._row = None  # called once: no row to keep
    return series(z)


class MLSeries:
    """E_{alpha,beta}(z) at many arguments z, as :func:`ml_two` computes it.

    The row of gamma terms is computed once per index r and shared by every
    z, so a grid pays the gamma kernel once per index rather than once per
    term.  Each call keeps its own stopping rule and error estimate.
    :class:`WrightSeries` is the same series with 1/r! in each term.
    """

    _param, _factorial = "beta", False

    def __init__(self, alpha, beta):
        positive_finite(alpha, "alpha")
        if not -FLOAT_MAX <= beta <= FLOAT_MAX:
            finite(beta, self._param, f"{self._param} and z must be finite")
        self.alpha = alpha
        self.beta = beta
        # the entries _sum_series forms, in order of r; None in a series called once
        self._row = []

    def __call__(self, z):
        if not -FLOAT_MAX <= z <= FLOAT_MAX:
            finite(z, "z", f"{self._param} and z must be finite")
        return _sum_series(self.alpha, self.beta, z, self._factorial, row=self._row)


def ml_three(alpha, beta, gamma, z):
    """Three-parameter (Prabhakar) function
    E^gamma_{alpha,beta}(z) = sum (gamma)_r z**r / (r! Gamma(beta+alpha*r)).

    The Pochhammer weight is accumulated as the running product
    gamma (gamma+1) ... (gamma+r-1), so a negative integer gamma truncates
    the series exactly.
    """
    # one comparison chain where every check below would pass
    if not (0.0 < alpha <= FLOAT_MAX and 0.0 < beta <= FLOAT_MAX
            and -FLOAT_MAX <= gamma <= FLOAT_MAX and -FLOAT_MAX <= z <= FLOAT_MAX):
        MLParams(alpha, beta, gamma)  # validates alpha and finiteness
        if not beta > 0.0:
            raise DomainError(f"beta must be positive here, got {beta}")
        finite(z, "z", "z must be finite")
    return _sum_series(alpha, beta, z, True, gamma)


def wright(alpha, mu, z):
    """Wright function W_{alpha,mu}(z) = sum z**r / (r! Gamma(mu+alpha*r))."""
    series = WrightSeries(alpha, mu)
    series._row = None  # called once: no row to keep
    return series(z)


class WrightSeries(MLSeries):
    """W_{alpha,mu}(z) at many arguments z, as :func:`wright` computes it,
    sharing the row of gamma terms like :class:`MLSeries`."""

    _param, _factorial = "mu", True

    def __init__(self, alpha, mu):
        super().__init__(alpha, mu)
        self.mu = mu


def relaxation_cole_cole(alpha, tau, t):
    """Cole-Cole relaxation E_alpha(-(t/tau)**alpha); equals 1 at t = 0.

    alpha = 1 is the Debye limit exp(-t/tau).
    """
    half_open_unit(alpha, "alpha")
    positive_finite(tau, "tau")
    nonnegative_finite(t, "t")
    z = -((t / tau) ** alpha)
    if not -FLOAT_MAX <= z:  # t/tau overflowed
        raise _argument_overflow("(t/tau)**alpha")
    return ml_one(alpha, z).value


def relaxation_hn(alpha, beta, tau, t):
    """Havriliak-Negami relaxation
    1 - (t/tau)**(alpha*beta) * E^beta_{alpha,1+alpha*beta}(-(t/tau)**alpha).

    beta = 1 recovers the Cole-Cole function.
    """
    half_open_unit(alpha, "alpha")
    positive_finite(beta, "beta")
    positive_finite(tau, "tau")
    nonnegative_finite(t, "t")
    if t == 0.0:
        return 1.0
    u = (t / tau) ** alpha
    if not u <= FLOAT_MAX:  # t/tau overflowed
        raise _argument_overflow("(t/tau)**alpha")
    prab = ml_three(alpha, 1.0 + alpha * beta, beta, -u).value
    _check_power(u, beta, "u")
    return 1.0 - u ** beta * prab
