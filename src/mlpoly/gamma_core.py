"""Gamma-function kernel.

Everything downstream reduces to gamma ratios: the fractional binomial,
the Stieltjes moments of the one-sided Levy stable law, and the moments of
the subordination density.  Ratios are always evaluated as ``exp`` of
log-gamma differences, never as quotients of two gamma values, so that
moderately large arguments cannot overflow an intermediate.  Single values
come from ``math.gamma`` while it is finite: it is accurate to a few ulps
(exact at small integers), where ``exp`` of a log-gamma value inherits the
rounding of a number of size |log Gamma|.  Everything is standard library.
"""

import functools
import math

from ._validate import degree, finite, half_open_unit, open_unit, positive_finite
from .errors import DomainError, FloatOverflowError, IndeterminateFormError

_PI = math.pi
_INF = math.inf

#: the largest n with n! in the double range
_MAX_DEGREE = 170


def _nonpos_int(x):
    """True exactly on the poles of the gamma function (0, -1, -2, ...).

    Exact comparison on purpose: float integers are exact, and arguments a
    few ulps off a pole have perfectly representable (tiny or huge) values.
    """
    return x <= 0.0 and x == round(x)


def _near_pole(x):
    """Noise-tolerant pole detection for user-supplied ratio arguments."""
    r = round(x)
    return r <= 0 and abs(x - r) <= 1e-12 * max(1.0, abs(x))


def _lgamma(x):
    """log|Gamma(x)| away from the poles, +inf where it leaves the double range
    (``math.lgamma`` raises there)."""
    try:
        return math.lgamma(x)
    except OverflowError:
        return math.inf


def _math_gamma(arg, x):
    """``math.gamma(arg)``, or :class:`FloatOverflowError` naming x when the
    value leaves the double-precision range."""
    try:
        return math.gamma(arg)
    except OverflowError:
        raise FloatOverflowError(
            f"Gamma({arg!r}) exceeds the double-precision range at x = {x!r}"
        ) from None


def _sinpi(x):
    # sin(pi*x) with argument reduction; plain sin(pi*x) loses relative
    # accuracy near the integers where the reflection formula needs it most.
    n = round(x)
    s = math.sin(_PI * (x - n))
    return -s if n % 2 else s


def ln_gamma(x):
    """Natural log of the gamma function for x > 0."""
    finite(x, "x")
    if x <= 0.0:
        raise DomainError(f"ln_gamma requires x > 0, got {x}")
    return _lgamma(x)


def gamma(x):
    """Gamma function on the real line; raises at the poles 0, -1, -2, ...,
    and :class:`FloatOverflowError` where a gamma value leaves the double range."""
    finite(x, "x")
    if x >= 0.5:
        return _math_gamma(x, x)
    if _nonpos_int(x):
        raise DomainError(f"gamma pole at x = {x}")
    # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x); the quotient overflows
    # next to the pole at 0
    value = _PI / (_sinpi(x) * _math_gamma(1.0 - x, x))
    if not -_INF < value < _INF:
        raise FloatOverflowError(f"Gamma({x!r}) exceeds the double-precision range at x = {x!r}")
    return value


def rgamma(x):
    """Reciprocal gamma 1/Gamma(x), entire in x.

    Returns exactly 0.0 at the poles x = 0, -1, -2, ...; elsewhere the
    relative error target is 1e-12.
    """
    finite(x, "x")
    if x >= 0.5:
        return 1.0 / math.gamma(x) if x < 171.0 else math.exp(-_lgamma(x))
    if _nonpos_int(x):
        return 0.0
    # 1/Gamma(x) = sin(pi x) Gamma(1-x) / pi; for very negative x, Gamma(1-x)
    # overflows as 1/Gamma(x) itself leaves the double range
    return _sinpi(x) * _math_gamma(1.0 - x, x) / _PI


def log_abs_rgamma(x):
    """(sign, log) decomposition of 1/Gamma(x): 1/Gamma(x) = sign * exp(log).

    At the poles of Gamma the pair ``(0.0, -inf)`` is returned, i.e. the
    reciprocal is an exact zero.  Used by the series evaluators to combine
    z**r / Gamma(arg) in log space without intermediate overflow.
    """
    if 0.5 <= x < _INF:  # the series' common case, in one call
        try:
            return 1.0, -math.lgamma(x)
        except OverflowError:  # log Gamma(x) beyond the double range
            return 1.0, -_INF
    finite(x, "x")
    if _nonpos_int(x):
        return 0.0, -math.inf
    s = _sinpi(x)
    sign = 1.0 if s > 0 else -1.0
    return sign, math.log(abs(s)) + _lgamma(1.0 - x) - math.log(_PI)


def factorial_ratios(n, denominators):
    """n! / d for each d in the tuple ``denominators``, as floats rounded once
    from the exact quotient.

    Each d must divide n!, as in a binomial or multinomial coefficient; any
    other d (zero, a non-integral or non-finite float) is refused with a
    :class:`DomainError`.  A quotient beyond the double-precision range
    raises :class:`FloatOverflowError` naming n.
    """
    nfact = math.factorial(degree(n, "n"))
    ratios = []
    try:
        for d in denominators:
            quotient, remainder = divmod(nfact, d) if d else (0, 1)  # 0 divides nothing
            if remainder:  # also a NaN, an infinite or a non-integral d
                raise DomainError(f"denominator {d!r} does not divide {n}!")
            ratios.append(float(quotient))
    except OverflowError:
        raise _factor_overflow(n) from None
    return ratios


def _factor_overflow(n, name="n"):
    return FloatOverflowError(
        f"{name} = {n}: an integer factor {name}!/(...) exceeds the double-precision range"
    )


def _check_degree(n, name="n"):
    """Refuse a degree whose factorial leaves the double range, before any is built."""
    if n > _MAX_DEGREE:
        raise _factor_overflow(n, name)


def _row_cache(maxsize):
    """Share the rows that ``build(top, *params)`` returns, per (top, *params).

    A row must be immutable (a tuple), since every caller gets the same one.
    Keys are typed: an int and a float that compare equal can give different
    arguments (beta + alpha*r is exact in ints only), so they get their own
    rows.  A degree past ``_MAX_DEGREE`` is valid but rare, and its row is
    built and not kept, so the cache holds at most ``maxsize`` rows of at most
    ``_MAX_DEGREE + 1`` entries.
    """
    def wrap(build):
        cached = functools.lru_cache(maxsize=maxsize, typed=True)(build)

        @functools.wraps(build)
        def row(top, *params):
            return (cached if top <= _MAX_DEGREE else build)(top, *params)

        row.cache_info, row.cache_clear = cached.cache_info, cached.cache_clear
        return row

    return wrap


def _rgammas(top, alpha, beta):
    """The row rgamma(beta + alpha*r), r = 0..top, as a tuple: the reciprocal
    gammas that both polynomial families and the Laguerre solution sum against.

    The arguments run monotonically in r, so beta + alpha*top is the largest
    in magnitude: where it leaves the double range, the row is refused by its
    name before any entry is built."""
    _check_gamma_argument(top, alpha, beta)
    return tuple([rgamma(beta + alpha * r) for r in range(top + 1)])


def _check_gamma_argument(n, alpha, beta):
    """Refuse, by its name, a gamma argument beta + alpha*n beyond the double range."""
    try:
        arg = beta + alpha * n
    except OverflowError:  # an int n with no float value: alpha*n rounded once
        num, den = alpha.as_integer_ratio()
        try:
            arg = beta + num * n / den
        except OverflowError:
            arg = _INF
    if abs(arg) == _INF:
        raise FloatOverflowError(
            f"beta + alpha*{n} exceeds the double-precision range at "
            f"alpha = {alpha!r}, beta = {beta!r}"
        )


def _dyadic(values):
    """Integers m_i and one exponent e <= 0 with m_i * 2**e == values[i] exactly, for
    finite floats.  Exact sums and products of the values are integer ones."""
    ratios = list(map(float.as_integer_ratio, values))
    top = max([d for _, d in ratios]).bit_length()
    return [m << (top - d.bit_length()) for m, d in ratios], 1 - top


def _round_dyadic(num, e, den=1):
    """num * 2**e / den for integers num, e and den != 0, rounded once to the
    nearest float; ``OverflowError`` beyond the double-precision range."""
    return (num << e) / den if e >= 0 else num / (den << -e)


def _powers(v, top, name):
    """[v**0, v**1, ..., v**top]; ``name`` is v's name in the overflow error."""
    try:
        return [v ** e for e in range(top + 1)]
    except OverflowError:
        raise _power_overflow(v, top, name) from None


def _power_columns(values, top, name):
    """[[v**e for v in values] for e = 0..top], one column per power; where a
    power overflows, the refusal of :func:`_powers` for the first such v."""
    try:
        return [[v ** e for v in values] for e in range(top + 1)]
    except OverflowError:
        for v in values:
            _check_power(v, top, name)
        raise


def _check_power(v, top, name):
    """Raise what :func:`_powers` raises, without the list: v**top overflows
    exactly when some v**e, e <= top, does."""
    try:
        v ** top
    except OverflowError:  # also an int top with no float value, which only |v| > 1 overflows
        if top < 0 or abs(v) > 1.0:
            raise _power_overflow(v, top, name) from None


def _power_overflow(v, top, name):
    return FloatOverflowError(
        f"{name}**{top} exceeds the double-precision range at {name} = {v!r}"
    )


def _in_range(value, name):
    """``value``, or :class:`FloatOverflowError` where the sum ``name`` left the
    double range (an infinity, or the NaN of inf - inf).  Only the scalar
    routes check: on a grid the CLI's output gate names the point."""
    if -math.inf < value < math.inf:
        return value
    raise FloatOverflowError(f"{name} is {value!r}: it leaves the double-precision range")


def _worst(*gaps):
    """The largest of ``gaps``, or NaN if any is NaN (``max`` drops a NaN that is not first)."""
    return math.nan if any(map(math.isnan, gaps)) else max(gaps)


def frac_binom(n, r, alpha):
    """Fractional binomial coefficient Gamma(1+a*n) / [Gamma(1+a*r) Gamma(1+a*(n-r))].

    Reduces to the ordinary binomial coefficient at alpha = 1.  Where the
    coefficient or a gamma value in it leaves the double range, a
    :class:`FloatOverflowError` names (n, r, alpha).
    """
    degree(n, "n")
    degree(r, "r")
    if r > n:
        raise DomainError(f"require r <= n, got r={r} > n={n}")
    half_open_unit(alpha, "alpha")
    try:
        if alpha == 1.0:
            k = min(int(r), int(n) - int(r))
            # C(n, k) >= (n/k)**k: refuse before math.comb builds a huge integer,
            # a nat past log(FLOAT_MAX) = 709.78 so that no double is refused
            if k and k * (math.log(n) - math.log(k)) > 711.0:
                raise OverflowError
            return float(math.comb(int(n), k))
        value = math.exp(
            _lgamma(1.0 + alpha * n)
            - _lgamma(1.0 + alpha * r)
            - _lgamma(1.0 + alpha * (n - r))
        )
    except OverflowError:  # also an int n with no float value
        value = _INF
    if value < _INF:  # not inf, nor the NaN of inf - inf
        return value
    raise FloatOverflowError(
        f"C_alpha(n, r) at n = {n!r}, r = {r!r}, alpha = {alpha!r}: a gamma value "
        "or the coefficient exceeds the double-precision range"
    )


def stieltjes_moment(alpha, sigma):
    """Moment of order sigma of the one-sided Levy stable law:
    Gamma(1 - sigma/alpha) / Gamma(1 - sigma).

    For sigma = -alpha*k with integer k >= 0 this is k! / Gamma(1 + alpha*k),
    the form the umbral shift produces.  When both gamma arguments sit on
    poles the ratio is 0/0 and an :class:`IndeterminateFormError` is raised;
    a pole in the numerator alone also has no finite value.
    """
    open_unit(alpha, "alpha")
    finite(sigma, "sigma")
    ratio = sigma / alpha
    if not -_INF < ratio < _INF:
        raise FloatOverflowError(
            f"sigma/alpha exceeds the double-precision range at sigma = {sigma!r}, "
            f"alpha = {alpha!r}"
        )
    num_arg = 1.0 - ratio
    den_arg = 1.0 - sigma
    num_pole = _near_pole(num_arg)
    den_pole = _near_pole(den_arg)
    if num_pole and den_pole:
        raise IndeterminateFormError(
            f"0/0 form: both Gamma({num_arg}) and Gamma({den_arg}) are poles"
        )
    if num_pole:
        raise IndeterminateFormError(
            f"Gamma({num_arg}) pole: moment formula diverges at sigma={sigma}"
        )
    if den_pole:
        return 0.0
    return gamma(num_arg) * rgamma(den_arg)


def levy_subordination_moment(beta, m, t):
    """m-th moment of the inverse-stable subordination density:
    m! * t**(beta*m) / Gamma(1 + beta*m).
    """
    open_unit(beta, "beta")
    m = degree(m, "m")
    positive_finite(t, "t")
    _check_degree(m, "m")
    try:
        scaled = math.factorial(m) * t ** (beta * m)
    except OverflowError:
        scaled = _INF
    if scaled < _INF:
        return scaled * rgamma(1.0 + beta * m)
    # m! alone takes most of the range (170! ~ 7e306): divide by Gamma(1 + beta*m)
    # before scaling by t**(beta*m)
    try:
        moment = math.factorial(m) * rgamma(1.0 + beta * m) * t ** (beta * m)
    except OverflowError:
        moment = _INF
    if moment == _INF:
        raise FloatOverflowError(
            f"m! t**(beta*m) exceeds the double-precision range at t = {t!r}"
        )
    return moment
