"""Closed-form solutions of five fractional Cauchy problems.

Time-fractional diffusion (Caputo derivative of order alpha in t):

    D_t^alpha F = k d^2/dx^2 F,      F(x, 0) = f(x)

whose polynomial solutions are fractional Hermite polynomials evaluated at
y = k t**alpha.  Cases (by initial datum): a monomial x**n or a power
series (solve_tf_diffusion), a classical Hermite polynomial H_n(x, a)
(solve_case_i), and a fractional Hermite polynomial (solve_case_ii).

Laguerre-type evolution, with K = CaputoD_x^alpha . x d/dx:

    D_t^beta G = -(b/alpha) K G,     G(x, 0) = g(x)

solved for the scaled monomial datum (-x**alpha)**n/Gamma(1+alpha*n) via
subordination moments (solve_laguerre_monomial) and for a Wright-function
datum, where the solution factorizes (solve_laguerre_wright).

A problem is a record (:class:`DiffusionProblem`, :class:`LaguerreProblem`)
that checks its parameters once.  :func:`plan` builds its grid plan
(:class:`GridPlan`), which evaluates the solution on a list of x points at
fixed t, or of t points at fixed x, for any t >= 0.  It evaluates the whole
grid at once, one column per power or term, with every point getting the
floating-point operations of the direct sum in the same order.  The scalar
solve_* functions evaluate one point, :meth:`GridPlan.at`, to the same bits
(a diffusion plan by the scalar sums, a Laguerre plan as a one-point grid).
Where a grid is refused, its points are walked one at a time in grid order,
so that the first failing point raises its own refusal.  A diffusion plan is
the fractional-Hermite sum of :mod:`.fractional_hermite` (the weighted sum
that its convolution identities evaluate) at w = k t**alpha; the plan of a
fractional-Hermite datum also evaluates the (+)_alpha route at every point
and refuses the first point, in grid order, where the two disagree.

:func:`residual` substitutes a solution back into its equation.  It reads the
solution from the plan itself (for diffusion, from the plain sum, without the
(+)_alpha route), as a list of terms c x**i t**(alpha*j) (or
c x**(alpha*i) t**(beta*j)), so it checks the rows that the solvers use; both
sides become a bivariate coefficient table keyed by (i, j), and the check is
algebraic: no grids, no discretization error.  Residuals are reported
coefficient-wise, normalized by the local coefficient magnitude, since the
raw entries grow like n!.
"""

import math
from collections import namedtuple
from itertools import chain, repeat
from operator import lt

from . import config
from ._validate import (
    degree,
    finite,
    finite_each,
    finite_float,
    half_open_unit,
    nonnegative_finite,
    nonnegative_finite_each,
    open_unit,
    positive_finite,
)
from .caputo import caputo_monomial
from .errors import DomainError, FloatOverflowError, MLPolyError, VerificationError
from .fractional_hermite import _convolution_degrees, _fhp_table, _FhpSum, _OplusSum
from .gamma_core import (
    _check_degree,
    _in_range,
    _power_columns,
    _powers,
    _rgammas,
    _worst,
    factorial_ratios,
)
from .mittag_leffler import MLSeries, WrightSeries, _argument_column


# -- initial data ---------------------------------------------------------------


class MonomialInitial(namedtuple("MonomialInitial", "n")):
    """f(x) = x**n."""
    __slots__ = ()


class HermiteInitial(namedtuple("HermiteInitial", "n a")):
    """f(x) = H_n(x, a), the classical two-variable Hermite polynomial."""
    __slots__ = ()


class FhpInitial(namedtuple("FhpInitial", "n a")):
    """f(x) = H[alpha]_n(x, a), a fractional Hermite polynomial."""
    __slots__ = ()


class SeriesInitial(namedtuple("SeriesInitial", "coeffs")):
    """f(x) = sum_r coeffs[r] * x**r (truncated power series)."""
    __slots__ = ()

    def __new__(cls, coeffs):
        coeffs = tuple(finite_float(c, f"coeffs[{i}]") for i, c in enumerate(coeffs))
        if not coeffs:
            raise DomainError("a series datum needs at least one coefficient")
        return tuple.__new__(cls, (coeffs,))


class LaguerreMonomialInitial(namedtuple("LaguerreMonomialInitial", "n")):
    """g(x) = (-x**alpha)**n / Gamma(1 + alpha*n)."""
    __slots__ = ()


class WrightInitial(namedtuple("WrightInitial", "y")):
    """g(x) = W_{alpha,1}(-y * x**alpha)."""
    __slots__ = ()


class DiffusionProblem(namedtuple("DiffusionProblem", "alpha k initial")):
    __slots__ = ()

    def __new__(cls, alpha, k, initial):
        open_unit(alpha, "alpha")
        positive_finite(k, "diffusivity k")
        if not isinstance(initial, (MonomialInitial, HermiteInitial, FhpInitial, SeriesInitial)):
            raise DomainError(f"unsupported initial datum: {initial!r}")
        return tuple.__new__(cls, (alpha, k, initial))


class LaguerreProblem(namedtuple("LaguerreProblem", "alpha beta b initial")):
    __slots__ = ()

    def __new__(cls, alpha, beta, b, initial):
        open_unit(alpha, "alpha")
        half_open_unit(beta, "beta")
        positive_finite(b, "b")
        if not isinstance(initial, (LaguerreMonomialInitial, WrightInitial)):
            raise DomainError(f"unsupported initial datum: {initial!r}")
        return tuple.__new__(cls, (alpha, beta, b, initial))


def _floats(seq, name):
    try:
        return tuple(map(float, seq))
    except OverflowError:  # an int beyond the double range
        raise FloatOverflowError(f"a {name} exceeds the double-precision range") from None


class SolutionProfile(namedtuple("SolutionProfile", "grid values meta")):
    """A solution sampled on a strictly increasing grid, plus its provenance.

    ``meta`` defaults to a new empty dict.
    """

    __slots__ = ()

    def __new__(cls, grid, values, meta=None):
        grid = _floats(grid, "grid point")
        values = _floats(values, "value")
        if len(grid) != len(values):
            raise DomainError(
                f"grid and values must have equal length, got {len(grid)} vs {len(values)}"
            )
        if not all(map(lt, grid, grid[1:])):  # a NaN fails too
            raise DomainError("grid must be strictly increasing")
        return tuple.__new__(cls, (grid, values, {} if meta is None else meta))

    def to_csv(self):
        """The line ``grid,value``, then one line per point, each number to 15
        significant digits, all in one formatting call."""
        points = tuple(chain.from_iterable(zip(self.grid, self.values)))
        return "grid,value\n" + "%.15g,%.15g\n" * len(self.grid) % points


# -- grid plans -------------------------------------------------------------------


def _broadcast(columns):
    """The columns of a one-point side, each an endless repeat of its one value."""
    return [repeat(column[0]) for column in columns]


class GridPlan:
    """The part of a problem's solution u(x, t) that no grid point changes.

    A plan is built once from the problem's parameters and holds every factor
    that depends on neither x nor t.  It evaluates a whole grid at once, one
    column per power or term: ``_x_columns(xs)`` computes what depends on x
    alone, as columns over the points xs, ``_t_columns(ts)`` what depends on
    t alone, and ``_combine`` forms the products and running sums of the two,
    one list comprehension over the zipped columns per term (faster than
    chained ``map(mul, ...)`` in CPython 3.11, with the same operations).
    The side a grid holds fixed is computed at its one point and broadcast
    with :func:`itertools.repeat`.  Every point gets the floating-point
    operations of the direct sum in the same order, each running sum from
    0.0, so every value, the sign of a zero included, is the same to the last
    bit as the scalar ``solve_*`` function gives at that point.  :meth:`at`
    evaluates one point as a one-point grid; a plan with a cheaper scalar
    route for one point overrides it with the same operations.

    The fixed side is checked first, so its refusal comes first, as it
    always has.  Where the column pass over the grid raises, the points are
    walked through :meth:`at` in grid order, so that the first failing point
    raises its own refusal, as a per-point loop would.
    """

    def at(self, x, t):
        """The solution at one point (x, t)."""
        return self.along_t(x, [t])[0]

    def along_x(self, t, xs):
        """The solution at fixed t over the points of the sequence xs, as a list."""
        fixed = _broadcast(self._t_columns([t]))
        try:
            return self._combine(self._x_columns(xs), fixed)
        except MLPolyError:
            if len(xs) < 2:  # the refusal of the pass is the one point's own
                raise
        return [self.at(x, t) for x in xs]

    def along_t(self, x, ts):
        """The solution at fixed x over the points of the sequence ts, as a list."""
        fixed = _broadcast(self._x_columns([x]))
        try:
            return self._combine(fixed, self._t_columns(ts))
        except MLPolyError:
            if len(ts) < 2:  # the refusal of the pass is the one point's own
                raise
        return [self.at(x, t) for t in ts]


def _agree(by_series, by_oplus):
    """Refuse the first point, in order, where the two closed routes of a
    fractional-Hermite datum disagree beyond the identity tolerance (a NaN
    gap, where both routes are infinite, disagrees)."""
    rtol, atol = config.IDENTITY_RTOL, config.IDENTITY_ATOL
    for s, o in zip(by_series, by_oplus):
        if not abs(s - o) <= max(rtol * max(abs(s), abs(o)), atol):
            raise VerificationError(
                f"the two closed forms disagree: |{s!r} - {o!r}| = {abs(s - o):.3e}"
            )


class _FhpPlan(GridPlan):
    """A fractional-Hermite sum (an :class:`_FhpSum`) at w = k t**alpha, t >= 0.

    The x columns are the powers of x; the t columns are the sum's
    coefficients (m!/(m-2r)! * w**r) * rgamma(1+alpha*r), yielded degree by
    degree as the sum takes them, so that only the powers of w are held.
    At t = 0 the sum is the initial datum.  Where :func:`plan` sets the
    (+)_alpha route ``_oplus``, the t columns go on with its rows
    (w (+)_alpha a)**r, and every point compares the two routes.
    """

    def __init__(self, fsum, alpha, k):
        self._sum = fsum
        self._table = fsum._table
        self._weights = fsum._weights
        self._alpha = alpha
        self._k = k
        self._oplus = None

    def at(self, x, t):
        """One point by the scalar sums of the convolution identities: a grid
        point's operations, without one-element columns."""
        table = self._table
        xp = table.x_powers(x)
        nonnegative_finite(t, "t")
        wp = table.y_powers(self._k * t ** self._alpha)
        by_series = self._sum._formula(xp, table.coeffs(wp))
        if self._oplus is not None:
            _agree((by_series,), (self._oplus._formula(xp, self._oplus._rows(wp)),))
        return by_series

    def _x_columns(self, xs):
        finite_each(xs, "x")
        return _power_columns(xs, self._table.top, "x")

    def _t_columns(self, ts):
        nonnegative_finite_each(ts, "t")
        k, alpha, table = self._k, self._alpha, self._table
        wp = _power_columns([k * t ** alpha for t in ts], table.top // 2, "y")
        for row in table.ratios:
            for ratio, wr, rg in zip(row, wp, table.rgammas):
                yield [ratio * w * rg for w in wr]
        if self._oplus is not None:
            ap = self._oplus._a_powers
            for binoms in self._oplus._binoms:
                row = repeat(0.0)
                for c, we, aj in zip(binoms, wp[len(binoms) - 1::-1], ap):
                    row = [s + c * w * aj for s, w in zip(row, we)]
                yield row

    def _combine(self, xp, t_columns):
        """sum_j weights[j] * H[alpha]_{m_j}, each H summed over coeff * x**(m-2r)."""
        t_columns = iter(t_columns)
        total = repeat(0.0)
        for m, weight in zip(self._table.degrees, self._weights):
            value = repeat(0.0)
            for xe in xp[m::-2]:  # x**m, x**(m-2), ...
                value = [s + c * x for s, c, x in zip(value, next(t_columns), xe)]
            total = [s + weight * h for s, h in zip(total, value)]
        if self._oplus is not None:
            by_oplus = repeat(0.0)
            for g, xe, row in zip(self._oplus._gammas, xp[::-2], t_columns):
                by_oplus = [s + g * x * r for s, x, r in zip(by_oplus, xe, row)]
            _agree(total, by_oplus)
        return total

    def _terms(self):
        """Yield (c, i, j): the solution is the sum of c * x**i * t**(alpha*j)."""
        table = self._table
        kp = _powers(self._k, table.top // 2, "k")
        for m, w, row in zip(table.degrees, self._weights, table.ratios):
            for r, (ratio, kr, rg) in enumerate(zip(row, kp, table.rgammas)):
                yield ratio * kr * rg * w, m - 2 * r, r


class _LaguerreMonomialPlan(GridPlan):
    """Grid plan of :func:`solve_laguerre_monomial`; at t = 0 only r = n survives."""

    def __init__(self, n, alpha, beta, b):
        n = degree(n, "n")
        _check_degree(n)
        self._n = n
        self._alpha = alpha
        self._beta = beta
        self._b = b
        self._ratios = factorial_ratios(n, tuple(math.factorial(r) for r in range(n + 1)))
        self._rgammas_x = _rgammas(n, alpha, 1.0)
        self._rgammas_t = _rgammas(n, beta, 1.0)[::-1]

    def _x_columns(self, xs):
        nonnegative_finite_each(xs, "x")
        alpha = self._alpha
        return _power_columns([-math.pow(x, alpha) for x in xs], self._n, "(-x**alpha)")

    def _t_columns(self, ts):
        nonnegative_finite_each(ts, "t")
        b, beta = self._b, self._beta
        return _power_columns([b * t ** beta for t in ts], self._n, "(b*t**beta)")[::-1]

    def _combine(self, xp, up):
        total = repeat(0.0)
        for ratio, xr, ur, gx, gt in zip(self._ratios, xp, up, self._rgammas_x, self._rgammas_t):
            total = [s + ratio * x * u * gx * gt for s, x, u in zip(total, xr, ur)]
        return total

    def _terms(self):
        """Yield (c, i, j): the solution is the sum of c * x**(alpha*i) * t**(beta*j)."""
        n = self._n
        bp = _powers(self._b, n, "b")
        for r, (ratio, gx, gt) in enumerate(zip(self._ratios, self._rgammas_x, self._rgammas_t)):
            yield ratio * (-1.0) ** r * bp[n - r] * gx * gt, r, n - r


class _LaguerreWrightPlan(GridPlan):
    """Grid plan of :func:`solve_laguerre_wright`: one series per point, on the
    side that varies, with its gamma row shared across the grid."""

    def __init__(self, y_param, alpha, beta, b):
        finite(y_param, "y_param")
        self._y = y_param
        self._alpha = alpha
        self._beta = beta
        self._b = b
        self._wright = WrightSeries(alpha, 1.0)
        self._ml = MLSeries(beta, 1.0)

    def _x_columns(self, xs):
        nonnegative_finite_each(xs, "x")
        y, alpha = self._y, self._alpha
        zs = _argument_column("-y*x**alpha", [-y * math.pow(x, alpha) for x in xs])
        return [[self._wright(z).value for z in zs]]

    def _t_columns(self, ts):
        nonnegative_finite_each(ts, "t")
        by, beta = self._b * self._y, self._beta
        zs = _argument_column("b*y*t**beta", [by * t ** beta for t in ts])
        return [[self._ml(z).value for z in zs]]

    def _combine(self, w_values, ml_values):
        return [w * m for w, m in zip(w_values[0], ml_values[0])]


def plan(prob):
    """The grid plan of a problem record; the plan checks only its datum, x and t."""
    init = prob.initial
    if isinstance(init, LaguerreMonomialInitial):
        return _LaguerreMonomialPlan(init.n, prob.alpha, prob.beta, prob.b)
    if isinstance(init, WrightInitial):
        return _LaguerreWrightPlan(init.y, prob.alpha, prob.beta, prob.b)
    solver = _sum_plan(prob)
    if isinstance(init, FhpInitial):
        solver._oplus = _OplusSum(solver._table, init.a, prob.alpha)
    return solver


def _sum_plan(prob):
    """A diffusion problem's solution as an :class:`_FhpPlan` without the
    (+)_alpha route, which :func:`plan` adds for a fractional-Hermite datum."""
    init, alpha, k = prob.initial, prob.alpha, prob.k
    if isinstance(init, MonomialInitial):
        fsum = _FhpSum(_fhp_table((degree(init.n, "n"),), alpha), (1.0,))
    elif isinstance(init, SeriesInitial):
        fsum = _FhpSum(_fhp_table(range(len(init.coeffs)), alpha), init.coeffs)
    else:
        finite(init.a, "a")
        table = _fhp_table(_convolution_degrees(init.n), alpha)
        build = _FhpSum.convolution_i if isinstance(init, HermiteInitial) else _FhpSum.convolution_ii
        fsum = build(table, init.a)
    return _FhpPlan(fsum, alpha, k)


# -- the scalar solvers: one point of the plan ------------------------------------


def _solve_at(prob, x, t):
    """The solution at (x, t), or :class:`FloatOverflowError` where it leaves the
    double range; the grid routes leave that to the CLI's output gate."""
    return _in_range(plan(prob).at(x, t), f"the solution at (x, t) = ({x!r}, {t!r})")


def solve_tf_diffusion(prob, x, t):
    """Solution of the time-fractional diffusion problem at the point (x, t).

    Series data are summed as sum_r c_r H[alpha]_r(x, k t**alpha) over the
    stored coefficients (pass fewer to truncate); monomial data reduce to a
    single fractional Hermite polynomial.  Hermite/fractional-Hermite data
    dispatch to :func:`solve_case_i` / :func:`solve_case_ii`.
    """
    return _solve_at(prob, x, t)


def solve_case_i(n, a, alpha, k, x, t):
    """Diffusion of the classical Hermite datum H_n(x, a):

        n! sum_r a**r H[alpha]_{n-2r}(x, k t**alpha) / (r! (n-2r)!)

    At t = 0 the initial polynomial is recovered.
    """
    return _solve_at(DiffusionProblem(alpha, k, HermiteInitial(n, a)), x, t)


def solve_case_ii(n, a, alpha, k, x, t):
    """Diffusion of the fractional Hermite datum H[alpha]_n(x, a).

    Computed along both closed routes — the gamma-weighted convolution and
    the deformed-addition form H[alpha]_n(x, k t**alpha (+)_alpha a) — and the
    two must agree to the identity tolerance (else :class:`VerificationError`).
    """
    return _solve_at(DiffusionProblem(alpha, k, FhpInitial(n, a)), x, t)


def solve_laguerre_monomial(n, alpha, beta, b, x, t):
    """Solution for the scaled monomial datum:

        sum_r (n!/r!) (-x**alpha)**r (b t**beta)**(n-r)
              / (Gamma(1+alpha*r) Gamma(1+beta*(n-r)))

    At beta = 1 this collapses to E^{-n}_{alpha,1}(x**alpha, b*t).
    """
    return _solve_at(LaguerreProblem(alpha, beta, b, LaguerreMonomialInitial(n)), x, t)


def solve_laguerre_wright(y_param, alpha, beta, b, x, t):
    """Solution for the Wright datum: W_{alpha,1}(-y x**alpha) * E_beta(b y t**beta)."""
    return _solve_at(LaguerreProblem(alpha, beta, b, WrightInitial(y_param)), x, t)


# -- algebraic residuals -----------------------------------------------------------


def _table_residual(lhs_terms, rhs_terms):
    """Max normalized coefficient difference between two bivariate tables.

    Tables are lists of (coeff, i, j), keyed by the integer exponent indices
    (i, j) of x and t.  Each difference is divided by max(1, |lhs|, |rhs|) so
    the result measures agreement of the algebraic identity, not the raw
    n!-scale coefficient growth.
    """
    def collect(terms):
        table = {}
        for c, i, j in terms:
            table[i, j] = table.get((i, j), 0.0) + c
        for key, c in table.items():
            if not math.isfinite(c):
                raise FloatOverflowError(
                    f"the coefficient of term {key} is {c!r}: the residual table "
                    f"leaves the double-precision range"
                )
        return table

    lhs = collect(lhs_terms)
    rhs = collect(rhs_terms)
    worst = 0.0
    for key in lhs.keys() | rhs.keys():
        lv = lhs.get(key, 0.0)
        rv = rhs.get(key, 0.0)
        worst = _worst(worst, abs(lv - rv) / max(1.0, abs(lv), abs(rv)))
    return worst


def residual(prob):
    """Substitute a problem's solution into its equation.

    The solution is its plan's own term list; the Caputo derivative in t and
    the space operator (k d^2/dx^2, or -(b/alpha) K) act on it term by term,
    and the return value is the worst normalized coefficient mismatch of the
    two sides (0 up to rounding, since the identity is algebraic).  A Wright
    datum has no finite term list, and beta = 1 no Caputo derivative in t.
    """
    if isinstance(prob.initial, WrightInitial):
        raise DomainError("a Wright datum has no finite coefficient table, so no residual")
    laguerre = isinstance(prob, LaguerreProblem)
    if laguerre:
        open_unit(prob.beta, "beta")
    alpha = prob.alpha
    order = prob.beta if laguerre else alpha
    lhs = []  # D_t^order
    rhs = []  # the space operator
    for c, i, j in (plan(prob) if laguerre else _sum_plan(prob))._terms():
        if j >= 1:  # Caputo in t kills the t-constant term
            factor, _ = caputo_monomial(order * j, order)
            lhs.append((c * factor, i, j - 1))
        if laguerre and i >= 1:  # K annihilates the x-constant term
            cfac, _ = caputo_monomial(alpha * i, alpha)
            rhs.append((-prob.b * c * i * cfac, i - 1, j))
        elif not laguerre and i >= 2:
            rhs.append((c * i * (i - 1) * prob.k, i - 2, j))
    return _table_residual(lhs, rhs)
