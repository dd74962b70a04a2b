"""The column route of the grid plans against a per-point loop.

A plan evaluates a whole grid at once, one column per power or term.  The
reference here is the per-point route: an x side, a t side and a formula
per point, built from the scalar sums of :mod:`mlpoly.fractional_hermite`
and plain loops, in the operation order of the direct sum.  For every
seeded draw the grid must equal the reference, :meth:`GridPlan.at` at each
point and the scalar ``solve_*`` function bit for bit (the sign of a zero,
NaN and inf included), and a refused grid must raise what the per-point
loop raises at its first failing point: the same type and message.
"""

import math
import random
import struct

import pytest

from mlpoly import (
    DiffusionProblem,
    FhpInitial,
    FloatOverflowError,
    HermiteInitial,
    LaguerreMonomialInitial,
    LaguerreProblem,
    MLPolyError,
    MLSeries,
    MonomialInitial,
    SeriesInitial,
    VerificationError,
    WrightInitial,
    WrightSeries,
    config,
    plan,
    solve_case_i,
    solve_case_ii,
    solve_laguerre_monomial,
    solve_laguerre_wright,
    solve_tf_diffusion,
)
from mlpoly._validate import finite, nonnegative_finite
from mlpoly.fractional_hermite import _FhpSum
from mlpoly.gamma_core import _powers

PROBLEMS = ("tf-diffusion", "series", "case-i", "case-ii", "laguerre-monomial", "laguerre-wright")
DRAWS = 240


# -- the per-point reference ----------------------------------------------------------


class _Reference:
    """One point at a time: the x side, then the t side, then the formula."""

    def __init__(self, problem, p, solver):
        self.problem, self.p = problem, p
        if problem == "laguerre-wright":
            self.series = (WrightSeries(p["alpha"], 1.0), MLSeries(p["beta"], 1.0))
        elif problem == "laguerre-monomial":
            self.rows = solver._ratios, solver._rgammas_x, solver._rgammas_t
        else:
            self.table = solver._table
            self.sum = _FhpSum(solver._table, solver._weights)
            self.oplus = getattr(solver, "_oplus", None)

    def x_side(self, x):
        p = self.p
        if not self.problem.startswith("laguerre"):
            finite(x, "x")
            return _powers(x, self.table.top, "x")
        nonnegative_finite(x, "x")
        if self.problem == "laguerre-monomial":
            return _powers(-math.pow(x, p["alpha"]), p["n"], "(-x**alpha)")
        return self.series[0](-p["y_param"] * math.pow(x, p["alpha"])).value

    def t_side(self, t):
        p = self.p
        nonnegative_finite(t, "t")
        if self.problem == "laguerre-monomial":
            return _powers(p["b"] * t ** p["beta"], p["n"], "(b*t**beta)")[::-1]
        if self.problem == "laguerre-wright":
            return self.series[1](p["b"] * p["y_param"] * t ** p["beta"]).value
        wp = self.table.y_powers(p["k"] * t ** p["alpha"])
        rows = self.oplus._rows(wp) if self.oplus else None
        return self.table.coeffs(wp), rows

    def formula(self, xs, ts):
        if self.problem == "laguerre-wright":
            return xs * ts
        if self.problem == "laguerre-monomial":
            ratios, gxs, gts = self.rows
            total = 0.0
            for ratio, xr, ur, gx, gt in zip(ratios, xs, ts, gxs, gts):
                total += ratio * xr * ur * gx * gt
            return total
        coeffs, rows = ts
        by_series = self.sum._formula(xs, coeffs)
        if rows is None:
            return by_series
        by_oplus = self.oplus._formula(xs, rows)
        gap = abs(by_series - by_oplus)
        allowed = max(config.IDENTITY_RTOL * max(abs(by_series), abs(by_oplus)),
                      config.IDENTITY_ATOL)
        if not gap <= allowed:
            raise VerificationError(
                f"the two closed forms disagree: |{by_series!r} - {by_oplus!r}| = {gap:.3e}"
            )
        return by_series

    def along_x(self, t, xs):
        fixed = self.t_side(t)
        return [self.formula(self.x_side(x), fixed) for x in xs]

    def along_t(self, x, ts):
        fixed = self.x_side(x)
        return [self.formula(fixed, self.t_side(t)) for t in ts]


# -- seeded draws -----------------------------------------------------------------------


def _pick(rng, usual, extremes, p_extreme=0.2):
    return rng.choice(extremes) if rng.random() < p_extreme else usual()


def _draw(rng):
    """A problem, its parameters and a grid: solve-grid's ranges, and extreme ones."""
    problem = rng.choice(PROBLEMS)
    u = rng.uniform
    p = {"alpha": _pick(rng, lambda: u(0.3, 0.9), [1e-9, 0.05, 0.999999, 0.5])}
    if problem.startswith("laguerre"):
        p["beta"] = _pick(rng, lambda: u(0.5, 0.95), [1e-9, 1.0, 0.999999])
        p["b"] = _pick(rng, lambda: u(0.5, 1.5), [1e-300, 1e300, 5e-324])
        if problem == "laguerre-monomial":
            p["n"] = _pick(rng, lambda: 12, [0, 1, 7, 40, 170])
        else:
            p["y_param"] = _pick(rng, lambda: u(0.3, 1.0), [0.0, -0.0, -2.0, 30.0])
        lo, hi = 0.0, 2.0
    else:
        p["k"] = _pick(rng, lambda: u(0.5, 2.0), [1e-300, 1e300, 5e-324])
        if problem == "series":
            p["coeffs"] = tuple(_pick(rng, lambda: u(-1.0, 1.0), [0.0, -0.0, 1e300, -1e308])
                                for _ in range(rng.randint(1, 8)))
        else:
            p["n"] = _pick(rng, lambda: 12, [0, 1, 3, 11, 40, 170])
        if problem.startswith("case"):
            p["a"] = _pick(rng, lambda: u(0.2, 1.0), [0.0, -0.0, -1.0, -1e50, -1e308, 1e-300])
        lo, hi = -2.0, 2.0
    grid_var = rng.choice("xt")
    if grid_var == "t":
        lo, hi = 0.05, 2.0
    special_x = [0.0, -0.0, 0.0, -0.0, 1e-300, 1e30, 1e200, -1e200, math.nan, -1.0, math.inf]
    special_t = [0.0, 0.0, 0.0, 1e-300, 1e30, 1e300, math.nan, -1.0, math.inf]
    special = special_x if grid_var == "x" else special_t
    p_special = rng.choice([0.0, 0.0, 0.02, 0.1, 0.3])
    grid = [_pick(rng, lambda: u(lo, hi), special, p_special) for _ in range(rng.randint(1, 50))]
    if grid_var == "x":
        fixed = _pick(rng, lambda: u(0.2, 1.5), special_t)
    else:
        fixed = _pick(rng, lambda: u(max(lo, -1.5), 1.5), special_x)
    return problem, p, grid_var, fixed, grid


def _problem(problem, p):
    if problem.startswith("laguerre"):
        initial = (LaguerreMonomialInitial(p["n"]) if problem == "laguerre-monomial"
                   else WrightInitial(p["y_param"]))
        return LaguerreProblem(p["alpha"], p["beta"], p["b"], initial)
    if problem == "series":
        initial = SeriesInitial(p["coeffs"])
    elif problem == "tf-diffusion":
        initial = MonomialInitial(p["n"])
    else:
        initial = (HermiteInitial if problem == "case-i" else FhpInitial)(p["n"], p["a"])
    return DiffusionProblem(p["alpha"], p["k"], initial)


def _scalar(problem, p, x, t):
    if problem == "case-i":
        return solve_case_i(p["n"], p["a"], p["alpha"], p["k"], x, t)
    if problem == "case-ii":
        return solve_case_ii(p["n"], p["a"], p["alpha"], p["k"], x, t)
    if problem == "laguerre-monomial":
        return solve_laguerre_monomial(p["n"], p["alpha"], p["beta"], p["b"], x, t)
    if problem == "laguerre-wright":
        return solve_laguerre_wright(p["y_param"], p["alpha"], p["beta"], p["b"], x, t)
    return solve_tf_diffusion(_problem(problem, p), x, t)


def _outcome(route):
    """The bits of every value, or the type and message of the refusal."""
    try:
        values = route()
    except MLPolyError as exc:
        return type(exc), str(exc)
    return [struct.pack("<d", v) for v in values]


# points where every term is +-0.0 (the sums start from 0.0, so a grid value is
# never -0.0 where a sum is the last step), and values that are inf or NaN
ZERO_TERMS = [
    ("series", {"alpha": 0.5, "k": 1.0, "coeffs": (-0.0, -1.0, -0.5, -2.0)}, "x", 0.0,
     [0.0, -0.0, 0.5, -0.0]),
    ("series", {"alpha": 0.4, "k": 2.0, "coeffs": (-0.0, -1.0, -3.0)}, "t", -0.0, [0.0, 0.3, 0.0]),
    ("tf-diffusion", {"alpha": 0.5, "k": 1.0, "n": 3}, "t", -0.0, [0.0, 0.0, 0.5]),
    ("case-i", {"alpha": 0.6, "k": 1.2, "n": 3, "a": -1e308}, "x", 0.0, [0.0, 0.3, -0.0]),
    ("case-ii", {"alpha": 0.6, "k": 1.2, "n": 5, "a": -0.0}, "x", 0.0, [-0.0, 0.0, 0.7]),
    ("laguerre-monomial", {"alpha": 0.5, "beta": 0.7, "b": 1.0, "n": 5}, "x", 0.0,
     [0.0, -0.0, 1.0]),
    ("laguerre-monomial", {"alpha": 0.5, "beta": 0.7, "b": 1.0, "n": 4}, "t", -0.0, [0.0, 1.0]),
    ("laguerre-wright", {"alpha": 0.5, "beta": 0.7, "b": 1.0, "y_param": -0.0}, "t", 0.0,
     [0.0, 1.0]),
]


def _cases():
    rng = random.Random(20261020)
    cases = list(ZERO_TERMS)
    while len(cases) < len(ZERO_TERMS) + DRAWS:
        problem, p, grid_var, fixed, grid = _draw(rng)
        try:
            _problem(problem, p)
        except MLPolyError:  # a degree past the factorial range, say: no plan to test
            continue
        cases.append((problem, p, grid_var, fixed, grid))
    return cases


CASES = _cases()


@pytest.mark.parametrize("problem,p,grid_var,fixed,grid", CASES,
                         ids=[f"{i}-{c[0]}-{c[2]}" for i, c in enumerate(CASES)])
def test_the_grid_equals_the_per_point_loop(problem, p, grid_var, fixed, grid):
    try:
        solver = plan(_problem(problem, p))
    except MLPolyError:  # the record is valid, but its plan's rows leave the range
        return
    reference = _Reference(problem, p, solver)
    along = "along_" + grid_var
    got = _outcome(lambda: getattr(solver, along)(fixed, grid))
    assert got == _outcome(lambda: getattr(reference, along)(fixed, grid))
    if isinstance(got, tuple):
        return
    points = [(g, fixed) if grid_var == "x" else (fixed, g) for g in grid]
    assert got == _outcome(lambda: [solver.at(x, t) for x, t in points])
    for (x, t), bits in zip(points, got):
        try:
            assert struct.pack("<d", _scalar(problem, p, x, t)) == bits
        except FloatOverflowError as exc:  # the scalar route names a non-finite value
            assert "leaves the double-precision range" in str(exc)
            assert not math.isfinite(struct.unpack("<d", bits)[0])


def test_the_draws_cover_zeros_refusals_and_overflows():
    outcomes = []
    for problem, p, grid_var, fixed, grid in CASES:
        try:
            solver = plan(_problem(problem, p))
        except MLPolyError:
            continue
        outcomes.append(_outcome(lambda: getattr(solver, "along_" + grid_var)(fixed, grid)))
    values = [struct.unpack("<d", b)[0] for o in outcomes if isinstance(o, list) for b in o]
    refusals = [o for o in outcomes if isinstance(o, tuple)]
    assert any(v == 0.0 for v in values)
    assert any(math.isinf(v) for v in values) and any(math.isnan(v) for v in values)
    assert any("exceeds the double-precision range" in msg for _, msg in refusals)
    assert any("must be nonnegative" in msg for _, msg in refusals)
    assert len({kind for kind, _ in refusals}) >= 3
    assert 0.2 < len(refusals) / len(outcomes) < 0.6


def test_a_one_point_grid_is_the_point():
    solver = plan(DiffusionProblem(0.5, 1.0, FhpInitial(3, 0.5)))
    assert solver.along_x(0.7, [0.3]) == [solver.at(0.3, 0.7)] == solver.along_t(0.3, [0.7])
    assert solver.along_x(0.7, []) == [] == solver.along_t(0.3, [])
    with pytest.raises(FloatOverflowError, match=r"x\*\*3 exceeds"):
        solver.along_x(0.7, [1e200])


def test_a_finite_disagreement_is_refused_at_its_point_on_every_route():
    # both routes finite at (x, t) = (-4.181, 2.785) but 3.3e-7 apart in
    # relative terms; the other points of each grid agree
    message = ("the two closed forms disagree: "
               "|-1.0855809455473535e+73 - -1.0855813056651075e+73| = 3.601e+66")
    solver = plan(DiffusionProblem(0.832, 0.848, FhpInitial(60, -4.115)))
    routes = [
        lambda: solve_case_ii(60, -4.115, 0.832, 0.848, -4.181, 2.785),
        lambda: solver.at(-4.181, 2.785),
        lambda: solver.along_x(2.785, [0.5, -4.181, 1.0]),
        lambda: solver.along_t(-4.181, [0.5, 2.785]),
    ]
    for route in routes:
        assert _outcome(route) == (VerificationError, message)
