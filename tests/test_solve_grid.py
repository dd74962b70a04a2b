"""Grid plans of the five solve problems against point-by-point evaluation.

A plan computes the factors that no grid point changes once per grid, so
its values must equal, bit for bit, what the scalar solvers give at each
point, and what the direct per-point sums (kept here as the reference) give.
"""

import math

import pytest

from mlpoly import (
    DiffusionProblem,
    DomainError,
    FhpInitial,
    HermiteInitial,
    LaguerreMonomialInitial,
    LaguerreProblem,
    MLPolyError,
    MonomialInitial,
    SeriesInitial,
    SolutionProfile,
    VerificationError,
    WrightInitial,
    config,
    convolution_identity_ii_rhs,
    fhp_oplus_eval,
    ml_one,
    plan,
    rgamma,
    solve_case_i,
    solve_case_ii,
    solve_laguerre_monomial,
    solve_laguerre_wright,
    solve_tf_diffusion,
    wright,
)
from mlpoly.cli import _linspace, _profile_text, run

POINTS = 61
COEFFS = "0.5,-1.25,0.75,0.0,2.0"
PARAMS = {
    "tf-diffusion": {"alpha": 0.55, "k": 1.3, "n": 9},
    "case-i": {"alpha": 0.45, "k": 0.8, "n": 10, "a": 0.6},
    "case-ii": {"alpha": 0.7, "k": 1.1, "n": 11, "a": -0.4},
    "laguerre-monomial": {"alpha": 0.35, "beta": 0.8, "b": 1.2, "n": 8},
    "laguerre-wright": {"alpha": 0.6, "beta": 0.75, "b": 0.9, "y_param": 0.7},
}
FIXED = {"x": 0.9, "t": 0.8}
CASES = [(problem, grid_var, fmt, False)
         for problem in PARAMS for grid_var in ("x", "t") for fmt in ("csv", "json")]
CASES.append(("tf-diffusion", "x", "json", True))


# -- the direct per-point sums ------------------------------------------------------


def _ref_fhp(n, alpha, x, y):
    total = 0.0
    for r in range(n // 2 + 1):
        ratio = math.factorial(n) // math.factorial(n - 2 * r)
        total += ratio * (y ** r) * rgamma(1.0 + alpha * r) * x ** (n - 2 * r)
    return total


def _reference(problem, p, x, t, coeffs=None):
    alpha = p["alpha"]
    if problem in ("tf-diffusion", "case-i", "case-ii"):
        n, w = p.get("n"), p["k"] * t ** alpha
        if problem == "tf-diffusion" and coeffs is not None:
            total = 0.0  # added left to right: sum() compensates from Python 3.12 on
            for r, c in enumerate(coeffs):
                total += c * _ref_fhp(r, alpha, x, w)
            return total
        if problem == "tf-diffusion":
            return _ref_fhp(n, alpha, x, w)
        total = 0.0
        for r in range(n // 2 + 1):
            if problem == "case-i":
                weight = math.factorial(n) // (math.factorial(r) * math.factorial(n - 2 * r))
                total += weight * p["a"] ** r * _ref_fhp(n - 2 * r, alpha, x, w)
            else:
                weight = math.factorial(n) // math.factorial(n - 2 * r)
                total += (weight * rgamma(1.0 + alpha * r) * p["a"] ** r
                          * _ref_fhp(n - 2 * r, alpha, x, w))
        return total
    beta, b, xa = p["beta"], p["b"], math.pow(x, alpha)
    if problem == "laguerre-wright":
        y = p["y_param"]
        return wright(alpha, 1.0, -y * xa).value * ml_one(beta, b * y * t ** beta).value
    n, u, total = p["n"], b * t ** beta, 0.0
    for r in range(n + 1):
        total += ((math.factorial(n) // math.factorial(r)) * (-xa) ** r * u ** (n - r)
                  * rgamma(1.0 + alpha * r) * rgamma(1.0 + beta * (n - r)))
    return total


# -- the public entry points ----------------------------------------------------------


def _series(coeffs):
    return tuple(float(c) for c in coeffs.split(","))


def _plan(problem, p, coeffs=None):
    if problem == "tf-diffusion":
        initial = SeriesInitial(coeffs) if coeffs is not None else MonomialInitial(p["n"])
    elif problem == "case-i":
        initial = HermiteInitial(p["n"], p["a"])
    elif problem == "case-ii":
        initial = FhpInitial(p["n"], p["a"])
    elif problem == "laguerre-monomial":
        initial = LaguerreMonomialInitial(p["n"])
    else:
        initial = WrightInitial(p["y_param"])
    if problem.startswith("laguerre"):
        return plan(LaguerreProblem(p["alpha"], p["beta"], p["b"], initial))
    return plan(DiffusionProblem(p["alpha"], p["k"], initial))


def _scalar(problem, p, x, t, coeffs=None):
    if problem == "tf-diffusion":
        initial = SeriesInitial(coeffs) if coeffs is not None else MonomialInitial(p["n"])
        return solve_tf_diffusion(DiffusionProblem(p["alpha"], p["k"], initial), x, t)
    if problem == "case-i":
        return solve_case_i(p["n"], p["a"], p["alpha"], p["k"], x, t)
    if problem == "case-ii":
        return solve_case_ii(p["n"], p["a"], p["alpha"], p["k"], x, t)
    if problem == "laguerre-monomial":
        return solve_laguerre_monomial(p["n"], p["alpha"], p["beta"], p["b"], x, t)
    return solve_laguerre_wright(p["y_param"], p["alpha"], p["beta"], p["b"], x, t)


def _grid(problem, grid_var):
    if grid_var == "t":
        lo, hi = 0.05, 2.0
    elif problem.startswith("laguerre"):
        lo, hi = 0.0, 2.0
    else:
        lo, hi = -2.0, 2.0
    return lo, hi, _linspace(lo, hi, POINTS)


def _points(grid_var, grid):
    fixed = FIXED["t" if grid_var == "x" else "x"]
    return [(g, fixed) if grid_var == "x" else (fixed, g) for g in grid]


def _argv(problem, p, grid_var, lo, hi, fmt="json", points=POINTS):
    fixed_name = "t" if grid_var == "x" else "x"
    argv = ["solve", "--problem", problem, "--grid-var", grid_var, "--format", fmt,
            f"--grid-min={lo!r}", f"--grid-max={hi!r}", "--grid-points", str(points),
            f"--{fixed_name}", repr(FIXED[fixed_name])]
    for key, value in p.items():
        argv += [f"--{key.replace('_', '-')}", repr(value)]
    return argv


@pytest.mark.parametrize("problem,grid_var,coeffs", [
    (problem, grid_var, None) for problem in PARAMS for grid_var in ("x", "t")
] + [("tf-diffusion", grid_var, COEFFS) for grid_var in ("x", "t")])
def test_plan_equals_direct_sums_bit_for_bit(problem, grid_var, coeffs):
    p = PARAMS[problem]
    series = _series(coeffs) if coeffs else None
    solver = _plan(problem, p, series)
    _, _, grid = _grid(problem, grid_var)
    if grid_var == "x":
        got = solver.along_x(FIXED["t"], grid)
    else:
        got = solver.along_t(FIXED["x"], grid)
    want = [_reference(problem, p, x, t, series) for x, t in _points(grid_var, grid)]
    assert got == want


@pytest.mark.parametrize("problem,grid_var,fmt,use_coeffs", CASES)
def test_cli_solve_bytes_equal_scalar_point_by_point(capsys, problem, grid_var, fmt, use_coeffs):
    p = dict(PARAMS[problem])
    if use_coeffs:
        del p["n"]
    lo, hi, grid = _grid(problem, grid_var)
    fixed_name = "t" if grid_var == "x" else "x"
    argv = _argv(problem, p, grid_var, lo, hi, fmt)
    if use_coeffs:
        argv.append(f"--coeffs={COEFFS}")
    assert run(argv) == 0
    out = capsys.readouterr().out

    series = _series(COEFFS) if use_coeffs else None
    values = [_scalar(problem, p, x, t, series) for x, t in _points(grid_var, grid)]
    meta = {"problem": problem, "grid_var": grid_var, fixed_name: FIXED[fixed_name],
            "k": 1.0, "b": 1.0, **p}
    if use_coeffs:
        meta["coeffs"] = COEFFS
    assert out == _profile_text(SolutionProfile(grid, values, meta), fmt)


# one parameter outside the record's domain per problem
REFUSED = [
    ("tf-diffusion", {"k": -1.0}, "diffusivity k must be positive, got -1.0"),
    ("case-i", {"k": -1.0}, "diffusivity k must be positive, got -1.0"),
    ("case-ii", {"alpha": 1.0}, "alpha must lie in (0, 1), got 1.0"),
    ("laguerre-monomial", {"n": 171},
     "n = 171: an integer factor n!/(...) exceeds the double-precision range"),
    ("laguerre-wright", {"beta": 1.5}, "beta must lie in (0, 1], got 1.5"),
]


@pytest.mark.parametrize("problem,bad,message", REFUSED, ids=[r[0] for r in REFUSED])
def test_every_route_refuses_alike(capsys, problem, bad, message):
    p = {**PARAMS[problem], **bad}
    x, t = FIXED["x"], FIXED["t"]
    for route in (lambda: _scalar(problem, p, x, t), lambda: _plan(problem, p).at(x, t)):
        with pytest.raises(MLPolyError) as info:
            route()
        assert str(info.value) == message
    code = 1 if isinstance(info.value, DomainError) else 2
    assert run(_argv(problem, p, "x", 0.0, 1.0, points=3)) == code
    prefix = "error" if code == 1 else "numerical failure"
    assert capsys.readouterr() == ("", f"{prefix}: {message}\n")


def test_case_ii_grid_still_checks_both_routes_at_every_point(capsys, monkeypatch):
    # with zero tolerances any rounding gap between the two routes is a disagreement
    monkeypatch.setattr(config, "IDENTITY_RTOL", 0.0)
    monkeypatch.setattr(config, "IDENTITY_ATOL", 0.0)
    argv = ["solve", "--problem", "case-ii", "--n", "12", "--a", "0.5", "--alpha", "0.6",
            "--k", "1.2", "--t", "0.7", "--grid-min=-2", "--grid-max=2", "--grid-points", "11"]
    assert run(argv) == 2
    assert "disagree" in capsys.readouterr().err

    solution = plan(DiffusionProblem(0.6, 1.2, FhpInitial(12, 0.5)))
    w = 1.2 * 0.7 ** 0.6
    raised = []
    for x in _linspace(-2.0, 2.0, 11):
        gap = convolution_identity_ii_rhs(12, x, 0.5, w, 0.6) - fhp_oplus_eval(12, x, w, 0.5, 0.6)
        try:
            solution.along_x(0.7, [x])
            raised.append((False, gap != 0.0))
        except VerificationError:
            raised.append((True, gap != 0.0))
    assert all(r == g for r, g in raised)
    assert any(r for r, _ in raised) and not all(r for r, _ in raised)
