"""Command-line interface.

Subcommands: eval-ml, eval-fhp, eval-mlp, solve, verify, table.  Numeric
output carries 15 significant digits and identical argv (including --seed)
produces byte-identical output.  Exit codes: 0 success, 1 usage/validation
error, 2 numerical failure (non-convergence or a failed verification).
"""

import argparse
import functools
import json
import math
import os
import sys

from . import config
from .errors import ConvergenceError, DomainError, FloatOverflowError, MLPolyError

CONFIG_ENV_VAR = "MLPOLY_CONFIG"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is 1
    def error(self, message):
        raise _UsageError(message)


def _finite_float(text):
    """argparse type of every float flag: NaN and infinities would print as invalid JSON."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    return value


def _fmt(value):
    return format(float(value), ".15g")


def _json_ready(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    return obj


def _require_finite(data):
    """Refuse to print a value that is not finite (JSON has no NaN or Infinity).

    ``data`` maps each output field to a number or a list of numbers.  The
    first value that is not finite raises :class:`FloatOverflowError` naming
    its field.  Each field is checked in one pass; only a field that fails
    it is walked point by point, to name the point.  Coefficient output
    needs no gate: a :class:`FracPoly` holds finite terms only.
    """
    for name, value in data.items():
        is_list = isinstance(value, (list, tuple))
        column = value if is_list else [value]
        if all(map(math.isfinite, column)):
            continue
        for i, v in enumerate(column):
            if not math.isfinite(v):
                field = f"{name}[{i}]" if is_list else name
                raise FloatOverflowError(
                    f"{field} = {v!r} is not a finite number: the result leaves "
                    f"the double-precision range"
                )


def _emit(text, output):
    if output:
        try:
            with open(output, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write output file {output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _record_text(command, params, data, fmt):
    _require_finite(data)
    if fmt == "json":
        payload = {"meta": {"command": command, "params": params}, "data": data}
        return json.dumps(_json_ready(payload), sort_keys=True) + "\n"
    header = ",".join(data.keys())
    row = ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in data.values())
    return f"{header}\n{row}\n"


#: the smallest normal double, and the magnitude from which ``{:.15}`` may
#: choose scientific notation where ``repr`` does not
_NORMAL_MIN = 2.2250738585072014e-308
_FIXED_MAX = 1e13


def _json_column(column):
    """A JSON list of finite floats, each as ``json.dumps`` prints ``_json_ready(v)``:
    the repr of v rounded to 15 significant digits.

    Where every v is 0 or 2.2250738585072014e-308 <= |v| < 1e13, the whole
    column is one ``str.format`` call with the spec ``.15``, which prints the
    same text.  The 15-digit decimal D of a normal double is read back
    (``float(D)``) as the one double whose 15-digit decimal is D again
    (DBL_DIG = 15), so no shorter decimal rounds to that double, and its repr
    has the digits of D without trailing zeros, as ``.15`` writes them.  Both
    then use scientific notation for a decimal exponent below -4, and
    ``.15`` again only from exponent 14 (repr from 16), which a value below
    1e13 cannot reach by rounding; in fixed notation both keep one digit
    after the point.  A subnormal has fewer than 15 significant digits, so
    a column holding one, or a value of 1e13 or more, is formatted value by
    value.
    """
    plain = (max(map(abs, column), default=0.0) < _FIXED_MAX
             and min(map(abs, filter(None, column)), default=_NORMAL_MIN) >= _NORMAL_MIN)
    if plain:
        items = ", ".join(["{:.15}"] * len(column)).format(*column)
    else:
        items = ", ".join([repr(float(_fmt(v))) for v in column])
    return f"[{items}]"


def _profile_text(profile, fmt):
    """A profile's output text: its CSV, or the JSON object
    ``{"data": {"grid": [...], "values": [...]}, "meta": {...}}`` with sorted
    keys and every float rounded to 15 significant digits as :func:`_json_ready`
    rounds it, each column formatted by :func:`_json_column`."""
    _require_finite({"grid": profile.grid, "values": profile.values})
    if fmt == "json":
        meta = json.dumps(_json_ready(dict(profile.meta)), sort_keys=True)
        return (f'{{"data": {{"grid": {_json_column(profile.grid)}, '
                f'"values": {_json_column(profile.values)}}}, "meta": {meta}}}\n')
    return profile.to_csv()


@functools.cache
def _build_parser():
    """The argument parser, built on first use and kept for the process."""
    parser = _Parser(prog="mlpoly", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value configuration file")
    common.add_argument("--output", help="write to this path instead of stdout")
    formatted = argparse.ArgumentParser(add_help=False, parents=[common])
    formatted.add_argument("--format", choices=("csv", "json"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-ml", parents=[formatted],
                       help="evaluate a Mittag-Leffler function")
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--z", type=_finite_float, required=True)
    p.add_argument("--beta", type=_finite_float, default=None)
    p.add_argument("--gamma", type=_finite_float, default=None)
    p.add_argument("--tol", dest="series_tol", type=_finite_float, default=argparse.SUPPRESS,
                   help="series_tol for this command (overrides the config file)")
    p.add_argument("--term-budget", dest="term_budget", type=int, default=argparse.SUPPRESS,
                   help="term_budget for this command (overrides the config file)")

    p = sub.add_parser("eval-fhp", parents=[formatted],
                       help="evaluate a fractional Hermite polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--x", type=_finite_float, default=None)
    p.add_argument("--y", type=_finite_float, required=True)
    p.add_argument("--coeffs", action="store_true",
                   help="emit the coefficient list instead of a point value")

    p = sub.add_parser("eval-mlp", parents=[formatted],
                       help="evaluate a Mittag-Leffler polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--beta", type=_finite_float, required=True)
    p.add_argument("--x", type=_finite_float, required=True)
    p.add_argument("--y", type=_finite_float, default=None)
    p.add_argument("--coeffs", action="store_true",
                   help="emit the coefficient list (in y) instead of a point value")

    p = sub.add_parser("solve", parents=[formatted],
                       help="solve a Cauchy problem onto a grid")
    p.add_argument("--problem", required=True,
                   choices=("tf-diffusion", "case-i", "case-ii",
                            "laguerre-monomial", "laguerre-wright"))
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--beta", type=_finite_float, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--a", type=_finite_float, default=None)
    p.add_argument("--k", type=_finite_float, default=1.0)
    p.add_argument("--b", type=_finite_float, default=1.0)
    p.add_argument("--y-param", type=_finite_float, default=None)
    p.add_argument("--coeffs", default=None,
                   help="comma-separated series coefficients c0,c1,...")
    p.add_argument("--grid-var", choices=("x", "t"), default="x")
    p.add_argument("--grid-min", type=_finite_float, required=True)
    p.add_argument("--grid-max", type=_finite_float, required=True)
    p.add_argument("--grid-points", type=int, default=101)
    p.add_argument("--x", type=_finite_float, default=None, help="fixed x when grid-var is t")
    p.add_argument("--t", type=_finite_float, default=None, help="fixed t when grid-var is x")

    p = sub.add_parser("verify", parents=[common],
                       help="run the identity-verification suites")
    p.add_argument("--suite", default="all",
                   choices=config.SUITE_NAMES + ("identities", "all"))
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--seed", type=int, default=42)

    p = sub.add_parser("table", parents=[common],
                       help="emit low-order polynomial coefficient tables as CSV")
    p.add_argument("--family", required=True, choices=("fhp", "mlp"))
    p.add_argument("--n-max", type=int, default=6)
    p.add_argument("--alpha", type=_finite_float, required=True)
    p.add_argument("--beta", type=_finite_float, default=1.0)
    p.add_argument("--x", type=_finite_float, default=1.0, help="parameter of the mlp family")
    p.add_argument("--y", type=_finite_float, default=1.0, help="parameter of the fhp family")
    return parser


# Each command imports the modules it runs inside its function, so that a
# fresh process loads only those (tests/test_imports.py pins the sets).
def _cmd_eval_ml(args):
    from .mittag_leffler import ml_one, ml_three, ml_two

    if args.gamma is not None:
        beta = 1.0 if args.beta is None else args.beta
        result = ml_three(args.alpha, beta, args.gamma, args.z)
    elif args.beta is not None:
        result = ml_two(args.alpha, args.beta, args.z)
    else:
        result = ml_one(args.alpha, args.z)
    params = {"alpha": args.alpha, "z": args.z}
    if args.beta is not None:
        params["beta"] = args.beta
    if args.gamma is not None:
        params["gamma"] = args.gamma
    data = {
        "value": result.value,
        "abs_error_estimate": result.abs_error_estimate,
        "terms_used": result.terms_used,
    }
    return _record_text("eval-ml", params, data, args.format)


def _poly_text(command, params, poly, fmt):
    if fmt == "json":
        payload = {"meta": {"command": command, "params": params},
                   "data": {"coefficients": [{"c": c, "mu": mu} for c, mu in poly.terms]}}
        return json.dumps(_json_ready(payload), sort_keys=True) + "\n"
    lines = ["exponent,coefficient"]
    for coeff, exponent in poly.terms:
        lines.append(f"{_fmt(exponent)},{_fmt(coeff)}")
    return "\n".join(lines) + "\n"


def _cmd_eval_fhp(args):
    from .fractional_hermite import fhp_coeffs, fhp_eval

    params = {"n": args.n, "alpha": args.alpha, "y": args.y}
    if args.coeffs:
        return _poly_text("eval-fhp", params, fhp_coeffs(args.n, args.alpha, args.y),
                          args.format)
    if args.x is None:
        raise _UsageError("--x is required unless --coeffs is given")
    params["x"] = args.x
    value = fhp_eval(args.n, args.alpha, args.x, args.y)
    return _record_text("eval-fhp", params, {"value": value}, args.format)


def _cmd_eval_mlp(args):
    from .ml_polynomials import mlp_coeffs, mlp_eval

    params = {"n": args.n, "alpha": args.alpha, "beta": args.beta, "x": args.x}
    if args.coeffs:
        return _poly_text("eval-mlp", params,
                          mlp_coeffs(args.n, args.alpha, args.beta, args.x), args.format)
    if args.y is None:
        raise _UsageError("--y is required unless --coeffs is given")
    params["y"] = args.y
    value = mlp_eval(args.n, args.alpha, args.beta, args.x, args.y)
    return _record_text("eval-mlp", params, {"value": value}, args.format)


def _require(args, flag):
    value = getattr(args, flag.replace("-", "_"))
    if value is None:
        raise _UsageError(f"--{flag} is required for --problem {args.problem}")
    return value


def _series_coeffs(text):
    try:
        coeffs = tuple(float(c) for c in text.split(","))
    except ValueError:
        raise _UsageError(f"--coeffs must be comma-separated numbers, got {text!r}") from None
    if not all(math.isfinite(c) for c in coeffs):
        raise _UsageError(f"--coeffs must be finite numbers, got {text!r}")
    return coeffs


def _solve_plan(args):
    from .fokker_planck import (
        DiffusionProblem,
        FhpInitial,
        HermiteInitial,
        LaguerreMonomialInitial,
        LaguerreProblem,
        MonomialInitial,
        SeriesInitial,
        WrightInitial,
        plan,
    )

    if args.problem == "tf-diffusion":
        if args.coeffs is not None:
            initial = SeriesInitial(_series_coeffs(args.coeffs))
        else:
            initial = MonomialInitial(_require(args, "n"))
    elif args.problem in ("case-i", "case-ii"):
        datum = HermiteInitial if args.problem == "case-i" else FhpInitial
        initial = datum(_require(args, "n"), _require(args, "a"))
    else:
        beta = _require(args, "beta")
        if args.problem == "laguerre-monomial":
            initial = LaguerreMonomialInitial(_require(args, "n"))
        else:
            initial = WrightInitial(_require(args, "y-param"))
        return plan(LaguerreProblem(args.alpha, beta, args.b, initial))
    return plan(DiffusionProblem(args.alpha, args.k, initial))


def _linspace(start, stop, num):
    """``numpy.linspace(start, stop, num)`` for num >= 2, bit for bit, as a list."""
    div = num - 1
    delta = stop - start
    step = delta / div
    if step == 0:  # a subnormal spacing: numpy divides by div before scaling
        points = [i / div * delta + start for i in range(num)]
    else:
        points = [i * step + start for i in range(num)]
    points[-1] = stop
    return points


def _cmd_solve(args):
    from .fokker_planck import SolutionProfile

    if args.grid_points < 2:
        raise _UsageError("--grid-points must be at least 2")
    if args.grid_max <= args.grid_min:
        raise _UsageError("--grid-max must exceed --grid-min")
    grid = _linspace(args.grid_min, args.grid_max, args.grid_points)
    if args.grid_var == "x":
        t = _require(args, "t")
        values = _solve_plan(args).along_x(t, grid)
        fixed = {"t": t}
    else:
        x = _require(args, "x")
        values = _solve_plan(args).along_t(x, grid)
        fixed = {"x": x}

    meta = {"problem": args.problem, "grid_var": args.grid_var,
            "alpha": args.alpha, **fixed}
    for key in ("n", "a", "beta", "b", "k", "y_param", "coeffs"):
        value = getattr(args, key, None)
        if value is not None:
            meta[key] = value
    profile = SolutionProfile(grid, values, meta)
    return _profile_text(profile, args.format)


def _cmd_verify(args):
    from .verify import format_report, run_suites

    results = run_suites(args.suite, n_max=args.n_max, seed=args.seed)
    return format_report(results, n_max=args.n_max, seed=args.seed)


def _cmd_table(args):
    degrees = range(args.n_max + 1)
    if args.family == "fhp":
        from .fractional_hermite import fhp_coeffs

        polys = (fhp_coeffs(n, args.alpha, args.y) for n in degrees)
    else:
        from .ml_polynomials import _mlp_coeff_table

        polys = _mlp_coeff_table(args.n_max, args.alpha, args.beta, args.x)
    lines = ["n,exponent,coefficient\n"]
    for n, poly in enumerate(polys):  # one formatting call per degree
        row = tuple([v for coeff, exponent in poly.terms for v in (exponent, coeff)])
        lines.append(f"{n},%.15g,%.15g\n" * len(poly.terms) % row)
    return "".join(lines)


def _settings(args):
    """The config file's pairs, overridden by --tol and --term-budget where given."""
    path = args.config or os.environ.get(CONFIG_ENV_VAR)
    try:
        settings = config.load_config_file(path) if path else {}
    except OSError as exc:
        raise _UsageError(f"cannot read config file {path!r}: {exc.strerror}") from None
    given = vars(args)  # --tol and --term-budget are absent unless given
    flags = {key: given[key] for key in ("series_tol", "term_budget") if key in given}
    return {**settings, **flags}


def run(argv=None):
    """Execute one command; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        ok = True
        with config.override(**_settings(args)):
            if args.command == "eval-ml":
                text = _cmd_eval_ml(args)
            elif args.command == "eval-fhp":
                text = _cmd_eval_fhp(args)
            elif args.command == "eval-mlp":
                text = _cmd_eval_mlp(args)
            elif args.command == "solve":
                text = _cmd_solve(args)
            elif args.command == "table":
                text = _cmd_table(args)
            else:
                text, ok = _cmd_verify(args)
        _emit(text, args.output)
        return 0 if ok else 2
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        if exc.partial is not None:
            print(f"partial_value = {_fmt(exc.partial)}", file=sys.stderr)
        if exc.error_estimate is not None:
            print(f"abs_error_estimate = {_fmt(exc.error_estimate)}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MLPolyError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
