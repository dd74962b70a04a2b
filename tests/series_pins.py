"""Write the seeded series sweep that ``tests/test_mittag_leffler.py`` pins.

    PYTHONPATH=src python3 tests/series_pins.py --out tests/series_pins.json

Each case is a call of one series evaluator, or an ``MLSeries`` /
``WrightSeries`` object reused over a grid of arguments, together with the
``config.override`` settings it runs in.  Its outcome is fingerprinted bit
for bit: value and error estimate as ``float.hex()`` and the terms used, or,
for a refusal, the error's type, message, ``reason``, ``partial``,
``error_estimate`` and ``terms_used``.  The draws follow the ranges of the
engine's earlier bit-for-bit sweeps: alpha in [0.05, 3], beta and mu
sometimes on a pole of Gamma, gamma sometimes a negative integer, z up to
|z| = 400 with zero and subnormals, and now and then a loose tolerance or a
short term budget, so that every refusal reason occurs.

With ``--draws`` large the same file doubles as a comparison sweep: run it
under two trees and compare the two outputs.
"""

import argparse
import json
import math
import random
import sys

from mlpoly import config
from mlpoly.mittag_leffler import (
    MLSeries,
    WrightSeries,
    ml_one,
    ml_three,
    ml_two,
    relaxation_cole_cole,
    relaxation_hn,
    wright,
)

CALLS = {f.__name__: f for f in (ml_one, ml_two, ml_three, wright, relaxation_cole_cole,
                                 relaxation_hn)}
SERIES = {"MLSeries": MLSeries, "WrightSeries": WrightSeries}
GRID_POINTS = 9


def fingerprint(fn, args):
    """The outcome of ``fn(*args)`` as a JSON-ready list, exact to the bit."""
    try:
        out = fn(*args)
    except Exception as exc:  # noqa: BLE001 -- every refusal is part of the pin
        hexed = [None if v is None else float(v).hex()
                 for v in (getattr(exc, "partial", None), getattr(exc, "error_estimate", None))]
        return [type(exc).__name__, str(exc), getattr(exc, "reason", None), *hexed,
                getattr(exc, "terms_used", None)]
    if isinstance(out, float):
        return [out.hex()]
    return [out.value.hex(), out.abs_error_estimate.hex(), out.terms_used]


def outcomes(case):
    """Fingerprints of one case: a list with one entry per evaluation."""
    with config.override(**case["settings"]):
        if "call" in case:
            return [fingerprint(CALLS[case["call"]], case["args"])]
        series = SERIES[case["series"]](*case["params"])
        return [fingerprint(series, (z,)) for z in case["zs"]]


def _z(rng, scale=400.0):
    pick = rng.random()
    if pick < 0.05:
        return 0.0
    if pick < 0.08:
        return rng.choice((5e-324, -5e-324, 2.2250738585072014e-308, -1e-310))
    if pick < 0.55:
        return rng.uniform(-4.0, 4.0)
    return rng.uniform(-scale, scale)


def _alpha(rng):
    return rng.choice((1.0, 0.5, 2.0)) if rng.random() < 0.1 else math.exp(
        rng.uniform(math.log(0.05), math.log(3.0)))


def _beta(rng):
    # a pole of Gamma at the r = 0 term, or beta + alpha*r on one later
    return float(rng.randint(-3, 0)) if rng.random() < 0.2 else rng.uniform(-3.0, 3.0)


def _gamma(rng):
    return float(rng.randint(-6, 0)) if rng.random() < 0.25 else rng.uniform(-3.0, 3.0)


def _settings(rng):
    pick = rng.random()
    if pick < 0.08:
        return {"series_tol": rng.choice((1e-6, 1e-9, 1e-14))}
    if pick < 0.14:
        return {"term_budget": rng.randint(2, 40)}
    return {}


def _call(rng, name):
    a = _alpha(rng)
    if name == "ml_one":
        args = [a, _z(rng)]
    elif name == "ml_two":
        args = [a, _beta(rng), _z(rng)]
    elif name == "ml_three":
        args = [a, rng.uniform(0.05, 3.0), _gamma(rng), _z(rng)]
    elif name == "wright":
        args = [a, _beta(rng), _z(rng)]
    else:
        a = min(a, 1.0)
        tau = rng.uniform(0.1, 3.0)
        t = tau * rng.choice((0.0, rng.uniform(0.0, 1.5), rng.uniform(0.0, 40.0)))
        args = [a, tau, t] if name == "relaxation_cole_cole" else [a, rng.uniform(0.05, 2.0), tau, t]
    return {"call": name, "args": args, "settings": _settings(rng)}


def _grid(rng, name):
    zs = [_z(rng, 60.0) for _ in range(GRID_POINTS)]
    if rng.random() < 0.5:
        zs[0] = rng.choice((-1.0, 1.0)) * rng.uniform(60.0, 400.0)  # grows the row far first
    return {"series": name, "params": [_alpha(rng), _beta(rng)], "zs": zs,
            "settings": _settings(rng)}


# cases named outright: gamma at negative integers, beta and mu on the poles,
# a row grown first by a large |z|, and one refusal of every reason
FIXED = [
    {"call": "ml_three", "args": [0.5, 1.0, float(-n), 2.0], "settings": {}} for n in range(6)
] + [
    {"call": name, "args": [0.7, float(-n), 1.5], "settings": {}}
    for name in ("ml_two", "wright") for n in range(4)
] + [
    {"series": name, "params": [0.6, 1.3], "zs": [300.0, 2.5, -1.0, 0.0, 0.3, -40.0, 1e-3, 4.0, -2.0],
     "settings": {}} for name in SERIES
] + [
    {"call": "ml_one", "args": [0.6, 2.0], "settings": {"term_budget": 3}},
    {"call": "ml_one", "args": [0.5, -30.0], "settings": {}},
    {"call": "ml_one", "args": [1.0, -40.0], "settings": {}},
    {"call": "ml_one", "args": [0.3, -40.0], "settings": {}},
    {"call": "ml_two", "args": [1e308, 1.0, 1.0], "settings": {}},
    {"call": "wright", "args": [0.3, 1.0, -60.0], "settings": {}},
]


def cases(seed, draws):
    rng = random.Random(seed)
    out = list(FIXED)
    for _ in range(draws):
        out.append(_call(rng, rng.choice(sorted(CALLS))))
        if rng.random() < 0.1:
            out.append(_grid(rng, rng.choice(sorted(SERIES))))
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=26)
    parser.add_argument("--draws", type=int, default=250, help="random calls drawn")
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)
    pinned = [dict(case, out=outcomes(case)) for case in cases(args.seed, args.draws)]
    with open(args.out, "w", encoding="utf-8") as f:
        f.write("[\n" + ",\n".join(json.dumps(case) for case in pinned) + "\n]\n")
    total = sum(len(case["out"]) for case in pinned)
    print(f"{len(pinned)} cases, {total} outcomes", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
