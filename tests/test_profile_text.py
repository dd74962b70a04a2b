"""A solution profile's output text, byte for byte, against the formula it replaced.

``_profile_text`` writes each JSON column in one ``str.format`` call where
every value lies in the range where that call prints what ``json.dumps``
printed, and value by value elsewhere; CSV is one ``%`` formatting call.
The references below are the per-value formulas, kept here as the
definition of the output: ``json.dumps`` of ``_json_ready`` (each float
rounded to 15 significant digits and printed by its repr) and an f-string
per CSV line.  The draws cover the edges of that range (zeros, subnormals,
the smallest normal double, 1e13 to 1e16 and their neighbours), integral
values, powers of ten and their neighbours, and random bit patterns.
"""

import json
import math
import random
import struct

import pytest

from mlpoly import SolutionProfile
from mlpoly.cli import _json_ready, _profile_text

NORMAL_MIN = 2.2250738585072014e-308


def _reference(profile, fmt):
    if fmt == "json":
        obj = {"meta": dict(profile.meta),
               "data": {"grid": list(profile.grid), "values": list(profile.values)}}
        return json.dumps(_json_ready(obj), sort_keys=True) + "\n"
    rows = (f"{g:.15g},{v:.15g}\n" for g, v in zip(profile.grid, profile.values))
    return "grid,value\n" + "".join(rows)


def _neighbours(v):
    return [math.nextafter(v, -math.inf), v, math.nextafter(v, math.inf)]


#: values at the edges of the one-call range, and just outside it
EDGES = [
    0.0, -0.0, 5e-324, 1e-310, 2.225073858507201e-308, *_neighbours(NORMAL_MIN),
    9.999999999999995e12, 99999999999999.99, 9999999999999999.0, 1e300, -1e300,
    *(w for e in range(13, 17) for w in _neighbours(10.0 ** e)),
]


def _in_range(rng):
    """A value where one call formats the column: a random decade, a power of
    ten or its neighbour, or an integral value."""
    pick = rng.randrange(4)
    if pick == 0:
        v = rng.uniform(1.0, 10.0) * 10.0 ** rng.randint(-307, 12)
    elif pick == 1:
        v = rng.choice(_neighbours(10.0 ** rng.randint(-307, 12)))
    elif pick == 2:
        v = float(rng.randint(0, 10 ** rng.randint(1, 12)))
    else:
        v = rng.choice([0.0, NORMAL_MIN, 9.999999999999995e12])
    v = -v if rng.random() < 0.5 else v
    assert v == 0.0 or NORMAL_MIN <= abs(v) < 1e13
    return v


def _random_bits(rng):
    while True:
        v = struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]
        if math.isfinite(v):
            return v


def _profile(values, grid_values, meta_float):
    grid = sorted(set(grid_values))
    meta = {"problem": "case-i", "grid_var": "x", "n": 12, "alpha": meta_float,
            "coeffs": (0.5, -2.0, meta_float, 1e16)}
    return SolutionProfile(grid, values[:len(grid)], meta)


def _columns(seed):
    """Per seed, the two columns: one in range, one in range with edges
    spliced in, or random bit patterns, so that each column takes the one
    call or the value-by-value route."""
    rng = random.Random(seed)
    size = rng.randint(1, 300)
    plain = [_in_range(rng) for _ in range(size)]
    kind = seed % 3
    if kind == 0:
        other = [_in_range(rng) for _ in range(size)]
    elif kind == 1:
        other = [_in_range(rng) for _ in range(size)]
        for v in rng.sample(EDGES, rng.randint(1, 3)):
            other[rng.randrange(size)] = v
    else:
        other = [_random_bits(rng) for _ in range(size)]
    return (plain, other) if rng.random() < 0.5 else (other, plain), rng


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("seed", range(30))
def test_profile_text_equals_the_per_value_formula(seed, fmt):
    (values, grid_values), rng = _columns(seed)
    profile = _profile(values, grid_values, rng.choice(EDGES + [0.6]))
    assert _profile_text(profile, fmt) == _reference(profile, fmt)


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("edge", EDGES, ids=repr)
def test_each_edge_value_alone_in_a_column(edge, fmt):
    # every other point of both columns lies in range: the edge alone decides the route
    profile = SolutionProfile([-1.5, edge, 2e12] if -1.5 < edge < 2e12 else [-1.5, 0.25, 2e12],
                              [0.125, edge, 1e-300], {"t": 0.7})
    assert _profile_text(profile, fmt) == _reference(profile, fmt)
