"""Write the numpy reference values that the tests pin: ``tests/numpy_pins.json``.

    PYTHONPATH=src python3 tests/numpy_pins.py --out tests/numpy_pins.json
    PYTHONPATH=src python3 tests/numpy_pins.py --check

The tests run without numpy.  Two things in the package must still equal
numpy bit for bit, and this script records numpy's side of each, once, with
the numpy that is installed:

- ``streams``: ``mlpoly._pcg.Generator(seed)`` is ``numpy.random.default_rng(seed)``'s
  stream.  For each seed of ``SEEDS``, the sha256 of the 300-call mixed
  sequence of :func:`stream_calls`, one line per result holding its type name
  and repr;
- ``linspace``: ``mlpoly.cli._linspace`` is ``numpy.linspace``.  For each case
  of :func:`linspace_cases`, its start, stop and num with numpy's points, by
  :func:`points_pin`.

numpy is imported inside :func:`main` only; the tests import the rest.
``--check`` writes nothing: it recomputes the pins and compares them with
the committed file, so a numpy whose ``Generator`` streams or ``linspace``
moved is caught here rather than in the tests.
"""

import argparse
import hashlib
import json
import sys
from pathlib import Path

from mlpoly._pcg import Generator

PINS_PATH = Path(__file__).resolve().parent / "numpy_pins.json"

SEEDS = [*range(200), 2**32, 2**32 + 12345, 2**64 + 7]
STREAM_CALLS = 300

# the grids of the CLI edge cases: subnormal spacing, an overflowing
# stop - start, a single ulp, and so on
EDGES = [
    (0.0, 1.0, 2), (-2.0, 2.0, 1001), (0.05, 2.0, 61), (-1.0, 1.0, 21),
    (0.0, 5e-324, 2), (0.0, 5e-324, 3), (0.0, 1.5e-323, 7), (-1e-310, 1e-310, 11),
    (1.0, 1.0 + 2.220446049250313e-16, 5), (-1e308, 1e308, 3), (-1e300, 1e300, 4),
    (1e15, 1e15 + 3.0, 7), (-3.0, -1e-300, 9),
]
RANDOM_GRIDS = 300
# the x grid of ``mlp_operational_check``
OPERATIONAL = (0.0, 2.0, 41)
# a grid of more points is pinned by digest, length and end points
SHORT = 64


def _call(i):
    """The i-th call of the mixed sequence, as (method, args, kwargs)."""
    kind = i % 6
    if kind == 0:
        return "uniform", (-1.5, 2.5), {}
    if kind == 1:
        return "uniform", (0.3, 0.9), {"size": 2}
    if kind == 2:
        return "integers", (0, 1 + i % 11), {}  # 1 value: no draw at all
    if kind == 3:
        return "choice", ([-1.0, 1.0],), {}
    if kind == 4:
        return "integers", (0, 3 + 977 * i), {}
    return "integers", (0, 2**31 + 1 + i), {}  # about half the 32-bit draws are rejected


def _plain(value):
    """A numpy result as the Python value it holds; a Python value as it is."""
    return value.tolist() if hasattr(value, "tolist") else value


def stream_calls(rng):
    """The results of the mixed sequence on ``rng``, as plain Python values."""
    out = []
    for i in range(STREAM_CALLS):
        method, args, kwargs = _call(i)
        out.append(_plain(getattr(rng, method)(*args, **kwargs)))
    return out


def stream_digest(results):
    """sha256 over the type name and repr of each result, one line each."""
    text = "".join(f"{type(v).__name__} {v!r}\n" for v in results)
    return hashlib.sha256(text.encode()).hexdigest()


def linspace_cases():
    """(start, stop, num) of every pinned grid: the edges, 300 drawn from
    ``Generator(6)`` and the operational grid."""
    rng = Generator(6)
    drawn = []
    for _ in range(RANDOM_GRIDS):
        start = rng.uniform(-10.0, 10.0) * 10.0 ** rng.integers(-8, 8)
        stop = start + rng.uniform(1e-6, 20.0) * 10.0 ** rng.integers(-8, 8)
        drawn.append((start, stop, rng.integers(2, 400)))
    return EDGES + drawn + [OPERATIONAL]


def points_pin(points):
    """Grid points as ``float.hex()`` strings; past ``SHORT`` points, their
    sha256, length and first and last entries."""
    hexed = [float(v).hex() for v in points]
    if len(hexed) <= SHORT:
        return hexed
    digest = hashlib.sha256(" ".join(hexed).encode()).hexdigest()
    return {"sha256": digest, "len": len(hexed), "first": hexed[0], "last": hexed[-1]}


def load():
    """The committed pins."""
    return json.loads(PINS_PATH.read_text(encoding="utf-8"))


def linspace_pins():
    """{(start, stop, num): pinned points} of the committed file."""
    return {(float.fromhex(start), float.fromhex(stop), num): points
            for start, stop, num, points in load()["linspace"]}


def _pins(np):
    streams = {str(seed): stream_digest(stream_calls(np.random.default_rng(seed)))
               for seed in SEEDS}
    with np.errstate(all="ignore"):  # the edges overflow stop - start and underflow the step
        grids = [[start.hex(), stop.hex(), num, points_pin(np.linspace(start, stop, num))]
                 for start, stop, num in linspace_cases()]
    return {"numpy": np.__version__, "streams": streams, "linspace": grids}


def _text(pins):
    """The pins as JSON, one stream or grid a line."""
    streams = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in pins["streams"].items())
    grids = ",\n".join(json.dumps(case) for case in pins["linspace"])
    return (f'{{"numpy": {json.dumps(pins["numpy"])},\n"streams": {{\n{streams}\n}},\n'
            f'"linspace": [\n{grids}\n]}}\n')


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument("--out", help="JSON file to write")
    action.add_argument("--check", action="store_true",
                        help="compare with the committed file and write nothing")
    args = parser.parse_args(argv)
    import numpy as np

    pins = _pins(np)
    if args.check:
        committed = load()
        moved = [key for key in ("streams", "linspace") if pins[key] != committed[key]]
        for key in moved:
            print(f"{key} differ from {PINS_PATH.name} (numpy {np.__version__}, "
                  f"written with {committed['numpy']})", file=sys.stderr)
        return 1 if moved else 0
    Path(args.out).write_text(_text(pins), encoding="utf-8")
    print(f"{len(pins['streams'])} streams, {len(pins['linspace'])} grids", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
