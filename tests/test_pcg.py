"""The standard-library stream that ``verify`` draws from.

It must be ``numpy.random.default_rng(seed)``'s stream call for call, so that
``verify`` checks the same points as before numpy left the runtime.  numpy is
the reference while it is installed; the pinned literals keep the contract
should numpy's ``Generator`` ever change.
"""

import numpy as np
import pytest

from mlpoly import DomainError
from mlpoly._pcg import Generator

SEEDS = [*range(200), 2**32, 2**32 + 12345, 2**64 + 7]


def _calls(i):
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
    """numpy's result as the Python value ours is (a float, an int or a list of floats)."""
    return value.tolist() if isinstance(value, (np.ndarray, np.generic)) else value


@pytest.mark.parametrize("seed", SEEDS)
def test_the_stream_is_numpys(seed):
    ours, numpys = Generator(seed), np.random.default_rng(seed)
    for i in range(300):
        method, args, kwargs = _calls(i)
        got = getattr(ours, method)(*args, **kwargs)
        want = _plain(getattr(numpys, method)(*args, **kwargs))
        assert got == want and type(got) is type(want), (seed, i, method)


@pytest.mark.parametrize("seed, first", [
    (0, (0.6369616873214543, [-0.6906398587083891, -1.3770794281914158], 0, 0, -1.0)),
    (42, (0.7739560485559633, [-0.18336468074384316, 1.0757937597341476], 0, 6, -1.0)),
    (2**32 + 1, (0.33187239186810047, [0.3356879209369761, 0.022897979677249714], 4, 1, 1.0)),
])
def test_the_first_draws_are_pinned(seed, first):
    rng = Generator(seed)
    assert (rng.uniform(0.0, 1.0), rng.uniform(-1.5, 1.5, size=2), rng.integers(0, 9),
            rng.integers(0, 9), rng.choice([-1.0, 1.0])) == first


def test_the_raw_64_bit_outputs_are_pinned():
    rng = Generator(0)
    assert [rng._next64(), rng._next64()] == [11749869230777074271, 4976686463289251617]


@pytest.mark.parametrize("seed", [-1, 0.5, float("nan")])
def test_a_seed_must_be_a_nonnegative_integer(seed):
    with pytest.raises(DomainError, match="seed must be a nonnegative integer"):
        Generator(seed)


@pytest.mark.parametrize("low, high", [(0, 0), (3, 2), (0, 2**32), (0, 2**40)])
def test_integers_refuses_an_empty_or_too_wide_range(low, high):
    with pytest.raises(ValueError, match="integers supports"):
        Generator(0).integers(low, high)
