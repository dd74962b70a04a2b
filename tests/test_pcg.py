"""The standard-library stream that ``verify`` draws from.

It must be ``numpy.random.default_rng(seed)``'s stream call for call, so that
``verify`` checks the same points as before numpy left the runtime.  numpy's
side is the pinned digests written once by ``tests/numpy_pins.py``; the
literal pins below keep the first draws readable.
"""

import numpy_pins
import pytest

from mlpoly import DomainError
from mlpoly._pcg import Generator

STREAMS = numpy_pins.load()["streams"]


@pytest.mark.parametrize("seed", numpy_pins.SEEDS)
def test_the_stream_is_numpys(seed):
    # the digest covers each result's type as well as its value
    assert numpy_pins.stream_digest(numpy_pins.stream_calls(Generator(seed))) == STREAMS[str(seed)]


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
