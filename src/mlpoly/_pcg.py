"""The seeded random stream of ``numpy.random.default_rng(seed)``, in the standard library.

``verify`` draws its sample points from this stream, so its checks see the
same points whether or not numpy is installed, and whichever numpy version is.
The stream is numpy's default one:

- ``SeedSequence`` turns the seed into 128 bits of state and an increment by
  hashing it into a four-word pool (the entropy-pool mixer of numpy's
  ``bit_generator``);
- ``PCG64`` steps a 128-bit linear congruential generator and outputs 64 bits
  by the XSL-RR permutation (O'Neill, *PCG: a family of simple fast
  space-efficient statistically good algorithms for random number
  generation*, HMC-CS-2014-0905, 2014);
- doubles are ``(next64 >> 11) * 2**-53``; bounded integers use Lemire's
  multiply-and-reject method (*Fast random integer generation in an
  interval*, ACM TOMACS 29, 2019) on 32-bit draws, two of which are cut from
  each 64-bit output, low half first.

Only the calls ``verify`` makes are provided: ``uniform``, ``integers`` and
``choice``, each with numpy's consumption of the stream.
"""

from ._validate import degree

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK128 = (1 << 128) - 1
_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4


def _seed_words(seed):
    """The seed as little-endian 32-bit words (``[0]`` for zero)."""
    words = [seed & _MASK32]
    seed >>= 32
    while seed:
        words.append(seed & _MASK32)
        seed >>= 32
    return words


def _pool(entropy):
    """SeedSequence's mixed entropy pool of four 32-bit words."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> 16)

    def mix(x, y):
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _MASK32
        return result ^ (result >> 16)

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _generate_state(pool, n_words):
    """SeedSequence.generate_state(n_words, uint64)."""
    hash_const = _INIT_B
    words = []
    for i in range(2 * n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words.append(value ^ (value >> 16))
    return [words[2 * i] | words[2 * i + 1] << 32 for i in range(n_words)]


class Generator:
    """``numpy.random.default_rng(seed)``'s stream for the calls ``verify`` makes."""

    def __init__(self, seed):
        seed = degree(seed, "seed")
        s0, s1, i0, i1 = _generate_state(_pool(_seed_words(seed)), 4)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        self._state = ((self._inc + (s0 << 64 | s1)) * _MULTIPLIER + self._inc) & _MASK128
        self._half = None  # the high half of the last 64-bit draw, not yet used

    def _next64(self):
        state = self._state = (self._state * _MULTIPLIER + self._inc) & _MASK128
        rot = state >> 122
        word = ((state >> 64) ^ state) & _MASK64
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def _next32(self):
        if self._half is not None:
            half, self._half = self._half, None
            return half
        word = self._next64()
        self._half = word >> 32
        return word & _MASK32

    def _double(self):
        return (self._next64() >> 11) * (1.0 / 9007199254740992.0)

    def uniform(self, low, high, size=None):
        """One draw from [low, high), or a list of ``size`` draws."""
        low, span = float(low), float(high) - float(low)
        if size is None:
            return low + span * self._double()
        return [low + span * self._double() for _ in range(size)]

    def integers(self, low, high):
        """One integer in [low, high), for a range of at most 2**32 - 1 values."""
        span = high - low - 1
        if not 0 <= span < _MASK32:
            raise ValueError(f"integers supports 1 to 2**32 - 1 values, got [{low}, {high})")
        if span == 0:
            return low  # numpy draws nothing for a single value
        count = span + 1
        m = self._next32() * count
        if (m & _MASK32) < count:
            threshold = (_MASK32 - span) % count
            while (m & _MASK32) < threshold:
                m = self._next32() * count
        return low + (m >> 32)

    def choice(self, options):
        """One element of ``options``, drawn uniformly."""
        return options[self.integers(0, len(options))]
