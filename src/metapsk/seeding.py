"""PCG64 bit generators for a block of 64-bit integer seeds.

``np.random.PCG64(seed)``, like ``np.random.default_rng(seed)``, hashes
an integer seed through a :class:`numpy.random.SeedSequence` into the
generator's four 64-bit state words.  At oversampling 1 that hashing,
twice a trial, is about a tenth of the trial, almost all of it per-call
overhead.  :func:`bit_generators` hashes the seeds of a
block together, as uint32 array arithmetic, and hands each PCG64 its
words through numpy's :class:`~numpy.random.bit_generator.ISeedSequence`
interface: each generator is ``PCG64(seed)``'s, bit for bit.

The hash is SeedSequence's (O'Neill's ``seed_seq`` design, as numpy
implements it): a 4-word pool, filled from the seed's two 32-bit words
(low first; a seed below 2**32 is one word, which hashes the same as a
zero high word), mixed, then hashed into 8 output words.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

_MASK32 = 0xFFFF_FFFF


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """The running hash constant of each call, as a column: init, init * mult, ..."""
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# SeedSequence's constants.  Call k of the pool's hash xors its value with
# _POOL_HASH[k] and multiplies it by _POOL_HASH[k + 1]; output word k
# likewise with _OUT_HASH.
_POOL_HASH = _hash_constants(0x43B0D7E5, 0x931E8875, 17)
_OUT_HASH = _hash_constants(0x8B51F9DD, 0x58F38DED, 9)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_OTHERS = [np.array([j for j in range(4) if j != i]) for i in range(4)]
_POOL_CYCLE = np.array([0, 1, 2, 3, 0, 1, 2, 3])

# Below this many seeds numpy's own SeedSequence, one seed at a time, is
# cheaper than the ~50 array operations of one block hash.
_MIN_BLOCK = 8


class _StateWords(ISeedSequence):
    """A seed sequence whose state words are already hashed."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError("hashed for PCG64: four uint64 words")
        return self.words


def _state_words(seeds) -> np.ndarray:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` of each seed, one row each."""
    # fill: pool word i is the hash of entropy word i (the seed's low and
    # high words, then zeros)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[:2] = np.array(seeds, dtype="<u8").view("<u4").reshape(-1, 2).T
    pool ^= _POOL_HASH[0:4]
    pool *= _POOL_HASH[1:5]
    pool ^= pool >> 16
    # mix: each word's hash into every other word, in SeedSequence's order
    for src, dst in enumerate(_OTHERS):
        k = 4 + 3 * src
        h = pool[src] ^ _POOL_HASH[k : k + 3]
        h *= _POOL_HASH[k + 1 : k + 4]
        h ^= h >> 16
        h *= _MIX_R
        mixed = pool[dst]
        mixed *= _MIX_L
        mixed -= h
        mixed ^= mixed >> 16
        pool[dst] = mixed
    # output: 8 words, each the hash of a pool word, cycling through the pool
    words = pool[_POOL_CYCLE]
    words ^= _OUT_HASH[0:8]
    words *= _OUT_HASH[1:9]
    words ^= words >> 16
    # as SeedSequence joins them: little-endian pairs, low word first
    return words.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


def bit_generators(seeds) -> list[np.random.PCG64]:
    """``[np.random.PCG64(seed) for seed in seeds]`` for integer seeds in [0, 2**64)."""
    if len(seeds) < _MIN_BLOCK:
        return [np.random.PCG64(seed) for seed in seeds]
    return [np.random.PCG64(_StateWords(words)) for words in _state_words(seeds)]
