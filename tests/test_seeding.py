"""The block seeding of ``metapsk.seeding`` against numpy's own SeedSequence."""

import numpy as np
import pytest

from metapsk.harness import derive_seed
from metapsk.seeding import _MIN_BLOCK, _StateWords, bit_generators

# the edges of the one- and two-word entropy of a 64-bit seed
EDGE_SEEDS = [0, 1, 2**31, 2**32 - 1, 2**32, 2**32 + 1, 2**63, 2**64 - 1]


def derived_seeds(count):
    return [derive_seed(7, "seeding", i) for i in range(count)]


@pytest.mark.parametrize("seeds", [
    derived_seeds(1000) + EDGE_SEEDS,  # one block hash
    derived_seeds(_MIN_BLOCK),  # the smallest block hashed together
    derived_seeds(_MIN_BLOCK - 1),  # numpy's SeedSequence, one seed at a time
    EDGE_SEEDS[:3],
])
def test_each_generator_has_its_seeds_state(seeds):
    generators = bit_generators(seeds)
    assert len(generators) == len(seeds)
    for seed, generator in zip(seeds, generators):
        assert generator.state == np.random.PCG64(seed).state, seed


def test_generators_draw_default_rngs_streams():
    seeds = derived_seeds(16)
    for seed, generator in zip(seeds, bit_generators(seeds)):
        expected = np.random.default_rng(seed).standard_normal(5)
        assert np.random.default_rng(generator).standard_normal(5).tobytes() == expected.tobytes()


def test_hashed_words_serve_pcg64_only():
    words = _StateWords(np.zeros(4, dtype=np.uint64))
    with pytest.raises(ValueError, match="four uint64 words"):
        words.generate_state(4)
    with pytest.raises(ValueError, match="four uint64 words"):
        words.generate_state(8, np.uint64)


def test_seeds_outside_64_bits_are_refused():
    with pytest.raises(OverflowError):
        bit_generators(derived_seeds(_MIN_BLOCK - 1) + [2**64])
    with pytest.raises(OverflowError):
        bit_generators(derived_seeds(_MIN_BLOCK - 1) + [-1])
