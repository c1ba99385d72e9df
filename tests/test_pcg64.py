"""The in-package generator against numpy.random, bit for bit.

numpy.random is the reference here only: the program draws its fold
permutations and study uniforms from ``copulatree._pcg64``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from copulatree._pcg64 import PCG64, seed_words

# one, two and several uint32 words of entropy; above 2**96 the seed alone
# fills numpy's four-word pool and the rest is mixed in afterwards
SEEDS = st.one_of(
    st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 1, 2**128]),
    st.integers(0, 2**32 - 1),
    st.integers(2**64 + 1, 2**200),
)
SPAWN_KEYS = st.lists(st.integers(0, 2**40), max_size=2).map(tuple)


def numpy_generator(seed, spawn_key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))


@settings(max_examples=300)
@given(SEEDS, SPAWN_KEYS, st.integers(0, 12))
def test_seed_words_are_generate_state(seed, spawn_key, n):
    ss = np.random.SeedSequence(seed, spawn_key=spawn_key)
    words = seed_words(seed, spawn_key, 2 * n)
    assert words[:n] == ss.generate_state(n).tolist()
    assert [lo | hi << 32 for lo, hi in zip(words[::2], words[1::2])] == ss.generate_state(n, np.uint64).tolist()


@settings(max_examples=200)
@given(SEEDS, SPAWN_KEYS, st.lists(st.tuples(st.booleans(), st.integers(0, 5000)), min_size=1, max_size=4))
def test_draws_are_numpys(seed, spawn_key, calls):
    """Doubles and permutations in any order, so a 32-bit half that one
    permutation leaves buffered is the next one's first draw."""
    ours, theirs = PCG64(seed, spawn_key), numpy_generator(seed, spawn_key)
    for doubles, n in calls:
        if doubles:
            a, b = ours.random(n), theirs.random(n)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        else:
            a, b = ours.permutation(n), theirs.permutation(n)
            assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("n", list(range(70)) + [2**k + d for k in range(7, 13) for d in (-1, 0, 1)] + [5000])
def test_permutation_is_numpys(n):
    """Every mask width up to 13 bits, at and around its powers of two."""
    for seed, spawn_key in ((0, ()), (7, (3,)), (20240, (1, 2))):
        assert np.array_equal(PCG64(seed, spawn_key).permutation(n), numpy_generator(seed, spawn_key).permutation(n))


@pytest.mark.parametrize("seed, spawn_key", [(-1, ()), (-(2**70), ()), (5, (-1,)), (5, (0, -3))])
def test_negative_seed_raises_as_seed_sequence(seed, spawn_key):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.SeedSequence(seed, spawn_key=spawn_key)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        seed_words(seed, spawn_key)
    with pytest.raises(ValueError, match="expected non-negative integer"):
        PCG64(seed, spawn_key)
