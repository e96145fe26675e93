import random

import numpy as np
import pytest

from clusteralign import seeding, trainer as trainer_module
from clusteralign.seeding import (
    Streams,
    derive_seed,
    derived_rng_states,
    seeded_rng,
    sequence_words,
)

# Keys at the word boundaries of SeedSequence's entropy: one word, two
# words, three words.
EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**64 + 7, 2**96 - 1, 2**96)


def random_keys(rows, width, seed):
    """Key tuples whose keys take one, two or three 32-bit words, edges
    included, so one call mixes word counts."""
    rng = random.Random(seed)
    bits = (32, 64, 96)

    def key():
        if rng.random() < 0.25:
            return rng.choice(EDGES)
        return rng.getrandbits(rng.choice(bits))

    return [[key() for _ in range(width)] for _ in range(rows)]


def state_of(generator):
    state = generator.bit_generator.state["state"]
    return state["state"], state["inc"]


def as_ints(states):
    return [(hi << 64 | lo, inc_hi << 64 | inc_lo) for hi, lo, inc_hi, inc_lo in states.tolist()]


@pytest.mark.parametrize("width", [1, 2, 3, 5])
def test_sequence_words_match_numpy_seed_sequence(width):
    keys = random_keys(1000, width, width)
    for n_words in (1, 2, 4, 8, 9):
        expected = np.array([np.random.SeedSequence(k).generate_state(n_words) for k in keys])
        assert np.array_equal(sequence_words(keys, n_words), expected)


def test_sequence_words_take_fixed_width_integer_arrays():
    keys = np.array([[0, 2**63 - 1, 5], [2**32, 2**32 - 1, 0]], dtype=np.int64)
    expected = [np.random.SeedSequence([int(k) for k in row]).generate_state(4) for row in keys]
    assert np.array_equal(sequence_words(keys, 4), expected)
    unsigned = np.array([[2**64 - 1, 3]], dtype=np.uint64)
    assert np.array_equal(sequence_words(unsigned, 2),
                          [np.random.SeedSequence([2**64 - 1, 3]).generate_state(2)])


@pytest.mark.parametrize("keys", [[[-1]], [[3, -2**40]], np.array([[1, -1]])])
def test_negative_keys_raise_value_error_as_numpy_does(keys):
    with pytest.raises(ValueError):
        np.random.SeedSequence(list(np.ravel(keys)))
    with pytest.raises(ValueError):
        sequence_words(keys, 2)


def test_derived_states_and_first_draws_match_seeded_rng_of_derive_seed():
    # A derived seed is a one- or two-word key of its own; the edges of the
    # first hash's keys are in the tuples.
    keys = random_keys(1000, 3, 7)
    derived = [derive_seed(*k) for k in keys]
    states = derived_rng_states(keys)
    assert as_ints(states) == [state_of(seeded_rng(seed)) for seed in derived]
    draws = Streams().fill(states, np.empty((len(keys), 37)))
    assert np.array_equal(draws, [seeded_rng(seed).random(37) for seed in derived])


def test_a_zero_high_word_hashes_as_the_pad_of_a_one_word_seed():
    # derived_rng_states hashes every derived seed as two words. A seed under
    # 2**32, too rare to meet by chance, is one word to SeedSequence, and
    # the pad of a short entropy is a zero word too.
    low = np.array([0, 1, 7, 2**31, 2**32 - 1], dtype=np.uint32)
    words = np.stack([low, np.zeros_like(low)], axis=-1)
    assert np.array_equal(seeding._generate(words, np.full(len(low), 2), 8),
                          [np.random.SeedSequence(int(w)).generate_state(8) for w in low])


def test_streams_restart_at_any_state():
    streams = Streams()
    states = derived_rng_states([[1, 2], [3, 4]])
    first = streams.fill(states, np.empty((2, 5)))
    streams.fill(derived_rng_states([[9]]), np.empty((1, 1000)))
    assert np.array_equal(streams.fill(states, np.empty((2, 5))), first)


@pytest.mark.parametrize("seeds", [(3, 4, 5), (2**63 + 1, 0), (2**64 + 5,)],
                         ids=["small", "64-bit", "above-64-bit"])
def test_dropout_plan_replays_seeded_rng_of_each_key(seeds):
    # Slot-major rows of (slot, seed); a block boundary falls inside the
    # iterations asked for.
    plan = trainer_module._DropoutPlan(seeds, 3)
    block = trainer_module._PLAN_BLOCK
    for iteration in (0, 1, block - 1, block, 5 * block + 3, 2):
        for slots in ((1, 2), (1,), (2,), (3,), (1, 2, 3)):
            draws = plan.uniforms(iteration, slots, 11)
            expected = [seeded_rng(derive_seed(seed, iteration, slot)).random(11)
                        for slot in slots for seed in seeds]
            assert np.array_equal(draws, expected)
