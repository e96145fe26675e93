"""Deterministic seed derivation shared by every randomized component.

derive_seed and seeded_rng hash a tuple of integer keys with numpy's
SeedSequence. derived_seed_words gives, in numpy uint32 arithmetic, the
SeedSequence words that seeded_rng(derive_seed(seed, iteration, slot))
seeds its PCG64 with, for many (seed, iteration, slot) rows at once, the
one key layout a training run hashes in bulk: its dropout plan
(trainer._DropoutPlan) hashes a block of iterations this way and hands
each row's words to numpy's PCG64, which seeds itself from them. It
follows numpy's SeedSequence hash bit for bit on that layout (tests pin it
against numpy on random rows).

Key registry: every generator of a run starts from one of these keys. s
is a seed of the config's seeds list, and c = derive_seed(s, 2) is the
TrainConfig.seed that every training key starts with.

    dataset            seeded_rng(d), d = derive_seed(s, 1); the IDX loader
                       draws seeded_rng(derive_seed(d, 0)) for the source
                       and seeded_rng(derive_seed(d, 1)) for the target
    student init       seeded_rng(derive_seed(c, 11))
    critic init        seeded_rng(derive_seed(c, 13))
    batches            seeded_rng(derive_seed(c, 17), epoch, domain)
    dropout            seeded_rng(derive_seed(c, iteration, slot)): slot 1
                       the step's source pass, 2 its target pass, 3 its Pi
                       teacher pass; hashed as derived_seed_words rows
    Pi snapshot        seeded_rng(derive_seed(c, iteration, 4))
    k-means restart r  seeded_rng(derive_seed(derive_seed(c, 29, iteration), r))

SeedSequence pads a key tuple with zero words, so (c, 11) is the key
(c, 11, 0): only key values keep streams apart, never a tuple's length,
and no dropout slot is 0. At iterations 1 to 4, k-means' key (c, 29,
iteration) is the key of iteration 29's slot 1 to 4, but a restart hashes
it once more, so no k-means generator draws a dropout stream. TrainConfig
holds c below 2**64 and total_iters below 2**31, so every iteration the
plan hashes, its block past the last one included, is one word.
"""

from __future__ import annotations

import numpy as np

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence: pool size, hash and mix constants, shift.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16


def derive_seed(*keys: int) -> int:
    """Collapse a tuple of integer keys into one stable unsigned seed."""
    state = np.random.SeedSequence([int(k) for k in keys]).generate_state(1, np.uint64)
    return int(state[0])


def seeded_rng(*keys: int) -> np.random.Generator:
    """A fresh generator keyed by the given integers."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(k) for k in keys])))


def _hash_constants(start, mult):
    """The (xor, multiplier) pair of each successive hash of one SeedSequence
    pass: the running constant before and after its multiplication."""
    const = start
    while True:
        step = const * mult & _MASK32
        yield const, step
        const = step


def _hash(value, constants):
    x, m = next(constants)
    value = value ^ x
    value *= m
    value ^= value >> _XSHIFT
    return value


def _mix(x, y):
    result = _MIX_L * x - _MIX_R * y
    result ^= result >> _XSHIFT
    return result


def _key_words(rows):
    """SeedSequence's entropy words of each (seed, iteration, slot) row,
    seed below 2**64 and iteration and slot below 2**32: a seed below 2**32
    is one word and any other seed two, low word first; then iteration and
    slot, zero-padded to the 4-word pool. Returns uint32 of shape (rows, 4)."""
    seed, iteration, slot = np.asarray(rows, np.uint64).T
    high = seed >> 32
    wide = high > 0
    return np.stack([seed & _MASK32, np.where(wide, high, iteration),
                     np.where(wide, iteration, slot), np.where(wide, slot, 0)],
                    axis=-1).astype(np.uint32)


def _generate(entropy, n_words):
    """SeedSequence.generate_state(n_words) of each row of at most 4
    entropy words."""
    entropy = entropy.T
    consts = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(entropy.shape[1], np.uint32)
    # Entropy shorter than the pool is hashed as if padded with zero words.
    pool = [_hash(entropy[i] if i < len(entropy) else zero, consts) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    consts = _hash_constants(_INIT_B, _MULT_B)
    return np.stack([_hash(pool[i % _POOL], consts) for i in range(n_words)], axis=-1)


def derived_seed_words(rows):
    """SeedSequence(derive_seed(seed, iteration, slot)).generate_state(8),
    the words that seed seeded_rng's PCG64, for every (seed, iteration,
    slot) row of the layout _key_words takes: uint32 of shape (rows, 8)."""
    seeds = _generate(_key_words(rows), 2)
    # SeedSequence takes a derived seed as its words, low first. A zero high
    # word, which it drops, hashes as the zero pad of a short entropy.
    return _generate(seeds, 8)
