"""Deterministic seed derivation shared by every randomized component.

derive_seed and seeded_rng hash a tuple of integer keys with numpy's
SeedSequence. sequence_words is the same hash of many key tuples at once,
in numpy uint32 arithmetic, and derived_rng_states gives the PCG64 states
that seeded_rng(derive_seed(*key)) starts from, so a Streams pair can
replay any number of such generators without constructing one: a
training run hashes its dropout keys a block of iterations at a time this
way. Both follow numpy's SeedSequence and PCG64 seeding algorithms bit for
bit (tests pin them against numpy on random keys).
"""

import numpy as np

_MASK32 = 0xFFFFFFFF
# numpy's SeedSequence: pool size, hash and mix constants, shift.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16
# PCG64's 128-bit LCG multiplier.
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341


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


def _words(keys):
    """Each row's keys as SeedSequence entropy: every key split into 32-bit
    words, least significant first (zero is one word), concatenated in key
    order. Returns the (rows, max length) uint32 words, zero-padded, and
    each row's word count."""
    keys = np.asarray(keys)
    if keys.ndim != 2:
        raise ValueError(f"keys must be 2-D (key tuples, keys per tuple); got shape {keys.shape}")
    if keys.dtype.kind not in "iuO":
        raise TypeError("SeedSequence keys must be integers")
    if (keys < 0).any():
        raise ValueError("expected non-negative integer")
    if keys.dtype.kind == "i":
        keys = keys.astype(np.uint64)
    columns = []
    for rest in keys.T:
        # Python ints of any size stay objects; fixed-width ones shift as uint64.
        words = [rest & _MASK32]
        count = np.ones(len(rest), np.int64)
        while True:
            rest = rest >> 32
            more = rest > 0
            if not more.any():
                break
            words.append(rest & _MASK32)
            count += more
        columns.append((np.array(words, np.uint64).astype(np.uint32), count))
    starts = np.zeros(len(keys), np.int64)
    entropy = np.zeros((len(keys), sum(len(w) for w, _ in columns)), np.uint32)
    rows = np.arange(len(keys))
    for words, count in columns:
        for j, word in enumerate(words):
            held = j < count
            entropy[rows[held], starts[held] + j] = word[held]
        starts += count
    return entropy[:, :max(starts.max(initial=0), 1)], starts


def _generate(entropy, lengths, n_words):
    """SeedSequence.generate_state(n_words) of each row of entropy words;
    a row's words beyond its length are not part of it."""
    entropy = entropy.T
    consts = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros(entropy.shape[1], np.uint32)
    # Entropy shorter than the pool is hashed as if padded with zero words.
    pool = [_hash(entropy[i] if i < len(entropy) else zero, consts) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], consts))
    for src in range(_POOL, len(entropy)):
        held = lengths > src
        for dst in range(_POOL):
            pool[dst] = np.where(held, _mix(pool[dst], _hash(entropy[src], consts)), pool[dst])
    consts = _hash_constants(_INIT_B, _MULT_B)
    return np.stack([_hash(pool[i % _POOL], consts) for i in range(n_words)], axis=-1)


def sequence_words(keys, n_words):
    """np.random.SeedSequence(row).generate_state(n_words) of every row of
    keys, a 2-D array-like of non-negative integers (key tuples of equal
    length; a key may take any number of 32-bit words), in one vectorised
    pass. Returns uint32 words of shape (rows, n_words)."""
    entropy, lengths = _words(keys)
    return _generate(entropy, lengths, n_words)


def _limbs(value):
    """The four 32-bit limbs of a 128-bit constant, least significant first."""
    return [(value >> 32 * k) & _MASK32 for k in range(4)]


def _add(a, b):
    out, carry = [], 0
    for x, y in zip(a, b):
        total = x + y + carry
        out.append(total & _MASK32)
        carry = total >> 32
    return out


def _times(a, constant):
    """a times a 128-bit constant, modulo 2**128, on uint64 arrays of
    32-bit limbs."""
    m = _limbs(constant)
    out, carry = [], 0
    for k in range(4):
        low, high = carry, 0
        for i in range(k + 1):
            product = a[i] * m[k - i]
            low = low + (product & _MASK32)
            high = high + (product >> 32)
        out.append(low & _MASK32)
        carry = high + (low >> 32)
    return out


def _pcg64(words):
    """PCG64 seeded from each row of SeedSequence words: its 128-bit state
    and increment as uint64 (state high, state low, increment high,
    increment low 64 bits)."""
    words = words.astype(np.uint64).T
    # generate_state(4, uint64) pairs the words little-endian into
    # (initstate high, initstate low, initseq high, initseq low).
    initstate = [words[2], words[3], words[0], words[1]]
    initseq = [words[6], words[7], words[4], words[5]]
    inc = [(initseq[k] << 1 | (initseq[k - 1] >> 31 if k else 1)) & _MASK32 for k in range(4)]
    # pcg64_set_seed: step from state 0, add initstate, step again.
    state = _add(_times(_add(inc, initstate), _PCG_MULT), inc)
    return np.stack([state[3] << 32 | state[2], state[1] << 32 | state[0],
                     inc[3] << 32 | inc[2], inc[1] << 32 | inc[0]], axis=-1)


def derived_rng_states(keys):
    """The state that seeded_rng(derive_seed(*row)) starts from, for every
    row of keys as in sequence_words: uint64 of shape (rows, 4), the
    128-bit PCG64 state and increment as (state high, state low, increment
    high, increment low)."""
    seeds = sequence_words(keys, 2)
    # SeedSequence takes a derived seed as its words, low first. A zero high
    # word, which it drops, hashes as the zero pad of a short entropy.
    return _pcg64(_generate(seeds, np.full(len(seeds), 2), 8))


class Streams:
    """One PCG64 bit generator and its Generator, restarted from stored
    states: each row a generator's uniforms, at about the cost of setting
    a state."""

    def __init__(self):
        self._bits = np.random.PCG64(0)
        self._random = np.random.Generator(self._bits).random

    def fill(self, states, out):
        """Fill each row of out, a C-contiguous float64 array, with the
        uniforms in [0, 1) that a generator in the matching row of states
        (rows of derived_rng_states) draws first."""
        bits, random = self._bits, self._random
        for (state_hi, state_lo, inc_hi, inc_lo), row in zip(states.tolist(), out):
            bits.state = {"bit_generator": "PCG64",
                          "state": {"state": state_hi << 64 | state_lo,
                                    "inc": inc_hi << 64 | inc_lo},
                          "has_uint32": 0, "uinteger": 0}
            random(out=row)
        return out
