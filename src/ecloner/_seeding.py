"""numpy's seeding of PCG64, evaluated for many seeds at once.

``numpy.random.default_rng(seed)`` hashes ``seed`` with NEP 19's
``SeedSequence`` (after O'Neill's ``seed_seq``) into four 64-bit words and
seeds PCG64 from them with ``srandom`` (O'Neill, *PCG: A Family of Simple
Fast Space-Efficient Statistically Good Algorithms for Random Number
Generation*, HMC-CS-2014-0905).  Both are fixed algorithms whose hash
constants do not depend on the data, so the hash of every seed of one word
count is one evaluation on a (seeds, words) uint32 array, a step per source
word.  Only the 128-bit ``srandom`` steps run per seed, on Python ints.
The tests check every result against numpy's own classes.
"""

import functools

import numpy as np

# NEP 19's SeedSequence: pool size and hash constants, on 32-bit words
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


@functools.cache
def _hash_constants(init, mult, calls):
    """(2, calls) uint32: the running constant ``init * mult**k`` (mod 2^32)
    before and after each of a hash's first ``calls`` calls."""
    values = [init]
    for _ in range(calls):
        values.append(values[-1] * mult & _MASK32)
    constants = np.array([values[:-1], values[1:]], dtype=np.uint32)
    constants.flags.writeable = False  # cached: every caller shares it
    return constants


@functools.cache
def _spread_constants():
    """(source word, before/after, pool word) uint32: the calls that mix a
    pool word into the others, at those words in order, and 0 at its own."""
    size = _POOL_SIZE
    calls = _hash_constants(_INIT_A, _MULT_A, size * size)[:, size:]
    spread = np.zeros((size, 2, size), dtype=np.uint32)
    for src in range(size):
        others = [dst for dst in range(size) if dst != src]
        spread[src][:, others] = calls[:, (size - 1) * src : (size - 1) * (src + 1)]
    spread.flags.writeable = False
    return spread


def _hashmix(values, constants):
    """The hash of uint32 ``values``, a call per entry along the last axis
    with the (before, after) constants of ``constants[:, k]``."""
    values = (values ^ constants[0]) * constants[1]
    return values ^ values >> 16


def _mix(x, y):
    mixed = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return mixed ^ mixed >> 16


def _pools(entropy):
    """The ``SeedSequence`` pool of each row of a (seeds, words) uint32
    entropy array, words >= ``_POOL_SIZE``.  An entropy of fewer words has
    the pool of its zero-padded form."""
    size, words = _POOL_SIZE, entropy.shape[1]
    constants = _hash_constants(_INIT_A, _MULT_A, size * words)
    pools = _hashmix(entropy[:, :size], constants[:, :size])
    # each pool word is mixed into the others, then each further entropy word into all
    for src, spread in enumerate(_spread_constants()):
        kept = pools[:, src].copy()
        pools = _mix(pools, _hashmix(pools[:, src, None], spread))
        pools[:, src] = kept
    for src in range(size, words):
        calls = constants[:, size * src : size * (src + 1)]
        pools = _mix(pools, _hashmix(entropy[:, src, None], calls))
    return pools


def _generate_state(pools, n_words):
    """``SeedSequence.generate_state(n_words, np.uint64)`` of each pool, as a
    (seeds, n_words) list of ints."""
    constants = _hash_constants(_INIT_B, _MULT_B, 2 * n_words)
    words = _hashmix(pools[:, np.arange(2 * n_words) % _POOL_SIZE], constants)
    # word 2j is the low half of 64-bit word j, on any byte order
    return np.ascontiguousarray(words, dtype="<u4").view("<u8").tolist()


def _word_count(value):
    """The number of 32-bit words ``SeedSequence`` makes of an int >= 0."""
    return max(1, -(-value.bit_length() // 32))


def _words(values, width):
    """(len(values), width) uint32: each int's 32-bit words, least significant first."""
    data = b"".join(value.to_bytes(4 * width, "little") for value in values)
    return np.frombuffer(data, dtype="<u4").reshape(len(values), width)


def spawn_seeds(master_seed, count, key):
    """``SeedSequence(master_seed, spawn_key=(i, key)).generate_state(1, np.uint64)[0]``
    for ``i`` in ``range(count)``, for ints ``master_seed`` and ``key`` >= 0."""
    # a spawned sequence pads its own entropy with zero words to the pool size
    master = _words([master_seed], max(_POOL_SIZE, _word_count(master_seed)))[0]
    key = _words([key], _word_count(key))[0]
    entropy = np.empty((count, len(master) + 1 + len(key)), dtype=np.uint32)
    entropy[:, : len(master)] = master
    entropy[:, len(master)] = np.arange(count, dtype=np.uint32)  # one word each below 2^32
    entropy[:, len(master) + 1 :] = key
    return [seed for (seed,) in _generate_state(_pools(entropy), 1)]


def pcg64_states(seeds):
    """The ``(state, inc)`` of ``numpy.random.PCG64(seed).state["state"]``
    for each int ``seed`` >= 0."""
    states = [None] * len(seeds)
    by_width = {}
    for k, seed in enumerate(seeds):
        by_width.setdefault(max(_POOL_SIZE, _word_count(seed)), []).append(k)
    for width, ks in by_width.items():
        words = _generate_state(_pools(_words([seeds[k] for k in ks], width)), 4)
        for k, (s_hi, s_lo, i_hi, i_lo) in zip(ks, words):
            inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
            # srandom: a step from state 0, the seed added, one more step
            states[k] = (((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc)
    return states
