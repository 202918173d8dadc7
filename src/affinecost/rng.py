"""np.random.default_rng for a batch of seeds.

default_rngs(keys) returns the Generators [np.random.default_rng(k) for
k in keys], stream for stream, at about a fifth of their cost. Seeding a
Generator runs numpy's SeedSequence on the key, which dominates its cost;
here the SeedSequence state of every key is computed at once, in one pass
of numpy uint32 arithmetic, and handed to PCG64 through numpy's
ISeedSequence interface.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# numpy's SeedSequence with its default pool of four 32-bit words
# (numpy/random/bit_generator.pyx): the multipliers of its hashmix and mix
# steps, and the first hash constants of mixing and of generate_state.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_constants(init: int, mult: int, calls: int) -> np.ndarray:
    # Each hashmix call XORs by the running hash constant, advances it by
    # mult and multiplies by the new value. These depend on no data: row 0
    # holds the XOR and row 1 the multiplier of each successive call.
    consts = [init]
    for _ in range(calls):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array([consts[:-1], consts[1:]], dtype=np.uint32)


# Mixing a two-word key takes 16 hashmix calls: 4 fill the pool, then the
# hash of each source word is mixed into every other word in turn, in the
# row-major order of the off-diagonal entries of _CROSS (source, target).
_OTHERS = ~np.eye(4, dtype=bool)
_MIXING = _hash_constants(_INIT_A, _MULT_A, 16)
_FILL = _MIXING[:, :4]
_CROSS = np.zeros((2, 4, 4), dtype=np.uint32)
_CROSS[:, _OTHERS] = _MIXING[:, 4:]
# generate_state(4, np.uint64) hashes the pool twice over into 8 words.
_STATE = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(value, consts):
    value = (value ^ consts[0]) * consts[1]
    return value ^ (value >> np.uint32(16))


def _seed_states(keys) -> np.ndarray:
    """SeedSequence(k).generate_state(4, np.uint64) for each key k below
    2**64, as the C-contiguous rows of one (m, 4) uint64 array.

    A key is two little-endian 32-bit words; a key below 2**32 has one,
    and the missing word pads the pool with the hash of zero, as a zero
    word does.
    """
    keys = np.asarray(keys, dtype=np.uint64)
    words = np.zeros((len(keys), 4), dtype=np.uint32)
    words[:, 0] = keys & np.uint64(0xFFFFFFFF)
    words[:, 1] = keys >> np.uint64(32)
    pool = _hashmix(words, _FILL)
    for src in range(4):
        mixed = _MIX_MULT_L * pool - _MIX_MULT_R * _hashmix(pool[:, src, None], _CROSS[:, src])
        np.copyto(pool, mixed ^ (mixed >> np.uint32(16)), where=_OTHERS[src])
    state = _hashmix(np.tile(pool, 2), _STATE)
    return state.astype("<u4").view("<u8").astype(np.uint64)


class _SeedState(ISeedSequence):
    """A precomputed PCG64 seed: PCG64 asks its seed for exactly
    generate_state(4, np.uint64) and reads the array's memory directly."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if (n_words, dtype) != (4, np.uint64):
            raise ValueError("a seed state serves PCG64 only")
        return self.state


def default_rngs(keys) -> list:
    """[np.random.default_rng(k) for k in keys], for integer keys below
    2**64, seeded from one batch of seed states."""
    return [np.random.Generator(np.random.PCG64(_SeedState(row))) for row in _seed_states(keys)]
