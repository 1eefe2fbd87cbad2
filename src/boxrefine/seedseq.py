"""numpy's ``SeedSequence``, run on many seeds at once.

``PCG64(seed)`` builds a ``SeedSequence`` object for its int seed, about
20 µs a stream. :func:`seed_states` runs the same pool mixing and state
output on a whole array of seeds as ``uint32`` array arithmetic, and
:class:`HeldState` hands one result to ``PCG64`` through numpy's
documented seed-sequence interface. ``noise`` imports this module only
when it draws noise, as it imports ``numpy.random``.
"""

from __future__ import annotations

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# SeedSequence's constants (numpy/random/bit_generator.pyx): the hash
# multipliers of pool mixing (A) and of state output (B), and the mix weights
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The ``n + 1`` values a hash constant takes in turn: hash k xors with
    value k and multiplies by value k + 1."""
    values = [init]
    for _ in range(n):
        values.append(values[-1] * mult & 0xFFFFFFFF)
    return np.array(values, dtype=np.uint32)


# pool mixing hashes 4 entropy words, then 12 pool words; the output 8 words
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 16)
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 8)


def _hashmix(x: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """The hashmix of each column j of ``x`` with hash constant
    ``consts[j]``, in uint32 arithmetic, which wraps as C does."""
    x = (x ^ consts[:-1]) * consts[1:]
    return x ^ (x >> 16)


def seed_states(entropy: np.ndarray) -> np.ndarray:
    """``np.random.SeedSequence(v).generate_state(4, np.uint64)`` for each
    ``v`` of the uint64 array ``entropy``, as the rows of an ``(N, 4)`` array.

    A value's entropy words are its low and high 32 bits. A value below
    2**32 has one word, but the zero that pads it to the pool size hashes
    as its high word does, so every value takes the same path.
    """
    words = np.zeros((len(entropy), 4), dtype=np.uint32)
    words[:, 0] = entropy & 0xFFFFFFFF
    words[:, 1] = entropy >> 32
    pool = _hashmix(words, _HASH_A[:5])
    k = 4
    for src in range(4):
        # word src is mixed into the other three, each with its own constant
        dst = [d for d in range(4) if d != src]
        h = _hashmix(pool[:, src : src + 1], _HASH_A[k : k + 4])
        k += 3
        mixed = _MIX_L * pool[:, dst] - _MIX_R * h
        pool[:, dst] = mixed ^ (mixed >> 16)
    # eight 32-bit words, from the pool in turn, read as four little-endian uint64
    out = _hashmix(np.tile(pool, 2), _HASH_B)
    return out.astype("<u4").view("<u8").astype(np.uint64)


class HeldState(ISeedSequence):
    """A seed sequence that hands ``PCG64`` the state words it holds."""

    def __init__(self, words: np.ndarray) -> None:
        self.words = words

    def generate_state(self, n_words: int, dtype: type = np.uint32) -> np.ndarray:
        # PCG64 asks for 4 uint64 words, the only state held
        if n_words != 4 or dtype is not np.uint64:
            raise NotImplementedError(f"holds 4 uint64 words, asked {n_words} {dtype}")
        return self.words
