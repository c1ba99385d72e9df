"""numpy's default random stream in pure Python, bit for bit.

The CLI draws random numbers for two jobs only: the fold permutations of
the cross-validated size choice and the scenario study's uniforms.
Importing ``numpy.random`` for them cost every process about 6 MiB and
14 ms, most of it OpenSSL's ``hashlib`` (through ``secrets``).  This module
reproduces the three numpy pieces they use:

* ``seed_words``: ``SeedSequence(seed, spawn_key=key).generate_state(n)``;
* ``PCG64``: the XSL-RR 128/64 generator that ``default_rng`` seeds from
  four of those words as uint64, with the buffered 32-bit draws and the
  53-bit doubles of ``Generator.random``;
* ``PCG64.permutation``: ``Generator.permutation(n)``, a Fisher-Yates swap
  loop whose indices come from masked rejection on 32-bit draws.

The stream is pinned here, not by numpy's Generator internals, which
numpy's stream policy (NEP 19) does not freeze.  The draw loops keep the
state in locals: a draw costs about 0.5-0.6 us (2 vCPUs).
"""

from __future__ import annotations

import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit multiplier


def _uint32_words(value) -> list[int]:
    """A non-negative integer as uint32 words, least significant first."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _M32]
    while value > _M32:
        value >>= 32
        words.append(value & _M32)
    return words


def seed_words(seed, spawn_key=(), n_words: int = 1) -> list[int]:
    """``SeedSequence(seed, spawn_key=spawn_key).generate_state(n_words)``
    (uint32 words) as Python ints."""
    entropy = _uint32_words(seed)
    # numpy pads the seed with zeros to the pool size only before a spawn
    # key; without one, the pool hashes a 0 for each missing word anyway
    entropy += [0] * (4 - len(entropy))
    entropy += [w for k in spawn_key for w in _uint32_words(k)]

    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value ^= const
        const = const * 0x931E8875 & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))

    const, out = 0x8B51F9DD, []
    for i in range(n_words):
        value = pool[i % 4] ^ const
        const = const * 0x58F38DED & _M32
        value = value * const & _M32
        out.append(value ^ value >> 16)
    return out


class PCG64:
    """``np.random.default_rng(np.random.SeedSequence(seed, spawn_key=spawn_key))``."""

    def __init__(self, seed, spawn_key=()):
        w = seed_words(seed, spawn_key, 8)  # four uint64 words, little-endian pairs
        initstate = w[1] << 96 | w[0] << 64 | w[3] << 32 | w[2]
        initseq = w[5] << 96 | w[4] << 64 | w[7] << 32 | w[6]
        self._inc = (initseq << 1 | 1) & _M128
        self._state = ((self._inc + initstate) * _MULT + self._inc) & _M128
        self._half = None  # the high half of a 64-bit draw a 32-bit draw left over

    def random(self, n: int) -> np.ndarray:
        """``Generator.random(n)``: n doubles (next64 >> 11) * 2**-53."""
        state, inc = self._state, self._inc
        out = [0] * n
        for i in range(n):
            state = (state * _MULT + inc) & _M128
            x, rot = (state >> 64 ^ state) & _M64, state >> 122
            out[i] = (x >> rot | x << (64 - rot)) & _M64
        self._state = state
        return (np.array(out, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53

    def permutation(self, n: int) -> np.ndarray:
        """``Generator.permutation(n)`` for n <= 2**32: for i = n-1 .. 1, swap
        i with j <= i, where j is the first 32-bit draw masked to i's bit
        length that does not exceed i."""
        state, inc, half = self._state, self._inc, self._half
        perm = list(range(n))
        for i in range(n - 1, 0, -1):
            mask = (1 << i.bit_length()) - 1
            while True:
                if half is None:
                    state = (state * _MULT + inc) & _M128
                    x, rot = (state >> 64 ^ state) & _M64, state >> 122
                    x = (x >> rot | x << (64 - rot)) & _M64
                    j, half = x & mask, x >> 32
                else:
                    j, half = half & mask, None
                if j <= i:
                    break
            perm[i], perm[j] = perm[j], perm[i]
        self._state, self._half = state, half
        return np.array(perm, dtype=np.int64)
