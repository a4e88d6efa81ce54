"""Deterministic random streams backed by the counter-based Philox generator.

Every random draw in the package flows from an explicit seed; there is no
ambient entropy. Distinct pipeline stages use distinct stream tags so that
the same seed never replays one stream for two purposes.

Two generators share one definition of a (seed, stream) stream:

- `philox_rng` is numpy's `Generator` over `Philox(SeedSequence([seed,
  stream]))`. `simulate` draws from it (its normal draws need numpy's
  ziggurat); numpy is imported by the first call, not when this module
  loads.
- `choice_set` is a pure-Python copy of that stream for one draw only,
  the member set of `choice(n, k, replace=False)`, so that the control
  split runs without numpy. It follows numpy 2's `SeedSequence` hash,
  Philox4x64-10 (Salmon et al., "Parallel random numbers: as easy as 1,
  2, 3", SC 2011), its 32-bit half-word buffering and Lemire's bounded
  integers (ACM TOMACS 29(1), 2019) step for step, and
  `tests/test_rng.py` pins it bit for bit to numpy.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:
    import numpy as np

STREAM_BEHAVIOR = 1
STREAM_SCORES = 2
STREAM_CONTROL = 3

_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF

# numpy.random.bit_generator: SeedSequence's hash constants.
_POOL_SIZE = 4
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715

# Random123's Philox4x64 multipliers and Weyl key increments.
_PHILOX_M0 = 0xD2E7470EE14C6C93
_PHILOX_M1 = 0xCA5A826395121157
_PHILOX_W0 = 0x9E3779B97F4A7C15
_PHILOX_W1 = 0xBB67AE8584CAA73B
_PHILOX_ROUNDS = 10


def philox_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """A Philox-backed generator for the given (seed, stream) pair."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    import numpy as np

    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def _uint32_words(value: int) -> list[int]:
    """A non-negative integer as little-endian 32-bit words, at least one."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def philox_key(seed: int, stream: int) -> tuple[int, int]:
    """`SeedSequence([seed, stream]).generate_state(2, np.uint64)`."""
    if seed < 0:
        raise ValueError("seed must be a non-negative integer")
    if stream < 0:
        raise ValueError("stream must be a non-negative integer")
    entropy = _uint32_words(seed) + _uint32_words(stream)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = _MIX_MULT_L * x - _MIX_MULT_R * y & _MASK32
        return result ^ result >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    state = []
    for word in pool:  # 2 uint64 words are 4 uint32 words, one per pool word
        value = word ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def philox_uint64s(key: tuple[int, int]) -> Iterator[int]:
    """The raw 64-bit outputs of numpy's `Philox` under a `philox_key` key.

    The 256-bit counter starts at 0 and is bumped before each block of four
    words, as numpy does.
    """
    key0, key1 = key
    counter = 0
    while True:
        counter += 1
        c0, c1 = counter & _MASK64, counter >> 64 & _MASK64
        c2, c3 = counter >> 128 & _MASK64, counter >> 192 & _MASK64
        k0, k1 = key0, key1
        for round_ in range(_PHILOX_ROUNDS):
            if round_:
                k0 = k0 + _PHILOX_W0 & _MASK64
                k1 = k1 + _PHILOX_W1 & _MASK64
            p0 = _PHILOX_M0 * c0
            p1 = _PHILOX_M1 * c2
            c0, c1, c2, c3 = p1 >> 64 ^ c1 ^ k0, p1 & _MASK64, p0 >> 64 ^ c3 ^ k1, p0 & _MASK64
        yield c0
        yield c1
        yield c2
        yield c3


def _philox_uint32s(key: tuple[int, int]) -> Iterator[int]:
    """numpy's `next_uint32`: each 64-bit word gives its low half, then its high half."""
    for word in philox_uint64s(key):
        yield word & _MASK32
        yield word >> 32


def choice_set(seed: int, stream: int, n: int, k: int) -> set[int]:
    """The members of `philox_rng(seed, stream).choice(n, size=k, replace=False)`.

    numpy draws them with Floyd's algorithm when ``n <= 10000`` or
    ``k <= n // 50``, and otherwise with a partial Fisher-Yates shuffle of
    the tail of ``range(n)``. It then shuffles the draw, which reorders it
    but does not change the set, so that last step is left out here.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cannot choose {k} of {n} without replacement")
    if n >= 1 << 32:
        # numpy draws bounds above 2**32 - 1 on a 64-bit Lemire path, not written here.
        raise ValueError(f"population {n} is not below 2**32")
    next_uint32 = _philox_uint32s(philox_key(seed, stream)).__next__

    def bounded(bound: int) -> int:
        """Lemire's draw on [0, bound], as numpy's `buffered_bounded_lemire_uint32`.

        As ``n < 2**32``, ``bound < 2**32 - 1``: numpy's branch that returns a
        whole word for that bound is never taken.
        """
        if bound == 0:
            return 0
        span = bound + 1
        product = next_uint32() * span
        if product & _MASK32 < span:
            threshold = (_MASK32 - bound) % span
            while product & _MASK32 < threshold:
                product = next_uint32() * span
        return product >> 32

    if n <= 10000 or k <= n // 50:
        chosen: set[int] = set()
        for j in range(n - k, n):
            value = bounded(j)
            chosen.add(j if value in chosen else value)
        return chosen
    members = list(range(n))
    for i in range(n - 1, max(n - k, 1) - 1, -1):
        j = bounded(i)
        members[i], members[j] = members[j], members[i]
    return set(members[n - k :])
