"""Deterministic random stream for trial synthesis.

The generator is xoshiro256** seeded through splitmix64, both fixed
published algorithms, so the exact byte stream can be reproduced in any
language from this description:

* splitmix64: state advances by 0x9E3779B97F4A7C15; each output mixes
  the new state with two xor-shift-multiply rounds (constants
  0xBF58476D1CE4E5B9 and 0x94D049BB133111EB) and a final 31-bit shift.
* substreams: substream i of a seed is seeded with its (i + 1)-th
  splitmix64 output. The state after i steps is seed + i *
  0x9E3779B97F4A7C15 mod 2^64, so that output is one step from it.
* seeding: the four xoshiro words are the seeds of substreams 0 to 3.
  The mix is a bijection and their states differ, so at most one is 0.
* uniforms: the top 53 bits of each 64-bit output, divided by 2^53,
  giving doubles in [0, 1).
* normals: Box-Muller; every call consumes exactly two uniforms u1, u2
  in that order and returns sqrt(-2 ln(1 - u1)) * cos(2 pi u2).
"""

import math

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(state: int):
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_stream_seed(master_seed: int, index: int) -> int:
    """Seed for the index-th substream: the (index + 1)-th splitmix64
    output of the master seed, which must lie in [0, 2**64), taken in
    closed form. Distinct indices give uncorrelated substreams."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    if not 0 <= master_seed <= _MASK64:
        raise ValueError("seed must lie in [0, 2**64)")
    return _splitmix64((master_seed + index * _SPLITMIX_GAMMA) & _MASK64)[1]


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding; seed must lie in
    [0, 2**64)."""

    def __init__(self, seed: int):
        self._s = [derive_stream_seed(int(seed), i) for i in range(4)]

    def next_uint64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_uint64() >> 11) * (2.0 ** -53)

    def normal(self) -> float:
        """Standard normal deviate; consumes exactly two uniforms."""
        u1 = 1.0 - self.random()  # in (0, 1], keeps the log finite
        u2 = self.random()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)
