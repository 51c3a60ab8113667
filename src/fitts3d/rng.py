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
  A seed is an int (not a bool) in [0, 2^64); anything else is
  rejected rather than truncated or reduced.
* uniforms: the top 53 bits of each 64-bit output, divided by 2^53,
  giving doubles in [0, 1).
* normals: Box-Muller; every call consumes exactly two uniforms u1, u2
  in that order and returns sqrt(-2 ln(1 - u1)) * cos(2 pi u2).

Xoshiro256StarStar steps one stream. lockstep_uniforms steps many at
once and yields the same uniforms as each stream stepped alone, bit for
bit. Each state word of all streams is one Python int in which stream
i holds bits [128 i, 128 i + 64), and the 64 bits above them are a
gap. Multiplying a 64-bit value by 5 or 9, or shifting it left by 7,
17 or 45, stays below 2^128, so it spills only into its own gap; a
right shift by at most 64 moves a stream's bits into its own low bits
or the gap below them. Masking the gaps after each step that fills
them therefore leaves every lane the 64-bit word its stream would
hold, and the same xor, shift and rotate act on all lanes at once. One
little-endian "Q8x" record per lane packs the seeds in and unpacks each
step's outputs.
"""

import math
import struct

_MASK64 = (1 << 64) - 1
_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_UNIT = 2.0 ** -53  # an output's top 53 bits times this is a uniform in [0, 1)


def _splitmix64(state: int):
    """One splitmix64 step: returns (next_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def derive_stream_seed(master_seed: int, index: int) -> int:
    """Seed for the index-th substream: the (index + 1)-th splitmix64
    output of the master seed, which must be an int in [0, 2**64), taken
    in closed form. Distinct indices give uncorrelated substreams."""
    if index < 0:
        raise ValueError("index must be nonnegative")
    if (isinstance(master_seed, bool) or not isinstance(master_seed, int)
            or not 0 <= master_seed <= _MASK64):
        raise ValueError("seed must be an integer in [0, 2**64)")
    return _splitmix64((master_seed + index * _SPLITMIX_GAMMA) & _MASK64)[1]


def box_muller(u1: float, u2: float) -> float:
    """Standard normal deviate from two uniforms in [0, 1), drawn u1
    first; 1 - u1 lies in (0, 1], which keeps the log finite."""
    return math.sqrt(-2.0 * math.log(1.0 - u1)) * math.cos(2.0 * math.pi * u2)


def _rotl(x: int, k: int, mask: int = _MASK64) -> int:
    return ((x << k) | (x >> (64 - k))) & mask


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 seeding; seed must be an int in
    [0, 2**64)."""

    def __init__(self, seed: int):
        self._s = [derive_stream_seed(seed, i) for i in range(4)]

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
        return (self.next_uint64() >> 11) * _UNIT

    def normal(self) -> float:
        """Standard normal deviate; consumes exactly two uniforms."""
        u1 = self.random()
        return box_muller(u1, self.random())


def lockstep_uniforms(seeds, steps: int) -> list[list[float]]:
    """The first `steps` uniforms of Xoshiro256StarStar(seed) for every
    seed, drawn in lockstep: row k holds each stream's k-th uniform, in
    the order of seeds. Every seed must be an int in [0, 2**64)."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    lanes = struct.Struct("<" + "Q8x" * len(seeds))
    size, unpack = lanes.size, lanes.unpack

    def pack(words):
        return int.from_bytes(lanes.pack(*words), "little")

    mask = pack([_MASK64] * len(seeds))
    s0, s1, s2, s3 = (pack([derive_stream_seed(seed, j) for seed in seeds])
                      for j in range(4))
    rows = []
    for _ in range(steps):
        out = _rotl(s1 * 5 & mask, 7, mask) * 9 & mask
        rows.append([x * _UNIT for x in unpack((out >> 11).to_bytes(size, "little"))])
        t = s1 << 17
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 = (s2 ^ t) & mask
        s3 = _rotl(s3, 45, mask)
    return rows
