"""Deterministic PRNG for all fuzz suites.

A 64-bit linear congruential generator with Knuth's MMIX constants:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64

Draws use the top 32 bits; bounded draws reduce them modulo the bound.  The
constants and the reduction are part of the reproducibility contract: the
same seed must yield byte-identical reports everywhere.
"""

from __future__ import annotations

_A = 6364136223846793005
_C = 1442695040888963407
_MASK = (1 << 64) - 1


class Lcg:
    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = seed & _MASK

    def u32(self) -> int:
        self.state = (_A * self.state + _C) & _MASK
        return self.state >> 32

    def below(self, n: int) -> int:
        """Uniform-ish draw in [0, n); n must be positive and far below 2^32."""
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.u32() % n

    def sign(self) -> int:
        return 1 if self.u32() & 1 else -1
