"""The benchmark's own copy of the documented 64-bit LCG (see pik/prng.py).

state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64; draws
use the top 32 bits and bounded draws reduce them modulo the bound.  With the
same seed it yields the same stream as pik's generator, so the benchmark can
replay the acceptance-suite case streams without calling into the fuzz module.
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
        if n <= 0:
            raise ValueError("bound must be positive")
        return self.u32() % n

    def sign(self) -> int:
        return 1 if self.u32() & 1 else -1
