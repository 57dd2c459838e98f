"""Deterministic case generators for the fuzz suites.

Everything is driven by the documented 64-bit LCG so that a seed pins the
whole case list byte for byte.
"""

from __future__ import annotations

from .conj import SearchBudget
from .igroup import IElem, collect, generators
from .prng import Lcg
from .words import Token


def random_gen_tokens(rng: Lcg, n: int, max_len: int) -> list[Token]:
    gens = generators(n)
    length = rng.below(max_len + 1)
    out = []
    for _ in range(length):
        m, i = gens[rng.below(len(gens))]
        out.append(Token("y", m, i, rng.sign()))
    return out


def random_ielem(rng: Lcg, n: int, max_len: int) -> IElem:
    return collect(n, random_gen_tokens(rng, n, max_len))


def planted_conjugacy_case(rng: Lcg, n: int, max_len: int):
    """(x, y, budget) with y = g x g^-1 planted; the budget is seeded so the
    generator-metric walk is complete for the planted conjugator while
    max_states does not bind.  It would bind before radius 8 on `verify-all`
    planted case 21 at n = 6 and cases 9 and 21 at n = 7; descent over
    plateaus decides them before the walk runs."""
    from .igroup import conj_elem

    x_tokens = random_gen_tokens(rng, n, max_len)
    g_tokens = random_gen_tokens(rng, n, max_len)
    x = collect(n, x_tokens)
    g = collect(n, g_tokens)
    y = conj_elem(g, x)
    glen = sum(abs(t.exp) for t in g_tokens)
    budget = SearchBudget(gen_radius=max(glen, 1), max_len=10, max_states=400_000)
    return x, y, budget
