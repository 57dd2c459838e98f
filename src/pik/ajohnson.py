"""Bounded-degree verification of the embedding into the IA filtration.

Weight-c commutators of the partial inner generators act trivially on the
free group modulo depth c+1; their degree-(c+1) Johnson images, read off the
Magnus expansion, coordinatize the graded pieces of the image Lie algebra.
Rank identities against the per-level Witt numbers certify the embedding
degree by degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Sequence, TypeVar

from .endos import EndoF, tau
from .igroup import IElem, commutator_elem, gen_elem, generators, to_endo
from .lie import IntLattice, lattice_from_rows, witt
from .magnus import gamma_degree, ia_degree, johnson_image
from .words import FreeWord, commutator, gen


class AJohnsonError(ValueError):
    pass


T = TypeVar("T")


def left_normed(gens: Sequence[T], c: int, comm: Callable[[T, T], T]) -> list[T]:
    """Left-normed weight-c commutators [g_a, g_b, g_t3, ..., g_tc] with a > b.

    Weight 1 is the generators themselves.  Order: a, then b, then the tail
    lexicographically, so each weight extends the previous weight's list
    element by element and every prefix commutator is formed once.
    """
    if c < 1:
        raise AJohnsonError("need c >= 1")
    if c == 1:
        return list(gens)
    out = [comm(gens[a], gens[b]) for a in range(len(gens)) for b in range(a)]
    for _ in range(c - 2):
        out = left_normed_step(out, gens, comm)
    return out


def left_normed_step(heads: Sequence[T], tails: Sequence[T], comm: Callable[[T, T], T]) -> list[T]:
    """[h, t] for each head h, then each tail t.

    Extending a list of left-normed commutators this way forms each prefix
    once, in the order of itertools.product over (heads, tails).
    """
    return [comm(h, t) for h in heads for t in tails]


def basic_commutators_In(n: int, c: int) -> list[IElem]:
    """Left-normed weight-c commutators spanning the weight-c graded piece.

    Weight 1: the generators in the documented order.  Weight c >= 2: all
    [u1, u2, t3, ..., tc] with u1 > u2 in the generator order and arbitrary
    trailing letters; by antisymmetry and the left-normed spanning property
    these span modulo weight c+1.
    """
    return left_normed([gen_elem(n, m, i) for (m, i) in generators(n)], c, commutator_elem)


def _johnson_row(f: EndoF, c: int, D: int) -> list[int]:
    """Concatenated degree-(c+1) Johnson coordinates over all generators."""
    n = f.rank
    images = johnson_image(f, c + 1, D)
    monos = list(itertools.product(range(1, n + 1), repeat=c + 1))
    row: list[int] = []
    for p in images:
        row.extend(p.terms.get(m, 0) for m in monos)
    return row


def build_johnson_matrix(n: int, c: int, elems: Sequence[IElem], D: int) -> IntLattice:
    """The lattice spanned by the degree-(c+1) Johnson rows of the elements."""
    rows = [_johnson_row(to_endo(e), c, D) for e in elems]
    return lattice_from_rows(rows, n * n ** (c + 1))


def l1_rank(n: int, c: int, D: int) -> int:
    """Rank of the weight-c graded piece of the image Lie algebra.

    Conjugates do not move Johnson images modulo the next filtration level,
    so generator commutators alone give the full rank (see docs/NOTES.md).
    """
    if D < c + 2:
        raise AJohnsonError(f"need truncation D >= c + 2, got D={D}")
    return build_johnson_matrix(n, c, basic_commutators_In(n, c), D).rank


def basic_commutator_words(rank: int, c: int) -> list[FreeWord]:
    """Left-normed weight-c commutators of free generators, same scheme."""
    return left_normed([gen(rank, i) for i in range(1, rank + 1)], c, commutator)


@dataclass(frozen=True)
class InnerDegreeReport:
    m: int
    c: int
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def inner_degree_check(m: int, c: int, D: int) -> InnerDegreeReport:
    """For basic commutators g of depth exactly c, conjugation by g sits at
    filtration level c+1 exactly."""
    if D < c + 2:
        raise AJohnsonError(f"need truncation D >= c + 2, got D={D}")
    checked = 0
    failures = []
    from .words import format_x_word

    for g in basic_commutator_words(m, c):
        if gamma_degree(g, D) != c:
            continue  # degenerate commutator, not in depth c exactly
        checked += 1
        got = ia_degree(tau(g), D)
        if got != c + 1:
            failures.append(f"tau({format_x_word(g)}): expected {c + 1}, got {got}")
    return InnerDegreeReport(m, c, checked, tuple(failures))


@dataclass(frozen=True)
class Thu1Report:
    n: int
    c: int
    lhs: int
    l1: int

    @property
    def certified(self) -> bool:
        return self.l1 == self.lhs

    def as_dict(self) -> dict:
        return {"n": self.n, "c": self.c, "lhs": self.lhs, "certified": self.certified}


def thu1_bound(n: int, c: int) -> Thu1Report:
    """Certified lower bound for the rank of the degree-(c+1) piece of the
    ambient IA Lie algebra: the image piece realizes sum_{i=2..n} witt(i, c)."""
    lhs = sum(witt(i, c) for i in range(2, n + 1))
    return Thu1Report(n, c, lhs, l1_rank(n, c, c + 2))
