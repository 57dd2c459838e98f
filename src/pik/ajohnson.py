"""Bounded-degree verification of the embedding into the IA filtration.

Weight-c commutators of the partial inner generators act trivially on the
free group modulo depth c+1, and their degree-(c+1) Johnson images
coordinatize the graded pieces of the image Lie algebra.  The Johnson map is
a graded Lie homomorphism into the derivations of the free Lie algebra, so
each image is the bracket of the generators' weight-1 derivations; no group
element or automorphism is built.  The bracket is Z-linear, so each weight
is reduced to an echelon basis before the next weight brackets it with the
generators.  Rank identities against the per-level Witt numbers certify the
embedding degree by degree.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeVar

from .decomp import Relator
from .endos import tau
from .igroup import generators
from .lie import lattice_from_rows
from .magnus import gamma_degree, ia_degree
from .words import FreeWord, commutator, gen

# A derivation of the tensor algebra: the term dicts of its images of X_1..X_n.
Derivation = tuple[dict[tuple[int, ...], int], ...]


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
        out = [comm(h, g) for h in out for g in gens]
    return out


def _generator_derivation(n: int, m: int, i: int) -> Derivation:
    """tau_1(y(m, i)): X_k |-> [X_k, X_i] = X_k X_i - X_i X_k for k <= m, k != i."""
    return tuple({(k, i): 1, (i, k): -1} if k <= m and k != i else {} for k in range(1, n + 1))


def _leibniz(d: Derivation, poly: dict[tuple[int, ...], int]) -> dict[tuple[int, ...], int]:
    """d applied to a polynomial: each letter of a monomial in turn replaced by its image."""
    out: dict[tuple[int, ...], int] = {}
    for mono, coeff in poly.items():
        for j, x in enumerate(mono):
            for sub, s in d[x - 1].items():
                key = mono[:j] + sub + mono[j + 1 :]
                out[key] = out.get(key, 0) + coeff * s
    return out


def _derivation_bracket(d1: Derivation, d2: Derivation) -> Derivation:
    """[D1, D2] = D1 o D2 - D2 o D1, the Johnson image of the group commutator [f1, f2]."""
    out = []
    for a, b in zip(d1, d2):
        image = _leibniz(d1, b)
        for mono, s in _leibniz(d2, a).items():
            image[mono] = image.get(mono, 0) - s
        out.append({mono: s for mono, s in image.items() if s})
    return tuple(out)


def _row(d: Derivation, column: dict[tuple[int, ...], int]) -> dict[int, int]:
    """A derivation's images of X_1, ..., X_n as one sparse row: image k at
    a monomial sits at column k len(column) + column[monomial]."""
    return {k * len(column) + column[mono]: s for k, image in enumerate(d) for mono, s in image.items()}


def _derivation(row: dict[int, int], monos: Sequence[tuple[int, ...]], n: int) -> Derivation:
    """The derivation of a sparse row, monos listing the monomials by column."""
    images: tuple[dict[tuple[int, ...], int], ...] = tuple({} for _ in range(n))
    for j, s in row.items():
        k, at = divmod(j, len(monos))
        images[k][monos[at]] = s
    return images


def l1_rank(n: int, c: int, D: int) -> int:
    """Rank of the weight-c graded piece of the image Lie algebra.

    Generator commutators alone give the full rank, and their Johnson images
    are brackets of the generators' derivations (see docs/NOTES.md).  Weight
    2 is the brackets of the pairs a > b of generators.  Each weight below c
    is echelonized, its Johnson images read at the degree-(weight+1)
    monomials in itertools.product order, and weight + 1 brackets only the
    echelon rows with each generator: the bracket is Z-linear, so they span
    what the left-normed commutators of that weight span.  The truncation
    degree D is checked (D >= c + 2) but computes nothing; it stays because
    the benchmark workloads and ``pik ia l1-rank`` pass it.
    """
    if D < c + 2:
        raise AJohnsonError(f"need truncation D >= c + 2, got D={D}")
    if n < 2:
        raise AJohnsonError(f"I_n has no generators below n = 2, got n={n}")
    gens = [_generator_derivation(n, m, i) for (m, i) in generators(n)]
    weight = min(c, 2)
    derivations = left_normed(gens, weight, _derivation_bracket)
    while True:
        monos = list(itertools.product(range(1, n + 1), repeat=weight + 1))
        column = {mono: j for j, mono in enumerate(monos)}
        lat = lattice_from_rows([_row(d, column) for d in derivations], n * len(monos))
        if weight == c:
            return lat.rank
        weight += 1
        derivations = [_derivation_bracket(_derivation(row, monos, n), g) for row in lat.rows for g in gens]


def nonzero_relators(n: int, relators: Iterable[Relator]) -> list[tuple[int, int, int, int, int]]:
    """(kind, m, i, r, j) of each relator that the Johnson map does not send to 0.

    A relator's Lie element is read with each letter y(m, i) as D_{m,i} =
    tau_1(y(m, i)) and each tensor word as the composite of its letters'
    derivations, so [a, b] is [D_a, D_b] and kind 3, [y(m,i), y(r,j) - y(m,j)],
    is [D_{m,i}, D_{r,j} - D_{m,j}] (see docs/NOTES.md, "The embedding
    certificate").
    """
    gens = [_generator_derivation(n, m, i) for (m, i) in generators(n)]
    out = []
    for rel in relators:
        for k in range(1, n + 1):
            image: dict[tuple[int, ...], int] = {}
            for w, coeff in rel.elem.coords.items():
                poly = {(k,): coeff}
                for a in reversed(w):
                    poly = _leibniz(gens[a - 1], poly)
                for mono, s in poly.items():
                    image[mono] = image.get(mono, 0) + s
            if any(image.values()):
                out.append((rel.kind, rel.m, rel.i, rel.r, rel.j))
                break
    return out


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
