"""Free Lie algebra over Z realized inside the truncated tensor algebra.

Homogeneous Lie elements are stored through their tensor-algebra image; the
coordinates in the Lyndon basis are extracted by the triangular rewrite
(the standard bracketing of a Lyndon word is the word itself plus
lexicographically larger words).  Spans of homogeneous elements become
integer lattices, with rank / equality / fullness computed exactly.
Large spans are read without the rewrite: an element's tensor coefficients
at the Lyndon words are its Lyndon coordinates times a unitriangular
matrix, so they give the same rank, and split into blocks that are
echelonized one at a time.

All integer linear algebra is one exact, fraction-free elimination on
sparse rows of Python ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Sequence

import numpy as np

from .magnus import NcPoly

Word = tuple[int, ...]
Terms = dict[Word, int]  # a tensor polynomial: monomial -> nonzero coefficient


class LieError(ValueError):
    pass


class NotLieElement(LieError):
    """Tensor polynomial outside the free Lie subspace."""


# ---------------------------------------------------------------------------
# Lyndon words and their standard bracketings.
# ---------------------------------------------------------------------------


def is_lyndon(w: Word) -> bool:
    """Strictly smaller than each of its proper suffixes."""
    if not w:
        return False
    return all(w < w[i:] for i in range(1, len(w)))


@lru_cache(maxsize=None)
def lyndon_words(nvars: int, m: int) -> tuple[Word, ...]:
    """All Lyndon words of length exactly m over 1..nvars, lexicographic.

    Duval's generation of the Lyndon words of length <= m, filtered.
    """
    if nvars < 1 or m < 1:
        raise LieError("need nvars >= 1 and m >= 1")
    out: list[Word] = []
    w = [1]
    while w:
        if len(w) == m:
            out.append(tuple(w))
        # extend periodically to length m, then increment the tail
        prefix = list(w)
        while len(w) < m:
            w.append(w[len(w) - len(prefix)])
        while w and w[-1] == nvars:
            w.pop()
        if w:
            w[-1] += 1
    return tuple(out)


@lru_cache(maxsize=None)
def standard_factorization(w: Word) -> tuple[Word, Word]:
    """w = u v with v the lexicographically least proper suffix (both Lyndon)."""
    if len(w) < 2:
        raise LieError("factorization needs length >= 2")
    v = min(w[i:] for i in range(1, len(w)))
    return w[: len(w) - len(v)], v


def tensor_bracket(a: Terms, b: Terms) -> Terms:
    """ab - ba on tensor term dicts; monomials whose coefficient cancels are dropped."""
    out: Terms = {}
    for u, x in a.items():
        for v, y in b.items():
            for w, c in ((u + v, x * y), (v + u, -x * y)):
                acc = out.get(w, 0) + c
                if acc:
                    out[w] = acc
                else:
                    del out[w]
    return out


@lru_cache(maxsize=None)
def _lyndon_bracket_terms(w: Word) -> tuple[tuple[Word, int], ...]:
    """Tensor terms of the standard bracketing of the Lyndon word w."""
    if len(w) == 1:
        return ((w, 1),)
    u, v = standard_factorization(w)
    p = tensor_bracket(dict(_lyndon_bracket_terms(u)), dict(_lyndon_bracket_terms(v)))
    return tuple(sorted(p.items()))


def lyndon_bracket(nvars: int, w: Word) -> NcPoly:
    """Standard bracketing of a Lyndon word as a tensor polynomial."""
    if not is_lyndon(w):
        raise LieError(f"{w} is not a Lyndon word")
    return NcPoly(nvars, len(w), dict(_lyndon_bracket_terms(w)))


def lyndon_coordinates(degree: int, terms: Terms) -> dict[Word, int]:
    """Coordinates of a homogeneous Lie element in the degree Lyndon basis.

    Triangular rewrite: repeatedly strip the lexicographically least monomial,
    which for a Lie element must be Lyndon with its own coefficient.  Raises
    NotLieElement when the residual ever leads with a non-Lyndon word.
    """
    work = dict(terms)
    coords: dict[Word, int] = {}
    while work:
        u = min(work)
        if len(u) != degree:
            raise LieError(f"inhomogeneous input: found degree {len(u)}, expected {degree}")
        if not is_lyndon(u):
            raise NotLieElement(f"leading monomial {u} is not Lyndon")
        c = work[u]
        coords[u] = c
        for mono, k in _lyndon_bracket_terms(u):
            acc = work.get(mono, 0) - c * k
            if acc:
                work[mono] = acc
            else:
                work.pop(mono, None)
    return coords


# ---------------------------------------------------------------------------
# Lie elements.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LieElem:
    """Homogeneous free-Lie element; coords is its tensor-algebra image."""

    nvars: int
    degree: int
    coords: NcPoly
    lyndon: tuple[tuple[Word, int], ...]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, LieElem)
            and self.nvars == other.nvars
            and self.degree == other.degree
            and self.coords == other.coords
        )


def lie_from_tensor(nvars: int, degree: int, p: NcPoly) -> LieElem:
    """Wrap a tensor polynomial, verifying it lies in the Lie subspace."""
    coords = lyndon_coordinates(degree, p.terms)
    return LieElem(nvars, degree, p, tuple(sorted(coords.items())))


def lie_generator(nvars: int, i: int) -> LieElem:
    return lie_from_tensor(nvars, 1, NcPoly.variable(nvars, 1, i))


def bracket(a: LieElem, b: LieElem) -> LieElem:
    """Lie bracket ab - ba in tensor coordinates; degrees add."""
    if a.nvars != b.nvars:
        raise LieError("alphabet size mismatch")
    d = a.degree + b.degree
    p = NcPoly(a.nvars, d, tensor_bracket(a.coords.terms, b.coords.terms))
    return lie_from_tensor(a.nvars, d, p)


def bracket_word(nvars: int, letters: Sequence[int]) -> LieElem:
    """Left-normed bracket [y_{l1}, y_{l2}, ..., y_{lk}] of generators."""
    acc = lie_generator(nvars, letters[0])
    for l in letters[1:]:
        acc = bracket(acc, lie_generator(nvars, l))
    return acc


def lyndon_basis(nvars: int, m: int) -> list[LieElem]:
    """Standard-bracketed Lyndon words of degree m, in lexicographic order."""
    out = []
    for w in lyndon_words(nvars, m):
        p = lyndon_bracket(nvars, w)
        out.append(LieElem(nvars, m, p, ((w, 1),)))
    return out


def _mobius(d: int) -> int:
    mu = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            mu = -mu
        p += 1
    if d > 1:
        mu = -mu
    return mu


def witt(nvars: int, c: int) -> int:
    """Rank of the degree-c homogeneous component: (1/c) sum_{d|c} mu(d) N^{c/d}."""
    if nvars < 1 or c < 1:
        raise LieError("need nvars >= 1 and c >= 1")
    total = sum(_mobius(d) * nvars ** (c // d) for d in range(1, c + 1) if c % d == 0)
    if total % c:
        raise LieError(f"necklace sum {total} not divisible by {c}")
    return total // c


# ---------------------------------------------------------------------------
# Exact integer lattices (row spans in Z^dim).
# ---------------------------------------------------------------------------

SparseRow = dict[int, int]  # column -> nonzero entry


def _sparse(row: "Sequence[int] | SparseRow", dim: int) -> SparseRow:
    """A fresh sparse copy of a dense row of length dim or of a sparse row."""
    if isinstance(row, dict):
        if any(not 0 <= j < dim for j in row):
            raise LieError(f"a sparse row has a column outside 0..{dim - 1}")
        return {j: int(v) for j, v in row.items() if v}
    if len(row) != dim:
        raise LieError(f"vector length {len(row)} != dim {dim}")
    return {j: int(v) for j, v in enumerate(row) if v}


class IntLattice:
    """Row span of integer vectors in Z^dim, kept as an echelon basis of
    sparse rows: row k is zero left of pivot_col[k], which increases."""

    def __init__(self, dim: int, rows: list[SparseRow], pivot_col: list[int]):
        self.dim = dim
        self.rows = rows
        self.pivot_col = pivot_col
        self._row_at = dict(zip(pivot_col, rows))

    @property
    def rank(self) -> int:
        return len(self.pivot_col)

    def contains(self, vec: "Sequence[int] | SparseRow") -> bool:
        v = _sparse(vec, self.dim)
        while v:
            j = min(v)
            row = self._row_at.get(j)
            if row is None:
                return False
            q, rem = divmod(v[j], row[j])
            if rem:
                return False
            for jj, x in row.items():
                y = v.get(jj, 0) - q * x
                if y:
                    v[jj] = y
                else:
                    del v[jj]
        return True

    def pivots(self) -> list[int]:
        return [abs(row[c]) for row, c in zip(self.rows, self.pivot_col)]


def lattice_from_rows(rows: "Sequence[Sequence[int] | SparseRow] | np.ndarray", dim: int) -> IntLattice:
    """Echelonize the span of rows over Z, exactly.

    rows is an int64 or object array of shape (k, dim), or a sequence of
    rows, each dense (length dim) or sparse ({column: entry}); the input is
    not modified.  Columns are taken in increasing order, with an index from
    each column to the live rows that are nonzero there.  At a column, the
    live row with the least |entry| (then the fewest nonzeros, then the
    lowest index) subtracts floor-quotient multiples of itself from the
    others there; this repeats until one row is left, which is retired as
    the column's pivot row.  Entries are Python ints, so nothing overflows.
    """
    if isinstance(rows, np.ndarray):
        if rows.ndim != 2 or rows.shape[1] != dim:
            raise LieError(f"a matrix of shape {rows.shape} for dim {dim}")
        live: list[SparseRow] = [{} for _ in range(rows.shape[0])]
        at_row, at_col = np.nonzero(rows)
        for r, j, v in zip(at_row.tolist(), at_col.tolist(), rows[at_row, at_col].tolist()):
            live[r][j] = v
    else:
        live = [_sparse(row, dim) for row in rows]
    at: dict[int, set[int]] = {}  # column -> live rows nonzero there
    for r, row in enumerate(live):
        for j in row:
            at.setdefault(j, set()).add(r)
    echelon: list[SparseRow] = []
    pivot_col: list[int] = []
    for c in range(dim):
        ids = at.get(c)
        if not ids:
            continue
        while len(ids) > 1:
            p = min(ids, key=lambda r: (abs(live[r][c]), len(live[r]), r))
            prow = live[p]
            a = prow[c]
            for r in [r for r in ids if r != p]:
                row = live[r]
                q = row[c] // a
                for j, x in prow.items():
                    y = row.get(j)
                    if y is None:
                        row[j] = -q * x
                        at[j].add(r)
                        continue
                    y -= q * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                        at[j].discard(r)
        (p,) = ids
        for j in live[p]:
            at[j].discard(p)
        echelon.append(live[p])
        pivot_col.append(c)
    return IntLattice(dim, echelon, pivot_col)


def same_lattice(a: IntLattice, b: IntLattice) -> bool:
    """Whether a and b span the same lattice.

    With c the lattice of a's and b's echelon rows together, a = b iff
    rank a = rank c = rank b and the three products of |pivot| agree: a
    sublattice of c of the same rank has c's pivot columns, and its index in
    c is the quotient of the two products (see docs/NOTES.md).
    """
    if a.dim != b.dim:
        raise LieError(f"lattices in Z^{a.dim} and Z^{b.dim}")
    if a.rank != b.rank:
        return False
    c = lattice_from_rows(a.rows + b.rows, a.dim)
    return c.rank == a.rank and prod(a.pivots()) == prod(c.pivots()) == prod(b.pivots())


# ---------------------------------------------------------------------------
# Lattices of Lie elements read at Lyndon words, block by block.
# ---------------------------------------------------------------------------


def lyndon_index(nvars: int, m: int) -> dict[Word, int]:
    return {w: k for k, w in enumerate(lyndon_words(nvars, m))}


def coordinate_row(e: LieElem, index: dict[Word, int], dim: int) -> list[int]:
    row = [0] * dim
    for w, c in e.lyndon:
        row[index[w]] = c
    return row


def _check_partition(words: Sequence[Word], nvars: int, m: int) -> None:
    """Raise LieError unless words lists each Lyndon word of length m once."""
    if len(set(words)) != len(words) or set(words) != set(lyndon_words(nvars, m)):
        raise LieError(f"blocks must partition the Lyndon words of length {m}")


@dataclass(frozen=True)
class DirectSumReport:
    degree: int
    part_ranks: tuple[int, ...]
    rank_sum: int
    witt_rank: int
    stacked_unimodular: bool

    @property
    def ok(self) -> bool:
        return self.rank_sum == self.witt_rank and self.stacked_unimodular


def lattice_direct_sum_is_whole(
    blocks: Iterable[tuple[Sequence[Word], np.ndarray]],
    units: Sequence[Sequence[Word]],
    nvars: int,
    m: int,
) -> DirectSumReport:
    """Certificate that the span J of the blocks' rows and the unit vectors
    of units' Lyndon words form a direct sum equal to all of L^m over Z.

    Each block pairs some of the degree-m Lyndon words with a matrix, one
    column per word, whose rows are the tensor coefficients there of
    homogeneous degree-m Lie elements; the caller guarantees that these have
    no nonzero coefficient at another block's word.  blocks is read once, so
    a generator can build each block as it is read; the blocks' words must
    partition the Lyndon words of length m (checked once all are read).
    Each part of units has one rank per word; rank additivity is checked
    against the Witt rank.  With S the unit words and C the other degree-m
    Lyndon words, the lattice spanned by e_S and J is Z^S (+) pi_C(J).  The
    unitriangular change to tensor coefficients maps Z^S onto itself when no
    standard bracketing P_s meets a Lyndon word outside S (true of the level
    words; checked here).  So it is all of L^m iff one echelon of each
    block's rows, with the C columns first, has a pivot of 1 in absolute
    value in every C column (see docs/NOTES.md).  A block whose rows are
    already an echelon basis in that column order costs no elimination step.
    """
    unit_words = {w for part in units for w in part}
    if not unit_words <= set(lyndon_words(nvars, m)):
        raise LieError(f"unit words must be Lyndon words of length {m}")
    for s in unit_words:
        for w, _ in _lyndon_bracket_terms(s):
            if w not in unit_words and is_lyndon(w):
                raise LieError(f"the bracketing of the unit word {s} meets the Lyndon word {w}")
    seen: list[Word] = []
    rank_j = 0
    whole = True
    for words, rows in blocks:
        seen.extend(words)
        if rows.shape[1] != len(words):
            raise LieError(f"a block has {len(words)} words and {rows.shape[1]} columns")
        # stable: C, then S; a block already in that order is read as it is
        order = sorted(range(len(words)), key=lambda j: words[j] in unit_words)
        if order != list(range(len(words))):
            rows = rows.take(order, axis=1)
        lat = lattice_from_rows(rows, len(words))
        c = sum(w not in unit_words for w in words)
        whole = whole and lat.pivot_col[:c] == list(range(c)) and all(p == 1 for p in lat.pivots()[:c])
        rank_j += lat.rank
    _check_partition(seen, nvars, m)
    part_ranks = [len(part) for part in units] + [rank_j]
    return DirectSumReport(
        degree=m,
        part_ranks=tuple(part_ranks),
        rank_sum=sum(part_ranks),
        witt_rank=witt(nvars, m),
        stacked_unimodular=whole,
    )
