"""Free Lie algebra over Z realized inside the tensor algebra.

Homogeneous Lie elements are stored through their tensor-algebra image, a
term dict {monomial: coefficient} with no zero coefficient stored; the
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

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from heapq import heappop, heappush
from math import prod
from typing import Iterable, Sequence

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


def _check_letters(nvars: int, words: Iterable[Word]) -> None:
    """Raise LieError unless every letter of words is in 1..nvars."""
    for w in words:
        if not all(1 <= a <= nvars for a in w):
            raise LieError(f"monomial {w} outside 1..{nvars}")


def lyndon_bracket(nvars: int, w: Word) -> Terms:
    """Standard bracketing of a Lyndon word over 1..nvars as tensor terms."""
    if not is_lyndon(w):
        raise LieError(f"{w} is not a Lyndon word")
    _check_letters(nvars, [w])
    return dict(_lyndon_bracket_terms(w))


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


@dataclass(frozen=True)
class LieElem:
    """Homogeneous free-Lie element; coords is its tensor-algebra image,
    with no zero coefficient, and lyndon its sorted Lyndon coordinates."""

    nvars: int
    degree: int
    coords: Terms
    lyndon: tuple[tuple[Word, int], ...]


def lie_from_tensor(nvars: int, degree: int, p: Terms) -> LieElem:
    """Wrap tensor terms over 1..nvars, verifying they lie in the Lie
    subspace; zero coefficients are dropped."""
    terms = {w: c for w, c in p.items() if c}
    _check_letters(nvars, terms)
    coords = lyndon_coordinates(degree, terms)
    return LieElem(nvars, degree, terms, tuple(sorted(coords.items())))


def lie_generator(nvars: int, i: int) -> LieElem:
    return lie_from_tensor(nvars, 1, {(i,): 1})


def bracket(a: LieElem, b: LieElem) -> LieElem:
    """Lie bracket ab - ba in tensor coordinates; degrees add."""
    if a.nvars != b.nvars:
        raise LieError("alphabet size mismatch")
    return lie_from_tensor(a.nvars, a.degree + b.degree, tensor_bracket(a.coords, b.coords))


def lyndon_basis(nvars: int, m: int) -> list[LieElem]:
    """Standard-bracketed Lyndon words of degree m, in lexicographic order."""
    out = []
    for w in lyndon_words(nvars, m):
        out.append(LieElem(nvars, m, lyndon_bracket(nvars, w), ((w, 1),)))
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


class IntLattice:
    """Row span of integer vectors in Z^dim, kept as an echelon basis of
    sparse rows: row k is zero left of pivot_col[k], which increases."""

    def __init__(self, dim: int, rows: list[SparseRow], pivot_col: list[int]):
        self.dim = dim
        self.rows = rows
        self.pivot_col = pivot_col

    @property
    def rank(self) -> int:
        return len(self.pivot_col)

    def pivots(self) -> list[int]:
        return [abs(row[c]) for row, c in zip(self.rows, self.pivot_col)]


def lattice_from_rows(rows: Iterable[SparseRow], dim: int) -> IntLattice:
    """Echelonize the span of rows over Z, exactly.

    Each row is sparse, {column: entry} with columns in 0..dim-1 and no
    zero entry; a row of another kind raises LieError.  Entries are Python
    ints, as every caller builds them (their type is not checked), so
    nothing overflows.  The input is not modified: a row is used
    as it is and copied only when the elimination first changes it, so the
    echelon may hold input rows themselves, and neither is to be modified
    afterwards.  Columns are taken in increasing order, with a bucket for
    each column of the live rows whose first nonzero is there.  At a
    column, the live row with the least |entry| (then the fewest nonzeros,
    then the lowest index) subtracts floor-quotient multiples of itself
    from the others there; a row whose entry there falls to zero moves to
    the bucket of its new first column, read off a heap of its other
    columns made when the row was first changed.  This repeats until one
    row is left, which is retired as the column's pivot row.
    """
    live: list[SparseRow] = []
    first: defaultdict[int, list[int]] = defaultdict(list)  # column -> live rows whose first nonzero is there
    for row in rows:
        if not isinstance(row, dict):
            raise LieError(f"a row is a {type(row).__name__}, not a sparse row {{column: entry}}")
        if row:
            lo = min(row)
            if lo < 0 or max(row) >= dim:
                raise LieError(f"a sparse row has a column outside columns 0..{dim - 1}")
            if 0 in row.values():
                raise LieError("a sparse row holds an explicit zero")
            first[lo].append(len(live))
            live.append(row)
    # a changed live row's columns past its first, some since cancelled, as a heap
    cols: list[list[int] | None] = [None] * len(live)
    echelon: list[SparseRow] = []
    pivot_col: list[int] = []
    for c in range(dim):
        ids = first.pop(c, None)
        if ids is None:
            continue
        while len(ids) > 1:
            p = min(ids, key=lambda r: (abs(live[r][c]), len(live[r]), r))
            prow = live[p]
            a = prow[c]
            kept = [p]
            for r in ids:
                if r == p:
                    continue
                row = live[r]
                h = cols[r]
                if h is None:  # the caller's row, changed for the first time
                    row = live[r] = dict(row)
                    h = cols[r] = sorted(row)
                    del h[0]  # c
                q = row[c] // a
                for j, x in prow.items():
                    y = row.get(j)
                    if y is None:
                        row[j] = -q * x
                        heappush(h, j)
                        continue
                    y -= q * x
                    if y:
                        row[j] = y
                    else:
                        del row[j]
                if c in row:
                    kept.append(r)
                elif row:
                    f = heappop(h)
                    while f not in row:
                        f = heappop(h)
                    first[f].append(r)
                else:
                    cols[r] = None
            ids = kept
        cols[ids[0]] = None
        echelon.append(live[ids[0]])
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


def _check_partition(words: Sequence[Word], nvars: int, m: int) -> None:
    """Raise LieError unless words lists each Lyndon word of length m once."""
    if len(set(words)) != len(words) or set(words) != set(lyndon_words(nvars, m)):
        raise LieError(f"blocks must partition the Lyndon words of length {m}")


@lru_cache(maxsize=None)
def _unit_words(units: tuple[tuple[Word, ...], ...], nvars: int, m: int) -> frozenset[Word]:
    """The words of units, once checked to be Lyndon words of length m whose
    standard bracketings meet no Lyndon word outside them."""
    unit_words = frozenset(w for part in units for w in part)
    lyndon = set(lyndon_words(nvars, m))
    if not unit_words <= lyndon:
        raise LieError(f"unit words must be Lyndon words of length {m}")
    for s in unit_words:
        # the terms of P_s are words of length m on s's letters
        for w, _ in _lyndon_bracket_terms(s):
            if w not in unit_words and w in lyndon:
                raise LieError(f"the bracketing of the unit word {s} meets the Lyndon word {w}")
    return unit_words


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
    blocks: Iterable[tuple[Sequence[Word], Iterable[SparseRow]]],
    units: Sequence[Sequence[Word]],
    nvars: int,
    m: int,
) -> DirectSumReport:
    """Certificate that the span J of the blocks' rows and the unit vectors
    of units' Lyndon words form a direct sum equal to all of L^m over Z.

    Each block pairs some of the degree-m Lyndon words with sparse rows
    (see lattice_from_rows), one column per word, that are the tensor
    coefficients there of homogeneous degree-m Lie elements; the caller
    guarantees that these have no nonzero coefficient at another block's
    word, and a row with a column past the block's words is refused.
    blocks is read once, so a generator can build each block as it is
    read; the blocks' words must partition the Lyndon words of length m
    (checked once all are read).
    Each part of units has one rank per word; rank additivity is checked
    against the Witt rank.  With S the unit words and C the other degree-m
    Lyndon words, the lattice spanned by e_S and J is Z^S (+) pi_C(J).  The
    unitriangular change to tensor coefficients maps Z^S onto itself when no
    standard bracketing P_s meets a Lyndon word outside S (true of the level
    words; checked here).  So it is all of L^m iff one echelon of each
    block's rows, with the C columns first, has a pivot of 1 in absolute
    value in every C column (see docs/NOTES.md).  Each block lists its C
    words before its S words, so its columns are in that order as given; a
    block that lists a unit word before a C word raises LieError.  A block
    whose rows are already an echelon basis costs no elimination step.
    """
    unit_words = _unit_words(tuple(map(tuple, units)), nvars, m)
    seen: list[Word] = []
    rank_j = 0
    whole = True
    for words, rows in blocks:
        seen.extend(words)
        is_unit = [w in unit_words for w in words]
        c = is_unit.count(False)
        if any(is_unit[:c]):
            raise LieError(f"a block lists the unit word {words[is_unit.index(True)]} before a C word")
        lat = lattice_from_rows(rows, len(words))
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
