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

All integer linear algebra is fraction-free.  Large eliminations run on an
int64 fast path with an overflow guard and fall back to exact big-integer
arithmetic when the guard trips.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import prod
from typing import Iterable, Optional, Sequence

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

_INT64_GUARD = 1 << 60
_NUMPY_THRESHOLD = 30_000
_CHUNK_ENTRIES = 1 << 20  # rows of one elimination step are updated in blocks of this size


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return x, y, g


class IntLattice:
    """Row span of integer vectors in Z^dim, kept in echelon form over Z.

    A lattice built on the int64 path keeps its echelon rows as an ndarray:
    rank and pivots are read from it, and the rows become Python ints only
    when ``rows`` is read (``add``, ``contains``).
    """

    def __init__(self, dim: int):
        self.dim = dim
        self._rows: list[list[int]] = []
        self._mat: Optional[np.ndarray] = None  # int64 echelon rows, not yet converted
        self.pivot_col: list[int] = []  # pivot column of each row, increasing
        self._col_of: dict[int, int] = {}  # pivot column -> row index

    @classmethod
    def _from_echelon(cls, mat: np.ndarray, pivot_col: list[int]) -> "IntLattice":
        lat = cls(mat.shape[1])
        lat._mat = mat
        lat.pivot_col = pivot_col
        lat._col_of = {c: k for k, c in enumerate(pivot_col)}
        return lat

    @property
    def rows(self) -> list[list[int]]:
        if self._mat is not None:
            self._rows = self._mat.tolist()
            self._mat = None
        return self._rows

    @property
    def rank(self) -> int:
        return len(self.pivot_col)

    def add(self, vec: Sequence[int]) -> bool:
        """Insert a vector; returns True when the lattice grew or changed."""
        v = list(vec)
        if len(v) != self.dim:
            raise LieError(f"vector length {len(v)} != dim {self.dim}")
        changed = False
        j = 0
        while j < self.dim:
            if not v[j]:
                j += 1
                continue
            p = self._col_of.get(j)
            if p is None:
                from bisect import bisect_left

                where = bisect_left(self.pivot_col, j)
                self.rows.insert(where, v)
                self.pivot_col.insert(where, j)
                self._col_of = {c: k for k, c in enumerate(self.pivot_col)}
                return True
            row = self.rows[p]
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for jj in range(j, self.dim):
                    v[jj] -= q * row[jj]
            else:
                x, y, g = _xgcd(a, b)
                ag, mbg = a // g, -(b // g)
                for jj in range(j, self.dim):
                    aa, bb = row[jj], v[jj]
                    row[jj] = x * aa + y * bb
                    v[jj] = mbg * aa + ag * bb
                changed = True
        return changed

    def add_all(self, vecs: Iterable[Sequence[int]]) -> None:
        for v in vecs:
            self.add(v)

    def contains(self, vec: Sequence[int]) -> bool:
        v = list(vec)
        if len(v) != self.dim:
            raise LieError(f"vector length {len(v)} != dim {self.dim}")
        for j in range(self.dim):
            if not v[j]:
                continue
            p = self._col_of.get(j)
            if p is None:
                return False
            row = self.rows[p]
            if v[j] % row[j]:
                return False
            q = v[j] // row[j]
            for jj in range(j, self.dim):
                v[jj] -= q * row[jj]
        return True

    def pivots(self) -> list[int]:
        if self._mat is not None:
            return np.abs(self._mat[np.arange(self.rank), self.pivot_col]).tolist()
        return [abs(self._rows[i][c]) for i, c in enumerate(self.pivot_col)]


def _echelon_numpy(mat: np.ndarray) -> tuple[int, list[int], np.ndarray]:
    """In-place integer row echelon; raises OverflowError near int64 limits.

    The guard is checked for each block of rows before the block is written,
    so a trip leaves only completed row operations behind.
    """
    rows, cols = mat.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        if r == rows:
            break
        col = mat[r:, c]
        nz = np.flatnonzero(col)
        if nz.size == 0:
            continue
        while nz.size > 1:
            sel = nz[np.argmin(np.abs(col[nz]))]
            piv = int(col[sel])
            rest = nz[nz != sel]
            q = col[rest] // piv
            others = r + rest
            # rows r.. are zero left of column c, so only columns c.. change
            pivot_row = mat[r + sel, c:]
            top = int(np.abs(pivot_row).max())
            step = max(1, _CHUNK_ENTRIES // (cols - c))
            for lo in range(0, others.size, step):
                at, qs = others[lo : lo + step], q[lo : lo + step]
                block = mat[at, c:]
                # in Python ints: the int64 product of two maxima can itself wrap
                if int(np.abs(block).max()) + (int(np.abs(qs).max()) + 1) * top > _INT64_GUARD:
                    raise OverflowError("int64 elimination guard tripped")
                block -= qs[:, None] * pivot_row
                mat[at, c:] = block
            col = mat[r:, c]
            nz = np.flatnonzero(col)
        sel = int(nz[0])
        if sel != 0:
            mat[[r, r + sel]] = mat[[r + sel, r]]
        if mat[r, c] < 0:
            mat[r] = -mat[r]
        pivots.append(c)
        r += 1
    return r, pivots, mat


def lattice_from_rows(rows: "Sequence[Sequence[int]] | np.ndarray", dim: int) -> IntLattice:
    """Build an echelonized lattice, on the int64 fast path when it pays off.

    rows is a sequence of integer rows or an int64 array of shape (k, dim).
    An int64 array is echelonized in place, so its contents are consumed; the
    builders below hand over arrays they own.  The exact path takes over when
    an entry does not fit int64 or the elimination guard trips; a tripped
    elimination has applied only unimodular row operations, so the partly
    reduced rows still span the same lattice.
    """
    nrows = len(rows)
    if nrows and nrows * dim >= _NUMPY_THRESHOLD:
        try:
            owned = isinstance(rows, np.ndarray) and rows.dtype == np.int64
            mat = rows if owned else np.array(rows, dtype=np.int64)
            if -_INT64_GUARD <= mat.min() and mat.max() <= _INT64_GUARD:
                rank, pivcols, mat = _echelon_numpy(mat)
                return IntLattice._from_echelon(mat[:rank], pivcols)
        except OverflowError:
            pass
    lat = IntLattice(dim)
    lat.add_all(rows.tolist() if isinstance(rows, np.ndarray) else rows)
    return lat


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
    if a._mat is not None and b._mat is not None:
        rows: "list[list[int]] | np.ndarray" = np.vstack((a._mat, b._mat))
    else:
        rows = a.rows + b.rows
    c = lattice_from_rows(rows, a.dim)
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
    value in every C column (see docs/NOTES.md).
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
        # stable: C, then S
        order = sorted(range(len(words)), key=lambda j: words[j] in unit_words)
        lat = lattice_from_rows(rows.take(order, axis=1), len(words))
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
