"""Graded decomposition certificates for the partial inner automorphism group.

The free Lie algebra L on the k = (n-1)(n+2)/2 letters y(2,1) < y(2,2) <
y(3,1) < ... < y(n,n) carries the degree-2 relator set of the group's
presentation.  This module builds that relator set, checks that its level-r
part realizes the paper's per-level maps (cases F1-F3 below), builds the
graded pieces of the ideals it generates, and gives exact lattice
certificates for the decomposition

    L^m  =  ( + L^m(Y_2) ... + L^m(Y_n) )  (+)  J^m

as well as the splitting of J into the per-level ideals T_r.  All claims are
verified over Z.  Each L^m(Y_i) is spanned by unit Lyndon vectors, so the
decomposition needs one echelon of J^m's spanning set: rank additivity
against the Witt rank, plus a pivot of 1 in absolute value on every Lyndon
column outside the level factors.  With y(m, i) of multidegree e_i, J^m
splits into multidegree blocks, one echelon each.  Each block of J^m below
the top degree is stacked from the echelon rows of the blocks of J^{m-1},
bracketed with one letter each, as a dense integer matrix over all words
of its multidegree, and reduced to its own echelon rows, the Lyndon words
outside the levels first: bracketing is Z-linear, so a basis brackets to
what the whole spanning set brackets to, and that echelon, cut to the
Lyndon words, is the certificate's.  The top degree is gathered straight at
its Lyndon words, and every degree is read there (see docs/NOTES.md,
"Bracketing a basis").  T_r is the ideal of L(U_r) generated by the level-r
relators, so one builder makes J and every T_r, bracketing with every
letter or with the letters of U_r.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Sequence

import numpy as np

from .igroup import gen_index, rank_of_abelianization
from .lie import (
    DirectSumReport,
    LieElem,
    SparseRow,
    Terms,
    Word,
    bracket_word,
    coordinate_row,
    lattice_direct_sum_is_whole,
    lattice_from_rows,
    lie_from_tensor,
    lyndon_index,
    lyndon_words,
    same_lattice,
    witt,
)

# Reduced blocks whose brackets with a letter could pass this bound hold
# Python ints, not int64.
_INT64_GUARD = 1 << 60
# The number of letters of each conjugating index 1..n: deg y(m, i) = e_i.
Multidegree = tuple[int, ...]
# A block of J^m or T_r^m: its Lyndon words, and the coefficients at them of rows spanning it.
Block = tuple[list[Word], np.ndarray]


class DecompError(ValueError):
    pass


def alphabet_size(n: int) -> int:
    return rank_of_abelianization(n)


def letter(n: int, m: int, i: int) -> int:
    """Flat alphabet index of y(m, i)."""
    return gen_index(n, m, i)


def level_letters(n: int, i: int) -> list[int]:
    """Flat indices of the level-i block Y_i."""
    return [letter(n, i, l) for l in range(1, i + 1)]


def upper_letters(n: int, r: int) -> list[int]:
    """Flat indices of U_r = Y_r + ... + Y_n."""
    out = []
    for i in range(r, n + 1):
        out.extend(level_letters(n, i))
    return out


def pair_bracket(n: int, m: int, nu: int, r: int, l: int) -> LieElem:
    """[y(m,nu), y(r,l)] as a degree-2 Lie element over the flat alphabet."""
    k = alphabet_size(n)
    return bracket_word(k, [letter(n, m, nu), letter(n, r, l)])


# ---------------------------------------------------------------------------
# The relator set: all degree-2 elements
#   (1) [y(m,i), y(r,i)]                     2 <= r < m <= n, i <= r
#   (2) [y(m,i), y(r,j)]                     2 <= r < i <= m <= n, j <= r
#   (3) [y(m,i), y(r,j)] - [y(m,i), y(m,j)]  2 <= r < m <= n, i <= r,
#                                            j <= r, j != i
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Relator:
    kind: int  # 1, 2 or 3
    m: int
    i: int
    r: int
    j: int
    elem: LieElem


@dataclass(frozen=True)
class RelatorSet:
    n: int
    relators: tuple[Relator, ...]

    def without(self, drop: Relator) -> "RelatorSet":
        kept = tuple(rel for rel in self.relators if rel is not drop)
        if len(kept) != len(self.relators) - 1:
            raise DecompError("relator to drop not found")
        return RelatorSet(self.n, kept)

    def of_kind(self, kind: int) -> list[Relator]:
        return [rel for rel in self.relators if rel.kind == kind]

    def level(self, r: int) -> "RelatorSet":
        """The level-r relators, those with lower index r."""
        return RelatorSet(self.n, tuple(rel for rel in self.relators if rel.r == r))


def build_relators(n: int) -> RelatorSet:
    if n < 2:
        raise DecompError("need n >= 2")
    out: list[Relator] = []
    for r in range(2, n):
        for m in range(r + 1, n + 1):
            for i in range(1, r + 1):
                out.append(Relator(1, m, i, r, i, pair_bracket(n, m, i, r, i)))
            for i in range(r + 1, m + 1):
                for j in range(1, r + 1):
                    out.append(Relator(2, m, i, r, j, pair_bracket(n, m, i, r, j)))
            for i in range(1, r + 1):
                for j in range(1, r + 1):
                    if j == i:
                        continue
                    elem = pair_bracket(n, m, i, r, j).coords.sub(
                        pair_bracket(n, m, i, m, j).coords
                    )
                    out.append(Relator(3, m, i, r, j, lie_from_tensor(alphabet_size(n), 2, elem)))
    return RelatorSet(n, tuple(out))


# ---------------------------------------------------------------------------
# The paper's per-level maps psi_{2,r} on the pair basis [U_{r+1}, Y_r]:
#   (F1) [y(m,i), y(r,i)]  |->  [y(m,i), y(r,i)]
#   (F2) [y(m,i), y(r,j)]  |->  [y(m,i), y(r,j)]              (i > r)
#   (F3) [y(m,i), y(r,j)]  |->  [y(m,i), y(r,j)] - [y(m,i), y(m,j)]
#                                                     (i <= r, j != i)
# are the level-r relators of kinds 1, 2 and 3, the pair (m, nu, l) being
# (rel.m, rel.i, rel.j).  The projection to the pair block is the identity,
# so the induced map on [U_{r+1}, Y_r] is unimodular; the corrections lie in
# degree 2 of U_{r+1}.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiReport:
    n: int
    r: int
    block_is_identity: bool
    injective: bool

    @property
    def ok(self) -> bool:
        return self.block_is_identity and self.injective


def verify_psi_automorphism(n: int, r: int) -> PsiReport:
    """The pair-block of psi_{2,r} is the identity (hence unimodular) and
    psi_{2,r} is 1-1: read off the level-r relators."""
    if not 2 <= r <= n - 1:
        raise DecompError(f"need 2 <= r <= {n - 1}, got {r}")
    level = build_relators(n).level(r).relators
    k = alphabet_size(n)
    index = lyndon_index(k, 2)
    dim = len(index)
    y_r = set(level_letters(n, r))
    u_r1 = set(upper_letters(n, r + 1))
    # pair (m,nu,l) corresponds to the Lyndon word (letter(r,l), letter(m,nu))
    pair_pos = {(rel.m, rel.i, rel.j): index[(letter(n, r, rel.j), letter(n, rel.m, rel.i))] for rel in level}
    block_identity = True
    rows = []
    for rel in level:
        row = coordinate_row(rel.elem, index, dim)
        rows.append(row)
        # the pair block: coordinates on Lyndon words mixing Y_r and U_{r+1};
        # sign flip because [y_u, y_t] = -P_(t,u) for t < u.
        for pair, pos in pair_pos.items():
            expected = -1 if pair == (rel.m, rel.i, rel.j) else 0
            if row[pos] != expected:
                block_identity = False
        for w, pos in index.items():
            if row[pos] and not (w[0] in y_r and w[1] in u_r1):
                # corrections must avoid the pair block entirely unless they
                # live in L^2(U_{r+1})
                if w[0] in y_r or w[1] in y_r:
                    block_identity = False
    lat = lattice_from_rows(rows, dim)
    return PsiReport(
        n=n,
        r=r,
        block_is_identity=block_identity,
        injective=lat.rank == len(level),
    )


# ---------------------------------------------------------------------------
# Graded pieces of the ideal generated by some relators (all of degree 2) in
# the free Lie algebra on some letters: J in L, and T_r in L(U_r).
# Left-normed spanning: the degree-m piece is spanned by [s, t_1, ..., t_{m-2}]
# with s a relator and the t's single letters; bracketing with longer elements
# reduces to this by the Jacobi identity [x,[y,z]] = [x,y,z] - [x,z,y].
#
# Each relator kind is homogeneous (kind 3's two brackets both have degree
# e_i + e_j), and bracketing with a letter of conjugating index i adds e_i,
# so each piece splits into multidegree blocks.  [-, a] is Z-linear, so the
# brackets of a Z-basis of a block span what the brackets of all of its
# spanning rows span: each block below the top degree is echelonized once
# and only its echelon rows are bracketed.  The top degree is gathered
# straight at its Lyndon words.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _conjugating_index(n: int) -> tuple[int, ...]:
    """Conjugating index i of each flat letter y(m, i); position 0 is unused."""
    return (0,) + tuple(i for m in range(2, n + 1) for i in range(1, m + 1))


@lru_cache(maxsize=None)
def _level(n: int) -> tuple[int, ...]:
    """Level m of each flat letter y(m, i); position 0 is unused."""
    return (0,) + tuple(m for m in range(2, n + 1) for _ in range(1, m + 1))


def _multidegree(n: int, w: Word) -> Multidegree:
    conj = _conjugating_index(n)
    d = [0] * n
    for a in w:
        d[conj[a] - 1] += 1
    return tuple(d)


def _index_sequences(d: Multidegree) -> Iterator[tuple[int, ...]]:
    """The distinct sequences of conjugating indices (from 0) with d[i] copies of i."""
    if not any(d):
        yield ()
        return
    for i, k in enumerate(d):
        if k:
            for rest in _index_sequences(d[:i] + (k - 1,) + d[i + 1 :]):
                yield (i,) + rest


def _words_of(n: int, d: Multidegree) -> list[Word]:
    """All words of multidegree d, in lexicographic order: for each sequence
    of conjugating indices, every choice of a letter of each index."""
    conj = _conjugating_index(n)
    by_index = [[a for a in range(1, len(conj)) if conj[a] == i + 1] for i in range(n)]
    out: list[Word] = []
    for seq in _index_sequences(d):
        out.extend(itertools.product(*(by_index[i] for i in seq)))
    out.sort()
    return out


def _c_then_s(n: int, words: Sequence[Word]) -> list[Word]:
    """Lyndon words, those outside every level (C) before the level words
    (S), each part in the order given."""
    level = _level(n)
    return sorted(words, key=lambda w: all(level[a] == level[w[0]] for a in w))


@dataclass(frozen=True)
class _TensorBlock:
    """Echelon rows of an ideal's degree-m piece of one multidegree, over
    all of its words.  col maps each word to its column: the Lyndon words in
    C-then-S order, lexicographic within each part, then the other words in
    lexicographic order."""

    degree: Multidegree
    col: dict[Word, int]
    mat: np.ndarray


def _columns(n: int, d: Multidegree, lyndon: list[Word]) -> dict[Word, int]:
    """Columns for the words of multidegree d: its Lyndon words as given,
    then the other words in lexicographic order."""
    first = set(lyndon)
    return {w: j for j, w in enumerate(lyndon + [w for w in _words_of(n, d) if w not in first])}


def _reduced(d: Multidegree, col: dict[Word, int], rows: "np.ndarray | list[SparseRow]") -> _TensorBlock:
    """The block spanned by rows, held as its echelon rows.

    Every pivot lies at a Lyndon column, since a nonzero Lie element has a
    nonzero tensor coefficient at some Lyndon word, so the rows cut to the
    Lyndon columns are an echelon basis of the block read there.  The
    rows hold int64 when twice their largest entry, a bound on the entries
    of their brackets with a letter, is at most _INT64_GUARD; else Python
    ints.
    """
    lat = lattice_from_rows(rows, len(col))
    big = max((abs(x) for row in lat.rows for x in row.values()), default=0)
    mat = np.zeros((lat.rank, len(col)), dtype=np.int64 if 2 * big <= _INT64_GUARD else object)
    mat[[r for r, row in enumerate(lat.rows) for _ in row], [j for row in lat.rows for j in row]] = [
        x for row in lat.rows for x in row.values()
    ]
    return _TensorBlock(d, col, mat)


# (source block, letter) pairs that reach one block of the next degree
Feed = list[tuple[_TensorBlock, int]]


def _feeds(n: int, below: Sequence[_TensorBlock], letters: Sequence[int]) -> dict[Multidegree, Feed]:
    """The multidegrees of degree m reached from the blocks of degree m - 1
    by one letter, in the order they are first reached, each with the
    (block, letter) pairs that reach it."""
    conj = _conjugating_index(n)
    feeds: dict[Multidegree, Feed] = {}
    for b in below:
        for a in letters:
            i = conj[a] - 1
            d = b.degree[:i] + (b.degree[i] + 1,) + b.degree[i + 1 :]
            feeds.setdefault(d, []).append((b, a))
    return feeds


def _stacks(feed: Feed, width: int) -> tuple[np.ndarray, list[tuple[np.ndarray, _TensorBlock, int]]]:
    """A zero matrix with a stack of rows for each (block, letter) pair of
    feed, as tall as the block, and the stacks as views into it.  It holds
    Python ints if any of the blocks does."""
    dtype = np.result_type(*(b.mat.dtype for b, _ in feed))
    mat = np.zeros((sum(len(b.mat) for b, _ in feed), width), dtype=dtype)
    stacks = []
    r0 = 0
    for b, a in feed:
        stacks.append((mat[r0 : r0 + len(b.mat)], b, a))
        r0 += len(b.mat)
    return mat, stacks


def _tensor_blocks(
    relators: RelatorSet, top: int, letters: Sequence[int]
) -> Iterator[tuple[int, list[_TensorBlock]]]:
    """The ideal's degree-m pieces for 2 <= m <= top in tensor coordinates,
    one reduced block per multidegree.

    Degree 2 is the relators' terms, grouped by multidegree; a relator whose
    terms have more than one raises DecompError.  Block t of degree m
    stacks, for each block b of degree m - 1 and each of the letters a
    sending it to t, the echelon rows x of b bracketed as x a - a x: the
    column of u a gets +x(u) and that of a u gets -x(u), both maps injective
    on words.  Each stack is reduced to its echelon rows before it is kept.
    """
    n = relators.n
    rows: dict[Multidegree, list[Terms]] = {}
    for rel in relators.relators:
        terms = rel.elem.coords.terms
        degrees = {_multidegree(n, w) for w in terms}
        if len(degrees) > 1:
            raise DecompError(
                f"relator of kind {rel.kind} (m={rel.m}, i={rel.i}, r={rel.r}, j={rel.j}) "
                f"has terms of multidegrees {sorted(degrees)}"
            )
        if terms:
            rows.setdefault(degrees.pop(), []).append(terms)
    lyndon = _lyndon_by_degree(n, 2)
    blocks = []
    for d, own in rows.items():
        col = _columns(n, d, lyndon.get(d, []))
        blocks.append(_reduced(d, col, [{col[w]: x for w, x in terms.items()} for terms in own]))
    yield 2, blocks
    for m in range(3, top + 1):
        lyndon = _lyndon_by_degree(n, m)
        feeds = _feeds(n, blocks, letters)
        blocks = []
        for d, feed in feeds.items():
            col = _columns(n, d, lyndon.get(d, []))
            mat, stacks = _stacks(feed, len(col))
            for part, b, a in stacks:
                part[:, [col[u + (a,)] for u in b.col]] = b.mat
                part[:, [col[(a,) + u] for u in b.col]] -= b.mat
            blocks.append(_reduced(d, col, mat))
        yield m, blocks


def _lyndon_by_degree(n: int, m: int) -> dict[Multidegree, list[Word]]:
    """The degree-m Lyndon words by multidegree, each part in C-then-S order."""
    parts: dict[Multidegree, list[Word]] = {}
    for w in lyndon_words(alphabet_size(n), m):
        parts.setdefault(_multidegree(n, w), []).append(w)
    return {d: _c_then_s(n, words) for d, words in parts.items()}


def _lyndon_parts(n: int, m: int, degrees: Sequence[Multidegree]) -> list[list[Word]]:
    """The degree-m Lyndon words of each of degrees, then one part for each
    other multidegree: a partition, each part in C-then-S order."""
    parts = _lyndon_by_degree(n, m)
    return [parts.pop(d, []) for d in degrees] + list(parts.values())


def _empty(parts: Sequence[list[Word]]) -> list[Block]:
    return [(words, np.zeros((0, len(words)), dtype=np.int64)) for words in parts]


def _cut(n: int, m: int, blocks: Sequence[_TensorBlock]) -> Iterator[Block]:
    """A degree-m piece read at its Lyndon words: the reduced blocks cut to
    their first columns, one block at a time."""
    parts = _lyndon_parts(n, m, [b.degree for b in blocks])
    for b, words in zip(blocks, parts):
        yield words, b.mat[:, : len(words)]
    yield from _empty(parts[len(blocks) :])


def _gathered(n: int, m: int, below: Sequence[_TensorBlock], letters: Sequence[int]) -> Iterator[Block]:
    """A degree-m piece read at its Lyndon words, gathered from the blocks
    of degree m - 1 one block at a time: row [x, a] has x(w[:-1]) at w when w
    ends with a, less x(w[1:]) when w starts with a."""
    feeds = _feeds(n, below, letters)
    parts = _lyndon_parts(n, m, list(feeds))
    for words, feed in zip(parts, feeds.values()):
        ends: dict[int, list[tuple[int, Word]]] = {}
        starts: dict[int, list[tuple[int, Word]]] = {}
        for j, w in enumerate(words):
            ends.setdefault(w[-1], []).append((j, w[:-1]))
            starts.setdefault(w[0], []).append((j, w[1:]))
        mat, stacks = _stacks(feed, len(words))
        for part, b, a in stacks:
            for at, sign in ((ends, 1), (starts, -1)):
                hits = [(j, b.col[u]) for j, u in at.get(a, ()) if u in b.col]
                if hits:
                    js, us = zip(*hits)
                    part[:, list(js)] += sign * b.mat[:, list(us)]
        yield words, mat
    yield from _empty(parts[len(feeds) :])


def ideal_rows_by_degree(
    relators: RelatorSet, max_m: int, letters: Sequence[int]
) -> Iterator[tuple[int, Iterator[Block]]]:
    """The ideal generated by relators in the free Lie algebra on letters,
    for 2 <= m <= max_m, degree by degree and block by block: each block's
    Lyndon words, those outside every level (C) before the level words (S),
    and the tensor coefficients at them of rows that span the block's
    lattice, one matrix row each.  J brackets
    with every letter; T_r with those of U_r.  Each relator must be
    homogeneous: one whose terms have more than one multidegree raises
    DecompError.

    The blocks of each degree partition its Lyndon words; a row has no
    nonzero coefficient at a Lyndon word outside its block.  Degree 2 and
    every degree below max_m hold an echelon basis of each block, as many
    rows as its rank, with C columns first: the reduced tensor blocks cut
    to their Lyndon columns.  A top degree max_m > 2 holds the brackets of
    degree max_m - 1's echelon rows with each letter, gathered with no
    tensor block.  All of it
    is one pass: each degree's blocks are made as they are read.  A reduced
    block holds Python ints when twice its largest entry passes
    _INT64_GUARD, and so does every block it feeds; the others hold int64.
    """
    if max_m < 2:
        return
    n = relators.n
    below: list[_TensorBlock] = []
    for m, below in _tensor_blocks(relators, max(2, max_m - 1), letters):
        yield m, _cut(n, m, below)
    if max_m > 2:
        yield max_m, _gathered(n, max_m, below, letters)


# ---------------------------------------------------------------------------
# Certificates.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeReport:
    m: int
    witt_rank: int
    rank_j: int
    ranks_y: tuple[int, ...]
    direct_sum: DirectSumReport

    @property
    def ok(self) -> bool:
        return self.direct_sum.ok

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "rank_total": self.witt_rank,
            "rank_J": self.rank_j,
            "ranks_Y": list(self.ranks_y),
            "rank_sum": self.direct_sum.rank_sum,
            "direct_sum": self.direct_sum.ok,
            "snf_ones": self.direct_sum.stacked_unimodular,
        }


@dataclass(frozen=True)
class Th1Report:
    n: int
    degrees: tuple[DegreeReport, ...]

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.degrees)

    def first_failure(self) -> Optional[DegreeReport]:
        for d in self.degrees:
            if not d.ok:
                return d
        return None

    def as_dict(self) -> dict:
        return {"n": self.n, "ok": self.ok, "per_degree": [d.as_dict() for d in self.degrees]}


def verify_theorem_th1(n: int, max_m: int, relators: Optional[RelatorSet] = None) -> Th1Report:
    """Certify L^m = (+_i L^m(Y_i)) (+) J^m for 2 <= m <= max_m.

    Failure is reported, not raised, so perturbed relator sets can be used as
    negative controls; a relator that is not homogeneous raises DecompError.
    """
    if n < 3:
        raise DecompError("need n >= 3")
    if max_m < 2:
        raise DecompError(f"need max degree >= 2, got {max_m}")
    rels = relators if relators is not None else build_relators(n)
    k = alphabet_size(n)
    levels = [level_letters(n, i) for i in range(2, n + 1)]
    reports = []
    for m, blocks in ideal_rows_by_degree(rels, max_m, range(1, k + 1)):
        # a Lyndon word on one level's letters is Lyndon on the whole ordered
        # alphabet with the same bracketing, so L^m(Y_i) is spanned by unit
        # Lyndon vectors
        units = [[tuple(ys[a - 1] for a in w) for w in lyndon_words(len(ys), m)] for ys in levels]
        ds = lattice_direct_sum_is_whole(blocks, units, k, m)
        reports.append(
            DegreeReport(
                m=m,
                witt_rank=witt(k, m),
                rank_j=ds.part_ranks[-1],
                ranks_y=ds.part_ranks[:-1],
                direct_sum=ds,
            )
        )
    return Th1Report(n, tuple(reports))


# -- the per-level ideals T_r -----------------------------------------------


@dataclass(frozen=True)
class TildeTDegreeReport:
    m: int
    rank_j: int
    t_ranks: tuple[int, ...]
    sum_equals_j: bool
    direct: bool

    @property
    def ok(self) -> bool:
        return self.sum_equals_j and self.direct

    def as_dict(self) -> dict:
        return {
            "m": self.m,
            "rank_J": self.rank_j,
            "t_ranks": list(self.t_ranks),
            "sum_equals_J": self.sum_equals_j,
            "direct": self.direct,
        }


@dataclass(frozen=True)
class TildeTReport:
    n: int
    degrees: tuple[TildeTDegreeReport, ...]

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.degrees)

    def as_dict(self) -> dict:
        return {"n": self.n, "ok": self.ok, "per_degree": [d.as_dict() for d in self.degrees]}


def _by_words(blocks: Iterator[Block]) -> Iterator[tuple[tuple[Word, ...], np.ndarray]]:
    """A degree's blocks keyed by their Lyndon words, one at a time; a block
    with no word holds nothing."""
    return ((tuple(words), mat) for words, mat in blocks if words)


def verify_tilde_T(n: int, max_m: int) -> TildeTReport:
    """Certify that the T_r pieces sum directly to J, degree by degree.

    T_r is the ideal of L(U_r) generated by the level-r relators (see
    docs/NOTES.md), so J and each T_r come from the one ideal builder.  All
    of them split into the same multidegree blocks, and lattices that are
    direct sums over the same blocks are equal iff they are equal per block.
    """
    if n < 3:
        raise DecompError("need n >= 3")
    if max_m < 2:
        raise DecompError(f"need max degree >= 2, got {max_m}")
    rels = build_relators(n)
    j_degrees = ideal_rows_by_degree(rels, max_m, range(1, alphabet_size(n) + 1))
    t_degrees = [ideal_rows_by_degree(rels.level(r), max_m, upper_letters(n, r)) for r in range(2, n)]
    reports = []
    for (m, j_blocks), *t_levels in zip(j_degrees, *t_degrees):
        # J's blocks are read one at a time, each T_r block dropped once read
        ts = [dict(_by_words(blocks)) for _, blocks in t_levels]
        rank_j = stacked_rank = 0
        t_ranks = [0] * len(ts)
        sum_equals_j = True
        for words, mat in _by_words(j_blocks):
            if any(words not in t for t in ts):
                raise DecompError(f"the blocks of J^{m} and of the T_r do not line up")
            t_lats = [lattice_from_rows(t.pop(words), len(words)) for t in ts]
            for r, t_lat in enumerate(t_lats):
                t_ranks[r] += t_lat.rank
            # the T_r echelon rows span the T_r with fewer rows than their spanning sets
            stacked = lattice_from_rows([row for t_lat in t_lats for row in t_lat.rows], len(words))
            j_lat = lattice_from_rows(mat, len(words))
            rank_j += j_lat.rank
            stacked_rank += stacked.rank
            sum_equals_j = sum_equals_j and same_lattice(j_lat, stacked)
        if any(ts):
            raise DecompError(f"the blocks of J^{m} and of the T_r do not line up")
        reports.append(
            TildeTDegreeReport(
                m=m,
                rank_j=rank_j,
                t_ranks=tuple(t_ranks),
                sum_equals_j=sum_equals_j,
                direct=sum(t_ranks) == stacked_rank,
            )
        )
    return TildeTReport(n, tuple(reports))


# -- rank table --------------------------------------------------------------


@dataclass(frozen=True)
class RankRow:
    c: int
    via_factors: int  # sum of per-level Witt ranks
    via_quotient: int  # witt(k, c) - rank J^c

    @property
    def ok(self) -> bool:
        return self.via_factors == self.via_quotient

    def as_dict(self) -> dict:
        return {
            "c": self.c,
            "sum_witt_factors": self.via_factors,
            "witt_minus_rank_J": self.via_quotient,
            "agree": self.ok,
        }


def gr_rank_table(n: int, max_c: int) -> list[RankRow]:
    """Graded ranks of the group's Lie algebra, two independent routes.

    Route one sums the Witt ranks of the free level factors; route two
    subtracts the computed rank of J^c from the Witt rank of the whole.
    """
    if max_c < 1:
        raise DecompError(f"need max degree >= 1, got {max_c}")
    rank_j = {
        c: sum(lattice_from_rows(mat, len(words)).rank for words, mat in blocks)
        for c, blocks in ideal_rows_by_degree(build_relators(n), max_c, range(1, alphabet_size(n) + 1))
    }
    out = []
    for c in range(1, max_c + 1):
        factors = sum(witt(i, c) for i in range(2, n + 1))
        out.append(RankRow(c, factors, witt(alphabet_size(n), c) - rank_j.get(c, 0)))
    return out
