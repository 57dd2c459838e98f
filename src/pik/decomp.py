"""Graded decomposition certificates for the partial inner automorphism group.

The free Lie algebra L on the k = (n-1)(n+2)/2 letters y(2,1) < y(2,2) <
y(3,1) < ... < y(n,n) carries the degree-2 relator set of the group's
presentation.  This module builds that relator set, the per-level maps that
realize it (cases F1-F3 below), the graded pieces of the ideal J it
generates, and exact lattice certificates for the decomposition

    L^m  =  ( + L^m(Y_2) ... + L^m(Y_n) )  (+)  J^m

as well as the splitting of J into the per-level ideals T_r.  All claims are
verified over Z.  Each L^m(Y_i) is spanned by unit Lyndon vectors, so the
decomposition needs one echelon of J^m's spanning set: rank additivity
against the Witt rank, plus a pivot of 1 in absolute value on every Lyndon
column outside the level factors.  With y(m, i) of multidegree e_i, J^m
splits into multidegree blocks, one echelon each.  Each block of J^m is a
dense integer matrix over all words of its multidegrees, stacked from the
blocks of J^{m-1} bracketed with one letter each; the top degree is
gathered straight at its Lyndon words, and every degree is read there (see
docs/NOTES.md).  The T_r rows stay tensor term dicts, read in J's blocks.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from operator import add
from typing import Iterator, Optional, Sequence

import numpy as np

from .ajohnson import left_normed_step
from .igroup import gen_index, rank_of_abelianization
from .lie import (
    _INT64_GUARD,
    DirectSumReport,
    IntLattice,
    LieElem,
    Terms,
    Word,
    block_lattices,
    bracket_word,
    coordinate_row,
    lattice_direct_sum_is_whole,
    lattice_from_rows,
    lie_from_tensor,
    lyndon_index,
    lyndon_words,
    tensor_bracket,
    witt,
)

# The number of letters of each conjugating index 1..n: deg y(m, i) = e_i.
Multidegree = tuple[int, ...]
# A spanning row of an ideal: its tensor terms, and the multidegrees they may have.
Row = tuple[Terms, frozenset[Multidegree]]
# A block of J^m: its Lyndon words, and its spanning rows' coefficients at them.
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
# The per-level maps psi_{2,r} on the pair basis [U_{r+1}, Y_r]:
#   (F1) [y(m,i), y(r,i)]  |->  [y(m,i), y(r,i)]
#   (F2) [y(m,i), y(r,j)]  |->  [y(m,i), y(r,j)]              (i > r)
#   (F3) [y(m,i), y(r,j)]  |->  [y(m,i), y(r,j)] - [y(m,i), y(m,j)]
#                                                     (i <= r, j != i)
# The projection to the pair block is the identity, so the induced map on
# [U_{r+1}, Y_r] is unimodular; the corrections lie in degree 2 of U_{r+1}.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PsiMap:
    n: int
    r: int
    domain: tuple[tuple[int, int, int], ...]  # (m, nu, l): pair [y(m,nu), y(r,l)]
    images: tuple[LieElem, ...]


def psi_image(n: int, r: int, m: int, nu: int, l: int) -> LieElem:
    if not (2 <= r < m <= n and 1 <= nu <= m and 1 <= l <= r):
        raise DecompError(f"pair [y({m},{nu}), y({r},{l})] outside the psi domain")
    if nu == l:
        return pair_bracket(n, m, nu, r, l)
    if nu > r:
        return pair_bracket(n, m, nu, r, l)
    diff = pair_bracket(n, m, nu, r, l).coords.sub(pair_bracket(n, m, nu, m, l).coords)
    return lie_from_tensor(alphabet_size(n), 2, diff)


def build_psi(n: int, r: int) -> PsiMap:
    if not 2 <= r <= n - 1:
        raise DecompError(f"need 2 <= r <= {n - 1}, got {r}")
    domain = []
    images = []
    for m in range(r + 1, n + 1):
        for nu in range(1, m + 1):
            for l in range(1, r + 1):
                domain.append((m, nu, l))
                images.append(psi_image(n, r, m, nu, l))
    return PsiMap(n, r, tuple(domain), tuple(images))


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
    """The pair-block of psi is the identity (hence unimodular) and psi is 1-1."""
    psi = build_psi(n, r)
    k = alphabet_size(n)
    index = lyndon_index(k, 2)
    dim = len(index)
    y_r = set(level_letters(n, r))
    u_r1 = set(upper_letters(n, r + 1))
    # pair (m,nu,l) corresponds to the Lyndon word (letter(r,l), letter(m,nu))
    pair_pos = {
        (m, nu, l): index[(letter(n, r, l), letter(n, m, nu))] for (m, nu, l) in psi.domain
    }
    block_identity = True
    rows = []
    for (m, nu, l), im in zip(psi.domain, psi.images):
        row = coordinate_row(im, index, dim)
        rows.append(row)
        # the pair block: coordinates on Lyndon words mixing Y_r and U_{r+1};
        # sign flip because [y_u, y_t] = -P_(t,u) for t < u.
        for (m2, nu2, l2), pos in pair_pos.items():
            expected = -1 if (m2, nu2, l2) == (m, nu, l) else 0
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
        injective=lat.rank == len(psi.domain),
    )


# ---------------------------------------------------------------------------
# Graded pieces of the ideal J generated by the relators (all of degree 2).
# Left-normed spanning: J^m is spanned by [s, t_1, ..., t_{m-2}] with s a
# relator and the t's single letters; bracketing with longer elements reduces
# to this by the Jacobi identity [x,[y,z]] = [x,y,z] - [x,z,y].
#
# Each relator kind is homogeneous (kind 3's two brackets both have degree
# e_i + e_j), and bracketing with a letter of conjugating index i adds e_i,
# so J^m splits into multidegree blocks.  J^m is built block by block as
# dense integer matrices over each block's words, from the blocks of
# J^{m-1}; the top degree is gathered straight at its Lyndon words.  The
# T_r rows stay tensor term dicts, each with the multidegrees it may have.
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _conjugating_index(n: int) -> tuple[int, ...]:
    """Conjugating index i of each flat letter y(m, i); position 0 is unused."""
    return (0,) + tuple(i for m in range(2, n + 1) for i in range(1, m + 1))


def _multidegree(n: int, w: Word) -> Multidegree:
    conj = _conjugating_index(n)
    d = [0] * n
    for a in w:
        d[conj[a] - 1] += 1
    return tuple(d)


def _words_of(n: int, d: Multidegree) -> tuple[Word, ...]:
    """All words of multidegree d, in lexicographic order."""
    if not any(d):
        return ((),)
    conj = _conjugating_index(n)
    out: list[Word] = []
    for a in range(1, len(conj)):
        i = conj[a] - 1
        if d[i]:
            rest = d[:i] + (d[i] - 1,) + d[i + 1 :]
            out.extend((a,) + w for w in _words_of(n, rest))
    return tuple(out)


def _classes(groups: Sequence[frozenset[Multidegree]]) -> tuple[list[frozenset[Multidegree]], list[int]]:
    """Join the multidegrees that share a group (union-find): the classes, in
    order of first appearance, and the class of each group."""
    parent: dict[Multidegree, Multidegree] = {}

    def find(d: Multidegree) -> Multidegree:
        while parent.get(d, d) != d:
            d = parent[d]
        return d

    for group in groups:
        root, *rest = (find(d) for d in group)
        for other in rest:
            if other != root:
                parent[other] = root
    index: dict[Multidegree, int] = {}
    members: list[set[Multidegree]] = []
    of_group = []
    for group in groups:
        root = find(next(iter(group)))
        if root not in index:
            index[root] = len(members)
            members.append(set())
        members[index[root]] |= group
        of_group.append(index[root])
    return [frozenset(ds) for ds in members], of_group


@dataclass(frozen=True)
class _TensorBlock:
    """Spanning rows of J^m on one class of multidegrees, dense over all of
    the class's words; col maps each word, in lexicographic order, to its column."""

    degrees: frozenset[Multidegree]
    col: dict[Word, int]
    mat: np.ndarray


def _class_columns(n: int, degrees: frozenset[Multidegree]) -> dict[Word, int]:
    return {w: j for j, w in enumerate(sorted(w for d in degrees for w in _words_of(n, d)))}


def _shifted(degrees: frozenset[Multidegree], i: int) -> frozenset[Multidegree]:
    return frozenset(d[:i] + (d[i] + 1,) + d[i + 1 :] for d in degrees)


# (source block, letter) pairs that reach one block of the next degree
Feed = list[tuple[_TensorBlock, int]]


def _feeds(n: int, below: Sequence[_TensorBlock]) -> tuple[list[frozenset[Multidegree]], list[Feed]]:
    """The classes of J^m reached from the blocks of J^{m-1} by one letter,
    and for each class the (block, letter) pairs that reach it."""
    conj = _conjugating_index(n)
    classes, of_shift = _classes([_shifted(b.degrees, i) for b in below for i in range(n)])
    feeds: list[Feed] = [[] for _ in classes]
    for s, b in enumerate(below):
        for a in range(1, len(conj)):
            feeds[of_shift[s * n + conj[a] - 1]].append((b, a))
    return classes, feeds


def _stacks(
    feed: Feed, width: int, dtype: type
) -> tuple[np.ndarray, list[tuple[np.ndarray, _TensorBlock, int]]]:
    """A zero matrix with a stack of rows for each (block, letter) pair of
    feed, as tall as the block, and the stacks as views into it."""
    mat = np.zeros((sum(len(b.mat) for b, _ in feed), width), dtype=dtype)
    stacks = []
    r0 = 0
    for b, a in feed:
        stacks.append((mat[r0 : r0 + len(b.mat)], b, a))
        r0 += len(b.mat)
    return mat, stacks


def _tensor_blocks(
    relators: RelatorSet, top: int, dtype: type
) -> Iterator[tuple[int, list[_TensorBlock]]]:
    """J^m for 2 <= m <= top in tensor coordinates, one block per class.

    Degree 2 is the relators' terms, their multidegrees joined by union-find.
    Block t of J^m stacks, for each block b of J^{m-1} and each letter a
    sending it to t, the rows x of b bracketed as x a - a x: the column of
    u a gets +x(u) and that of a u gets -x(u), both maps injective on words.
    """
    n = relators.n
    rows = [rel.elem.coords.terms for rel in relators.relators if rel.elem.coords.terms]
    classes, of_row = _classes([frozenset(_multidegree(n, w) for w in terms) for terms in rows])
    blocks = []
    for c, degrees in enumerate(classes):
        col = _class_columns(n, degrees)
        own = [terms for terms, hit in zip(rows, of_row) if hit == c]
        mat = np.zeros((len(own), len(col)), dtype=dtype)
        for r, terms in enumerate(own):
            for w, coeff in terms.items():
                mat[r, col[w]] = coeff
        blocks.append(_TensorBlock(degrees, col, mat))
    yield 2, blocks
    for m in range(3, top + 1):
        classes, feeds = _feeds(n, blocks)
        blocks = []
        for degrees, feed in zip(classes, feeds):
            col = _class_columns(n, degrees)
            mat, stacks = _stacks(feed, len(col), dtype)
            for part, b, a in stacks:
                part[:, [col[u + (a,)] for u in b.col]] = b.mat
                part[:, [col[(a,) + u] for u in b.col]] -= b.mat
            blocks.append(_TensorBlock(degrees, col, mat))
        yield m, blocks


def _row(n: int, e: LieElem) -> Row:
    terms = e.coords.terms
    return terms, frozenset(_multidegree(n, w) for w in terms)


def _letter_rows(n: int, letters: Sequence[int]) -> list[Row]:
    return [({(a,): 1}, frozenset({_multidegree(n, (a,))})) for a in letters]


def _bracket_rows(a: Row, b: Row) -> Row:
    return tensor_bracket(a[0], b[0]), frozenset(tuple(map(add, x, y)) for x in a[1] for y in b[1])


def _lyndon_parts(n: int, m: int, classes: Sequence[frozenset[Multidegree]]) -> list[list[Word]]:
    """The degree-m Lyndon words of each class, then one part for each
    multidegree outside the classes: a partition, in lexicographic order."""
    class_of = {d: c for c, degrees in enumerate(classes) for d in degrees}
    parts: list[list[Word]] = [[] for _ in classes]
    rest: dict[Multidegree, list[Word]] = {}
    for w in lyndon_words(alphabet_size(n), m):
        d = _multidegree(n, w)
        c = class_of.get(d)
        (parts[c] if c is not None else rest.setdefault(d, [])).append(w)
    return parts + list(rest.values())


def _empty(parts: Sequence[list[Word]], dtype: type) -> list[Block]:
    return [(words, np.zeros((0, len(words)), dtype=dtype)) for words in parts]


def _cut(n: int, m: int, blocks: Sequence[_TensorBlock], dtype: type) -> Iterator[Block]:
    """J^m read at its Lyndon words: the tensor blocks cut to them, one block
    at a time."""
    parts = _lyndon_parts(n, m, [b.degrees for b in blocks])
    for b, words in zip(blocks, parts):
        yield words, b.mat.take([b.col[w] for w in words], axis=1)
    yield from _empty(parts[len(blocks) :], dtype)


def _gathered(n: int, m: int, below: Sequence[_TensorBlock], dtype: type) -> Iterator[Block]:
    """J^m read at its Lyndon words, gathered from the blocks of J^{m-1} one
    block at a time: row [x, a] has x(w[:-1]) at w when w ends with a, less
    x(w[1:]) when w starts with a."""
    classes, feeds = _feeds(n, below)
    parts = _lyndon_parts(n, m, classes)
    for words, feed in zip(parts, feeds):
        ends: dict[int, list[tuple[int, Word]]] = {}
        starts: dict[int, list[tuple[int, Word]]] = {}
        for j, w in enumerate(words):
            ends.setdefault(w[-1], []).append((j, w[:-1]))
            starts.setdefault(w[0], []).append((j, w[1:]))
        mat, stacks = _stacks(feed, len(words), dtype)
        for part, b, a in stacks:
            for at, sign in ((ends, 1), (starts, -1)):
                hits = [(j, b.col[u]) for j, u in at.get(a, ()) if u in b.col]
                if hits:
                    js, us = zip(*hits)
                    part[:, list(js)] += sign * b.mat[:, list(us)]
        yield words, mat
    yield from _empty(parts[len(classes) :], dtype)


def ideal_rows_by_degree(relators: RelatorSet, max_m: int) -> Iterator[tuple[int, Iterator[Block]]]:
    """J^m for 2 <= m <= max_m, degree by degree and block by block: each
    block's Lyndon words, and its spanning rows' tensor coefficients at them,
    one matrix row each.

    The blocks of each degree partition its Lyndon words; a row has no
    nonzero coefficient at a Lyndon word outside its block.  Below the top
    degree the rows are J's tensor blocks cut to their Lyndon columns.  The
    top degree is gathered from degree max_m - 1 with no tensor block.  All
    of it is one pass: each degree's blocks are made as they are read, and
    lattice_from_rows echelonizes a matrix in place.  Bracketing with a
    letter at most doubles an entry, so the matrices hold Python ints when
    max|coeff| 2^(max_m - 2) could pass the int64 guard.
    """
    if max_m < 2:
        return
    n = relators.n
    coeffs = [abs(c) for rel in relators.relators for c in rel.elem.coords.terms.values()]
    dtype = np.int64 if max(coeffs, default=0) << (max_m - 2) <= _INT64_GUARD else object
    below: list[_TensorBlock] = []
    for m, below in _tensor_blocks(relators, max(2, max_m - 1), dtype):
        yield m, _cut(n, m, below, dtype)
    if max_m > 2:
        yield max_m, _gathered(n, max_m, below, dtype)


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
    negative controls.
    """
    if n < 3:
        raise DecompError("need n >= 3")
    if max_m < 2:
        raise DecompError(f"need max degree >= 2, got {max_m}")
    rels = relators if relators is not None else build_relators(n)
    k = alphabet_size(n)
    levels = [level_letters(n, i) for i in range(2, n + 1)]
    reports = []
    for m, blocks in ideal_rows_by_degree(rels, max_m):
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


def _c_elements(n: int, r: int, kappa: int) -> list[Row]:
    """The degree-kappa generators of T_r: psi images with Y_r then U_{r+1} tails."""
    y_tail = _letter_rows(n, level_letters(n, r))
    u_tail = _letter_rows(n, upper_letters(n, r + 1))
    heads = [_row(n, e) for e in build_psi(n, r).images]
    out = []
    for a in range(kappa - 1):  # a letters of Y_r, then kappa - 2 - a of U_{r+1}
        if a:
            heads = left_normed_step(heads, y_tail, _bracket_rows)
        elems = heads
        for _ in range(kappa - 2 - a):
            elems = left_normed_step(elems, u_tail, _bracket_rows)
        out.extend(elems)
    return out


def _compositions(m: int, min_part: int = 2):
    if m == 0:
        yield ()
        return
    for first in range(min_part, m + 1):
        for rest in _compositions(m - first, min_part):
            yield (first,) + rest


def t_r_rows(n: int, r: int, m: int) -> list[Row]:
    """Spanning set of the degree-m piece of T_r: left-normed products of
    generators of T_r with degrees composing m."""
    cache: dict[int, list[Row]] = {}

    def c_of(kappa: int) -> list[Row]:
        if kappa not in cache:
            cache[kappa] = _c_elements(n, r, kappa)
        return cache[kappa]

    rows: list[Row] = []
    for comp in _compositions(m):
        elems = c_of(comp[0])
        for kappa in comp[1:]:
            elems = left_normed_step(elems, c_of(kappa), _bracket_rows)
        rows.extend(row for row in elems if row[0])  # drop zero rows
    return rows


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


def _in_blocks(
    n: int, blocks: Sequence[Block], rows: Sequence[Row]
) -> list[tuple[list[Word], list[Terms]]]:
    """The rows grouped by the block of J that holds one of their
    multidegrees; block_lattices refuses a row that meets a Lyndon word of
    another block."""
    block_of = {_multidegree(n, w): b for b, (words, _) in enumerate(blocks) for w in words}
    grouped: list[list[Terms]] = [[] for _ in blocks]
    for terms, degrees in rows:
        grouped[block_of[next(iter(degrees))]].append(terms)
    return [(words, g) for (words, _), g in zip(blocks, grouped)]


def verify_tilde_T(n: int, max_m: int) -> TildeTReport:
    """Certify that the T_r pieces sum directly to J, degree by degree."""
    if n < 3:
        raise DecompError("need n >= 3")
    if max_m < 2:
        raise DecompError(f"need max degree >= 2, got {max_m}")
    k = alphabet_size(n)
    reports = []
    for m, blocks in ideal_rows_by_degree(build_relators(n), max_m):
        j_blocks = list(blocks)
        per_r = [t_r_rows(n, r, m) for r in range(2, n)]
        stacked = [row for rows in per_r for row in rows]
        # the T_r rows are read in J's blocks, so the lattices compare block by block
        j_lats: list[IntLattice] = [lattice_from_rows(mat, len(words)) for words, mat in j_blocks]
        stacked_lats: list[IntLattice] = list(block_lattices(_in_blocks(n, j_blocks, stacked), k, m))
        t_ranks = tuple(
            sum(lat.rank for lat in block_lattices(_in_blocks(n, j_blocks, rows), k, m)) for rows in per_r
        )
        reports.append(
            TildeTDegreeReport(
                m=m,
                rank_j=sum(lat.rank for lat in j_lats),
                t_ranks=t_ranks,
                sum_equals_j=all(a.hnf() == b.hnf() for a, b in zip(j_lats, stacked_lats)),
                direct=sum(t_ranks) == sum(lat.rank for lat in stacked_lats),
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
        for c, blocks in ideal_rows_by_degree(build_relators(n), max_c)
    }
    out = []
    for c in range(1, max_c + 1):
        factors = sum(witt(i, c) for i in range(2, n + 1))
        out.append(RankRow(c, factors, witt(alphabet_size(n), c) - rank_j.get(c, 0)))
    return out
