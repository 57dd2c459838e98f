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
bracketed with one letter each, as sparse integer rows over the words of
its multidegree that they meet, and reduced to its own echelon rows, the
Lyndon words outside the levels first: bracketing is Z-linear, so a basis
brackets to what the whole spanning set brackets to, and that echelon,
cut to the Lyndon words, is the certificate's.  The top degree is
gathered straight at its Lyndon words, and every degree is read there (see
docs/NOTES.md, "Bracketing a basis").  T_r is the ideal of L(U_r)
generated by the level-r relators, so one builder makes J and every T_r,
bracketing with every letter or with the letters of U_r.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .igroup import gen_index, generators, rank_of_abelianization, relator_indices
from .lie import (
    DirectSumReport,
    LieElem,
    SparseRow,
    Terms,
    Word,
    bracket,
    lattice_direct_sum_is_whole,
    lattice_from_rows,
    lie_from_tensor,
    lie_generator,
    lyndon_words,
    same_lattice,
    witt,
)

# The number of letters of each conjugating index 1..n: deg y(m, i) = e_i.
Multidegree = tuple[int, ...]
# A block of J^m or T_r^m: its Lyndon words, and the coefficients at them of rows spanning it.
Block = tuple[Sequence[Word], list[SparseRow]]


class DecompError(ValueError):
    pass


@lru_cache(maxsize=None)
def _letter_table(n: int) -> tuple[tuple[int, int], ...]:
    """Level m and conjugating index i of each flat letter y(m, i), in
    igroup.generators' order; position 0 is unused."""
    return ((0, 0), *generators(n))


def level_letters(n: int, i: int) -> list[int]:
    """Flat indices of the level-i block Y_i."""
    return [a for a, (m, _) in enumerate(_letter_table(n)) if m == i]


def upper_letters(n: int, r: int) -> list[int]:
    """Flat indices of U_r = Y_r + ... + Y_n."""
    return [a for a, (m, _) in enumerate(_letter_table(n)) if m >= r]


# ---------------------------------------------------------------------------
# The relator set: one degree-2 Lie element for each (kind, m, i, r, j) of
# pik.igroup.relator_indices, which defines the three families.  Each is one
# bracket, [y(m,i), y(r,j)], or [y(m,i), y(r,j) - y(m,j)] for kind 3.
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
    k = rank_of_abelianization(n)
    out: list[Relator] = []
    for kind, m, i, r, j in relator_indices(n):
        right = {(gen_index(n, r, j),): 1}
        if kind == 3:
            right[(gen_index(n, m, j),)] = -1
        elem = bracket(lie_generator(k, gen_index(n, m, i)), lie_from_tensor(k, 1, right))
        out.append(Relator(kind, m, i, r, j, elem))
    return RelatorSet(n, tuple(out))


def _relators_for(n: int, relators: Optional[RelatorSet]) -> RelatorSet:
    """relators, by default build_relators(n); a set for another n raises DecompError."""
    if relators is None:
        return build_relators(n)
    if relators.n != n:
        raise DecompError(f"the relators are those of n = {relators.n}, not of n = {n}")
    return relators


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

    def as_dict(self) -> dict:
        return {"r": self.r, "block_is_identity": self.block_is_identity, "injective": self.injective}


def verify_psi_automorphism(n: int, r: int, relators: Optional[RelatorSet] = None) -> PsiReport:
    """The pair-block of psi_{2,r} is the identity (hence unimodular) and
    psi_{2,r} is 1-1: read off the level-r relators, by default those of
    build_relators(n); relators for another n raise DecompError."""
    if not 2 <= r <= n - 1:
        raise DecompError(f"need 2 <= r <= {n - 1}, got {r}")
    level = _relators_for(n, relators).level(r).relators
    index = {w: j for j, w in enumerate(lyndon_words(rank_of_abelianization(n), 2))}
    y_r = set(level_letters(n, r))
    # the pair [y(m,nu), y(r,l)] is the Lyndon word of flat letters (y(r,l), y(m,nu)):
    # Y_r's letters precede U_{r+1}'s
    pairs = {(y, u) for y in y_r for u in upper_letters(n, r + 1)}
    own = [(gen_index(n, r, rel.j), gen_index(n, rel.m, rel.i)) for rel in level]
    # the block is square, each pair one relator's, and each relator is -1
    # at its own pair ([y_u, y_t] = -P_(t,u) for t < u) with its other
    # Lyndon words in L^2(U_{r+1})
    block_identity = sorted(own) == sorted(pairs) and all(
        dict(rel.elem.lyndon).get(pair) == -1 and all(w == pair or not y_r & set(w) for w, _ in rel.elem.lyndon)
        for rel, pair in zip(level, own)
    )
    rows = [{index[w]: c for w, c in rel.elem.lyndon} for rel in level]
    return PsiReport(n, r, block_identity, injective=lattice_from_rows(rows, len(index)).rank == len(level))


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


def _multidegree(n: int, w: Word) -> Multidegree:
    table = _letter_table(n)
    d = [0] * n
    for a in w:
        d[table[a][1] - 1] += 1
    return tuple(d)


def _c_then_s(n: int, words: Sequence[Word]) -> list[Word]:
    """Lyndon words, those outside every level (C) before the level words
    (S), each part in the order given."""
    table = _letter_table(n)
    return sorted(words, key=lambda w: all(table[a][0] == table[w[0]][0] for a in w))


@dataclass(frozen=True)
class _TensorBlock:
    """Echelon rows of an ideal's degree-m piece of one multidegree, over
    the words its spanning rows meet.  col maps each word to its column:
    every Lyndon word of the multidegree in C-then-S order, lexicographic
    within each part, then each other word in the order it was first met.
    No pivot lies at a non-Lyndon column (see _reduced), so their order is
    never read: the next degree maps rows by word."""

    degree: Multidegree
    col: dict[Word, int]
    rows: list[SparseRow]


def _reduced(d: Multidegree, col: dict[Word, int], rows: Sequence[SparseRow]) -> _TensorBlock:
    """The block spanned by rows, held as its echelon rows.

    Every pivot lies at a Lyndon column, since a nonzero Lie element has a
    nonzero tensor coefficient at some Lyndon word, so the rows cut to the
    Lyndon columns are an echelon basis of the block read there.
    """
    return _TensorBlock(d, col, lattice_from_rows(rows, len(col)).rows)


def _mapped(rows: Sequence[SparseRow], to: dict[int, list[tuple[int, int]]]) -> Iterator[SparseRow]:
    """Each row sent through to: its entry x at column j adds sign * x at
    column t for each (t, sign) of to[j]; a column not in to is dropped,
    and so is an entry that cancels."""
    for row in rows:
        out: SparseRow = {}
        for j in row.keys() & to.keys():
            x = row[j]
            for t, sign in to[j]:
                y = out.get(t, 0) + sign * x
                if y:
                    out[t] = y
                else:
                    del out[t]
        yield out


# (source block, letter) pairs that reach one block of the next degree
Feed = list[tuple[_TensorBlock, int]]


def _feeds(n: int, below: Sequence[_TensorBlock], letters: Sequence[int]) -> dict[Multidegree, Feed]:
    """The multidegrees of degree m reached from the blocks of degree m - 1
    by one letter, in the order they are first reached, each with the
    (block, letter) pairs that reach it."""
    table = _letter_table(n)
    feeds: dict[Multidegree, Feed] = {}
    for b in below:
        for a in letters:
            i = table[a][1] - 1
            d = b.degree[:i] + (b.degree[i] + 1,) + b.degree[i + 1 :]
            feeds.setdefault(d, []).append((b, a))
    return feeds


def _tensor_blocks(
    relators: RelatorSet, top: int, letters: Sequence[int]
) -> Iterator[tuple[int, list[_TensorBlock]]]:
    """The ideal's degree-m pieces for 2 <= m <= top in tensor coordinates,
    one reduced block per multidegree.

    Degree 2 is the relators' terms, grouped by multidegree; a relator whose
    terms have more than one raises DecompError.  Block t of degree m
    stacks, for each block b of degree m - 1 and each of the letters a
    sending it to t, the echelon rows x of b bracketed as x a - a x: the
    column of u a gets +x(u) and that of a u gets -x(u), both summed, since
    u a can be a u' for another word u'.  Each stack is reduced to its
    echelon rows before it is kept.
    """
    n = relators.n
    rows: dict[Multidegree, list[Terms]] = {}
    for rel in relators.relators:
        terms = rel.elem.coords
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
        col = {w: j for j, w in enumerate(lyndon.get(d, ()))}
        own_rows = [{col.setdefault(w, len(col)): x for w, x in terms.items()} for terms in own]
        blocks.append(_reduced(d, col, own_rows))
    yield 2, blocks
    for m in range(3, top + 1):
        lyndon = _lyndon_by_degree(n, m)
        feeds = _feeds(n, blocks, letters)
        blocks = []
        for d, feed in feeds.items():
            col = {w: j for j, w in enumerate(lyndon.get(d, ()))}
            stacked: list[SparseRow] = []
            for b, a in feed:
                to = {
                    j: [(col.setdefault(u + (a,), len(col)), 1), (col.setdefault((a,) + u, len(col)), -1)]
                    for u, j in b.col.items()
                }
                stacked.extend(_mapped(b.rows, to))
            blocks.append(_reduced(d, col, stacked))
        yield m, blocks


@lru_cache(maxsize=None)
def _lyndon_by_degree(n: int, m: int) -> Mapping[Multidegree, tuple[Word, ...]]:
    """The degree-m Lyndon words by multidegree, each part in C-then-S
    order; built once and read-only, as lyndon_words is."""
    parts: dict[Multidegree, list[Word]] = {}
    for w in lyndon_words(rank_of_abelianization(n), m):
        parts.setdefault(_multidegree(n, w), []).append(w)
    return MappingProxyType({d: tuple(_c_then_s(n, words)) for d, words in parts.items()})


def _cut(n: int, m: int, blocks: Sequence[_TensorBlock]) -> Iterator[Block]:
    """A degree-m piece read at its Lyndon words, one block at a time in
    _lyndon_by_degree's order: each reduced block cut to its first columns,
    and no rows where no block lies."""
    rows = {b.degree: b.rows for b in blocks}
    for d, words in _lyndon_by_degree(n, m).items():
        yield words, [{j: x for j, x in row.items() if j < len(words)} for row in rows.get(d, ())]


def _gathered(n: int, m: int, below: Sequence[_TensorBlock], letters: Sequence[int]) -> Iterator[Block]:
    """A degree-m piece read at its Lyndon words, gathered from the blocks
    of degree m - 1 one block at a time in _lyndon_by_degree's order: row
    [x, a] has x(w[:-1]) at w when w ends with a, less x(w[1:]) when w
    starts with a.  A multidegree that no feed reaches has no rows."""
    feeds = _feeds(n, below, letters)
    for d, words in _lyndon_by_degree(n, m).items():
        rows: list[SparseRow] = []
        if d in feeds:
            ends: dict[int, list[tuple[int, Word]]] = {}
            starts: dict[int, list[tuple[int, Word]]] = {}
            for j, w in enumerate(words):
                ends.setdefault(w[-1], []).append((j, w[:-1]))
                starts.setdefault(w[0], []).append((j, w[1:]))
            for b, a in feeds[d]:
                to: dict[int, list[tuple[int, int]]] = {}
                for at, sign in ((ends, 1), (starts, -1)):
                    for j, u in at.get(a, ()):
                        if u in b.col:
                            to.setdefault(b.col[u], []).append((j, sign))
                rows.extend(_mapped(b.rows, to))
        yield words, rows


def ideal_rows_by_degree(
    relators: RelatorSet, max_m: int, letters: Sequence[int]
) -> Iterator[tuple[int, Iterator[Block]]]:
    """The ideal generated by relators in the free Lie algebra on letters,
    for 2 <= m <= max_m, degree by degree and block by block: each block's
    Lyndon words, those outside every level (C) before the level words (S),
    and the tensor coefficients at them of rows that span the block's
    lattice, as sparse rows ({column: entry}, columns indexing the words).
    J brackets with every letter; T_r with those of U_r.  Each relator must
    be homogeneous: one whose terms have more than one multidegree raises
    DecompError.

    Each degree lists one block per multidegree that has Lyndon words, in
    the order of _lyndon_by_degree(n, m) whatever the relators and letters,
    so the blocks of two ideals of one rank line up by position; a
    multidegree that the ideal does not reach has its words and no rows.
    The blocks partition the degree's Lyndon words, and a row has no
    nonzero coefficient at a Lyndon word outside its block.  Degree 2 and
    every degree below max_m hold an echelon basis of each block, as many
    rows as its rank, with C columns first: the reduced tensor blocks cut
    to their Lyndon columns.  A top degree max_m > 2 holds the brackets of
    degree max_m - 1's echelon rows with each letter, gathered with no
    tensor block.  All of it is one pass: each degree's blocks are made as
    they are read.
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


def _th1_degree(n: int, m: int, blocks: Iterable[Block]) -> DegreeReport:
    """Degree m of Th1 from the blocks of J^m, read once."""
    k = rank_of_abelianization(n)
    # a Lyndon word on one level's letters is Lyndon on the whole ordered
    # alphabet with the same bracketing, so L^m(Y_i) is spanned by unit
    # Lyndon vectors
    levels = [level_letters(n, i) for i in range(2, n + 1)]
    units = [[tuple(ys[a - 1] for a in w) for w in lyndon_words(len(ys), m)] for ys in levels]
    ds = lattice_direct_sum_is_whole(blocks, units, k, m)
    return DegreeReport(m=m, witt_rank=witt(k, m), rank_j=ds.part_ranks[-1], ranks_y=ds.part_ranks[:-1], direct_sum=ds)


def verify_theorem_th1(n: int, max_m: int, relators: Optional[RelatorSet] = None) -> Th1Report:
    """Certify L^m = (+_i L^m(Y_i)) (+) J^m for 2 <= m <= max_m.

    Failure is reported, not raised, so perturbed relator sets can be used as
    negative controls; a relator that is not homogeneous, or relators for
    another n, raise DecompError.
    I_2 is free (no relators), so at n = 2 J is 0 and L^m is L^m(Y_2).
    """
    if n < 2:
        raise DecompError("need n >= 2")
    if max_m < 2:
        raise DecompError(f"need max degree >= 2, got {max_m}")
    rels = _relators_for(n, relators)
    degrees = ideal_rows_by_degree(rels, max_m, range(1, rank_of_abelianization(n) + 1))
    return Th1Report(n, tuple(_th1_degree(n, m, blocks) for m, blocks in degrees))


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


def verify_lie_certificates(
    n: int, max_m: int, relators: Optional[RelatorSet] = None
) -> tuple[Th1Report, TildeTReport]:
    """Th1 and the splitting of J into the T_r, for 2 <= m <= max_m, from
    one pass over J.

    T_r is the ideal of L(U_r) generated by the level-r relators (see
    docs/NOTES.md), so J and each T_r come from the one ideal builder.  All
    of them split into the same multidegree blocks, listed in the same
    order, and lattices that are direct sums over the same blocks are equal
    iff they are equal per block.
    Each block of J is echelonized once: its lattice is compared with the
    stacked echelons of the T_r there, and its echelon rows feed Th1, which
    finds them reduced.  A T_r whose relators and letters are J's (T_2 at
    n = 3, where every relator has level 2 and U_2 is every letter) is J,
    and reads J's echelon instead of building its own.  Failure is
    reported and bad input raised, as in verify_theorem_th1.
    """
    if n < 3:
        raise DecompError("need n >= 3")
    if max_m < 2:
        raise DecompError(f"need max degree >= 2, got {max_m}")
    rels = _relators_for(n, relators)
    letters = list(range(1, rank_of_abelianization(n) + 1))
    j_degrees = ideal_rows_by_degree(rels, max_m, letters)
    t_degrees = [  # None for a T_r that is J
        None if level == rels and ups == letters else ideal_rows_by_degree(level, max_m, ups)
        for level, ups in ((rels.level(r), upper_letters(n, r)) for r in range(2, n))
    ]
    th1, tilde = [], []
    for m, j_blocks in j_degrees:
        # every ideal lists a degree's blocks in one order, so J's block and
        # each T_r's are read side by side, one block at a time
        t_pieces = [next(t)[1] for t in t_degrees if t is not None]
        t_ranks = [0] * len(t_degrees)
        stacked: list[tuple[int, bool]] = []  # per block: rank of the stacked T_r, and whether it is J's lattice

        def echelons() -> Iterator[Block]:
            for (words, rows), *t_blocks in zip(j_blocks, *t_pieces, strict=True):
                j_lat = lattice_from_rows(rows, len(words))
                own = iter(t_blocks)
                t_lats = [j_lat if t is None else lattice_from_rows(next(own)[1], len(words)) for t in t_degrees]
                for r, t_lat in enumerate(t_lats):
                    t_ranks[r] += t_lat.rank
                # the T_r echelon rows span the T_r with fewer rows than their spanning sets
                t_sum = lattice_from_rows([row for t_lat in t_lats for row in t_lat.rows], len(words))
                stacked.append((t_sum.rank, same_lattice(j_lat, t_sum)))
                yield words, j_lat.rows

        degree = _th1_degree(n, m, echelons())
        th1.append(degree)
        direct = sum(t_ranks) == sum(rank for rank, _ in stacked)
        tilde.append(TildeTDegreeReport(m, degree.rank_j, tuple(t_ranks), all(same for _, same in stacked), direct))
    return Th1Report(n, tuple(th1)), TildeTReport(n, tuple(tilde))


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
    """Graded ranks of the group's Lie algebra, read off Th1.

    Row c >= 2 is degree c of verify_theorem_th1: the sum of the Witt ranks
    of the free level factors (ranks_Y) against the Witt rank of the whole
    less rank J^c.  J^1 = 0, so row 1 is k both ways.
    """
    if max_c < 1:
        raise DecompError(f"need max degree >= 1, got {max_c}")
    th1 = verify_theorem_th1(n, max(max_c, 2))
    k = rank_of_abelianization(n)
    rows = [RankRow(d.m, sum(d.ranks_y), d.witt_rank - d.rank_j) for d in th1.degrees]
    return [RankRow(1, k, k)] + rows[: max_c - 1]
