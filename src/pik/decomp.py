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
column outside the level factors (see docs/NOTES.md).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .ajohnson import left_normed_step
from .igroup import gen_index, rank_of_abelianization
from .lie import (
    DirectSumReport,
    LieElem,
    bracket,
    bracket_word,
    coordinate_row,
    lattice_direct_sum_is_whole,
    lattice_equal,
    lattice_from_rows,
    lattice_of,
    lie_from_tensor,
    lie_generator,
    lyndon_index,
    lyndon_words,
    witt,
)


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
# ---------------------------------------------------------------------------


def ideal_rows_by_degree(relators: RelatorSet, max_m: int) -> dict[int, list[LieElem]]:
    n = relators.n
    k = alphabet_size(n)
    gens = [lie_generator(k, a) for a in range(1, k + 1)]
    rows = {2: [rel.elem for rel in relators.relators]}
    for m in range(3, max_m + 1):
        rows[m] = left_normed_step(rows[m - 1], gens, bracket)
    return rows


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
    j_rows = ideal_rows_by_degree(rels, max_m)
    levels = [level_letters(n, i) for i in range(2, n + 1)]
    reports = []
    for m in range(2, max_m + 1):
        # a Lyndon word on one level's letters is Lyndon on the whole ordered
        # alphabet with the same bracketing, so L^m(Y_i) is spanned by unit
        # Lyndon vectors
        units = [[tuple(ys[a - 1] for a in w) for w in lyndon_words(len(ys), m)] for ys in levels]
        ds = lattice_direct_sum_is_whole(j_rows[m], units, k, m)
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


def _c_elements(n: int, r: int, kappa: int) -> list[LieElem]:
    """The degree-kappa generators of T_r: psi images with Y_r then U_{r+1} tails."""
    k = alphabet_size(n)
    y_tail = [lie_generator(k, a) for a in level_letters(n, r)]
    u_tail = [lie_generator(k, a) for a in upper_letters(n, r + 1)]
    heads = list(build_psi(n, r).images)
    out = []
    for a in range(kappa - 1):  # a letters of Y_r, then kappa - 2 - a of U_{r+1}
        if a:
            heads = left_normed_step(heads, y_tail, bracket)
        elems = heads
        for _ in range(kappa - 2 - a):
            elems = left_normed_step(elems, u_tail, bracket)
        out.extend(elems)
    return out


def _compositions(m: int, min_part: int = 2):
    if m == 0:
        yield ()
        return
    for first in range(min_part, m + 1):
        for rest in _compositions(m - first, min_part):
            yield (first,) + rest


def t_r_rows(n: int, r: int, m: int) -> list[LieElem]:
    """Spanning set of the degree-m piece of T_r: left-normed products of
    generators of T_r with degrees composing m."""
    cache: dict[int, list[LieElem]] = {}

    def c_of(kappa: int) -> list[LieElem]:
        if kappa not in cache:
            cache[kappa] = _c_elements(n, r, kappa)
        return cache[kappa]

    rows: list[LieElem] = []
    for comp in _compositions(m):
        elems = c_of(comp[0])
        for kappa in comp[1:]:
            elems = left_normed_step(elems, c_of(kappa), bracket)
        rows.extend(e for e in elems if not e.is_zero)
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


def verify_tilde_T(n: int, max_m: int) -> TildeTReport:
    """Certify that the T_r pieces sum directly to J, degree by degree."""
    if n < 3:
        raise DecompError("need n >= 3")
    if max_m < 2:
        raise DecompError(f"need max degree >= 2, got {max_m}")
    rels = build_relators(n)
    j_rows = ideal_rows_by_degree(rels, max_m)
    k = alphabet_size(n)
    reports = []
    for m in range(2, max_m + 1):
        j_lat = lattice_of(j_rows[m], m)
        per_r = [t_r_rows(n, r, m) for r in range(2, n)]
        t_lats = [lattice_of(rows, m) if rows else None for rows in per_r]
        t_ranks = tuple(lat.rank if lat else 0 for lat in t_lats)
        stacked: list[LieElem] = [e for rows in per_r for e in rows]
        stacked_lat = lattice_of(stacked, m)
        reports.append(
            TildeTDegreeReport(
                m=m,
                rank_j=j_lat.rank,
                t_ranks=t_ranks,
                sum_equals_j=lattice_equal(stacked_lat, j_lat),
                direct=sum(t_ranks) == stacked_lat.rank,
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
    rels = build_relators(n)
    k = alphabet_size(n)
    j_rows = ideal_rows_by_degree(rels, max_c) if max_c >= 2 else {}
    out = []
    for c in range(1, max_c + 1):
        factors = sum(witt(i, c) for i in range(2, n + 1))
        # an empty spanning set (I_2 has no relators) spans the zero lattice
        rank_j = lattice_of(j_rows[c], c).rank if c >= 2 and j_rows[c] else 0
        out.append(RankRow(c, factors, witt(k, c) - rank_j))
    return out
