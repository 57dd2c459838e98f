import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

import pik.decomp as decomp_mod
from pik.decomp import (
    DecompError,
    Relator,
    RelatorSet,
    _multidegree,
    _tensor_blocks,
    alphabet_size,
    build_relators,
    gr_rank_table,
    ideal_rows_by_degree,
    letter,
    level_letters,
    pair_bracket,
    upper_letters,
    verify_psi_automorphism,
    verify_theorem_th1,
    verify_tilde_T,
)
from pik.lie import (
    bracket,
    coordinate_row,
    lattice_from_rows,
    lie_from_tensor,
    lie_generator,
    lyndon_bracket,
    lyndon_index,
    lyndon_words,
    same_lattice,
    tensor_bracket,
    witt,
)
from pik.magnus import NcPoly


def lie_ideal_rows(relators, max_m):
    """Oracle: J's left-normed spanning set as Lie elements, each bracket
    checked to be a Lie element by the Lyndon rewrite."""
    k = alphabet_size(relators.n)
    gens = [lie_generator(k, a) for a in range(1, k + 1)]
    rows = {2: [rel.elem for rel in relators.relators]}
    for m in range(3, max_m + 1):
        rows[m] = [bracket(h, g) for h in rows[m - 1] for g in gens]
    return rows


def every_letter(n):
    return range(1, alphabet_size(n) + 1)


def t_r_rows(n, r, m):
    """Oracle: a spanning set of the degree-m piece of T_r, as tensor term
    dicts: left-normed products of the generators C_r of T_r with degrees
    composing m.  The degree-kappa generators are the level-r relators
    bracketed with a letters of Y_r, then kappa - 2 - a letters of U_{r+1}."""

    def brackets(heads, tails):
        return [tensor_bracket(h, t) for h in heads for t in tails]

    def compositions(m):
        if m == 0:
            yield ()
            return
        for first in range(2, m + 1):
            for rest in compositions(m - first):
                yield (first,) + rest

    y_tail = [{(a,): 1} for a in level_letters(n, r)]
    u_tail = [{(a,): 1} for a in upper_letters(n, r + 1)]
    relators = [rel.elem.coords.terms for rel in build_relators(n).level(r).relators]
    c_of = {}
    for kappa in range(2, m + 1):
        heads, c_of[kappa] = relators, []
        for a in range(kappa - 1):
            if a:
                heads = brackets(heads, y_tail)
            elems = heads
            for _ in range(kappa - 2 - a):
                elems = brackets(elems, u_tail)
            c_of[kappa].extend(elems)
    rows = []
    for comp in compositions(m):
        elems = c_of[comp[0]]
        for kappa in comp[1:]:
            elems = brackets(elems, c_of[kappa])
        rows.extend(terms for terms in elems if terms)
    return rows


def assert_same_lattices(blocks, elems, every_word, basis):
    """Each (words, matrix) block spans, at its words, the lattice of the
    coefficients there of the nonzero elements whose terms meet them; each
    such element meets one block, and with every_word all of its terms lie
    at that block's words.  With basis, each block has one row per unit of
    its rank."""
    placed = [[] for _ in blocks]
    for e in elems:
        terms = e.coords.terms
        if not terms:
            continue
        hit = [b for b, (words, _) in enumerate(blocks) if any(w in terms for w in words)]
        assert len(hit) == 1
        if every_word:
            assert terms.keys() <= set(blocks[hit[0]][0])
        placed[hit[0]].append(terms)
    for (words, mat), rows in zip(blocks, placed):
        got = lattice_from_rows(mat, len(words))
        want = lattice_from_rows([[terms.get(w, 0) for w in words] for terms in rows], len(words))
        assert same_lattice(got, want)
        if basis:
            assert len(mat) == got.rank


def lyndon_lattice(elems, k, m):
    """The lattice of the elements' Lyndon coordinates."""
    index = lyndon_index(k, m)
    dim = len(index)
    return lattice_from_rows([coordinate_row(e, index, dim) for e in elems if e.coords.terms], dim)


def brute_relator_index_sets(n):
    """Oracle: enumerate the three families straight from their side conditions."""
    ones, twos, threes = set(), set(), set()
    for r in range(2, n + 1):
        for m in range(2, n + 1):
            for i in range(1, n + 1):
                if 2 <= r < m <= n and i <= r:
                    ones.add((m, i, r, i))
                for j in range(1, n + 1):
                    if 2 <= r < i <= m <= n and 1 <= j <= r:
                        twos.add((m, i, r, j))
                    if (
                        2 <= r < m <= n
                        and 1 <= i <= r
                        and 1 <= j <= r
                        and j != i
                    ):
                        threes.add((m, i, r, j))
    return ones, twos, threes


class TestAlphabet:
    def test_size(self):
        assert alphabet_size(3) == 5
        assert alphabet_size(4) == 9
        assert alphabet_size(5) == 14

    def test_letter_order(self):
        assert [letter(3, m, i) for m in (2, 3) for i in range(1, m + 1)] == [1, 2, 3, 4, 5]

    def test_blocks(self):
        assert level_letters(4, 3) == [3, 4, 5]
        assert upper_letters(4, 3) == [3, 4, 5, 6, 7, 8, 9]


class TestRelators:
    def test_counts_n3(self):
        rels = build_relators(3)
        assert len(rels.relators) == 6
        assert [len(rels.of_kind(k)) for k in (1, 2, 3)] == [2, 2, 2]

    def test_counts_against_brute_force(self):
        for n in (3, 4, 5):
            ones, twos, threes = brute_relator_index_sets(n)
            rels = build_relators(n)
            assert {(r.m, r.i, r.r, r.j) for r in rels.of_kind(1)} == ones
            assert {(r.m, r.i, r.r, r.j) for r in rels.of_kind(2)} == twos
            assert {(r.m, r.i, r.r, r.j) for r in rels.of_kind(3)} == threes

    def test_empty_for_n2(self):
        assert build_relators(2).relators == ()

    def test_span_rank(self):
        rels = build_relators(3)
        lat = lyndon_lattice([rel.elem for rel in rels.relators], 5, 2)
        assert lat.rank == 6 == witt(5, 2) - witt(2, 2) - witt(3, 2)

    def test_all_degree_two(self):
        for rel in build_relators(4).relators:
            assert rel.elem.degree == 2


def relator(n, kind, m, i, r, j):
    (rel,) = [rel for rel in build_relators(n).of_kind(kind) if (rel.m, rel.i, rel.r, rel.j) == (m, i, r, j)]
    return rel


class TestPsi:
    """psi_{2,r} sends the pair (m, nu, l) to the level-r relator of kind
    F1, F2 or F3 with (m, i, j) = (m, nu, l)."""

    def test_f1(self):
        assert relator(3, 1, 3, 1, 2, 1).elem == pair_bracket(3, 3, 1, 2, 1)

    def test_f2(self):
        assert relator(3, 2, 3, 3, 2, 1).elem == pair_bracket(3, 3, 3, 2, 1)

    def test_f3(self):
        want = pair_bracket(3, 3, 1, 2, 2).coords.sub(pair_bracket(3, 3, 1, 3, 2).coords)
        assert relator(3, 3, 3, 1, 2, 2).elem.coords == want

    def test_domain_covers_pairs(self):
        level = build_relators(4).level(2).relators
        assert len(level) == len(upper_letters(4, 3)) * 2  # |U_3| x |Y_2|
        assert len({(rel.m, rel.i, rel.j) for rel in level}) == len(level)

    @pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (4, 3), (5, 4)])
    def test_psi_automorphism(self, n, r):
        rep = verify_psi_automorphism(n, r)
        assert rep.block_is_identity and rep.injective

    def test_bad_r(self):
        with pytest.raises(DecompError):
            verify_psi_automorphism(3, 3)


class TestIdeal:
    def test_ideal_property(self):
        # bracketing J^m with any generator lands in J^{m+1}
        rels = build_relators(3)
        rows = lie_ideal_rows(rels, 4)
        k = alphabet_size(3)
        for m in (2, 3):
            nxt = lyndon_lattice(rows[m + 1], k, m + 1)
            index = lyndon_index(k, m + 1)
            dim = len(index)
            for e in rows[m][:6]:
                for a in range(1, k + 1):
                    v = bracket(e, lie_generator(k, a))
                    if v.coords.terms:
                        assert nxt.contains(coordinate_row(v, index, dim))

    @pytest.mark.parametrize("n,max_m", [(3, 4), (4, 3), (3, 5), (4, 4)])
    def test_rows_match_lie_brackets(self, n, max_m):
        # below the top degree, each tensor block is an echelon basis of the
        # lattice of the oracle's rows of its multidegree at every word of
        # the block; at every degree, each Lyndon block spans that lattice
        # at its Lyndon words, below the top with one row per unit of rank.
        # At (3,5) and (4,4) the oracle has more rows than the rank below
        # the top (degree 4 at n=3: 150 for 129; degree 3 at n=4: 234 for 210).
        rels = build_relators(n)
        want = lie_ideal_rows(rels, max_m)
        for m, blocks in _tensor_blocks(rels, max_m - 1, every_letter(n)):
            assert_same_lattices([(list(b.col), b.mat) for b in blocks], want[m], every_word=True, basis=True)
        seen = []
        for m, blocks in ideal_rows_by_degree(rels, max_m, every_letter(n)):
            assert_same_lattices(list(blocks), want[m], every_word=False, basis=m < max_m)
            seen.append(m)
        assert seen == list(range(2, max_m + 1))


class TestTheoremDecomposition:
    def test_n3(self):
        rep = verify_theorem_th1(3, 4)
        assert rep.ok
        by_m = {d.m: d for d in rep.degrees}
        assert by_m[2].rank_j == 6 and by_m[2].ranks_y == (1, 3)
        assert by_m[3].rank_j == 30 and by_m[3].ranks_y == (2, 8)
        assert by_m[4].rank_j == 129 and by_m[4].ranks_y == (3, 18)

    def test_n4_low_degrees(self):
        rep = verify_theorem_th1(4, 3)
        assert rep.ok
        assert rep.degrees[0].rank_j == 26

    def test_negative_control_drop_type3(self):
        rels = build_relators(3)
        for victim in rels.of_kind(3):
            rep = verify_theorem_th1(3, 2, relators=rels.without(victim))
            assert not rep.ok
            fail = rep.first_failure()
            assert fail.m == 2
            assert fail.witt_rank - fail.direct_sum.rank_sum == 1

    def test_negative_control_matches_stacked_oracle(self):
        # a perturbed relator set fails, with the report of the oracle that
        # eliminates the level bases and J's spanning rows stacked together
        rels = build_relators(3)
        perturbed = rels.without(rels.of_kind(3)[0])
        got = verify_theorem_th1(3, 5, relators=perturbed).as_dict()
        assert got["per_degree"] == stacked_th1(3, 5, perturbed)
        assert not got["ok"]

    def test_n5_degree4(self):
        rep = verify_theorem_th1(5, 4)
        assert rep.ok
        top = rep.degrees[-1]
        assert top.m == 4
        assert top.rank_j == witt(14, 4) - sum(witt(i, 4) for i in range(2, 6))

    def test_requires_n3(self):
        with pytest.raises(DecompError):
            verify_theorem_th1(2, 3)

    @pytest.mark.parametrize("max_m", [1, 0])
    def test_requires_a_degree_to_certify(self, max_m):
        with pytest.raises(DecompError, match="max degree"):
            verify_theorem_th1(3, max_m)


def stacked_th1(n, max_m, rels):
    """Oracle: the per-degree Th1 report from one lattice that stacks the
    rows of each level factor's Lyndon basis, built by tensor brackets, and
    the rows of J's spanning set."""
    k = alphabet_size(n)
    j_rows = lie_ideal_rows(rels, max_m)
    out = []
    for m in range(2, max_m + 1):
        index = lyndon_index(k, m)
        dim = len(index)
        level_rows = []
        for i in range(2, n + 1):
            ys = level_letters(n, i)
            flat = [tuple(ys[a - 1] for a in w) for w in lyndon_words(i, m)]
            basis = [lie_from_tensor(k, m, lyndon_bracket(k, w)) for w in flat]
            level_rows.append([coordinate_row(e, index, dim) for e in basis])
        j = [coordinate_row(e, index, dim) for e in j_rows[m] if e.coords.terms]
        ranks_y = [lattice_from_rows(rows, dim).rank for rows in level_rows]
        rank_j = lattice_from_rows(j, dim).rank
        stacked = lattice_from_rows([r for rows in level_rows for r in rows] + j, dim)
        snf_ones = stacked.rank == dim and stacked.pivots() == [1] * dim
        rank_sum = sum(ranks_y) + rank_j
        out.append(
            {
                "m": m,
                "rank_total": witt(k, m),
                "rank_J": rank_j,
                "ranks_Y": ranks_y,
                "rank_sum": rank_sum,
                "direct_sum": rank_sum == witt(k, m) and snf_ones,
                "snf_ones": snf_ones,
            }
        )
    return out


class TestAgainstStackedLattice:
    """The one-echelon certificate gives the report of the stacked lattice."""

    @staticmethod
    def check(n, max_m, rels):
        got = verify_theorem_th1(n, max_m, relators=rels).as_dict()["per_degree"]
        want = stacked_th1(n, max_m, rels)
        assert got == want
        return want[0]

    @pytest.mark.parametrize("n,max_m", [(3, 4), (4, 3)])
    def test_each_relator_dropped(self, n, max_m):
        rels = build_relators(n)
        assert self.check(n, max_m, rels)["direct_sum"]
        for victim in rels.relators:
            assert self.check(n, max_m, rels.without(victim))["rank_sum"] == witt(alphabet_size(n), 2) - 1

    @pytest.mark.parametrize("n,max_m", [(3, 4), (4, 3)])
    def test_relator_doubled(self, n, max_m):
        rels = build_relators(n)
        victim = rels.of_kind(3)[0]
        doubled = lie_from_tensor(alphabet_size(n), 2, victim.elem.coords.add(victim.elem.coords))
        swapped = tuple(replace(rel, elem=doubled) if rel is victim else rel for rel in rels.relators)
        first = self.check(n, max_m, RelatorSet(n, swapped))
        assert first["rank_sum"] == first["rank_total"] and not first["snf_ones"]

    @pytest.mark.parametrize("n,max_m", [(3, 4), (4, 3)])
    def test_inhomogeneous_relator(self, n, max_m):
        # a kind-3 relator (multidegree e_i + e_j) plus [y(2,1), y(3,3)]
        # (e_1 + e_3) has no block of its own, and is refused by name
        rels = build_relators(n)
        victim = rels.of_kind(3)[0]
        mixed = lie_from_tensor(
            alphabet_size(n), 2, victim.elem.coords.add(pair_bracket(n, 2, 1, 3, 3).coords)
        )
        swapped = RelatorSet(n, tuple(replace(rel, elem=mixed) if rel is victim else rel for rel in rels.relators))
        named = rf"kind 3 \(m={victim.m}, i={victim.i}, r={victim.r}, j={victim.j}\)"
        with pytest.raises(DecompError, match=named):
            verify_theorem_th1(n, max_m, relators=swapped)
        with pytest.raises(DecompError, match=named):
            list(ideal_rows_by_degree(swapped, max_m, every_letter(n)))

    @pytest.mark.parametrize("n,max_m", [(3, 4), (4, 3)])
    def test_extra_within_level_pair(self, n, max_m):
        rels = build_relators(n)
        extra = Relator(1, n, 1, n, 2, pair_bracket(n, n, 1, n, 2))
        first = self.check(n, max_m, RelatorSet(n, rels.relators + (extra,)))
        assert first["rank_sum"] == first["rank_total"] + 1 and first["snf_ones"]

    def test_relator_scaled_past_int64(self):
        # Bracketing with a letter at most doubles an entry, and the reduced
        # blocks of the scaled relator's multidegrees reach entries past
        # 2**63 at (3,5) with c = 2**62 - 1, so an int64 build would wrap.
        # Each block holds Python ints once twice its largest entry passes
        # the int64 guard, so the report is the exact one.
        rels = build_relators(3)
        victim = rels.of_kind(3)[0]
        c = (1 << 62) - 1
        terms = {w: c * x for w, x in victim.elem.coords.terms.items()}
        big = replace(victim, elem=lie_from_tensor(alphabet_size(3), 2, NcPoly(5, 2, terms)))
        scaled = RelatorSet(3, tuple(big if rel is victim else rel for rel in rels.relators))
        widest = 0
        for _, blocks in ideal_rows_by_degree(scaled, 5, every_letter(3)):
            for _, mat in blocks:
                top = max((abs(int(x)) for x in mat.flat), default=0)
                assert mat.dtype == object or 2 * top <= decomp_mod._INT64_GUARD
                widest = max(widest, top.bit_length())
        assert widest > 63
        first = self.check(3, 5, scaled)
        assert first["rank_sum"] == first["rank_total"] and not first["snf_ones"]

    @pytest.mark.parametrize("n,max_m", [(3, 5), (4, 4)])
    def test_python_ints_from_mid_build(self, n, max_m, monkeypatch):
        # With the guard at 2, the degree-2 blocks (entries 1) hold int64 and
        # the reduced blocks with an entry of 2 or more hold Python ints, so
        # the build switches between the two; the reports are unchanged.
        want = (verify_theorem_th1(n, max_m).as_dict(), verify_tilde_T(n, max_m).as_dict())
        monkeypatch.setattr(decomp_mod, "_INT64_GUARD", 2)
        dtypes = {
            m: {b.mat.dtype for b in blocks}
            for m, blocks in _tensor_blocks(build_relators(n), max_m, every_letter(n))
        }
        assert dtypes[2] == {np.dtype(np.int64)}
        assert any(np.dtype(object) in seen for seen in dtypes.values())
        assert (verify_theorem_th1(n, max_m).as_dict(), verify_tilde_T(n, max_m).as_dict()) == want


# SHA-256 of the JSON of Th1Report.as_dict(), computed before J was built by
# dense multidegree blocks.
PINNED_TH1 = {
    (3, 6): "0e256943438b08c86f17ca0caaad782beaf864fe4f5dd8560dd54f073082d75f",
    (4, 4): "c90c578922a3d26efce6054e045b18aad49965cdcb6770f117c772bc09f448f0",
    (5, 4): "c449092eb93869df2f10e70d71de79ae0081ed4e8cfd7bfaaa928e6d08d0d52a",
}


@pytest.mark.parametrize("n,max_m", sorted(PINNED_TH1))
def test_th1_reports_are_pinned(n, max_m):
    blob = json.dumps(verify_theorem_th1(n, max_m).as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_TH1[(n, max_m)]


class TestTildeT:
    def test_n3(self):
        rep = verify_tilde_T(3, 3)
        assert rep.ok
        assert rep.degrees[0].t_ranks == (6,)

    def test_n4_block_ranks(self):
        rep = verify_tilde_T(4, 2)
        assert rep.ok
        assert rep.degrees[0].t_ranks == (14, 12)
        assert rep.degrees[0].rank_j == 26

    def test_t_rows_degree2_counts(self):
        # 14 and 12 level-r relators at n = 4, one row each
        rels = build_relators(4)
        for r, count in ((2, 14), (3, 12)):
            ((m, blocks),) = ideal_rows_by_degree(rels.level(r), 2, upper_letters(4, r))
            assert m == 2 and sum(len(mat) for _, mat in blocks) == count

    @pytest.mark.parametrize("n,max_m", [(3, 5), (4, 4), (5, 3)])
    def test_t_r_blocks_match_the_composition_oracle(self, n, max_m):
        # T_r as the ideal of L(U_r) spans, multidegree by multidegree, what
        # the left-normed products of T_r's generators span
        rels = build_relators(n)
        for r in range(2, n):
            for m, blocks in ideal_rows_by_degree(rels.level(r), max_m, upper_letters(n, r)):
                oracle = {}
                for terms in t_r_rows(n, r, m):
                    (d,) = {_multidegree(n, w) for w in terms}
                    oracle.setdefault(d, []).append(terms)
                for words, mat in blocks:
                    (d,) = {_multidegree(n, w) for w in words}
                    want = [[terms.get(w, 0) for w in words] for terms in oracle.pop(d, [])]
                    got = lattice_from_rows(mat, len(words))
                    assert same_lattice(got, lattice_from_rows(want, len(words)))
                # every oracle row met a block's Lyndon words
                assert not oracle

    def test_t_r_over_every_letter_is_not_direct(self, monkeypatch):
        # negative control: T_r bracketed with every letter is the ideal of L
        # that the level-r relators generate, and these overlap in degree 3
        monkeypatch.setattr(decomp_mod, "upper_letters", lambda n, r: every_letter(n))
        rep = verify_tilde_T(4, 3)
        assert rep.degrees[0].ok
        top = rep.degrees[1]
        assert (top.rank_j, top.t_ranks, top.sum_equals_j, top.direct) == (210, (126, 108), True, False)

    def test_doubled_t_r_do_not_sum_to_j(self, monkeypatch):
        # negative control: with every T_r block doubled and J's kept, the
        # T_r stay direct but span 2 T_r, a proper sublattice of J, at
        # every degree
        build = decomp_mod.ideal_rows_by_degree
        whole = build_relators(4)

        def doubled(relators, max_m, letters):
            for m, blocks in build(relators, max_m, letters):
                yield m, (blocks if relators == whole else ((words, 2 * mat) for words, mat in blocks))

        monkeypatch.setattr(decomp_mod, "ideal_rows_by_degree", doubled)
        rep = verify_tilde_T(4, 3)
        assert [(d.sum_equals_j, d.direct) for d in rep.degrees] == [(False, True), (False, True)]

    def test_requires_a_degree_to_certify(self):
        with pytest.raises(DecompError, match="max degree"):
            verify_tilde_T(3, 1)


# SHA-256 of the JSON of TildeTReport.as_dict(), computed while the T_r
# rows were left-normed products of T_r's generators.
PINNED_TILDE_T = {
    (3, 5): "83fe813dda1f4c2293a990ecf3a92e8ee7c370e86678a13ce9a23a634f526d94",
    (4, 4): "5e2e6a7710b601237d007ae0a1319485bf014f3db4cc247ef18d26099e005cb2",
    (5, 3): "bbd2ef7a52db059f62aaac4d4dcf605901c4ad4d60a562bf000d768b7b630b47",
}


@pytest.mark.parametrize("n,max_m", sorted(PINNED_TILDE_T))
def test_tilde_t_reports_are_pinned(n, max_m):
    blob = json.dumps(verify_tilde_T(n, max_m).as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_TILDE_T[(n, max_m)]


class TestRankTable:
    def test_n3_values(self):
        rows = gr_rank_table(3, 3)
        assert [(r.c, r.via_factors) for r in rows] == [(1, 5), (2, 4), (3, 10)]
        assert all(r.ok for r in rows)

    def test_n4_values(self):
        rows = gr_rank_table(4, 2)
        assert [(r.c, r.via_factors) for r in rows] == [(1, 9), (2, 10)]
        assert all(r.ok for r in rows)

    def test_n2_has_an_empty_ideal(self):
        # I_2 is free of rank 2: no relators, so J^c is 0 in every degree
        rows = gr_rank_table(2, 5)
        assert [r.c for r in rows] == [1, 2, 3, 4, 5]
        assert all(r.ok and r.via_quotient == witt(2, r.c) for r in rows)

    def test_requires_a_degree(self):
        with pytest.raises(DecompError, match="max degree"):
            gr_rank_table(3, 0)


class TestPresentation:
    @pytest.mark.parametrize("n", [3, 4])
    def test_group_relators_match_lie_relators(self, n):
        # the group-theoretic relator words, read over the flat alphabet, sit
        # at lower-central depth exactly 2 and their degree-2 Magnus part is
        # the corresponding Lie relator
        from pik.magnus import gamma_degree, magnus_expand
        from pik.words import commutator, gen, invert, multiply

        k = alphabet_size(n)
        for rel in build_relators(n).relators:
            ym = gen(k, letter(n, rel.m, rel.i))
            yr = gen(k, letter(n, rel.r, rel.j))
            word = commutator(ym, yr)
            if rel.kind == 3:
                ymj = gen(k, letter(n, rel.m, rel.j))
                word = multiply(word, invert(commutator(ym, ymj)))
            assert gamma_degree(word, 4) == 2, rel
            deg2 = magnus_expand(word, 2).homogeneous(2)
            assert deg2.terms == rel.elem.coords.terms, rel
