from dataclasses import replace

import pytest

from pik.decomp import (
    DecompError,
    Relator,
    RelatorSet,
    alphabet_size,
    build_psi,
    build_relators,
    gr_rank_table,
    ideal_rows_by_degree,
    letter,
    level_letters,
    pair_bracket,
    psi_image,
    t_r_rows,
    upper_letters,
    verify_psi_automorphism,
    verify_theorem_th1,
    verify_tilde_T,
)
from pik.lie import (
    bracket,
    coordinate_row,
    lattice_equal,
    lattice_from_rows,
    lattice_of,
    lie_from_tensor,
    lie_generator,
    lyndon_bracket,
    lyndon_index,
    lyndon_words,
    witt,
)


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
        lat = lattice_of([rel.elem for rel in rels.relators], 2)
        assert lat.rank == 6 == witt(5, 2) - witt(2, 2) - witt(3, 2)

    def test_all_degree_two(self):
        for rel in build_relators(4).relators:
            assert rel.elem.degree == 2


class TestPsi:
    def test_f1(self):
        img = psi_image(3, 2, 3, 1, 1)
        assert img == pair_bracket(3, 3, 1, 2, 1)

    def test_f2(self):
        img = psi_image(3, 2, 3, 3, 1)
        assert img == pair_bracket(3, 3, 3, 2, 1)

    def test_f3(self):
        img = psi_image(3, 2, 3, 1, 2)
        want = pair_bracket(3, 3, 1, 2, 2).coords.sub(pair_bracket(3, 3, 1, 3, 2).coords)
        assert img.coords == want

    def test_domain_covers_pairs(self):
        psi = build_psi(4, 2)
        assert len(psi.domain) == len(upper_letters(4, 3)) * 2  # |U_3| x |Y_2|

    def test_image_span_is_relator_span_per_r(self):
        # the per-level images and the relator families cut out the same span
        for n in (3, 4):
            rels = build_relators(n)
            all_images = [e for r in range(2, n) for e in build_psi(n, r).images]
            relator_elems = [rel.elem for rel in rels.relators]
            assert lattice_equal(lattice_of(all_images, 2), lattice_of(relator_elems, 2))

    def test_image_set_equals_relators_per_r_block(self):
        # stronger: for each r the psi images coincide, up to sign, with the
        # relators whose lower index is r
        for n in (3, 4):
            rels = build_relators(n)
            for r in range(2, n):
                block = {tuple(sorted(rel.elem.lyndon)) for rel in rels.relators if rel.r == r}
                imgs = set()
                for e in build_psi(n, r).images:
                    imgs.add(tuple(sorted(e.lyndon)))
                    imgs.add(tuple(sorted((w, -c) for w, c in e.lyndon)))
                assert block <= imgs
                assert len(build_psi(n, r).images) == len(
                    [rel for rel in rels.relators if rel.r == r]
                )

    @pytest.mark.parametrize("n,r", [(3, 2), (4, 2), (4, 3), (5, 4)])
    def test_psi_automorphism(self, n, r):
        rep = verify_psi_automorphism(n, r)
        assert rep.block_is_identity and rep.injective

    def test_bad_r(self):
        with pytest.raises(DecompError):
            build_psi(3, 3)


class TestIdeal:
    def test_ideal_property(self):
        # bracketing J^m with any generator lands in J^{m+1}
        rels = build_relators(3)
        rows = ideal_rows_by_degree(rels, 4)
        k = alphabet_size(3)
        for m in (2, 3):
            nxt = lattice_of(rows[m + 1], m + 1)
            index = lyndon_index(k, m + 1)
            dim = len(index)
            for e in rows[m][:6]:
                for a in range(1, k + 1):
                    v = bracket(e, lie_generator(k, a))
                    if not v.is_zero:
                        assert nxt.lattice.contains(coordinate_row(v, index, dim))


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

    def test_negative_control_same_on_both_lattice_paths(self, monkeypatch):
        # the int64 path (every lattice, threshold 1) and the exact path
        # (no lattice) must give the same failing report
        import pik.lie as lie_mod

        rels = build_relators(3)
        perturbed = rels.without(rels.of_kind(3)[0])
        reports = []
        for threshold in (1, 10**12):
            monkeypatch.setattr(lie_mod, "_NUMPY_THRESHOLD", threshold)
            reports.append(verify_theorem_th1(3, 5, relators=perturbed).as_dict())
        assert reports[0] == reports[1]
        assert not reports[0]["ok"]

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
    j_rows = ideal_rows_by_degree(rels, max_m)
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
        j = [coordinate_row(e, index, dim) for e in j_rows[m] if not e.is_zero]
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
    def test_extra_within_level_pair(self, n, max_m):
        rels = build_relators(n)
        extra = Relator(1, n, 1, n, 2, pair_bracket(n, n, 1, n, 2))
        first = self.check(n, max_m, RelatorSet(n, rels.relators + (extra,)))
        assert first["rank_sum"] == first["rank_total"] + 1 and first["snf_ones"]


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
        assert len(t_r_rows(4, 2, 2)) == 14
        assert len(t_r_rows(4, 3, 2)) == 12

    def test_requires_a_degree_to_certify(self):
        with pytest.raises(DecompError, match="max degree"):
            verify_tilde_T(3, 1)


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
