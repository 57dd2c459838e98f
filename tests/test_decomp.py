import hashlib
import json
from dataclasses import replace
from types import MappingProxyType

import pytest

import pik.ajohnson as ajohnson_mod
import pik.decomp as decomp_mod
import pik.lie as lie_mod
from pik.decomp import (
    DecompError,
    Relator,
    RelatorSet,
    _lyndon_by_degree,
    _multidegree,
    _tensor_blocks,
    alphabet_size,
    build_relators,
    gr_rank_table,
    ideal_rows_by_degree,
    letter,
    level_letters,
    upper_letters,
    verify_lie_certificates,
    verify_psi_automorphism,
    verify_theorem_th1,
)
from pik.igroup import relation_instances, relator_indices
from pik.lie import (
    bracket,
    lattice_from_rows,
    lie_from_tensor,
    lie_generator,
    lyndon_bracket,
    lyndon_words,
    same_lattice,
    tensor_bracket,
    witt,
)
from pik.words import Token, tokens_to_letters, word


def added(a, b, k=1):
    """a + k b on term dicts, with the zero coefficients dropped."""
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + k * c
    return {w: c for w, c in out.items() if c}


def lyndon_index(k, m):
    """Each degree-m Lyndon word over 1..k, mapped to its column."""
    return {w: j for j, w in enumerate(lyndon_words(k, m))}


def lyndon_row(e, index):
    """A Lie element's Lyndon coordinates as a sparse row over index's columns."""
    return {index[w]: c for w, c in e.lyndon}


def at_words(terms, words):
    """Tensor terms read at words, as a sparse row over their positions."""
    return {j: terms[w] for j, w in enumerate(words) if w in terms}


def pair(n, m, nu, r, l):
    """[y(m,nu), y(r,l)] over the flat alphabet."""
    k = alphabet_size(n)
    return bracket(lie_generator(k, letter(n, m, nu)), lie_generator(k, letter(n, r, l)))


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
    relators = [rel.elem.coords for rel in build_relators(n).level(r).relators]
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
    """Each (words, rows) block spans, at its words, the lattice of the
    coefficients there of the nonzero elements whose terms meet them; each
    such element meets one block, and with every_word all of its terms lie
    at that block's words.  With basis, each block has one row per unit of
    its rank."""
    placed = [[] for _ in blocks]
    for e in elems:
        terms = e.coords
        if not terms:
            continue
        hit = [b for b, (words, _) in enumerate(blocks) if any(w in terms for w in words)]
        assert len(hit) == 1
        if every_word:
            assert terms.keys() <= set(blocks[hit[0]][0])
        placed[hit[0]].append(terms)
    for (words, rows), oracle in zip(blocks, placed):
        got = lattice_from_rows(rows, len(words))
        want = lattice_from_rows([at_words(terms, words) for terms in oracle], len(words))
        assert same_lattice(got, want)
        if basis:
            assert len(rows) == got.rank


def lyndon_lattice(elems, k, m):
    """The lattice of the elements' Lyndon coordinates."""
    index = lyndon_index(k, m)
    dim = len(index)
    return lattice_from_rows([lyndon_row(e, index) for e in elems if e.coords], dim)


def instance_index(label, tokens):
    """(kind, m, i, r, j) of a relation instance, read off its word
    [y(m,i), y(r,j)], followed for kind 3 by [y(m,j), y(m,i)]."""

    def comm(a, b):
        return [Token("y", *a, -1), Token("y", *b, -1), Token("y", *a, 1), Token("y", *b, 1)]

    kind = int(label[1])
    (m, i), (r, j) = [(t.a, t.b) for t in tokens[:2]]
    assert tokens == comm((m, i), (r, j)) + (comm((m, j), (m, i)) if kind == 3 else []), label
    return kind, m, i, r, j


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
        # the enumerator, the Lie relators and the group words all list the
        # oracle's index sets, once each and in the same order
        for n in range(2, 7):
            families = brute_relator_index_sets(n)
            indices = relator_indices(n)
            assert len(set(indices)) == len(indices) == sum(map(len, families)), n
            for kind, want in enumerate(families, 1):
                assert {t[1:] for t in indices if t[0] == kind} == want, (n, kind)
            rels = build_relators(n).relators
            assert [(r.kind, r.m, r.i, r.r, r.j) for r in rels] == indices, n
            assert [instance_index(label, tokens) for label, tokens in relation_instances(n)] == indices, n

    def test_empty_for_n2(self):
        assert build_relators(2).relators == ()

    def test_span_rank(self):
        # no relator is redundant: their count is the rank of their span,
        # which is that of L^2 less the within-level pairs
        for n in range(3, 7):
            rels = build_relators(n).relators
            k = alphabet_size(n)
            lat = lyndon_lattice([rel.elem for rel in rels], k, 2)
            assert lat.rank == len(rels) == witt(k, 2) - sum(witt(i, 2) for i in range(2, n + 1)), n

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
        assert relator(3, 1, 3, 1, 2, 1).elem == pair(3, 3, 1, 2, 1)

    def test_f2(self):
        assert relator(3, 2, 3, 3, 2, 1).elem == pair(3, 3, 3, 2, 1)

    def test_f3(self):
        want = added(pair(3, 3, 1, 2, 2).coords, pair(3, 3, 1, 3, 2).coords, -1)
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

    def test_relators_of_another_n(self):
        # I_3's relators read as I_4's would report a failing psi
        with pytest.raises(DecompError, match="n = 3, not of n = 4"):
            verify_psi_automorphism(4, 2, build_relators(3))

    def test_read_from_the_relator_set_given(self):
        # negative controls at n = 4, r = 2: a dropped relator leaves its
        # pair out of the block, and a kind-3 relator whose y(r,j) is
        # y(m,j) puts no -1 at its own pair; the other level is untouched
        rels = build_relators(4)
        victim = rels.of_kind(3)[0]
        assert verify_psi_automorphism(4, 2, rels) == verify_psi_automorphism(4, 2)
        wrong = replace(victim, elem=pair(4, victim.m, victim.i, victim.m, victim.j))
        swapped = RelatorSet(4, tuple(wrong if rel is victim else rel for rel in rels.relators))
        for bad in (rels.without(victim), swapped):
            rep = verify_psi_automorphism(4, 2, bad)
            assert not rep.block_is_identity and rep.injective
            assert verify_psi_automorphism(4, 3, bad).ok


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
                    if v.coords:
                        row = lyndon_row(v, index)
                        assert same_lattice(nxt, lattice_from_rows(nxt.rows + [row], dim))

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
            assert_same_lattices([(list(b.col), b.rows) for b in blocks], want[m], every_word=True, basis=True)
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

    def test_n2_is_free_and_n1_is_refused(self):
        # I_2 is free: relator_indices(2) is empty, so J is 0 in every degree
        rep = verify_theorem_th1(2, 5)
        assert rep.ok
        assert [(d.m, d.rank_j) for d in rep.degrees] == [(2, 0), (3, 0), (4, 0), (5, 0)]
        with pytest.raises(DecompError):
            verify_theorem_th1(1, 3)

    @pytest.mark.parametrize("max_m", [1, 0])
    def test_requires_a_degree_to_certify(self, max_m):
        with pytest.raises(DecompError, match="max degree"):
            verify_theorem_th1(3, max_m)

    def test_relators_of_another_n(self):
        with pytest.raises(DecompError, match="n = 4, not of n = 3"):
            verify_theorem_th1(3, 3, build_relators(4))


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
            level_rows.append([lyndon_row(e, index) for e in basis])
        j = [lyndon_row(e, index) for e in j_rows[m] if e.coords]
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
        doubled = lie_from_tensor(alphabet_size(n), 2, added(victim.elem.coords, victim.elem.coords))
        swapped = tuple(replace(rel, elem=doubled) if rel is victim else rel for rel in rels.relators)
        first = self.check(n, max_m, RelatorSet(n, swapped))
        assert first["rank_sum"] == first["rank_total"] and not first["snf_ones"]

    @pytest.mark.parametrize("n,max_m", [(3, 4), (4, 3)])
    def test_inhomogeneous_relator(self, n, max_m):
        # a kind-3 relator (multidegree e_i + e_j) plus [y(2,1), y(3,3)]
        # (e_1 + e_3) has no block of its own, and is refused by name
        rels = build_relators(n)
        victim = rels.of_kind(3)[0]
        mixed = lie_from_tensor(alphabet_size(n), 2, added(victim.elem.coords, pair(n, 2, 1, 3, 3).coords))
        swapped = RelatorSet(n, tuple(replace(rel, elem=mixed) if rel is victim else rel for rel in rels.relators))
        named = rf"kind 3 \(m={victim.m}, i={victim.i}, r={victim.r}, j={victim.j}\)"
        with pytest.raises(DecompError, match=named):
            verify_theorem_th1(n, max_m, relators=swapped)
        with pytest.raises(DecompError, match=named):
            list(ideal_rows_by_degree(swapped, max_m, every_letter(n)))

    @pytest.mark.parametrize("n,max_m", [(3, 4), (4, 3)])
    def test_extra_within_level_pair(self, n, max_m):
        rels = build_relators(n)
        extra = Relator(1, n, 1, n, 2, pair(n, n, 1, n, 2))
        first = self.check(n, max_m, RelatorSet(n, rels.relators + (extra,)))
        assert first["rank_sum"] == first["rank_total"] + 1 and first["snf_ones"]

    def test_relator_scaled_past_int64(self):
        # Bracketing with a letter at most doubles an entry, and the reduced
        # blocks of the scaled relator's multidegrees reach entries past
        # 2**63 at (3,5) with c = 2**62 - 1, so an int64 build would wrap.
        # The rows hold Python ints, so the report is the exact one.
        rels = build_relators(3)
        victim = rels.of_kind(3)[0]
        c = (1 << 62) - 1
        terms = {w: c * x for w, x in victim.elem.coords.items()}
        big = replace(victim, elem=lie_from_tensor(alphabet_size(3), 2, terms))
        scaled = RelatorSet(3, tuple(big if rel is victim else rel for rel in rels.relators))
        widest = 0
        for _, blocks in ideal_rows_by_degree(scaled, 5, every_letter(3)):
            for _, rows in blocks:
                top = max((abs(x) for row in rows for x in row.values()), default=0)
                widest = max(widest, top.bit_length())
        assert widest > 63
        first = self.check(3, 5, scaled)
        assert first["rank_sum"] == first["rank_total"] and not first["snf_ones"]


# SHA-256 of the JSON of Th1Report.as_dict(), computed before J was built by
# dense multidegree blocks.
PINNED_TH1 = {
    (3, 6): "0e256943438b08c86f17ca0caaad782beaf864fe4f5dd8560dd54f073082d75f",
    (4, 4): "c90c578922a3d26efce6054e045b18aad49965cdcb6770f117c772bc09f448f0",
    (5, 4): "c449092eb93869df2f10e70d71de79ae0081ed4e8cfd7bfaaa928e6d08d0d52a",
}


@pytest.mark.parametrize("n,max_m", sorted(PINNED_TH1))
def test_th1_reports_are_pinned(n, max_m):
    # the Th1-only entry point and the one pass that also splits J agree
    for rep in (verify_theorem_th1(n, max_m), verify_lie_certificates(n, max_m)[0]):
        blob = json.dumps(rep.as_dict(), sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_TH1[(n, max_m)]


def tilde_t(n, max_m):
    return verify_lie_certificates(n, max_m)[1]


class TestTildeT:
    def test_n3(self):
        rep = tilde_t(3, 3)
        assert rep.ok
        assert rep.degrees[0].t_ranks == (6,)

    def test_n4_block_ranks(self):
        rep = tilde_t(4, 2)
        assert rep.ok
        assert rep.degrees[0].t_ranks == (14, 12)
        assert rep.degrees[0].rank_j == 26

    def test_t_rows_degree2_counts(self):
        # 14 and 12 level-r relators at n = 4, one row each
        rels = build_relators(4)
        for r, count in ((2, 14), (3, 12)):
            ((m, blocks),) = ideal_rows_by_degree(rels.level(r), 2, upper_letters(4, r))
            assert m == 2 and sum(len(rows) for _, rows in blocks) == count

    @pytest.mark.parametrize("n,max_m", [(4, 4), (5, 3)])
    def test_blocks_line_up_in_lyndon_order(self, n, max_m):
        # J and every T_r list each degree's blocks, the gathered top degree
        # included, in the order _lyndon_by_degree lists the multidegrees
        rels = build_relators(n)
        ideals = [ideal_rows_by_degree(rels, max_m, every_letter(n))]
        ideals += [ideal_rows_by_degree(rels.level(r), max_m, upper_letters(n, r)) for r in range(2, n)]
        degrees = []
        for pieces in zip(*ideals, strict=True):
            (m,) = {m for m, _ in pieces}
            want = list(_lyndon_by_degree(n, m).values())
            for _, blocks in pieces:
                assert [words for words, _ in blocks] == want
            degrees.append(m)
        assert degrees == list(range(2, max_m + 1))

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
                for words, rows in blocks:
                    (d,) = {_multidegree(n, w) for w in words}
                    want = [at_words(terms, words) for terms in oracle.pop(d, [])]
                    got = lattice_from_rows(rows, len(words))
                    assert same_lattice(got, lattice_from_rows(want, len(words)))
                # every oracle row met a block's Lyndon words
                assert not oracle

    def test_t_r_over_every_letter_is_not_direct(self, monkeypatch):
        # negative control: T_r bracketed with every letter is the ideal of L
        # that the level-r relators generate, and these overlap in degree 3
        monkeypatch.setattr(decomp_mod, "upper_letters", lambda n, r: every_letter(n))
        rep = tilde_t(4, 3)
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
                yield m, (
                    blocks
                    if relators == whole
                    else ((words, [{j: 2 * x for j, x in row.items()} for row in rows]) for words, rows in blocks)
                )

        monkeypatch.setattr(decomp_mod, "ideal_rows_by_degree", doubled)
        rep = tilde_t(4, 3)
        assert [(d.sum_equals_j, d.direct) for d in rep.degrees] == [(False, True), (False, True)]

    def test_one_pass_under_a_dropped_relator(self):
        # Th1 fails exactly as the Th1-only entry point says.  The T_r of
        # the smaller set split its J^2, which the relators span, but not
        # J^3: [T_3, Y_2] lies in T_2 only by the level-2 relator of each
        # pair (see docs/NOTES.md), and one of those is gone
        rels = build_relators(4)
        dropped = rels.without(rels.of_kind(3)[0])
        th1, tilde = verify_lie_certificates(4, 4, dropped)
        assert th1.as_dict() == verify_theorem_th1(4, 4, relators=dropped).as_dict()
        assert not th1.ok and tilde.degrees[0].ok
        assert [(d.sum_equals_j, d.direct) for d in tilde.degrees[1:]] == [(False, True), (False, True)]
        assert [d.rank_j for d in tilde.degrees] == [d.rank_j for d in th1.degrees]

    def test_requires_a_degree_to_certify(self):
        with pytest.raises(DecompError, match="max degree"):
            verify_lie_certificates(3, 1)

    def test_relators_of_another_n(self):
        with pytest.raises(DecompError, match="n = 3, not of n = 4"):
            verify_lie_certificates(4, 3, build_relators(3))


# SHA-256 of the JSON of TildeTReport.as_dict(), computed while the T_r
# rows were left-normed products of T_r's generators.
PINNED_TILDE_T = {
    (3, 5): "83fe813dda1f4c2293a990ecf3a92e8ee7c370e86678a13ce9a23a634f526d94",
    (4, 4): "5e2e6a7710b601237d007ae0a1319485bf014f3db4cc247ef18d26099e005cb2",
    (5, 3): "bbd2ef7a52db059f62aaac4d4dcf605901c4ad4d60a562bf000d768b7b630b47",
}


@pytest.mark.parametrize("n,max_m", sorted(PINNED_TILDE_T))
def test_tilde_t_reports_are_pinned(n, max_m):
    blob = json.dumps(tilde_t(n, max_m).as_dict(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == PINNED_TILDE_T[(n, max_m)]


def test_cached_tables_survive_every_certificate():
    # the Lyndon words by multidegree and the checked unit words are built
    # once and read by every certificate after: one that changed a table
    # would show in the reports made after it
    for cached in (decomp_mod._lyndon_by_degree, lie_mod._unit_words):
        cached.cache_clear()
    rels = build_relators(4)
    reports = [
        verify_theorem_th1(4, 4),
        *verify_lie_certificates(4, 4),
        verify_theorem_th1(4, 4, relators=rels.without(rels.of_kind(3)[0])),
        verify_theorem_th1(4, 4),
    ]
    blobs = [json.dumps(rep.as_dict(), sort_keys=True).encode() for rep in reports]
    first, th1, tilde, _, again = (hashlib.sha256(blob).hexdigest() for blob in blobs)
    assert first == th1 == again == PINNED_TH1[(4, 4)]
    assert tilde == PINNED_TILDE_T[(4, 4)]
    fail = reports[3].first_failure()
    assert not reports[3].ok and fail.m == 2 and fail.witt_rank - fail.direct_sum.rank_sum == 1
    k = alphabet_size(4)
    levels = [level_letters(4, i) for i in range(2, 5)]
    for m in range(2, 5):
        table = decomp_mod._lyndon_by_degree(4, m)
        assert isinstance(table, MappingProxyType) and all(type(words) is tuple for words in table.values())
        assert table == decomp_mod._lyndon_by_degree.__wrapped__(4, m)
        with pytest.raises(TypeError):
            table[(0,) * 4] = ()
        units = tuple(tuple(tuple(ys[a - 1] for a in w) for w in lyndon_words(len(ys), m)) for ys in levels)
        unit_words = lie_mod._unit_words(units, k, m)
        assert type(unit_words) is frozenset and unit_words == {w for part in units for w in part}
    assert lie_mod._unit_words.cache_info().currsize == 3  # one per degree, each read by the four Th1 runs


def test_every_row_the_lattice_layer_reads_is_clean(monkeypatch):
    # the row contract of lie.lattice_from_rows, which converts nothing:
    # every row a dict of nonzero Python ints at columns 0..dim-1, as each
    # module that calls it binds it
    echelon = lie_mod.lattice_from_rows
    seen = []

    def spy(rows, dim):
        rows = list(rows)
        for row in rows:
            assert type(row) is dict
            assert all(type(j) is int and 0 <= j < dim for j in row)
            assert all(type(x) is int and x != 0 for x in row.values())
        seen.append(len(rows))
        return echelon(rows, dim)

    for module in (lie_mod, decomp_mod, ajohnson_mod):
        monkeypatch.setattr(module, "lattice_from_rows", spy)
    rows_read = []
    for run in (
        lambda: verify_lie_certificates(4, 4),
        lambda: verify_theorem_th1(2, 5),  # J is 0: every block is empty
        lambda: ajohnson_mod.l1_rank(3, 4, 6),
        lambda: verify_psi_automorphism(4, 2),
    ):
        seen.clear()
        run()
        rows_read.append(sum(seen) if seen else None)
    assert rows_read[1] == 0 and all(rows_read[i] > 0 for i in (0, 2, 3))


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

    @pytest.mark.parametrize("n,max_c", [(2, 5), (3, 6), (4, 4), (5, 3)])
    def test_rows_match_the_ideal_ranks(self, n, max_c):
        # oracle: witt(k, c) less the ranks of J's blocks, built apart from Th1
        k = alphabet_size(n)
        rank_j = {
            c: sum(lattice_from_rows(rows, len(words)).rank for words, rows in blocks)
            for c, blocks in ideal_rows_by_degree(build_relators(n), max_c, range(1, k + 1))
        }
        want = [
            (c, sum(witt(i, c) for i in range(2, n + 1)), witt(k, c) - rank_j.get(c, 0))
            for c in range(1, max_c + 1)
        ]
        assert [(r.c, r.via_factors, r.via_quotient) for r in gr_rank_table(n, max_c)] == want

    def test_a_dropped_relator_shows_at_degree_2(self, monkeypatch):
        rels = build_relators(3)
        monkeypatch.setattr(decomp_mod, "build_relators", lambda n: rels.without(rels.of_kind(3)[0]))
        row = gr_rank_table(3, 3)[1].as_dict()
        assert row["c"] == 2 and row["agree"] is False
        assert row["witt_minus_rank_J"] - row["sum_witt_factors"] == 1


class TestPresentation:
    @pytest.mark.parametrize("n", [3, 4])
    def test_group_relators_match_lie_relators(self, n):
        # the group-theoretic relator words, read over the flat alphabet, sit
        # at lower-central depth exactly 2 and their degree-2 Magnus part is
        # the corresponding Lie relator
        from pik.magnus import gamma_degree, magnus_expand

        k = alphabet_size(n)
        instances = relation_instances(n)
        relators = build_relators(n).relators
        assert len(instances) == len(relators)
        for (label, tokens), rel in zip(instances, relators):
            assert instance_index(label, tokens) == (rel.kind, rel.m, rel.i, rel.r, rel.j), label
            w = word(k, tokens_to_letters(tokens, lambda t: letter(n, t.a, t.b)))
            assert gamma_degree(w, 4) == 2, rel
            deg2 = {mono: c for mono, c in magnus_expand(w, 2).items() if len(mono) == 2}
            assert deg2 == rel.elem.coords, rel
