import pytest

from pik.ajohnson import (
    AJohnsonError,
    basic_commutator_words,
    basic_commutators_In,
    build_johnson_matrix,
    inner_degree_check,
    l1_rank,
    left_normed,
    thu1_bound,
)
from pik.igroup import gen_elem, to_endo
from pik.lie import lattice_from_rows, witt
from pik.magnus import ia_degree


class TestBasicCommutators:
    def test_weight_one(self):
        elems = basic_commutators_In(3, 1)
        assert len(elems) == 5
        assert elems[0] == gen_elem(3, 2, 1)

    def test_weight_two_count(self):
        assert len(basic_commutators_In(3, 2)) == 10  # pairs y > y'

    def test_filtration_level(self):
        for c in (1, 2):
            for e in basic_commutators_In(3, c):
                if e.is_identity:
                    continue
                assert ia_degree(to_endo(e), c + 2) >= c + 1

    def test_left_normed_order(self):
        # symbolic brackets record the order; the reference is the nested
        # enumeration: a > b, then the tail lexicographically
        import itertools

        gens = ["p", "q", "r"]
        for c in (1, 2, 3, 4):
            want = list(gens) if c == 1 else []
            for a in range(len(gens)) if c > 1 else ():
                for b in range(a):
                    for tail in itertools.product(gens, repeat=c - 2):
                        e = (gens[a], gens[b])
                        for t in tail:
                            e = (e, t)
                        want.append(e)
            assert left_normed(gens, c, lambda x, y: (x, y)) == want
        with pytest.raises(AJohnsonError):
            left_normed(gens, 0, lambda x, y: (x, y))

    def test_words_scheme(self):
        assert len(basic_commutator_words(3, 1)) == 3
        assert len(basic_commutator_words(3, 2)) == 3
        assert len(basic_commutator_words(3, 3)) == 9


class TestL1Rank:
    def test_n3_values(self):
        assert l1_rank(3, 1, 3) == 5
        assert l1_rank(3, 2, 4) == 4 == witt(2, 2) + witt(3, 2)

    def test_n4_values(self):
        assert l1_rank(4, 1, 3) == 9
        assert l1_rank(4, 2, 4) == 10 == witt(2, 2) + witt(3, 2) + witt(4, 2)

    def test_truncation_precondition(self):
        with pytest.raises(AJohnsonError):
            l1_rank(3, 2, 3)

    def test_factor_ranks_and_independence(self):
        # per-level pieces have the per-level Witt ranks and stack independently
        from pik.igroup import commutator_elem

        n, c = 3, 2
        levels = []
        for level in (2, 3):
            gens = [gen_elem(n, level, i) for i in range(1, level + 1)]
            levels.append(build_johnson_matrix(n, c, left_normed(gens, c, commutator_elem)))
        assert [m.rank for m in levels] == [witt(2, 2), witt(3, 2)]
        rows = [r for m in levels for r in m.rows]
        stacked = lattice_from_rows(rows, n * n ** (c + 1))
        assert stacked.rank == witt(2, 2) + witt(3, 2)


class TestInnerDegree:
    def test_examples(self):
        assert inner_degree_check(2, 1, 3).ok
        assert inner_degree_check(3, 2, 4).ok
        assert inner_degree_check(3, 3, 5).ok

    def test_nonempty(self):
        rep = inner_degree_check(3, 2, 4)
        assert rep.checked > 0


class TestThu1:
    def test_values(self):
        rep = thu1_bound(3, 1)
        assert rep.lhs == 5 and rep.certified
        rep = thu1_bound(3, 2)
        assert rep.lhs == 4 and rep.certified
        rep = thu1_bound(4, 2)
        assert rep.lhs == 10 and rep.certified
