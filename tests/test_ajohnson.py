import itertools
import json
from dataclasses import replace

import pytest

from pik.ajohnson import (
    AJohnsonError,
    _derivation_bracket,
    _generator_derivation,
    basic_commutator_words,
    inner_degree_check,
    l1_rank,
    left_normed,
    nonzero_relators,
)
from pik.cli import main
from pik.decomp import alphabet_size, build_relators, letter
from pik.lie import bracket, lie_generator
from pik.igroup import commutator_elem, gen_elem, generators, to_endo
from pik.lie import lattice_from_rows, witt
from pik.magnus import ia_degree, johnson_image


def johnson_rows(n, c):
    """Oracle: the degree-(c+1) Johnson rows of all the left-normed weight-c
    generator commutators, as derivation brackets, in ``left_normed`` order:
    the images of X_1, ..., X_n, each read at the degree-(c+1) monomials in
    itertools.product order, as sparse rows {column: coefficient}."""
    gens = [_generator_derivation(n, m, i) for (m, i) in generators(n)]
    column = {mono: j for j, mono in enumerate(itertools.product(range(1, n + 1), repeat=c + 1))}
    return [
        {k * len(column) + column[mono]: s for k, image in enumerate(d) for mono, s in image.items()}
        for d in left_normed(gens, c, _derivation_bracket)
    ]


# The group-side path, kept here as the reference for the derivation rows:
# commutators formed in I_n, turned into automorphisms, Magnus-expanded.


def basic_commutators_In(n, c):
    return left_normed([gen_elem(n, m, i) for (m, i) in generators(n)], c, commutator_elem)


def group_johnson_rows(n, c, elems):
    """The elements' degree-(c+1) Johnson images as sparse rows, laid out as johnson_rows lays them."""
    monos = list(itertools.product(range(1, n + 1), repeat=c + 1))
    rows = []
    for e in elems:
        dense = [p.get(m, 0) for p in johnson_image(to_endo(e), c + 1) for m in monos]
        rows.append({j: x for j, x in enumerate(dense) if x})
    return rows


def build_johnson_matrix(n, c, elems):
    return lattice_from_rows(group_johnson_rows(n, c, elems), n * n ** (c + 1))


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
        for n in (1, 0):  # no generators: nothing to certify
            with pytest.raises(AJohnsonError, match="no generators"):
                l1_rank(n, 1, 3)

    @pytest.mark.parametrize("n,c", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2)])
    def test_rows_equal_group_side(self, n, c):
        # derivation brackets against commutators formed in the group: same
        # rows, same order, same sign
        group = group_johnson_rows(n, c, basic_commutators_In(n, c))
        assert johnson_rows(n, c) == group

    @pytest.mark.parametrize(
        "n,c", [(3, c) for c in range(1, 6)] + [(4, c) for c in range(1, 5)] + [(5, c) for c in range(1, 4)]
    )
    def test_rank_equals_spanning_oracle(self, n, c):
        # bracketing the echelon basis of each weight gives the rank of the
        # whole left-normed spanning set
        assert l1_rank(n, c, c + 2) == lattice_from_rows(johnson_rows(n, c), n * n ** (c + 1)).rank

    def test_factor_ranks_and_independence(self):
        # per-level pieces have the per-level Witt ranks and stack independently
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
    def test_values(self, capsys):
        # the lower bound is the Witt sum, certified by l1_rank (pik ia thu1)
        for n, c, lhs in ((3, 1, 5), (3, 2, 4), (4, 2, 10)):
            assert main(["ia", "thu1", "--n", str(n), "--c", str(c)]) == 0
            rep = json.loads(capsys.readouterr().out)
            assert rep == {"n": n, "c": c, "lhs": lhs, "certified": True}


class TestRelatorsGoToZero:
    @pytest.mark.parametrize("n,count", [(3, 6), (4, 26), (5, 71), (6, 155)])
    def test_every_relator_goes_to_zero(self, n, count):
        rels = build_relators(n).relators
        assert len(rels) == count
        assert nonzero_relators(n, rels) == []

    def test_kind_3_without_its_correction_is_named(self):
        # [y(m,i), y(r,j)] alone is not a relator: its derivation bracket is
        # [D_{m,i}, D_{r,j}] != 0, and the check names the relator by its indices
        n = 4
        rels = build_relators(n).relators
        victim = next(rel for rel in rels if rel.kind == 3)
        k = alphabet_size(n)
        lost = bracket(lie_generator(k, letter(n, victim.m, victim.i)), lie_generator(k, letter(n, victim.r, victim.j)))
        broken = [replace(rel, elem=lost) if rel is victim else rel for rel in rels]
        assert nonzero_relators(n, broken) == [(3, victim.m, victim.i, victim.r, victim.j)]
        gens = dict(zip(generators(n), (_generator_derivation(n, m, i) for m, i in generators(n))))
        assert any(_derivation_bracket(gens[victim.m, victim.i], gens[victim.r, victim.j]))
