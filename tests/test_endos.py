from functools import reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pik.endos import (
    EndoError,
    EndoF,
    apply,
    automorphism,
    check_mccool_relations,
    chi,
    compose,
    inverse,
    is_identity,
    perturbed_chi,
    tau,
    y_gen,
)
from pik.words import decode, gen, invert, multiply, parse_x_word, word


def w(s, rank=3):
    return parse_x_word(s, rank)


def identity_endo(n):
    """The identity of F_n, by its images x_1, ..., x_n."""
    return EndoF(n, tuple(gen(n, i) for i in range(1, n + 1)))


def _letters(rank, size):
    return st.lists(st.tuples(st.integers(1, rank), st.sampled_from([1, -1])), max_size=size)


@st.composite
def _endo_and_word(draw):
    """An arbitrary endomorphism (images need not be invertible) and a word."""
    rank = draw(st.integers(1, 4))
    images = tuple(word(rank, draw(_letters(rank, 6))) for _ in range(rank))
    return EndoF(rank, images), word(rank, draw(_letters(rank, 12)))


def _expand_then_reduce(f, v):
    letters = []
    for idx, sign in decode(v.letters):
        img = decode(f.images[idx - 1].letters)
        letters += img if sign > 0 else [(i, -s) for i, s in reversed(img)]
    return word(f.rank, letters).letters


class TestChi:
    def test_definition(self):
        c = chi(3, 1, 2)
        assert c.images[0] == w("x2^-1 x1 x2")
        assert c.images[1] == w("x2")
        assert c.images[2] == w("x3")

    def test_definition_other_order(self):
        c = chi(2, 2, 1)
        assert c.images[1] == w("x1^-1 x2 x1", 2)
        assert c.images[0] == w("x1", 2)

    def test_inverse_composes_to_identity(self):
        c = chi(3, 1, 2)
        c_inv = EndoF(3, (w("x2 x1 x2^-1"), w("x2"), w("x3")))
        assert is_identity(compose(c, c_inv))
        assert is_identity(compose(c_inv, c))

    def test_rejects_equal_indices(self):
        with pytest.raises(EndoError):
            chi(3, 2, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(EndoError):
            chi(3, 1, 4)


class TestYGen:
    def test_global_conjugation(self):
        # conjugates every generator by x_1: x_k |-> x_1^-1 x_k x_1
        f = y_gen(3, 3, 1)
        for k, img in enumerate(f.images, start=1):
            assert img == apply(tau(invert(gen(3, 1))), gen(3, k))
        assert f.images[0] == gen(3, 1)

    def test_equals_chi_at_level_two(self):
        assert y_gen(3, 2, 1).images == chi(3, 2, 1).images

    def test_partial_level(self):
        f = y_gen(4, 2, 2)
        assert f.images[0] == w("x2^-1 x1 x2", 4)
        assert f.images[2] == w("x3", 4)
        assert f.images[3] == w("x4", 4)

    def test_literal_chi_composition(self):
        # y(m, i) is the product of chi(k, i) over k <= m, k != i
        for n, m, i in [(3, 3, 1), (4, 3, 2), (5, 4, 4), (4, 2, 1)]:
            lit = reduce(compose, (chi(n, k, i) for k in range(1, m + 1) if k != i))
            assert lit.images == y_gen(n, m, i).images

    def test_inverse_conjugates_back(self):
        f = y_gen(4, 3, 2)
        g = inverse(f)
        assert g.images[0] == w("x2 x1 x2^-1", 4)
        assert is_identity(compose(f, g))

    def test_range_errors(self):
        with pytest.raises(EndoError):
            y_gen(3, 1, 1)
        with pytest.raises(EndoError):
            y_gen(3, 2, 3)


class TestComposeApply:
    def test_apply_chi(self):
        assert apply(chi(2, 1, 2), w("x1", 2)) == w("x2^-1 x1 x2", 2)

    def test_apply_identity(self):
        f = identity_endo(3)
        v = w("x1 x2^-1 x3")
        assert apply(f, v) == v

    def test_apply_collapses_interior(self):
        assert apply(y_gen(3, 3, 1), w("x2 x3")) == w("x1^-1 x2 x3 x1")

    def test_compose_order(self):
        # compose(f, g) applies g first
        f, g = chi(3, 1, 2), chi(3, 2, 3)
        x1 = gen(3, 1)
        assert apply(compose(f, g), x1) == apply(f, apply(g, x1))

    @given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), max_size=8))
    def test_apply_is_homomorphism(self, ls):
        f = compose(y_gen(3, 3, 2), chi(3, 1, 3))
        u = word(3, ls[: len(ls) // 2])
        v = word(3, ls[len(ls) // 2 :])
        assert apply(f, multiply(u, v)) == multiply(apply(f, u), apply(f, v))

    @given(_endo_and_word())
    def test_apply_is_expand_then_reduce(self, case):
        f, v = case
        assert apply(f, v).letters == _expand_then_reduce(f, v)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_apply_one_letter_is_expand_then_reduce(self, n):
        maps = [y_gen(n, n, 1), inverse(y_gen(n, 2, 2)), chi(n, 2, 1), compose(y_gen(n, n, n), chi(n, 1, 2))]
        for f in maps:
            for k in range(1, n + 1):
                for sign in (1, -1):
                    v = word(n, [(k, sign)])
                    assert apply(f, v).letters == _expand_then_reduce(f, v)

    def test_one_letter_of_wrong_rank_raises(self):
        f = y_gen(3, 3, 1)
        for v in (gen(2, 1), gen(4, 4), gen(4, 1)):
            with pytest.raises(EndoError):
                apply(f, v)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_compose_with_identity_keeps_images(self, n):
        for f in (y_gen(n, n, 1), inverse(y_gen(n, 2, 1)), compose(chi(n, 1, 2), y_gen(n, n, 2))):
            assert compose(f, identity_endo(n)).images == f.images

    def test_compose_associative(self):
        a, b, c = chi(3, 1, 2), y_gen(3, 3, 1), chi(3, 3, 2)
        lhs = compose(compose(a, b), c)
        rhs = compose(a, compose(b, c))
        assert lhs.images == rhs.images

    def test_rank_mismatch(self):
        with pytest.raises(EndoError):
            compose(chi(2, 1, 2), chi(3, 1, 2))


class TestAutomorphismFlag:
    def test_checked_inverse(self):
        f = y_gen(3, 3, 2)
        g = automorphism(f.images, f._inverse())
        assert g._inverse is not None and g._inverse() == f._inverse()

    def test_only_inverting_constructors_flag(self):
        # An inverse is carried only where something inverts the map.
        f, g = y_gen(3, 3, 2), y_gen(3, 2, 1)
        for e in (chi(3, 1, 2), perturbed_chi(3, 1, 2), tau(w("x1 x2"))):
            assert e._inverse is None
        assert compose(f, g)._inverse is None
        assert inverse(f)._inverse() == f.images

    def test_equality_reads_images_alone(self):
        # a map is known by its images: one that carries its inverse equals
        # one built from the same images without it
        for m, i in ((2, 1), (3, 2)):
            f = y_gen(3, m, i)
            bare = EndoF(3, f.images)
            assert f._inverse is not None and bare._inverse is None
            assert f == bare and hash(f) == hash(bare)
        assert y_gen(3, 3, 2) != EndoF(3, y_gen(3, 3, 2)._inverse())

    def test_bad_inverse_rejected(self):
        f = chi(3, 1, 2)
        with pytest.raises(EndoError):
            automorphism(f.images, f.images)

    def test_unflagged_inverse_raises(self):
        f = EndoF(2, (w("x1 x2", 2), w("x2", 2)))
        with pytest.raises(EndoError):
            inverse(f)


class TestMcCool:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_relations_hold(self, n):
        rep = check_mccool_relations(n)
        assert rep.ok
        if n == 2:
            assert rep.instances == 0  # families need three distinct letters

    def test_commutator_endo_convention(self, commutator_endo):
        # The relation check reads [a, b] = 1 as ab = ba: the two agree on
        # every pair of flagged generators, commuting or not.
        gens = [y_gen(3, m, i) for m in (2, 3) for i in range(1, m + 1)]
        commuting = 0
        for a in gens:
            for b in gens:
                ab_is_ba = compose(a, b).images == compose(b, a).images
                assert is_identity(commutator_endo(a, b)) == ab_is_ba
                commuting += ab_is_ba
        assert 0 < commuting < len(gens) ** 2

    def test_perturbed_fails(self):
        rep = check_mccool_relations(3, chi_factory=perturbed_chi)
        assert not rep.ok
        assert any("chi(1,2)" in f for f in rep.failures)


class TestTau:
    def test_tau_inner(self):
        g = w("x1 x2", 2)
        f = tau(g)
        assert apply(f, w("x1", 2)) == multiply(multiply(g, w("x1", 2)), invert(g))
        assert is_identity(compose(f, tau(invert(g))))
