import pytest
from hypothesis import given
from hypothesis import strategies as st

from pik.endos import compose, is_identity
from pik.fuzz import random_gen_tokens, random_ielem
from pik.igroup import (
    IElem,
    IGroupError,
    abelianize,
    act,
    act_elem,
    collect,
    commutator_elem,
    conj_by_gen,
    conj_elem,
    direct_endo,
    format_ielem,
    format_level_word,
    gen_elem,
    gen_index,
    generators,
    identity_elem,
    iinv,
    imul,
    lower_part,
    parse_ielem,
    rank_of_abelianization,
    relation_instances,
    to_endo,
    word_problem,
)
from pik.prng import Lcg
from pik.words import FreeWord, free_conjugate, gen, parse_word, reduce_letters, word


def _elems(n, seed, count, size=8):
    rng = Lcg(seed)
    return [random_ielem(rng, n, size) for _ in range(count)]


class TestGenerators:
    def test_gen_elem_levels(self):
        e = gen_elem(3, 2, 1)
        assert e.part(3).is_identity and e.part(2) == gen(2, 1)
        e = gen_elem(3, 3, 2)
        assert e.part(3) == gen(3, 2) and e.part(2).is_identity
        e = gen_elem(4, 4, 4)
        assert e.part(4) == gen(4, 4)
        assert e.part(3).is_identity and e.part(2).is_identity

    def test_gen_order_and_index(self):
        order = generators(3)
        assert order == [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)]
        assert [gen_index(3, m, i) for m, i in order] == [1, 2, 3, 4, 5]
        assert gen_index(5, 5, 5) == rank_of_abelianization(5)

    def test_range_errors(self):
        with pytest.raises(IGroupError):
            gen_elem(3, 4, 1)
        with pytest.raises(IGroupError):
            gen_elem(3, 3, 4)


def _letters(rank, size):
    return st.lists(st.tuples(st.integers(1, rank), st.sampled_from([1, -1])), max_size=size)


@st.composite
def _level_pair(draw):
    """A level-j word a and a level-i word b with 2 <= j < i <= 5."""
    i = draw(st.integers(3, 5))
    j = draw(st.integers(2, i - 1))
    return word(j, draw(_letters(j, 10))), word(i, draw(_letters(i, 16)))


def _act_letterwise(a, b):
    """The action by its definition on generators: one letter of a at a time, innermost first."""
    letters = b.letters
    for k, eps in reversed(a.letters):
        moved = []
        for l, s in letters:
            if l == k or l > a.rank:
                moved.append((l, s))
            else:
                moved += [(k, eps), (l, s), (k, -eps)]
        letters = reduce_letters(moved)
    return letters


class TestAction:
    @given(_level_pair())
    def test_matches_letterwise_definition(self, pair):
        a, b = pair
        assert act(a, b).letters == _act_letterwise(a, b)

    def test_fixed_same_index(self):
        assert act(gen(2, 1), gen(3, 1)) == gen(3, 1)

    def test_fixed_above_level(self):
        assert act(gen(2, 1), gen(3, 3)) == gen(3, 3)

    def test_inverse_conjugator(self):
        got = act(FreeWord(2, ((1, -1),)), gen(3, 2))
        assert format_level_word(got) == "y(3,1)^-1 y(3,2) y(3,1)"

    def test_positive_conjugator(self):
        got = act(gen(2, 1), gen(3, 2))
        assert format_level_word(got) == "y(3,1) y(3,2) y(3,1)^-1"

    def test_left_action_law(self):
        rng = Lcg(5)
        for _ in range(60):
            a1 = random_ielem(rng, 3, 4).part(2)
            a2 = random_ielem(rng, 3, 4).part(2)
            b = random_ielem(rng, 3, 6).part(3)
            from pik.words import multiply

            assert act(multiply(a1, a2), b) == act(a1, act(a2, b))

    def test_act_round_trip(self):
        rng = Lcg(6)
        for _ in range(40):
            a = random_ielem(rng, 3, 4).part(2)
            b = random_ielem(rng, 3, 6).part(3)
            from pik.words import invert

            assert act(a, act(invert(a), b)) == b

    def test_level_validation(self):
        with pytest.raises(IGroupError):
            act(gen(3, 1), gen(2, 1))


class TestGroupLaws:
    def test_imul_example(self):
        c = imul(gen_elem(3, 2, 1), gen_elem(3, 3, 2))
        assert format_level_word(c.part(3)) == "y(3,1) y(3,2) y(3,1)^-1"
        assert format_level_word(c.part(2)) == "y(2,1)"

    def test_same_factor_concatenates(self):
        c = imul(gen_elem(3, 3, 1), gen_elem(3, 3, 2))
        assert format_level_word(c.part(3)) == "y(3,1) y(3,2)"
        assert c.part(2).is_identity

    def test_inverse(self):
        for e in _elems(4, 11, 30):
            assert imul(e, iinv(e)).is_identity
            assert imul(iinv(e), e).is_identity

    def test_associativity(self):
        rng = Lcg(12)
        for _ in range(40):
            a, b, c = (random_ielem(rng, 4, 5) for _ in range(3))
            assert imul(imul(a, b), c) == imul(a, imul(b, c))

    def test_antihomomorphism_of_inverse(self):
        rng = Lcg(13)
        for _ in range(30):
            a, b = random_ielem(rng, 3, 6), random_ielem(rng, 3, 6)
            assert iinv(imul(a, b)) == imul(iinv(b), iinv(a))

    def test_conj_by_gen_matches(self):
        rng = Lcg(14)
        for _ in range(60):
            n = 3 + rng.below(2)
            u = random_ielem(rng, n, 8)
            gs = generators(n)
            m, i = gs[rng.below(len(gs))]
            eps = rng.sign()
            s = gen_elem(n, m, i) if eps > 0 else iinv(gen_elem(n, m, i))
            assert conj_by_gen(n, m, i, eps, u) == conj_elem(s, u)

    @given(st.integers(2, 5), st.integers(0, 10**6), st.data())
    def test_conj_by_gen_is_conjugation(self, n, seed, data):
        u = random_ielem(Lcg(seed), n, 12)
        m, i = data.draw(st.sampled_from(generators(n)))
        eps = data.draw(st.sampled_from([1, -1]))
        s = gen_elem(n, m, i) if eps > 0 else iinv(gen_elem(n, m, i))
        assert conj_by_gen(n, m, i, eps, u) == conj_elem(s, u)

    def test_lower_part(self):
        e = imul(gen_elem(4, 4, 2), imul(gen_elem(4, 3, 1), gen_elem(4, 2, 2)))
        low = lower_part(e, 4)
        assert low.n == 3
        assert low.part(3) == e.part(3) and low.part(2) == e.part(2)


class TestToEndo:
    def test_generator(self):
        from pik.endos import y_gen

        assert to_endo(gen_elem(3, 3, 1)).images == y_gen(3, 3, 1).images

    def test_identity(self):
        assert is_identity(to_endo(identity_elem(3)))

    def test_homomorphism_random(self):
        rng = Lcg(21)
        for _ in range(50):
            a, b = random_ielem(rng, 3, 6), random_ielem(rng, 3, 6)
            lhs = to_endo(imul(a, b))
            rhs = compose(to_endo(a), to_endo(b))
            assert lhs.images == rhs.images


class TestCollection:
    def test_normal_form_fuzz(self):
        # collect-then-evaluate equals direct evaluation (small sample;
        # the acceptance suite runs the full-size version)
        rng = Lcg(31)
        for n in (3, 4, 5):
            for _ in range(25):
                toks = random_gen_tokens(rng, n, 30)
                assert to_endo(collect(n, toks)).images == direct_endo(n, toks).images

    def test_relations_collapse(self):
        for n in (3, 4):
            for label, rel in relation_instances(n):
                toks = parse_word(rel)
                assert word_problem(n, toks), label
                assert is_identity(direct_endo(n, toks)), label

    def test_word_problem_nontrivial(self):
        assert not word_problem(3, "y(2,1)")

    def test_relator_instances_explicit(self):
        assert word_problem(3, "y(3,1)^-1 y(2,1)^-1 y(3,1) y(2,1)")  # type (1)
        assert word_problem(3, "y(3,3)^-1 y(2,1)^-1 y(3,3) y(2,1)")  # type (2)

    def test_parse_ielem_roundtrip(self):
        e = parse_ielem(3, "y(3,1) y(2,2)^-1")
        assert format_ielem(e) == "y(3,1) y(2,2)^-1"

    def test_invalid_generator(self):
        from pik.words import WordError

        with pytest.raises(WordError):
            collect(3, parse_word("y(4,1)"))


class TestAbelianize:
    def test_vector_length(self):
        assert len(abelianize(identity_elem(3))) == 5
        assert len(abelianize(identity_elem(5))) == 14

    def test_generator_coordinates(self):
        assert abelianize(gen_elem(3, 2, 1)) == (1, 0, 0, 0, 0)
        assert abelianize(gen_elem(3, 3, 3)) == (0, 0, 0, 0, 1)

    def test_commutators_vanish(self):
        rng = Lcg(41)
        for _ in range(20):
            a, b = random_ielem(rng, 3, 5), random_ielem(rng, 3, 5)
            assert abelianize(commutator_elem(a, b)) == (0,) * 5

    def test_homomorphism(self):
        rng = Lcg(42)
        for _ in range(20):
            a, b = random_ielem(rng, 4, 6), random_ielem(rng, 4, 6)
            va, vb = abelianize(a), abelianize(b)
            assert abelianize(imul(a, b)) == tuple(x + y for x, y in zip(va, vb))


class TestNormalFormUniqueness:
    @given(st.integers(0, 10), st.integers(0, 10))
    def test_equality_iff_componentwise(self, s1, s2):
        rng1, rng2 = Lcg(s1), Lcg(s2)
        a = random_ielem(rng1, 3, 5)
        b = random_ielem(rng2, 3, 5)
        assert (a == b) == (a.parts == b.parts)

    def test_act_elem_matches_group_conjugation(self):
        # conjugating a top-level element by a lower element inside the group
        # agrees with the letterwise action
        rng = Lcg(55)
        for _ in range(30):
            u = random_ielem(rng, 4, 6)
            low = lower_part(u, 4)  # element of the bottom two levels
            w4 = random_ielem(rng, 4, 5).part(4)
            embedded_low = IElem(4, (FreeWord(4, ()),) + low.parts)
            h = IElem(4, (w4, FreeWord(3, ()), FreeWord(2, ())))
            got = act_elem(low, w4)
            expected = conj_elem(embedded_low, h).part(4)
            assert got == expected
