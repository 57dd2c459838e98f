import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pik import conj, endos, igroup
from pik.endos import compose, identity_endo, inverse, is_identity, y_gen
from pik.fuzz import random_gen_tokens, random_ielem
from pik.igroup import (
    IElem,
    IGroupError,
    abelianize,
    act_elem,
    collect,
    commutator_elem,
    conj_by_gen,
    conj_elem,
    direct_endo,
    format_ielem,
    format_level_word,
    from_parts,
    gen_elem,
    gen_index,
    generators,
    identity_elem,
    iinv,
    imul,
    lower_part,
    rank_of_abelianization,
    relation_instances,
    to_endo,
    word_problem,
)
from pik.prng import Lcg
from pik.words import Token, WordError, decode, encode, free_conjugate, gen, parse_word, word


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
    v = b
    for k, eps in reversed(decode(a.letters)):
        moved = []
        for l, s in decode(v.letters):
            if l == k or l > a.rank:
                moved.append((l, s))
            else:
                moved += [(k, eps), (l, s), (k, -eps)]
        v = word(b.rank, moved)
    return v.letters


def act(a, b):
    """a . b for a level word a below the level of b, through the action of an element."""
    return act_elem(from_parts(a.rank, {a.rank: a}), b)


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
        got = act(word(2, [(1, -1)]), gen(3, 2))
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


@st.composite
def _ielems(draw):
    """An element at n = 2..5 from drawn level words; levels may be empty."""
    n = draw(st.integers(2, 5))
    return IElem(n, tuple(word(m, draw(_letters(m, 8))).letters for m in range(n, 1, -1)))


def _any_ielems():
    """Elements at n = 2..5 drawn level by level or seeded at length 12."""
    return st.one_of(
        _ielems(),
        st.builds(
            lambda n, seed: random_ielem(Lcg(seed), n, 12),
            st.integers(2, 5),
            st.integers(0, 10**6),
        ),
    )


@st.composite
def _elem_and_step(draw):
    """u drawn as in _any_ielems, and a step y(m,i)^eps."""
    u = draw(_any_ielems())
    m, i = draw(st.sampled_from(generators(u.n)))
    return u, m, i, draw(st.sampled_from([1, -1]))


class TestIElemValidation:
    def test_accepts_word_strs(self):
        e = IElem(3, (word(3, [(3, 1), (1, -1)]).letters, word(2, [(2, 1)]).letters))
        assert e == from_parts(3, {3: word(3, [(3, 1), (1, -1)]), 2: gen(2, 2)})

    def test_wrong_component_count(self):
        with pytest.raises(IGroupError):
            IElem(3, ("",))

    def test_part_not_a_word_str(self):
        with pytest.raises(IGroupError):
            IElem(3, (gen(3, 1), ""))
        with pytest.raises(IGroupError):  # letter pairs are for input and output only
            IElem(3, (((1, 1),), ""))

    def test_index_above_level(self):
        with pytest.raises(WordError, match="outside 1..2"):
            IElem(3, ("", word(3, [(3, 1)]).letters))

    def test_sign_not_unit(self):
        with pytest.raises(WordError, match="sign"):
            IElem(3, (word(3, [(1, 2)]).letters, ""))

    def test_unreduced_pair(self):
        with pytest.raises(WordError, match="not freely reduced"):
            IElem(3, (encode([(2, 1), (2, -1)]), ""))


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

    @given(_elem_and_step())
    @example((identity_elem(2), 2, 1, 1))
    @example((identity_elem(5), 4, 2, -1))
    @example((from_parts(5, {5: word(5, [(1, 1), (5, -1)]), 2: word(2, [(2, 1)])}), 4, 1, 1))
    @example((from_parts(4, {3: word(3, [(2, -1), (3, 1)])}), 4, 3, -1))
    @example((from_parts(4, {2: word(2, [(1, 1)])}), 3, 1, 1))
    def test_conj_by_gen_is_conjugation(self, case):
        # conj_by_gen: one step of the walk kernel.
        u, m, i, eps = case
        s = gen_elem(u.n, m, i) if eps > 0 else iinv(gen_elem(u.n, m, i))
        assert conj_by_gen(u.n, m, i, eps, u) == conj_elem(s, u)

    @given(_any_ielems())
    # with a = y(2,1): the level-4 runs (y(4,1)^-1 y(4,2)) and (y(4,2) y(4,1))
    # start with a^-1 and end with a
    @example(from_parts(4, {4: word(4, [(1, -1), (2, 1), (4, 1), (2, 1), (1, 1)]), 3: gen(3, 1)}))
    # with a = y(2,1)^+-1: the level-3 runs are the single letters a and a^-1
    @example(from_parts(3, {3: word(3, [(1, 1), (3, 1), (1, -1)]), 2: gen(2, 2)}))
    # at m = 2 neither level above has a run; at m = 3 level 4 has one
    @example(from_parts(4, {4: word(4, [(4, 1), (3, -1)]), 3: gen(3, 3), 2: gen(2, 1)}))
    @example(identity_elem(2))
    def test_conj_steps_is_conjugation(self, u):
        # the walk kernel: one pass over u's parts for every step, in any order
        steps = [(m, i, eps) for m, i in generators(u.n) for eps in (1, -1)]
        got = igroup._conj_steps(u.n, u.parts, steps)
        assert len(got) == len(steps)
        for (m, i, eps), conj_parts in zip(steps, got):
            s = gen_elem(u.n, m, i) if eps > 0 else iinv(gen_elem(u.n, m, i))
            assert conj_parts == conj_elem(s, u).parts, (m, i, eps)
        assert igroup._conj_steps(u.n, u.parts, steps[::-1]) == got[::-1]

    def test_walk_form_past_code_point_255(self):
        # at n = 130 the letters of index 128..130 have code points 256..261
        n = 130
        rng = Lcg(21)
        levels = {}
        for m in (130, 129, 128, 3, 2):
            letters = [(rng.below(m) + 1, rng.sign()) for _ in range(14)]
            letters += [(l, rng.sign()) for l in range(max(2, m - 3), m + 1)]
            levels[m] = word(m, letters)
        u = from_parts(n, levels)
        assert max("".join(u.parts)) > "\xff"
        assert all(word(m, decode(u.parts[n - m])) == levels[m] for m in levels)
        steps = [(m, i, eps) for m in (2, 3, 128, 129, 130) for i in (1, 2, 127, 128, 129, 130)
                 if i <= m for eps in (1, -1)]
        for (m, i, eps), conj_parts in zip(steps, igroup._conj_steps(n, u.parts, steps)):
            s = gen_elem(n, m, i) if eps > 0 else iinv(gen_elem(n, m, i))
            v = conj_elem(s, u)
            assert conj_parts == v.parts, (m, i, eps)
            assert conj_by_gen(n, m, i, eps, u) == v

    def test_lower_part(self):
        e = imul(gen_elem(4, 4, 2), imul(gen_elem(4, 3, 1), gen_elem(4, 2, 2)))
        low = lower_part(e, 4)
        assert low.n == 3
        assert low.part(3) == e.part(3) and low.part(2) == e.part(2)


def _to_endo_letterwise(a):
    """The automorphism of a normal form by its definition: one y(m,i)^s per letter."""
    acc = identity_endo(a.n)
    for m in range(a.n, 1, -1):
        for i, s in decode(a.part(m).letters):
            e = y_gen(a.n, m, i)
            acc = compose(acc, e if s > 0 else inverse(e))
    return acc


class TestToEndo:
    def test_generator(self):
        assert to_endo(gen_elem(3, 3, 1)).images == y_gen(3, 3, 1).images

    @given(_ielems())
    @example(identity_elem(2))
    @example(identity_elem(5))
    @example(from_parts(4, {4: word(4, [(2, 1), (4, -1)]), 2: word(2, [(1, -1)])}))
    @example(from_parts(5, {3: word(3, [(3, 1), (1, 1), (2, -1)])}))
    @example(from_parts(3, {2: word(2, [(2, 1), (1, 1)])}))
    def test_closed_form_matches_letterwise(self, a):
        ref = _to_endo_letterwise(a)
        got = to_endo(a)
        assert got.images == ref.images
        # ref is composed, so it carries no inverse; got's is two-sided.
        assert is_identity(compose(got, inverse(got)))
        assert is_identity(compose(inverse(got), got))

    @given(_ielems())
    def test_inverse_images_are_images_of_inverse(self, a):
        assert to_endo(a).inv_images == to_endo(iinv(a)).images

    @given(_ielems().filter(lambda a: not a.is_identity), st.data())
    def test_negative_control_one_sign_flipped(self, a, data):
        # Flipping the sign of one letter of w_m flips exactly that letter of
        # V_m in the closed form; the letterwise reference must notice.
        levels = [m for m in range(2, a.n + 1) if a.part(m).letters]
        m = data.draw(st.sampled_from(levels))
        letters = decode(a.part(m).letters)
        p = data.draw(st.integers(0, len(letters) - 1))
        letters[p] = (letters[p][0], -letters[p][1])
        parts = {q: a.part(q) for q in range(2, a.n + 1)}
        parts[m] = word(m, letters)
        flipped = igroup._images(from_parts(a.n, parts))
        assert flipped != _to_endo_letterwise(a).images

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

    def test_parse_format_roundtrip(self):
        e = collect(3, parse_word("y(3,1) y(2,2)^-1"))
        assert format_ielem(e) == "y(3,1) y(2,2)^-1"

    def test_invalid_generator(self):
        from pik.words import WordError

        with pytest.raises(WordError):
            collect(3, parse_word("y(4,1)"))


class TestSignedGenTable:
    """igroup._signed_gen: each y(m,i)^eps built once per rank, for collect, direct_endo and the walks."""

    def test_entries_equal_fresh_values(self):
        for n in range(2, 6):
            for m, i in generators(n):
                g, f = gen_elem(n, m, i), y_gen(n, m, i)
                assert igroup._signed_gen(n, m, i, 1) == (g, f)
                assert igroup._signed_gen(n, m, i, -1) == (iinv(g), inverse(f))

    @pytest.mark.parametrize("power", [2, 3])
    def test_collect_matches_direct_endo_on_powers(self, power):
        rng = Lcg(77 + power)
        for n in (3, 4, 5):
            gens = generators(n)
            for _ in range(10):
                picks = [gens[rng.below(len(gens))] for _ in range(rng.below(6) + 1)]
                toks = [Token("y", m, i, power * rng.sign()) for m, i in picks]
                a = collect(n, toks)
                assert to_endo(a).images == direct_endo(n, toks).images
                units = [Token("y", t.a, t.b, t.exp // abs(t.exp)) for t in toks for _ in range(abs(t.exp))]
                assert a == collect(n, units)

    def test_moves_are_one_tuple_per_rank(self):
        for n in range(2, 6):
            moves = conj._moves(n)
            assert isinstance(moves, tuple) and conj._moves(n) is moves
            assert [mv[:3] for mv in moves] == [(m, i, e) for m, i in generators(n) for e in (1, -1)]
            for k in range(0, len(moves), 2):
                assert moves[k][3] == gen_elem(n, *moves[k][:2])
                assert moves[k + 1][3] == iinv(moves[k][3])

    def test_filled_without_traced_functions(self, monkeypatch):
        # bench/tracer.py counts calls of these; a table entry built through one
        # of them would add to the counts of the first traced run only.
        def traced(*args, **kwargs):
            raise AssertionError("a per-rank table called a traced function")

        for mod, name in [(igroup, "iinv"), (igroup, "imul"), (endos, "compose"), (endos, "apply"),
                          (conj, "iinv"), (conj, "imul")]:
            monkeypatch.setattr(mod, name, traced)
        for table in (igroup._signed_gen, conj._moves, conj._walk_steps):
            table.cache_clear()
        for n in range(2, 6):
            for m, i in generators(n):
                for eps in (1, -1):
                    igroup._signed_gen(n, m, i, eps)
            conj._moves(n)
            conj._walk_steps(n)


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
            embedded_low = IElem(4, ("",) + low.parts)
            h = IElem(4, (w4.letters, "", ""))
            got = act_elem(low, w4)
            expected = conj_elem(embedded_low, h).part(4)
            assert got == expected
