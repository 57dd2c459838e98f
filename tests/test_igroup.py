import functools
import hashlib

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pik import conj, endos, igroup
from pik.endos import EndoF, compose, inverse, is_identity, y_gen
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

    @pytest.mark.parametrize("level", [4, 1])
    def test_from_parts_level_outside_range(self, level):
        # a level above n or below 2 has no factor; it is named, not dropped
        with pytest.raises(IGroupError, match=f"level {level} is outside 2..3"):
            from_parts(3, {level: gen(level, 1)})

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
        # the walk kernel: one pass over u's state for every step, in any order
        steps = [(m, i, eps) for m, i in generators(u.n) for eps in (1, -1)]
        state = igroup._SEP.join(u.parts)
        got = igroup._conj_steps(u.n, state, steps)
        assert len(got) == len(steps)
        for (m, i, eps), conj_state in zip(steps, got):
            s = gen_elem(u.n, m, i) if eps > 0 else iinv(gen_elem(u.n, m, i))
            assert tuple(conj_state.split(igroup._SEP)) == conj_elem(s, u).parts, (m, i, eps)
        assert igroup._conj_steps(u.n, state, steps[::-1]) == got[::-1]

    @given(_any_ielems())
    @example(identity_elem(2))
    @example(from_parts(4, {4: word(4, [(1, -1), (2, 1), (4, 1), (2, 1), (1, 1)]), 3: gen(3, 1)}))
    def test_walk_step_back_is_the_parent(self, u):
        # a walk state is u's parts joined by _SEP; each successor splits back
        # to the conjugate's parts, and step k ^ 1 takes it back to u's state,
        # which is how the walk finds a parent from the step that made a state
        n = u.n
        state = igroup._SEP.join(u.parts)
        assert tuple(state.split(igroup._SEP)) == u.parts
        step = conj._orbit_step(n)
        table = conj._walk_steps(n)[-1][1]
        successors = list(conj._orbit_expand(n)(state, -1))
        assert [k for k, _ in successors] == list(range(len(table)))
        for k, succ in successors:
            m, i, eps = table[k]
            s = gen_elem(n, m, i) if eps > 0 else iinv(gen_elem(n, m, i))
            assert tuple(succ.split(igroup._SEP)) == conj_elem(s, u).parts, k
            assert step(state, k) == succ
            assert step(succ, k ^ 1) == state, k

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
        state = igroup._SEP.join(u.parts)
        for (m, i, eps), conj_state in zip(steps, igroup._conj_steps(n, state, steps)):
            s = gen_elem(n, m, i) if eps > 0 else iinv(gen_elem(n, m, i))
            v = conj_elem(s, u)
            assert tuple(conj_state.split(igroup._SEP)) == v.parts, (m, i, eps)
            assert conj_by_gen(n, m, i, eps, u) == v

    def test_lower_part(self):
        e = imul(gen_elem(4, 4, 2), imul(gen_elem(4, 3, 1), gen_elem(4, 2, 2)))
        low = lower_part(e, 4)
        assert low.n == 3
        assert low.part(3) == e.part(3) and low.part(2) == e.part(2)


def identity_endo(n):
    """The identity of F_n, by its images x_1, ..., x_n."""
    return EndoF(n, tuple(gen(n, i) for i in range(1, n + 1)))


def _to_endo_letterwise(a):
    """The automorphism of a normal form by its definition: one y(m,i)^s per letter."""
    acc = identity_endo(a.n)
    for m in range(a.n, 1, -1):
        for i, s in decode(a.part(m).letters):
            e = y_gen(a.n, m, i)
            acc = compose(acc, e if s > 0 else inverse(e))
    return acc


def _direct_endo_letterwise(n, tokens):
    """A generator word's automorphism by its definition: compose one y_gen or its inverse per unit."""
    acc = identity_endo(n)
    for t in tokens:
        e = y_gen(n, t.a, t.b)
        for _ in range(abs(t.exp)):
            acc = compose(acc, e if t.exp > 0 else inverse(e))
    return acc


@st.composite
def _gen_words(draw):
    """A rank n = 2..5 and a generator word at n whose exponents include 0 and +-2."""
    n = draw(st.integers(2, 5))
    picks = st.tuples(st.sampled_from(generators(n)), st.sampled_from([-2, -1, 0, 1, 2]))
    return n, [Token("y", m, i, e) for (m, i), e in draw(st.lists(picks, max_size=12))]


class TestToEndo:
    def test_generator(self):
        # to_endo builds no inverse until one is asked for, and equals y_gen all the same
        for m, i in generators(3):
            assert to_endo(gen_elem(3, m, i)) == y_gen(3, m, i)

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
        assert inverse(to_endo(a)).images == to_endo(iinv(a)).images

    def test_inverse_images_built_only_on_inverse(self, monkeypatch):
        # to_endo's images need no iinv; inverting its map needs one
        a = from_parts(4, {4: word(4, [(2, 1), (4, -1)]), 3: word(3, [(1, 1)]), 2: word(2, [(1, -1)])})
        calls = []

        def spy(b):
            calls.append(b)
            return iinv(b)

        monkeypatch.setattr(igroup, "iinv", spy)
        e = to_endo(a)
        assert calls == []
        assert inverse(e).images == to_endo(iinv(a)).images
        assert calls == [a]

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
            for label, toks in relation_instances(n):
                assert word_problem(n, toks), label
                assert is_identity(direct_endo(n, toks)), label

    @pytest.mark.parametrize(
        "n,count,sha",
        [
            (3, 6, "ed7840181a60fb1d9012b7f3bd6fa404e40bad16d75da735118e0575396609a0"),
            (4, 26, "2838397f442dec427ec98373048c20011f8b6cf72066b7e64ecbd5e0ff923848"),
            (5, 71, "9c44bacf76229f89c61956116dd012ca534a3d4846d42dfe5d2a4c7977a5dcf5"),
            (6, 155, "cf0dda826f9825fdcbc909eca7f341e50e5f43f6d7baa5533aaa8941e8451c6f"),
            (7, 295, "d31376e5ead79da7afd339ced63032b02963bf9ff95f83361fe31dc003b86b6e"),
        ],
    )
    def test_relation_instances_are_pinned(self, n, count, sha):
        # each instance printed as "label<TAB>word", one a line, in order
        def show(tokens):
            assert all(t.kind == "y" and abs(t.exp) == 1 for t in tokens)
            return " ".join(f"y({t.a},{t.b})" + ("^-1" if t.exp < 0 else "") for t in tokens)

        instances = relation_instances(n)
        lines = "\n".join(f"{label}\t{show(tokens)}" for label, tokens in instances)
        assert len(instances) == count
        assert hashlib.sha256(lines.encode()).hexdigest() == sha

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

    @pytest.mark.parametrize("n", [-1, 0, 1])
    def test_rank_below_two_raises(self, n):
        with pytest.raises(IGroupError):
            collect(n, [])
        with pytest.raises(IGroupError):
            direct_endo(n, [])

    @given(_gen_words())
    @example((2, []))
    @example((5, [Token("y", 5, 3, 2), Token("y", 2, 1, 0), Token("y", 4, 4, -2), Token("y", 3, 1, -1)]))
    def test_collect_matches_imul_fold(self, word):
        n, toks = word
        acc = identity_elem(n)
        for t in toks:
            g = gen_elem(n, t.a, t.b)
            for _ in range(abs(t.exp)):
                acc = imul(acc, g if t.exp > 0 else iinv(g))
        assert collect(n, toks) == acc

    @given(_gen_words())
    @example((2, []))
    @example((5, [Token("y", 5, 3, 2), Token("y", 2, 1, 0), Token("y", 4, 4, -2), Token("y", 3, 1, -1)]))
    def test_direct_endo_matches_compose_fold(self, word):
        n, toks = word
        assert direct_endo(n, toks).images == _direct_endo_letterwise(n, toks).images


class TestDirectEndoConjugators:
    """igroup.direct_endo keeps a conjugator W_k per generator, read off each unit's images."""

    def test_stripped_conjugator(self):
        # y(2,2) sends x1 to x2^-1 x1 x2, and after y(2,1) acc(x2^-1) = x1^-1 x2^-1 x1,
        # so W_1 = x1^-1 x2^-1 x1 ends in x1 and is stripped to x1^-1 x2^-1
        toks = parse_word("y(2,1) y(2,2)")
        got = direct_endo(2, toks)
        assert got.images == _direct_endo_letterwise(2, toks).images
        assert got.images == (word(2, [(1, -1), (2, -1), (1, 1), (2, 1), (1, 1)]), word(2, [(1, -1), (2, 1), (1, 1)]))

    @pytest.mark.parametrize(
        "text, k, branch",
        [
            ("y(2,1)", 1, "W empty"),
            ("y(2,1) y(2,2) y(2,2)^-1", 0, "x cancels onward"),
            ("y(2,1) y(2,2)", 0, "W_k a proper prefix of W"),
            ("y(2,1)^2 y(2,2)^2 y(3,2) y(3,1)", 2, "neither a prefix"),
        ],
    )
    def test_prefix_branches(self, text, k, branch):
        # The last unit y(m,i)^eps sets W_k to W x W^-1 W_k with x = x_i^-eps and W = W_i,
        # read off direct_endo of the word before it; each case takes one branch of the update
        n = 3
        *rest, last = toks = parse_word(text)
        ws = [image.letters[: len(image.letters) // 2] for image in direct_endo(n, rest).images]
        w, wk = ws[last.b - 1], ws[k]
        common = next((c for c in range(min(len(w), len(wk))) if w[c] != wk[c]), min(len(w), len(wk)))
        taken = {
            "W empty": not w,
            "x cancels onward": w and wk.startswith(w) and decode(wk[len(w) : len(w) + 1]) == [(last.b, last.exp)],
            "W_k a proper prefix of W": w.startswith(wk) and len(wk) < len(w),
            "neither a prefix": 0 < common < min(len(w), len(wk)),
        }
        assert [b for b, holds in taken.items() if holds] == [branch]
        assert direct_endo(n, toks).images == _direct_endo_letterwise(n, toks).images

    def test_long_words_match_letterwise(self):
        # 40-60 units: far longer conjugators, and so longer common prefixes, than _gen_words draws
        rng = Lcg(50)
        for n in (3, 4, 5):
            gens = generators(n)
            for _ in range(8):
                toks = [
                    Token("y", *gens[rng.below(len(gens))], rng.sign() * (1 + rng.below(2)))
                    for _ in range(40 + rng.below(21))
                ]
                assert direct_endo(n, toks).images == _direct_endo_letterwise(n, toks).images

    @pytest.mark.parametrize(
        "image",
        [
            [(2, 1), (1, 1)],  # even length
            [(3, 1), (2, 1), (3, 1)],  # x2 in the middle, but not conjugated
            [(3, -1), (1, 1), (3, 1)],  # conjugate of x1, not of x2
            [(1, -1), (1, -1), (2, 1), (1, 1), (1, 1)],  # two-letter conjugator x1^-2
            [(3, -1), (2, 1), (3, 1)],  # x3^-1, where the image of x3 has x1^-1
        ],
    )
    def test_image_not_a_conjugate_raises(self, image, monkeypatch):
        n = 3
        e = y_gen(n, 3, 1)
        bad = EndoF(n, (e.images[0], word(n, image), e.images[2]))
        monkeypatch.setattr(endos, "y_gen", lambda *args: bad)
        monkeypatch.setattr(igroup, "_gen_conjugators", functools.cache(igroup._gen_conjugators.__wrapped__))
        with pytest.raises(IGroupError, match="image of x2"):
            direct_endo(n, [Token("y", 3, 1, 1)])


class TestSignedGenTable:
    """The per-rank tables of the y(m,i)^eps, each entry built once per rank: the kernel's
    letters, which collect reads, direct_endo's conjugators and the walks' moves."""

    def test_entries_equal_fresh_values(self):
        for n in range(2, 6):
            letters = igroup._kernel_tables(n)[0]
            for m, i in generators(n):
                g, f = gen_elem(n, m, i), y_gen(n, m, i)
                for eps, a, e in ((1, g, f), (-1, iinv(g), inverse(f))):
                    assert letters[m, i, eps] == (a.parts[n - m], iinv(a).parts[n - m])
                    l, x, moved = igroup._gen_conjugators(n, m, i, eps)
                    [(j, s)] = decode(x)
                    assert (l, j, s) == (i - 1, i, -eps)
                    images = [word(n, [(k, 1)]) for k in range(1, n + 1)]
                    for k, x_pm in moved:
                        assert x_pm == encode(((k + 1, 1), (k + 1, -1)))
                        images[k] = word(n, [(j, s), (k + 1, 1), (j, -s)])
                    assert tuple(images) == e.images

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

    def test_filled_without_traced_functions(self, monkeypatch):
        # bench/tracer.py counts calls of these; a table entry built through one
        # of them would add to the counts of the first traced run only.
        def traced(*args, **kwargs):
            raise AssertionError("a per-rank table called a traced function")

        for mod, name in [(igroup, "iinv"), (igroup, "imul"), (endos, "compose"), (endos, "apply")]:
            monkeypatch.setattr(mod, name, traced)
        for table in (igroup._kernel_tables, igroup._gen_conjugators, conj._walk_steps):
            table.cache_clear()
        for n in range(2, 6):
            igroup._kernel_tables(n)
            for m, i in generators(n):
                for eps in (1, -1):
                    igroup._gen_conjugators(n, m, i, eps)
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
