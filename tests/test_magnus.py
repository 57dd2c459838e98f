import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pik.endos import EndoF, automorphism, compose, tau, y_gen
from pik.magnus import (
    MagnusError,
    NotIAError,
    gamma_degree,
    ia_degree,
    johnson_image,
    magnus_expand,
)
from pik.words import commutator, gen, invert, parse_x_word, word


def identity_endo(n):
    """The identity of F_n, by its images x_1, ..., x_n."""
    return EndoF(n, tuple(gen(n, i) for i in range(1, n + 1)))


def w(s, rank=2):
    return parse_x_word(s, rank)


def letter_series(D, idx, sign):
    """Reference Magnus image of a single letter: 1 + X or the truncated
    inverse series 1 - X + X^2 - ... up to degree D."""
    terms = {(): 1}
    if sign > 0:
        terms[(idx,)] = 1
    else:
        coeff = -1
        for d in range(1, D + 1):
            terms[(idx,) * d] = coeff
            coeff = -coeff
    return terms


def nc_mul(a, b, D):
    """Reference product of term dicts truncated above degree D: every pair
    of monomials that fits, with the zero coefficients dropped."""
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            if len(m1) + len(m2) <= D:
                out[m1 + m2] = out.get(m1 + m2, 0) + c1 * c2
    return {m: c for m, c in out.items() if c}


def series_product(letters, D):
    """Reference expansion: the product of the letters' series with nc_mul."""
    acc = {(): 1}
    for idx, sign in letters:
        acc = nc_mul(acc, letter_series(D, idx, sign), D)
    return acc


LETTERS3 = st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), max_size=10)


class TestNcPoly:
    """Noncommutative polynomials as term dicts: the reference product and
    the rule that no zero coefficient is stored."""

    def test_no_zero_terms_stored(self):
        # x1 x2 x1^-1 x2^-1 cancels X1 and X2 in degree 1
        p = magnus_expand(w("x1 x2 x1^-1 x2^-1"), 3)
        assert all(p.values()) and (1,) not in p and (2,) not in p

    def test_truncation(self):
        x = {(1,): 1}
        cube = nc_mul(nc_mul(x, x, 2), x, 2)
        assert cube == {}

    def test_mul_noncommutative(self):
        x, y = {(1,): 1}, {(2,): 1}
        assert nc_mul(x, y, 2) != nc_mul(y, x, 2)


class TestMagnusExpand:
    def test_single_letter(self):
        p = magnus_expand(w("x1"), 2)
        assert p == {(): 1, (1,): 1}

    def test_homomorphism_trivial(self):
        assert magnus_expand(w("x1 x1^-1"), 3) == {(): 1}

    def test_commutator_expansion(self):
        # direct expansion of (1+X1)(1+X2)(1-X1+X1^2)(1-X2+X2^2), frozen
        p = magnus_expand(w("x1 x2 x1^-1 x2^-1"), 2)
        assert p == {(): 1, (1, 2): 1, (2, 1): -1}

    def test_inverse_letter_series(self):
        p = magnus_expand(w("x1^-1"), 3)
        assert p == {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}

    @pytest.mark.parametrize("D", [0, -1])
    def test_rejects_maxdeg_below_one(self, D):
        with pytest.raises(MagnusError, match="maxdeg must be positive"):
            magnus_expand(w("x1"), D)
        # the identity word and the identity map are refused before any shortcut
        with pytest.raises(MagnusError, match="maxdeg must be positive"):
            gamma_degree(word(2, []), D - 2)
        with pytest.raises(MagnusError, match="maxdeg must be positive"):
            ia_degree(identity_endo(3), D)

    @given(LETTERS3, st.integers(1, 5))
    @example([], 3)
    @example([], 1)
    @example([(1, -1)], 1)
    @example([(2, -1), (2, -1), (1, 1)], 4)
    @example([(1, 1), (2, -1), (2, 1), (1, -1)], 3)
    @example([(3, -1), (1, 1), (1, -1), (3, 1), (2, -1)], 5)
    def test_letter_steps_match_series_product(self, letters, D):
        # the letters need not be reduced: cancelling pairs expand to 1, so
        # the unreduced series product equals the expansion of the reduced word
        assert magnus_expand(word(3, letters), D) == series_product(letters, D)

    @given(
        st.lists(st.tuples(st.integers(1, 2), st.sampled_from([1, -1])), max_size=8),
        st.lists(st.tuples(st.integers(1, 2), st.sampled_from([1, -1])), max_size=8),
    )
    def test_multiplicative(self, ls1, ls2):
        u, v = word(2, ls1), word(2, ls2)
        from pik.words import multiply

        lhs = magnus_expand(multiply(u, v), 3)
        rhs = nc_mul(magnus_expand(u, 3), magnus_expand(v, 3), 3)
        assert lhs == rhs


class TestGammaDegree:
    def test_generator(self):
        assert gamma_degree(w("x1"), 5) == 1

    def test_commutator(self):
        assert gamma_degree(w("x1 x2 x1^-1 x2^-1"), 5) == 2

    def test_weight_three(self):
        c = commutator(commutator(gen(2, 1), gen(2, 2)), gen(2, 1))
        assert gamma_degree(c, 5) == 3

    def test_identity_is_beyond_horizon(self):
        assert gamma_degree(word(2, []), 4) == 5

    def test_weight_commutators_lower_bound(self):
        # products of weight-c commutators sit at depth >= c; basic ones exactly c
        for c, builder in [
            (2, lambda a, b: commutator(a, b)),
            (3, lambda a, b: commutator(commutator(a, b), a)),
            (4, lambda a, b: commutator(commutator(commutator(a, b), a), b)),
        ]:
            v = builder(gen(3, 1), gen(3, 2))
            assert gamma_degree(v, 5) == c

    def test_random_commutator_products(self):
        # random products of weight-c left-normed commutators, c <= 4, n <= 4
        from functools import reduce

        from pik.prng import Lcg
        from pik.words import empty, multiply

        rng = Lcg(136)
        for _ in range(40):
            n = 2 + rng.below(3)
            c = 2 + rng.below(3)
            factors = []
            for _ in range(1 + rng.below(3)):
                letters = [1 + rng.below(n) for _ in range(c)]
                v = gen(n, letters[0])
                for l in letters[1:]:
                    v = commutator(v, gen(n, l))
                factors.append(v)
            prod = reduce(multiply, factors, empty(n))
            assert gamma_degree(prod, 5) >= min(c, 6)

    def test_basic_commutators_distinct_generators_exact(self):
        for n in (2, 3, 4):
            v = commutator(gen(n, 1), gen(n, 2))
            assert gamma_degree(v, 5) == 2
        v = commutator(commutator(gen(3, 1), gen(3, 2)), gen(3, 3))
        assert gamma_degree(v, 5) == 3


class TestIaDegree:
    def test_identity(self):
        assert ia_degree(identity_endo(3), 4) == 5

    def test_inner_generator(self):
        assert ia_degree(tau(gen(2, 1)), 4) == 2

    def test_inner_commutator(self):
        g = commutator(gen(2, 1), gen(2, 2))
        assert ia_degree(tau(g), 5) == 3

    def test_non_ia_rejected(self):
        from pik.endos import EndoF

        f = EndoF(2, (w("x1 x1"), w("x2")))
        with pytest.raises(NotIAError):
            ia_degree(f, 4)

    def test_filtration_law_samples(self, commutator_endo):
        # [I_t A, I_s A] <= I_{t+s-1} A on inner automorphisms
        def inner(v):
            return automorphism(tau(v).images, tau(invert(v)).images)

        f = inner(gen(3, 1))  # level 2
        g = inner(parse_x_word("x1 x2 x1^-1 x2^-1", 3))  # level 3
        t, s = ia_degree(f, 6), ia_degree(g, 6)
        com = commutator_endo(f, g)
        assert ia_degree(com, 6) >= t + s - 1

    def test_filtration_law_random(self, commutator_endo):
        # the same law on random IA automorphisms built from partial inners
        from pik.fuzz import random_ielem
        from pik.igroup import to_endo
        from pik.prng import Lcg

        rng = Lcg(4321)
        D = 5
        for _ in range(25):
            f = to_endo(random_ielem(rng, 3, 5))
            g = to_endo(random_ielem(rng, 3, 5))
            from pik.endos import is_identity

            if is_identity(f) or is_identity(g):
                continue
            t, s = min(ia_degree(f, D), D), min(ia_degree(g, D), D)
            com = commutator_endo(f, g)
            assert ia_degree(com, D) >= min(t + s - 1, D + 1)


class TestJohnson:
    def test_partial_conjugation_image(self):
        ji = johnson_image(y_gen(3, 2, 1), 2)
        assert ji[0] == ji[2] == {}
        assert ji[1] == {(2, 1): 1, (1, 2): -1}

    def test_identity_image_zero(self):
        ji = johnson_image(identity_endo(3), 2)
        assert all(p == {} for p in ji)

    def test_inner_image(self):
        ji = johnson_image(tau(gen(2, 1)), 2)
        assert ji[0] == {}
        assert ji[1] == {(1, 2): 1, (2, 1): -1}

    def test_precondition(self):
        with pytest.raises(NotIAError):
            johnson_image(tau(gen(2, 1)), 3)  # tau_x1 is only at level 2

    def test_below_level_rejected(self):
        with pytest.raises(NotIAError, match="filtration level 3"):
            johnson_image(y_gen(3, 3, 1), 3)  # a generator sits at level 2

    def test_non_ia_rejected(self):
        from pik.endos import EndoF

        transvection = EndoF(3, (w("x1 x2", 3), w("x2", 3), w("x3", 3)))
        for c in (1, 2, 3):
            with pytest.raises(NotIAError, match="not an IA automorphism"):
                johnson_image(transvection, c)

    @pytest.mark.parametrize("c", [0, -1])
    def test_rejects_level_below_one(self, c):
        with pytest.raises(MagnusError, match="need c >= 1"):
            johnson_image(identity_endo(3), c)

    def test_equals_truncated_homogeneous_part(self):
        # johnson_image expands at degree c; it must agree with the degree-c
        # part of the expansion at every deeper degree D
        from pik.ajohnson import left_normed
        from pik.igroup import commutator_elem, gen_elem, generators, to_endo
        from pik.magnus import _deviations

        for n, c, D in ((3, 2, 4), (3, 3, 5), (3, 3, 6), (4, 2, 5)):
            gens = [gen_elem(n, m, i) for (m, i) in generators(n)]
            for e in left_normed(gens, c - 1, commutator_elem):
                f = to_endo(e)
                got = johnson_image(f, c)
                want = tuple(
                    {m: v for m, v in magnus_expand(dw, D).items() if len(m) == c} for dw in _deviations(f)
                )
                assert got == want

    def test_additive_on_products(self):
        # at level c the Johnson image of f o g is the sum of the two images
        def add(a, b):
            out = dict(a)
            for m, c in b.items():
                out[m] = out.get(m, 0) + c
            return {m: c for m, c in out.items() if c}

        def additive(f, g, c):
            lhs = johnson_image(compose(f, g), c)
            pairs = zip(lhs, johnson_image(f, c), johnson_image(g, c))
            return all(l == add(a, b) for l, a, b in pairs)

        assert additive(y_gen(3, 2, 1), y_gen(3, 3, 2), 2)
        h = compose(y_gen(4, 4, 1), y_gen(4, 2, 2))
        assert additive(h, y_gen(4, 3, 3), 2)
