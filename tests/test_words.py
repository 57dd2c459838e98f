import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pik.words import (
    MAX_RANK,
    FreeWord,
    ParseError,
    WordError,
    commutator,
    conjugate,
    centralizer_root,
    cyclic_reduce,
    decode,
    empty,
    encode,
    format_x_word,
    free_conjugate,
    gen,
    invert,
    is_cyclically_reduced,
    multiply,
    parse_word,
    parse_x_word,
    power,
    primitive_root,
    reduce_letters,
    word,
)


def w(s, rank=3):
    return parse_x_word(s, rank)


words_st = st.builds(
    lambda rank, letters: word(rank, letters),
    st.integers(2, 4),
    st.lists(st.tuples(st.integers(1, 2), st.sampled_from([1, -1])), max_size=12),
).filter(lambda v: True)


def _word_pair(rank):
    letters = st.lists(st.tuples(st.integers(1, rank), st.sampled_from([1, -1])), max_size=10)
    return st.tuples(
        letters.map(lambda ls: word(rank, ls)), letters.map(lambda ls: word(rank, ls))
    )


def _letters(rank, size):
    return st.lists(st.tuples(st.integers(1, rank), st.sampled_from([1, -1])), max_size=size)


@st.composite
def _seam_pair(draw):
    """Reduced (a, b) whose seam cancels a drawn middle part q: a = p q, b = q^-1 r."""
    rank = draw(st.integers(1, 4))
    p, q, r = (draw(_letters(rank, 8)) for _ in range(3))
    q_inv = [(i, -s) for i, s in reversed(q)]
    return word(rank, p + q), word(rank, q_inv + r)


class TestBasics:
    @given(_seam_pair())
    def test_multiply_is_reduced_concatenation(self, pair):
        a, b = pair
        assert multiply(a, b).letters == reduce_letters(a.letters + b.letters)

    def test_multiply_cancellation(self):
        assert multiply(w("x1 x2"), w("x2^-1 x1")) == w("x1 x1")

    def test_multiply_identity(self):
        assert multiply(empty(3), w("x3")) == w("x3")

    def test_multiply_inverse_pair(self):
        assert multiply(w("x1 x2 x1^-1"), w("x1 x2^-1 x1^-1")) == empty(3)

    def test_rank_mismatch(self):
        with pytest.raises(WordError):
            multiply(empty(2), empty(3))

    def test_invert(self):
        assert invert(w("x1 x2", 2)) == w("x2^-1 x1^-1", 2)
        assert invert(empty(2)) == empty(2)
        assert invert(w("x1^-1", 2)) == w("x1", 2)

    def test_unreduced_rejected(self):
        with pytest.raises(WordError):
            FreeWord(2, encode([(1, 1), (1, -1)]))

    def test_out_of_range_rejected(self):
        with pytest.raises(WordError):
            FreeWord(2, encode([(3, 1)]))


def _encoding_case(rank):
    """Letters at a rank, drawn from all indices and from the top three."""
    index = st.one_of(st.integers(1, rank), st.integers(max(1, rank - 2), rank))
    return st.lists(st.tuples(index, st.sampled_from([1, -1])), max_size=12).map(lambda ls: (rank, ls))


class TestEncoding:
    # 127 and 128 straddle one-byte strs (codes up to 255); 557,055 is the cap
    @given(st.sampled_from([1, 127, 128, 130, MAX_RANK]).flatmap(_encoding_case))
    @example((MAX_RANK, [(MAX_RANK, -1), (MAX_RANK, 1), (1, 1)]))
    @example((128, [(127, -1), (128, 1), (128, 1), (127, 1)]))
    @example((1, [(1, 1), (1, -1), (1, -1)]))
    @example((2, []))
    def test_encode_decode_round_trip(self, case):
        rank, letters = case
        code = encode(letters)
        assert len(code) == len(letters)
        assert decode(code) == letters
        v = word(rank, letters)
        assert word(rank, decode(v.letters)) == v
        assert decode(invert(v).letters) == [(i, -s) for i, s in reversed(decode(v.letters))]

    def test_rank_cap(self):
        assert gen(MAX_RANK, MAX_RANK, -1).letters == "\U0010ffff"
        with pytest.raises(WordError):
            FreeWord(MAX_RANK + 1, "")
        with pytest.raises(WordError):
            word(MAX_RANK + 1, [(1, 1)])
        with pytest.raises(WordError):
            encode([(MAX_RANK + 1, 1)])
        with pytest.raises(WordError):
            encode([(0, 1)])

    def test_word_rejects_bad_input(self):
        with pytest.raises(WordError, match="letter index 3 outside 1..2"):
            word(2, [(1, 1), (3, -1)])
        for sign in (0, 2):
            with pytest.raises(WordError, match="sign"):
                word(2, [(1, sign)])
        for rank in (0, MAX_RANK + 1):
            with pytest.raises(WordError, match="rank"):
                word(rank, [])

    def test_letter_pairs_rejected(self):
        # pairs are for input and output only
        with pytest.raises(WordError):
            FreeWord(2, ((1, 1),))


class TestCyclicReduce:
    def test_conjugated_letter(self):
        core, conj = cyclic_reduce(w("x1 x2 x1^-1", 2))
        assert core == w("x2", 2)
        assert conj == w("x1", 2)

    def test_already_reduced(self):
        core, conj = cyclic_reduce(w("x1 x2", 2))
        assert core == w("x1 x2", 2)
        assert conj == empty(2)

    def test_hand_reduction(self):
        a = w("x2^-1 x1 x2 x2", 2)
        core, conj = cyclic_reduce(a)
        # core is x2 x1 up to rotation and a = conj core conj^-1
        assert len(core) == 2
        assert sorted(decode(core.letters)) == [(1, 1), (2, 1)]
        assert multiply(multiply(conj, core), invert(conj)) == a
        assert is_cyclically_reduced(core)


class TestFreeConjugate:
    def test_rotation(self):
        g = free_conjugate(w("x1 x2", 2), w("x2 x1", 2))
        assert g is not None
        assert conjugate(g, w("x1 x2", 2)) == w("x2 x1", 2)

    def test_distinct_cores(self):
        assert free_conjugate(w("x1", 2), w("x2", 2)) is None

    def test_length_invariant(self):
        assert free_conjugate(w("x1 x1", 2), w("x1", 2)) is None

    def test_brute_force_oracle(self):
        # conjugate iff some conjugator of length <= 3 works, for short words
        def brute(a, b):
            frontier = [empty(a.rank)]
            seen = {"": None}
            for _ in range(3):
                nxt = []
                for g in frontier:
                    for i in range(1, a.rank + 1):
                        for s in (1, -1):
                            h = multiply(g, gen(a.rank, i, s))
                            if h.letters not in seen:
                                seen[h.letters] = None
                                nxt.append(h)
                frontier = nxt
            return any(
                conjugate(FreeWord(a.rank, ls), a) == b for ls in seen
            )

        cases = [
            ("x1 x2", "x2 x1"),
            ("x1", "x2^-1 x1 x2"),
            ("x1 x2", "x1 x2"),
            ("x1", "x2"),
            ("x1 x2 x1", "x2 x1 x1"),
            ("x1 x2^-1", "x2 x1"),
        ]
        for sa, sb in cases:
            a, b = w(sa, 2), w(sb, 2)
            got = free_conjugate(a, b)
            assert (got is not None) == brute(a, b)
            if got is not None:
                assert conjugate(got, a) == b


class TestRoots:
    def test_primitive_root(self):
        sq = multiply(w("x1 x2", 2), w("x1 x2", 2))
        assert primitive_root(sq) == w("x1 x2", 2)

    def test_centralizer_root_conjugated(self):
        a = conjugate(w("x2", 2), power(w("x1", 2), 3))
        root = centralizer_root(a)
        assert conjugate(root, a) == a

    def test_identity_has_no_root(self):
        assert centralizer_root(empty(2)) is None


class TestProperties:
    @given(_word_pair(3), st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), max_size=10))
    def test_associative(self, pair, ls):
        a, b = pair
        c = word(3, ls)
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))

    @given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), max_size=12))
    def test_inverse(self, ls):
        a = word(3, ls)
        assert multiply(a, invert(a)) == empty(3)

    @given(st.lists(st.tuples(st.integers(1, 3), st.sampled_from([1, -1])), max_size=12))
    def test_cyclic_reduce_roundtrip(self, ls):
        a = word(3, ls)
        core, conj = cyclic_reduce(a)
        assert multiply(multiply(conj, core), invert(conj)) == a
        assert is_cyclically_reduced(core)

    @given(_word_pair(2))
    def test_conjugates_are_detected(self, pair):
        a, g = pair
        b = conjugate(g, a)
        found = free_conjugate(a, b)
        assert found is not None
        assert conjugate(found, a) == b

    @given(st.lists(st.tuples(st.integers(1, 4), st.sampled_from([1, -1])), max_size=14))
    def test_parse_print_roundtrip(self, ls):
        v = word(4, ls)
        assert parse_x_word(format_x_word(v), 4) == v


class TestParser:
    def test_exponent_expansion(self):
        assert parse_x_word("x1^3", 2) == w("x1 x1 x1", 2)

    def test_negative_exponent(self):
        assert parse_x_word("x2^-2", 2) == w("x2^-1 x2^-1", 2)

    def test_zero_exponent(self):
        assert parse_x_word("x1^0 x2", 2) == w("x2", 2)

    def test_empty(self):
        assert parse_x_word("", 2) == empty(2)

    def test_error_column(self):
        with pytest.raises(ParseError) as exc:
            parse_x_word("y(3,", 3)
        assert exc.value.column == 5

    def test_error_bad_char(self):
        with pytest.raises(ParseError):
            parse_x_word("z3", 3)

    def test_c_generator_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_word("c(1,2)")
        assert exc.value.column == 1

    def test_commutator_helper(self):
        a, b = w("x1", 2), w("x2", 2)
        assert commutator(a, b) == w("x1^-1 x2^-1 x1 x2", 2)
