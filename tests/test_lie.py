import copy

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from pik.lie import (
    LieError,
    NotLieElement,
    bracket,
    is_lyndon,
    lattice_direct_sum_is_whole,
    lattice_from_rows,
    lie_from_tensor,
    lie_generator,
    lyndon_basis,
    lyndon_bracket,
    lyndon_coordinates,
    lyndon_words,
    same_lattice,
    standard_factorization,
    witt,
)
from pik.prng import Lcg


def scaled(p, k):
    return {mono: k * c for mono, c in p.items()}


def added(*ps):
    """The sum of term dicts, with the zero coefficients dropped."""
    out = {}
    for p in ps:
        for mono, c in p.items():
            out[mono] = out.get(mono, 0) + c
    return {mono: c for mono, c in out.items() if c}


def scattered(elems, words):
    """The elements' tensor coefficients at words, one sparse row each."""
    return [{j: e.coords[w] for j, w in enumerate(words) if w in e.coords} for e in elems]


def one_matrix(elems, nvars, m, units=()):
    """All degree-m Lyndon words as one block, C words (those outside
    units) first, with the elements' tensor coefficients there as its rows."""
    unit_words = {w for part in units for w in part}
    words = sorted(lyndon_words(nvars, m), key=lambda w: w in unit_words)
    return [(words, scattered(elems, words))]


def brute_lyndon_words(nvars, m):
    """Oracle: words strictly smaller than all their proper rotations."""
    import itertools

    out = []
    for wd in itertools.product(range(1, nvars + 1), repeat=m):
        rots = [wd[i:] + wd[:i] for i in range(1, m)]
        if all(wd < r for r in rots):
            out.append(wd)
    return out


class TestLyndonWords:
    @pytest.mark.parametrize("nvars,m", [(2, 1), (2, 4), (3, 3), (4, 2), (5, 3), (2, 6)])
    def test_against_brute_force(self, nvars, m):
        assert list(lyndon_words(nvars, m)) == brute_lyndon_words(nvars, m)

    def test_counts_match_witt(self):
        for nvars in range(1, 7):
            for m in range(1, 7):
                assert len(lyndon_words(nvars, m)) == witt(nvars, m)

    def test_is_lyndon(self):
        assert is_lyndon((1, 2))
        assert not is_lyndon((2, 1))
        assert not is_lyndon((1, 2, 1, 2))
        assert is_lyndon((1, 1, 2))

    def test_standard_factorization(self):
        assert standard_factorization((1, 2)) == ((1,), (2,))
        assert standard_factorization((1, 1, 2)) == ((1,), (1, 2))
        assert standard_factorization((1, 2, 2)) == ((1, 2), (2,))


class TestWitt:
    def test_known_values(self):
        assert witt(2, 2) == 1
        assert witt(3, 3) == 8
        assert witt(5, 3) == 40
        assert witt(5, 5) == 624
        assert witt(9, 2) == 36

    def test_degree_one(self):
        for n in range(1, 8):
            assert witt(n, 1) == n


class TestBracketing:
    def test_pair_bracket(self):
        p = lyndon_bracket(2, (1, 2))
        assert p == {(1, 2): 1, (2, 1): -1}

    def test_leading_term_property(self):
        # a Lyndon bracketing is its word plus lexicographically larger words
        for nvars, m in [(2, 4), (3, 3), (5, 2)]:
            for wd in lyndon_words(nvars, m):
                p = lyndon_bracket(nvars, wd)
                assert p[wd] == 1
                assert all(mono >= wd for mono in p)

    def test_antisymmetry(self):
        a, b = lie_generator(3, 1), lie_generator(3, 2)
        assert bracket(a, b).coords == scaled(bracket(b, a).coords, -1)

    def test_self_bracket_zero(self):
        a = lie_generator(3, 2)
        assert bracket(a, a).coords == {}

    def test_jacobi(self):
        y1, y2, y3 = (lie_generator(3, i) for i in (1, 2, 3))
        total = added(
            bracket(bracket(y1, y2), y3).coords,
            bracket(bracket(y2, y3), y1).coords,
            bracket(bracket(y3, y1), y2).coords,
        )
        assert total == {}

    def test_degree_additivity(self):
        y1, y2 = lie_generator(2, 1), lie_generator(2, 2)
        a = bracket(y1, y2)
        b = bracket(a, y2)
        assert bracket(a, b).degree == 5


class TestLyndonCoordinates:
    def test_roundtrip_basis(self):
        for nvars, m in [(2, 3), (3, 3), (5, 2), (2, 5)]:
            for e in lyndon_basis(nvars, m):
                coords = lyndon_coordinates(m, e.coords)
                assert coords == dict(e.lyndon)

    def test_random_combination_roundtrip(self):
        rng = Lcg(77)
        basis = lyndon_basis(3, 4)
        for _ in range(20):
            coeffs = [rng.below(7) - 3 for _ in basis]
            acc = added(*(scaled(e.coords, c) for c, e in zip(coeffs, basis)))
            got = lyndon_coordinates(4, acc)
            want = {e.lyndon[0][0]: c for c, e in zip(coeffs, basis) if c}
            assert got == want

    def test_rejects_non_lie(self):
        p = {(1, 2): 1}  # X1X2 alone is not a Lie element
        with pytest.raises(NotLieElement):
            lie_from_tensor(2, 2, p)

    def test_rejects_inhomogeneous(self):
        p = {(1,): 1, (1, 2): 1, (2, 1): -1}
        with pytest.raises(LieError):
            lie_from_tensor(2, 2, p)

    def test_invalid_monomial(self):
        with pytest.raises(LieError, match="outside 1..2"):
            lie_from_tensor(2, 1, {(5,): 1})

    def test_out_of_range_letter_raises_lie_error(self):
        with pytest.raises(LieError, match="outside 1..2"):
            lie_generator(2, 3)
        with pytest.raises(LieError, match="outside 1..2"):
            lyndon_bracket(2, (1, 3))

    def test_zero_coefficients_dropped(self):
        # LieElem equality compares the term dicts, so a stored zero would
        # tell two equal elements apart
        with_zero = lie_from_tensor(2, 2, {(1, 2): 1, (2, 1): -1, (2, 2): 0})
        assert with_zero.coords == {(1, 2): 1, (2, 1): -1}
        assert with_zero == bracket(lie_generator(2, 1), lie_generator(2, 2))


def xgcd(a, b):
    """(g, x, y) with x a + y b = g, g a gcd of a and b."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return a, x0, y0


def reference_echelon(rows, dim):
    """Oracle: a dense echelon grown one row at a time.  A row meeting an
    existing pivot column is merged into that pivot row by the unimodular
    extended-gcd step, so the pivot becomes the gcd and the row's entry 0.
    Returns {pivot column: echelon row}, in column order."""
    ech = {}
    for vec in rows:
        v = list(vec)
        for j in range(dim):
            if not v[j]:
                continue
            if j not in ech:
                ech[j] = v
                break
            row = ech[j]
            a, b = row[j], v[j]
            g, x, y = xgcd(a, b)
            ech[j] = [x * p + y * q for p, q in zip(row, v)]
            v = [(a // g) * q - (b // g) * p for p, q in zip(row, v)]
    return dict(sorted(ech.items()))


def reference_contains(ech, vec):
    v = list(vec)
    for j in range(len(v)):
        if not v[j]:
            continue
        if j not in ech or v[j] % ech[j][j]:
            return False
        q = v[j] // ech[j][j]
        v = [x - q * y for x, y in zip(v, ech[j])]
    return True


def in_lattice(lat, vec):
    """Whether vec (dense) lies in lat: adding it as a row leaves the lattice the same."""
    return same_lattice(lat, lattice_from_rows(lat.rows + sparse_rows([vec]), lat.dim))


def sparse_rows(rows):
    """rows (dense lists) as lattice_from_rows input: {column: nonzero entry}."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def snapshot(rows):
    """Sparse rows as lists of (column, entry type, entry), in their own order."""
    return [[(j, type(x), x) for j, x in row.items()] for row in rows]


ENTRIES = st.one_of(
    st.integers(-4, 4), st.sampled_from([2**60 - 1, -(2**63), 2**64 + 1]), st.integers(-(2**70), 2**70)
)


@st.composite
def lattice_cases(draw):
    """(dim, rows, probes): probes are drawn vectors and integer
    combinations of the rows, so some lie in the lattice."""
    dim = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=dim, max_size=dim), max_size=7))
    probes = draw(st.lists(st.lists(st.integers(-6, 6), min_size=dim, max_size=dim), max_size=3))
    for _ in range(draw(st.integers(0, 3))):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows)))
        probes.append([sum(c * row[j] for c, row in zip(coeffs, rows)) for j in range(dim)])
    return dim, rows, probes


def lcg_rows(seed, nrows, dim):
    rng = Lcg(seed)
    return [[rng.below(7) - 3 for _ in range(dim)] for _ in range(nrows)]


def assert_matches_reference(dim, rows, probes):
    """lattice_from_rows, given rows (dense lists) as sparse rows, has the
    dense oracle's rank, pivot columns, |pivots| and membership on probes
    and rows, and leaves the sparse rows as they were."""
    given_rows = sparse_rows(rows)
    lat = lattice_from_rows(given_rows, dim)
    ref = reference_echelon(rows, dim)
    assert lat.rank == len(ref)
    assert lat.pivot_col == list(ref)
    assert lat.pivots() == [abs(row[j]) for j, row in ref.items()]
    for v in probes:
        assert in_lattice(lat, v) == reference_contains(ref, v)
    assert all(in_lattice(lat, row) for row in rows)
    assert given_rows == sparse_rows(rows)


class TestIntLattice:
    def test_rank_and_contains(self):
        lat = lattice_from_rows([{0: 2}, {1: 3}], 3)
        assert lat.rank == 2
        assert in_lattice(lat, [2, 3, 0])
        assert not in_lattice(lat, [1, 0, 0])
        assert not in_lattice(lat, [0, 0, 1])

    def test_gcd_combination(self):
        lat = lattice_from_rows([{0: 4}, {0: 6}], 2)
        assert in_lattice(lat, [2, 0])
        assert not in_lattice(lat, [1, 0])

    def test_full_unimodular(self):
        assert lattice_from_rows([{0: 1, 1: 5}, {1: 1}], 2).pivots() == [1, 1]  # all of Z^2
        assert lattice_from_rows([{0: 1}, {1: 2}], 2).pivots() == [1, 2]  # index 2 in Z^2

    def test_same_lattice(self):
        a = lattice_from_rows(sparse_rows([[1, 2, 3], [0, 1, 1]]), 3)
        b = lattice_from_rows(sparse_rows([[1, 1, 2], [0, 1, 1]]), 3)  # row-equivalent generators
        assert same_lattice(a, b)
        # the same rank and pivot columns, index 2
        assert not same_lattice(lattice_from_rows([{0: 1}, {1: 1}], 2), lattice_from_rows([{0: 1}, {1: 2}], 2))

    @given(case=lattice_cases())
    @example(case=(3, [[0, 0, 0], [0, 0, 0], [1, 2, 0]], [[2, 4, 0], [0, 0, 1]]))
    @example(case=(3, [[2, 4, 6], [2, 4, 6], [0, 3, 3]], [[2, 7, 9], [1, 2, 3]]))
    @example(case=(3, [[-2, 1, 0], [-4, -1, 5], [0, -3, -6]], [[-2, -2, -6], [0, 3, 5]]))
    @example(case=(3, [[2**65, 3, 1], [2**64 + 1, -7, 0], [5, 2**66, 1]], [[2**64 + 6, 2**66 - 7, 1]]))
    def test_matches_dense_reference(self, case):
        # rank, pivot columns, |pivots| and membership are those of the
        # lattice, so the sparse echelon must agree with the dense oracle
        # on them whatever pivots either picks
        assert_matches_reference(*case)

    @given(case=lattice_cases(), twice=st.booleans())
    @example(case=(2, [[2, 1], [3, 1]], []), twice=True)
    def test_input_rows_unchanged(self, case, twice):
        # a row is used as given and copied only when the elimination
        # first changes it, also when the same row is given twice
        dim, rows, _ = case
        given_rows = sparse_rows(rows)
        if twice:
            given_rows += given_rows
        kept = copy.deepcopy(given_rows)
        lat = lattice_from_rows(given_rows, dim)
        assert snapshot(given_rows) == snapshot(kept)
        fresh = lattice_from_rows(kept, dim)
        assert snapshot(lat.rows) == snapshot(fresh.rows)
        assert lat.pivot_col == fresh.pivot_col

    def test_rejects_rows_that_are_not_clean_sparse(self):
        # a dense row, and an explicit zero, which would be read as a pivot of 0
        with pytest.raises(LieError, match="not a sparse row"):
            lattice_from_rows([[1, 0, 2]], 3)
        with pytest.raises(LieError, match="not a sparse row"):
            lattice_from_rows([{0: 1}, (0, 1, 0)], 3)
        with pytest.raises(LieError, match="explicit zero"):
            lattice_from_rows([{0: 1, 2: 0}], 3)
        with pytest.raises(LieError, match="explicit zero"):
            lattice_from_rows([{1: 0}], 3)

    def test_random_rows_match_reference(self):
        assert_matches_reference(30, lcg_rows(99, 40, 30), lcg_rows(7, 3, 30))

    def test_entries_near_2_60(self):
        # entries whose elimination would pass int64
        big = (1 << 60) - 1
        rows = [[big, 3, 0, 1], [big - 2, 5, 7, 0], [3, big, 1, 1], [-2, 2, 7, -1]]
        assert lattice_from_rows(sparse_rows(rows), 4).rank == 3
        assert_matches_reference(4, rows, [[big + 3, big + 3, 1, 2]])

    def test_rejects_rows_of_another_dim(self):
        with pytest.raises(LieError, match="columns"):
            lattice_from_rows([{3: 1}], 3)
        with pytest.raises(LieError, match="columns"):
            lattice_from_rows([{0: 1, -1: 1}], 3)
        with pytest.raises(LieError):
            in_lattice(lattice_from_rows([{0: 1}], 2), [0, 0, 1])

    def test_int64_guard_does_not_wrap(self):
        # (q + 1) * max|pivot row| = (2**32 + 1)(2**32 - 1) = 2**64 - 1
        # would wrap in int64; Python ints give the true pivot
        assert lattice_from_rows([{0: 1, 1: (1 << 32) - 1}, {0: 1 << 32}], 2).pivots() == [1, (1 << 64) - (1 << 32)]

    def test_coefficients_beyond_int64(self):
        basis = lyndon_basis(3, 3)
        huge = [lie_from_tensor(3, 3, scaled(e.coords, 1 << 70)) for e in basis]
        lat = lattice_from_rows(scattered(huge + basis[:1], lyndon_words(3, 3)), witt(3, 3))
        assert lat.rank == witt(3, 3)
        assert lat.pivots() == [1] + [1 << 70] * (witt(3, 3) - 1)
        units = [lyndon_words(3, 3)[:1]]
        rep = lattice_direct_sum_is_whole(one_matrix(huge[1:], 3, 3, units), units, 3, 3)
        assert rep.rank_sum == witt(3, 3) and not rep.stacked_unimodular


class TestGradedLattices:
    def test_lattice_of_basis_is_full(self):
        # tensor coefficients at the Lyndon words are unitriangular on the basis
        lat = lattice_from_rows(scattered(lyndon_basis(3, 3), lyndon_words(3, 3)), witt(3, 3))
        assert lat.rank == witt(3, 3)
        assert lat.pivots() == [1] * witt(3, 3)

    def test_direct_sum_whole_alphabet(self):
        # the whole basis as J with no unit part, and as one unit part with J empty
        basis = lyndon_basis(3, 2)
        for j, units in ((basis, []), ([], [lyndon_words(3, 2)])):
            rep = lattice_direct_sum_is_whole(one_matrix(j, 3, 2, units), units, 3, 2)
            assert rep.ok and rep.rank_sum == witt(3, 2)

    def test_units_closed_under_bracketing(self):
        # P_(1,2,3) = [1,[2,3]] has the Lyndon word (1,3,2) among its terms,
        # so its unit vector does not survive the change to tensor coefficients
        with pytest.raises(LieError, match="meets the Lyndon word"):
            lattice_direct_sum_is_whole(one_matrix([], 3, 3, [[(1, 2, 3)]]), [[(1, 2, 3)]], 3, 3)
        units = [[(1, 2, 3), (1, 3, 2)]]
        rep = lattice_direct_sum_is_whole(one_matrix([], 3, 3, units), units, 3, 3)
        assert rep.rank_sum == 2 and not rep.stacked_unimodular

    def test_equal_spans(self):
        basis = lyndon_basis(2, 3)
        y12 = bracket(lie_generator(2, 1), lie_generator(2, 2))
        left_normed = [bracket(y12, lie_generator(2, 2)), bracket(y12, lie_generator(2, 1))]
        words = lyndon_words(2, 3)
        lat1 = lattice_from_rows(scattered(basis, words), len(words))
        lat2 = lattice_from_rows(scattered(left_normed, words), len(words))
        assert same_lattice(lat1, lat2)

    def test_blocks_rank_apart(self):
        # the Lyndon words (1,1,2) and (1,2,2) in blocks of their own: each
        # block's rows, read at its words, have the rank they have together
        y12 = bracket(lie_generator(2, 1), lie_generator(2, 2))
        a, b = bracket(y12, lie_generator(2, 1)), bracket(y12, lie_generator(2, 2))
        split = [[(1, 1, 2)], [(1, 2, 2)]]
        ranks = [lattice_from_rows(scattered([e], words), 1).rank for e, words in zip((a, b), split)]
        assert ranks == [1, 1]
        assert lattice_from_rows(scattered([a, b], lyndon_words(2, 3)), 2).rank == sum(ranks)

    def test_direct_sum_blocks_checked_once_read(self):
        # blocks are read once, so a generator is accepted; blocks that miss
        # a word, repeat one, or give a row past the block's words are refused
        words = lyndon_words(2, 3)
        blocks = ((words[j : j + 1], [{0: 1}]) for j in range(2))
        rep = lattice_direct_sum_is_whole(blocks, [], 2, 3)
        assert rep.ok
        with pytest.raises(LieError, match="partition"):
            lattice_direct_sum_is_whole([(words[:1], [{0: 1}])], [], 2, 3)
        with pytest.raises(LieError, match="partition"):
            lattice_direct_sum_is_whole([(words, [{0: 1}, {1: 1}]), (words[:1], [])], [], 2, 3)
        with pytest.raises(LieError, match="columns"):
            lattice_direct_sum_is_whole([(words[:1], [{0: 1}, {1: 1}])], [], 2, 3)

    def test_direct_sum_reads_sparse_rows(self):
        # with (1,1,2) a unit word, the block lists the C word (1,2,2) first,
        # as column 0; a sparse row past the block's words is refused
        words = [(1, 2, 2), (1, 1, 2)]
        units = [[(1, 1, 2)]]
        for rows, whole in (([{0: 1}], True), ([{0: 2}], False), ([{1: 1}], False), ([{1: 5, 0: -1}], True)):
            rep = lattice_direct_sum_is_whole([(words, rows)], units, 2, 3)
            assert rep.rank_sum == 2 and rep.stacked_unimodular == whole
        with pytest.raises(LieError, match="columns"):
            lattice_direct_sum_is_whole([(words, [{2: 1}])], units, 2, 3)

    def test_direct_sum_refuses_a_unit_word_before_a_c_word(self):
        # the C columns come first as the caller lists them; nothing reorders them
        units = [[(1, 1, 2)]]
        with pytest.raises(LieError, match=r"unit word \(1, 1, 2\) before a C word"):
            lattice_direct_sum_is_whole([(lyndon_words(2, 3), [{1: 1}])], units, 2, 3)
        split = [([(1, 1, 2)], []), ([(1, 2, 2)], [{0: 1}])]  # a block of unit words alone
        assert lattice_direct_sum_is_whole(split, units, 2, 3).ok
