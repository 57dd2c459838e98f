import functools
import hashlib
import itertools
import json
import math
import os
import re
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pik.conj as conj_mod
from pik.conj import (
    CHUNK_POINTS,
    MAX_QUOTIENT_POINTS,
    ConjError,
    SearchBudget,
    conjugacy,
)
from pik.fuzz import planted_conjugacy_case, random_ielem
from pik.igroup import (
    _SEP,
    IElem,
    _conj_steps,
    abelianize,
    act_elem,
    collect,
    commutator_elem,
    conj_by_gen,
    conj_elem,
    gen_elem,
    generators,
    identity_elem,
    iinv,
    imul,
    relator_indices,
    to_endo,
)
from pik.prng import Lcg
from pik.words import Token, WitnessError, decode, gen, parse_word

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import conj_timings  # noqa: E402


SRC = Path(__file__).resolve().parent.parent / "src"

# Both sides lie in H_3 (empty level-2 part).  It was one of the two conj-hard
# pairs that stayed unknown while the finite quotients compared cycle types on
# the whole of Hom(F_3, S_k); an S_3 piece now tells its sides apart.
H3_PAIR = (
    collect(3, parse_word("y(3,1) y(3,2)")),
    collect(3, parse_word("y(3,1) y(3,2)^2 y(3,3) y(3,2)^-1 y(3,3)^-1")),
)

# A planted pair whose conjugator, 14 generator letters drawn at random
# (Lcg(5), case 57), lies beyond the radius of the default budget's walk.
# The pair is conjugate, so no refutation can ever apply to it; it ended
# unknown until descent over plateaus joined its descended sides.
LONG_CONJUGATOR = (
    "y(3,2) y(3,1)^-1 y(3,1)^-1 y(3,2) y(3,2) y(3,1) y(3,1) y(3,2)^-1 y(3,1)^-1"
    " y(3,3)^-1 y(3,1) y(3,2) y(3,1) y(3,2)^-1 y(3,1)^-1 y(2,1) y(2,2) y(2,2)"
)
LONG_PAIR = (
    collect(3, parse_word("y(3,3) y(2,2)")),
    conj_elem(collect(3, parse_word(LONG_CONJUGATOR)), collect(3, parse_word("y(3,3) y(2,2)"))),
)

# x against x [a, b], pair 69 of conj-hard's draws at rank 3 (Lcg(99), counted
# from 0): no abelianization, level-2 core or piece of S_3 or S_4 tells its
# sides apart, and no search joins them, so it ends unknown.
OPEN_PAIR = (
    collect(3, parse_word("y(3,2) y(3,1)^-1 y(2,2)^2")),
    collect(3, parse_word("y(3,2) y(3,1)^-1 y(3,2)^-1 y(3,3)^2 y(3,2) y(3,3)^-2 y(2,2)^2")),
)

# SHA-256 of the JSON of every ConjResult.as_dict() in
# test_refutations_name_only_sound_invariants: the reason of each refutation,
# the witness and method of each conjugate pair, and the bounds of the last
# pair's unknown, which name the full walk's gen_radius and max_states alone.
# It moved from the value before only by the two bounds that unknowns no
# longer report, max_len and coset, which bounded nothing the search ran.
OBSTRUCTION_PAIRS_SHA256 = "d357c51d8e49b7d40b0e8b3e22a4ec40b8ae9728e03087e1fa81c4752990dd13"

# The reason of a finite-quotient refutation: the group and the piece's classes.
PIECE_REASON = re.compile(r"finite-quotient \(S_([34])\) cycle type mismatch on the piece of classes \((.*)\)")


def reason_kind(reason):
    """A refutation's reason with the piece's classes left out."""
    m = PIECE_REASON.fullmatch(reason)
    return f"finite-quotient (S_{m[1]})" if m else reason


class TestTwistedConjugate:
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_lower_action_is_none_iff_identity(self, n):
        # the part b of y below level i fixes every y(i,l) only when b = 1
        # (docs/NOTES.md, "Twisted conjugacy: what is decided and what is
        # not"), so level i's equation is twisted unless b = 1; short random
        # words often have no letter below i
        rng = Lcg(31 + n)
        fixed = 0
        for _ in range(300):
            y = random_ielem(rng, n, 4)
            for i in range(3, n + 1):
                b = IElem(i - 1, y.parts[n - i + 1 :])
                fixes = all(act_elem(b, gen(i, l)) == gen(i, l) for l in range(1, i + 1))
                assert fixes == b.is_identity
                fixed += fixes
        assert 0 < fixed < 300 * (n - 2)


class TestConjugacy:
    def test_equal_elements(self):
        x = gen_elem(3, 3, 1)
        res = conjugacy(x, x)
        assert res.verdict == "conjugate" and res.witness.is_identity

    def test_abelianization_refutation(self):
        res = conjugacy(gen_elem(3, 2, 1), gen_elem(3, 2, 2))
        assert res.verdict == "not_conjugate"
        assert "abelianization" in res.reason

    def test_level2_refutation(self):
        # same abelianization, non-conjugate bottom components: the cyclic
        # words 1122 and 1212 are not rotations of each other
        from pik.words import parse_word

        x2 = collect(3, parse_word("y(2,1) y(2,1) y(2,2) y(2,2)"))
        y2 = collect(3, parse_word("y(2,1) y(2,2) y(2,1) y(2,2)"))
        assert abelianize(x2) == abelianize(y2)
        res = conjugacy(x2, y2)
        assert res.verdict == "not_conjugate"
        assert "level-2" in res.reason

    def test_level2_only_complete(self):
        # both supported on the bottom level: classical free conjugacy decides
        from pik.words import parse_word

        x = collect(4, parse_word("y(2,1) y(2,2)"))
        y = collect(4, parse_word("y(2,2) y(2,1)"))
        res = conjugacy(x, y)
        assert res.verdict == "conjugate"
        assert conj_elem(res.witness, x) == y

    def test_planted_small(self):
        rng = Lcg(90210)
        for n in (3, 4):
            for _ in range(30):
                x, y, budget = planted_conjugacy_case(rng, n, 8)
                res = conjugacy(x, y, budget)
                assert res.verdict == "conjugate"
                assert conj_elem(res.witness, x) == y

    def test_budget_monotonicity(self):
        # enlarging the budget never flips a definite verdict
        rng = Lcg(56)
        small = SearchBudget(gen_radius=2, max_states=500)
        big = SearchBudget(gen_radius=6, max_states=20000)
        for _ in range(20):
            x = random_ielem(rng, 3, 5)
            y = random_ielem(rng, 3, 5)
            r1 = conjugacy(x, y, small)
            r2 = conjugacy(x, y, big)
            if r1.verdict != "unknown":
                assert r1.verdict == r2.verdict

    def test_rank_mismatch(self):
        with pytest.raises(ConjError):
            conjugacy(identity_elem(3), identity_elem(4))

    def test_unknown_carries_bounds(self):
        # Same abelianization and conjugate bottom level, but the two sides
        # permute Hom(F_3, S_3) with different cycle types: proven not
        # conjugate before any search runs.
        from pik.words import parse_word

        x = collect(3, parse_word("y(3,1) y(2,1)"))
        y = collect(3, parse_word("y(3,2)^-1 y(3,1) y(3,2) y(2,1)"))
        budget = SearchBudget(gen_radius=2, max_states=300)
        res = conjugacy(x, y, budget)
        assert res.verdict == "not_conjugate"
        assert res.reason == "finite-quotient (S_3) cycle type mismatch on the piece of classes ((12), (123), ())"
        # A pair that no invariant refutes and no search joins: the verdict
        # is unknown with the bounds, never a fake no.
        x, y = OPEN_PAIR
        res = conjugacy(x, y, budget)
        assert res.verdict == "unknown"
        assert res.bounds == budget.as_dict()

    def test_refutations_name_only_sound_invariants(self):
        # Every "no" cites the abelianization, the level-2 core or the cycle
        # type on a piece of a finite quotient.  The outputs, the last pair's
        # unknown with its bounds among them, are pinned by
        # OBSTRUCTION_PAIRS_SHA256.
        reasons = {
            "abelianization mismatch (conjugation fixes the abelianization)",
            "level-2 free-conjugacy core mismatch",
            "finite-quotient (S_3)",
            "finite-quotient (S_4)",
        }
        rng = Lcg(99)
        pairs = []
        while len(pairs) < 20:
            x = random_ielem(rng, 3, 8)
            y = imul(x, commutator_elem(random_ielem(rng, 3, 2), random_ielem(rng, 3, 2)))
            if y != x:
                pairs.append((x, y))
        pairs += [
            (gen_elem(3, 2, 1), gen_elem(3, 2, 2)),
            (gen_elem(3, 3, 1), gen_elem(3, 3, 3)),
            (pairs[0][0], imul(pairs[0][0], gen_elem(3, 3, 2))),
            # which no invariant refutes and no search joins
            OPEN_PAIR,
        ]
        budget = SearchBudget(gen_radius=2, max_states=500)
        seen = set()
        out = []
        for x, y in pairs:
            res = conjugacy(x, y, budget)
            if res.verdict == "not_conjugate":
                assert reason_kind(res.reason) in reasons
                seen.add(reason_kind(res.reason))
            elif res.verdict == "conjugate":
                assert conj_elem(res.witness, x) == y
            out.append(res.as_dict())
        assert seen == reasons
        assert out[-1]["verdict"] == "unknown"
        blob = json.dumps(out, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == OBSTRUCTION_PAIRS_SHA256

    def test_trace_is_reported(self):
        from pik.words import parse_word

        x = collect(3, parse_word("y(2,1) y(3,1)"))
        g = collect(3, parse_word("y(2,2)"))
        y = conj_elem(g, x)
        res = conjugacy(x, y, SearchBudget())
        assert res.verdict == "conjugate"
        assert conj_elem(res.witness, x) == y


def no_plateau(monkeypatch):
    """Leave the plateau's entries out of conj.STAGES, so a pair it decides reaches the full walk."""
    stages = tuple(entry for entry in conj_mod.STAGES if entry[0] not in ("plateau-0", "plateau"))
    monkeypatch.setattr(conj_mod, "STAGES", stages)


def spy_stages(patch, log):
    """Replace each entry of conj.STAGES by one that appends (its name, whether it decided) to log after it runs."""

    def spied(name, run):
        def spy(call):
            got = run(call)
            log.append((name, got is not None))
            return got

        return spy

    patch.setattr(conj_mod, "STAGES", tuple((name, spied(name, run)) for name, run in conj_mod.STAGES))


def stages_run(monkeypatch, x, y, budget=None):
    """The names of the entries of conj.STAGES that conjugacy(x, y, budget) runs, in order, and its result."""
    log = []
    with monkeypatch.context() as patch:
        spy_stages(patch, log)
        res = conjugacy(x, y, budget)
    return [name for name, _ in log], res


def run_optimized(code, cwd):
    """Run code in a fresh interpreter under -O, with this checkout's pik."""
    return subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )


def test_unverified_witness_raises_under_optimize(tmp_path):
    # Under -O every assert is stripped; the witness check must still run.
    code = """
import sys
import pik.conj as conj
from pik.igroup import collect, conj_elem
from pik.words import WitnessError, parse_word

assert False, "assert statements must be stripped"
x = collect(3, parse_word("y(3,1) y(3,2)^2 y(2,1)"))
y = conj_elem(collect(3, parse_word("y(2,2) y(3,3)")), x)
conj.conj_elem = lambda g, u: u  # corrupted: no witness re-multiplies to y
try:
    res = conj.conjugacy(x, y)
except WitnessError as exc:
    print(exc)
    sys.exit(0)
sys.exit(f"returned {res.verdict} with an unchecked witness")
"""
    proc = run_optimized(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "re-verification" in proc.stdout


def _exit_cases():
    """(x, y, budget) for a pair decided at each conjugate exit of conj.STAGES after equality.

    Cases 0, 1 and 3 of _pinned_stream's n = 3 draws and _planted_stream's
    pair 9.  Slack 0 of the plateau decides cases 1 and 3, and its larger
    slacks, after S_4, decide pair 9; with the plateau left out, the full
    walk on the original pair decides case 3.
    """
    rng = Lcg(16)
    planted = [planted_conjugacy_case(rng, 3, 7) for _ in range(4)]
    return {"descent": planted[0], "plateau-0": planted[1], "plateau": _planted_stream()[9], "full walk": planted[3]}


@pytest.mark.parametrize("exit", ["descent", "plateau-0", "plateau", "full walk"])
def test_every_conjugate_exit_checks_its_witness(monkeypatch, exit):
    assert exit in dict(conj_mod.STAGES)
    x, y, budget = _exit_cases()[exit]
    if exit == "full walk":
        no_plateau(monkeypatch)
    names, res = stages_run(monkeypatch, x, y, budget)
    assert res.verdict == "conjugate" and names[-1] == exit
    assert res.method == {"plateau-0": "plateau", "full walk": "generator-walk"}.get(exit, exit)
    monkeypatch.setattr(conj_mod, "conj_elem", lambda g, u: u)  # corrupted: no witness re-multiplies to y
    with pytest.raises(WitnessError, match="re-verification"):
        conjugacy(x, y, budget)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_descent_steps_conjugate_u_to_u_hat(n):
    # the product c of descent's steps, last first, has c u c^-1 = u_hat, and
    # each step shortens u
    rng = Lcg(300 + n)
    table = conj_mod._walk_steps(n)[-1][1]
    descended = 0
    for _ in range(30):
        u = random_ielem(rng, n, 10)
        u_hat, steps = conj_mod._greedy_descent(u)
        c = collect(n, [Token("y", *table[k]) for k in reversed(steps)])
        assert conj_elem(c, u) == u_hat
        assert sum(map(len, u_hat.parts)) <= sum(map(len, u.parts)) - len(steps)
        descended += bool(steps)
    assert descended


def element_class(g):
    """The class of the permutation g, as the cycle notation of its shape on 1..k, longest cycle first."""
    seen, lengths = set(), []
    for start in range(len(g)):
        length, t = 0, start
        while t not in seen:
            seen.add(t)
            t, length = g[t], length + 1
        if length:
            lengths.append(length)
    name, first = "", 1
    for length in sorted(lengths, reverse=True):
        if length > 1:
            name += "(" + "".join(str(first + i) for i in range(length)) + ")"
        first += length
    return name or "()"


def reference_permutation(a, points):
    """rho -> rho o to_endo(a) on points, tuples (rho(x_1), ..., rho(x_n)), from the images letter by letter.

    The product of permutations g and h is t -> g[h[t]].  Returns the index in
    points of each point's image, so an image off the points raises KeyError.
    """
    index = {rho: p for p, rho in enumerate(points)}
    images = to_endo(a).images
    perm = []
    for rho in points:
        k = len(rho[0])
        values = {(i, 1): g for i, g in enumerate(rho, 1)}
        values.update({(i, -1): tuple(sorted(range(k), key=g.__getitem__)) for i, g in enumerate(rho, 1)})
        image = []
        for word in images:
            value = tuple(range(k))
            for letter in decode(word.letters):
                g = values[letter]
                value = tuple(value[g[t]] for t in range(k))
            image.append(value)
        perm.append(index[tuple(image)])
    return perm


def reference_cycles(perm, key):
    """Sorted (key at the cycle's least point, length) over the cycles of perm, by walking each cycle."""
    seen, out = set(), []
    for start in range(len(perm)):
        length, p = 0, start
        while p not in seen:
            seen.add(p)
            p, length = perm[p], length + 1
        if length:
            out.append((key[start], length))
    return sorted(out)


def brute_piece(k, names):
    """Every rho whose rho(x_j) lies in the class names[j], listed by brute force."""
    by_class = {}
    for g in itertools.permutations(range(k)):
        by_class.setdefault(element_class(g), []).append(g)
    return list(itertools.product(*(by_class[c] for c in names)))


def piece_cycle_type(a, k, names):
    piece = brute_piece(k, names)
    return reference_cycles(reference_permutation(a, piece), [0] * len(piece))


def seeded_elems(ns, max_len):
    return st.builds(lambda n, seed: random_ielem(Lcg(seed), n, max_len), ns, st.integers(0, 10**6))


def one_move_descent(u):
    """The oracle for _greedy_descent: first-improvement descent that tries one move at a time with conj_by_gen."""
    n = u.n
    table = conj_mod._walk_steps(n)[-1][1]
    steps = []
    improved = True
    while improved:
        improved = False
        for k, (m, i, eps) in enumerate(table):
            v = conj_by_gen(n, m, i, eps, u)
            if sum(map(len, v.parts)) < sum(map(len, u.parts)):
                u = v
                steps.append(k)
                improved = True
                break
    return u, steps


@settings(max_examples=60, deadline=None)
@given(seeded_elems(st.integers(3, 5), 12))
def test_descent_by_level_batches_takes_the_steps_of_one_move_at_a_time(u):
    assert conj_mod._greedy_descent(u) == one_move_descent(u)


def fold_permutation(a, k):
    """The fold's permutation of all the chosen points: each chunk's, concatenated, from its first point on."""
    perms, start = [], 0
    for chunk, perm in conj_mod._chunk_permutations(a, k):
        perms.append(perm + start)
        start += len(chunk.piece)
    return np.concatenate(perms)


def table_permutation(a, k):
    """The reference for the fold: rho -> rho o to_endo(a) evaluated on every point at once from the parts.

    to_endo(a) sends x_j to P_j x_j P_j^-1 with P_j = V_n ... V_max(j,2), V_m
    being w_m with every sign flipped, so rho(P_j) is a product of table
    lookups per point, one per letter, and the image's point is read off the
    position of rho(P_j) rho(x_j) rho(P_j)^-1 in its class, row by row.
    """
    n = a.n
    times, inv, conj_pos = reference_group_tables(k)
    pieces = conj_mod._pieces(k, n)
    homs = pieces.homs
    homs_inv = inv[homs]
    p = 0  # rho(P_j) |S_k|; the identity, element 0, while P_j is empty
    point = pieces.first[pieces.piece]  # each point's piece's first point
    for j in range(n, 0, -1):
        if j >= 2:  # P_1 = P_2
            for i, s in decode(a.parts[n - j]):
                p = times[p + (homs_inv[i - 1] if s > 0 else homs[i - 1])]  # times the letter (i, -s) of V_j
        point += conj_pos[p + homs[j - 1]] * pieces.weight[j - 1]
    return point


def assert_matches_reference(a, k):
    pieces = conj_mod._pieces(k, a.n)
    elems = list(itertools.permutations(range(k)))
    points = [tuple(elems[e] for e in rho) for rho in pieces.homs.T.tolist()]
    perm = fold_permutation(a, k)
    assert perm.tolist() == reference_permutation(a, points)
    got = conj_mod._cycle_keys(perm, pieces.piece)
    want = reference_cycles(perm.tolist(), pieces.piece.tolist())
    assert [divmod(int(v), len(perm) + 1) for v in got] == want


def backward_cycles(lengths):
    """The permutation with cycles of the given lengths on consecutive blocks of points, each walked backwards."""
    perm = []
    for length in lengths:
        base = len(perm)
        perm += [base + (t - 1) % length for t in range(length)]
    return np.array(perm)


# The identity, and cycles of 2^r and 2^r + 1 points, alone and among others.
# Each shape keeps the test id it had when it also ran under a doubling bound.
CYCLE_EDGES = [[1] * 6] + [lengths for r in range(1, 6) for lengths in ([2**r], [2**r + 1], [3, 2**r, 1, 2**r + 1])]
CYCLE_EDGE_IDS = [f"lengths{2 * i + 1}-{64 if i else 16}" for i in range(len(CYCLE_EDGES))]


@pytest.mark.parametrize("lengths", CYCLE_EDGES, ids=CYCLE_EDGE_IDS)
def test_cycle_keys_at_the_edges(lengths):
    # Pointer doubling stops at the first round that changes no label, when
    # every label is its cycle's least point.
    perm = backward_cycles(lengths)
    key = np.arange(len(perm)) % 5
    got = conj_mod._cycle_keys(perm, key)
    assert [divmod(int(v), len(perm) + 1) for v in got] == reference_cycles(perm.tolist(), key.tolist())


def reference_quotient(k):
    """_quotient(k)'s fields but its name, as lists, from itertools.permutations and element_class.

    The elements are numbered in permutations order, and the classes are the
    cycle shapes in the order their first elements appear, each class's
    members in element order; conj_pos holds the position of a b a^-1 in its
    class for every pair, the product a b being t -> a[b[t]], composed as a
    tuple.
    """
    elems = list(itertools.permutations(range(k)))
    shapes = [element_class(g) for g in elems]
    names = list(dict.fromkeys(shapes))
    of_class = [[e for e, shape in enumerate(shapes) if shape == name] for name in names]
    sizes = [len(members) for members in of_class]
    pos = [of_class[names.index(shape)].index(e) for e, shape in enumerate(shapes)]
    index = {g: e for e, g in enumerate(elems)}
    inverse = [tuple(sorted(range(k), key=g.__getitem__)) for g in elems]
    conj_pos = [pos[index[tuple(a[b[t]] for t in ai)]] for a, ai in zip(elems, inverse) for b in elems]
    return {
        "class_names": tuple(names),
        "members": [e for members in of_class for e in members],
        "start": [sum(sizes[:c]) for c in range(len(sizes))],
        "sizes": sizes,
        "pos": pos,
        "conj_pos": conj_pos,
    }


def reference_group_tables(k):
    """S_k's products (times |S_k|), inverses and conjugation table, each product a b composed as a tuple."""
    elems = list(itertools.permutations(range(k)))
    q, index = len(elems), {p: e for e, p in enumerate(elems)}
    mul = np.array([index[tuple(a[t] for t in b)] for a in elems for b in elems], np.int64)
    inv = np.argmax(mul.reshape(q, q) == 0, axis=1)  # a b = identity, index 0
    return mul * q, inv, np.array(reference_quotient(k)["conj_pos"])


def reference_pieces(k, n):
    """_pieces's arrays as lists, piece by piece and point by point, from itertools.product.

    The pieces are the class tuples smallest first, ties in tuple order, while
    they stay within the cap; a piece's points run over its classes' members
    with x_1's varying fastest.
    """
    ref = reference_quotient(k)
    sizes = ref["sizes"]
    of_class = [ref["members"][start : start + size] for start, size in zip(ref["start"], sizes)]
    chosen, total = [], 0
    for c in sorted(itertools.product(range(len(sizes)), repeat=n), key=lambda c: math.prod(sizes[t] for t in c)):
        if total + math.prod(sizes[t] for t in c) > MAX_QUOTIENT_POINTS:
            break
        chosen.append(c)
        total += math.prod(sizes[t] for t in c)
    first, piece, homs, weight = [], [], [], []
    for p, c in enumerate(chosen):
        first.append(len(piece))
        for rho in itertools.product(*(of_class[t] for t in reversed(c))):
            rho = rho[::-1]
            piece.append(p)
            homs.append(rho)
            weight.append([math.prod(sizes[t] for t in c[:j]) for j in range(n)])
    by_row = {name: list(map(list, zip(*rows))) for name, rows in (("homs", homs), ("weight", weight))}
    return {"classes": [list(c) for c in chosen], "first": first, "piece": piece, **by_row}


class TestFiniteQuotient:
    @pytest.mark.parametrize("k", [3, 4])
    def test_group_tables_match_the_composed_tuples(self, k):
        got, want = conj_mod._quotient(k), {"name": {3: "S_3", 4: "S_4"}[k], **reference_quotient(k)}
        assert got._fields == tuple(want)
        assert got.name == want["name"] and got.class_names == want["class_names"]
        for field in got._fields[2:]:
            array = getattr(got, field)
            assert array.dtype == np.int64 and array.tolist() == want[field], field
            assert not array.flags.writeable, field

    @pytest.mark.parametrize("k, n", [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4)])
    def test_pieces_match_the_product_of_classes(self, k, n):
        pieces, want = conj_mod._pieces(k, n), reference_pieces(k, n)
        for name, rows in want.items():
            got = getattr(pieces, name)
            assert got.dtype == np.int64 and got.tolist() == rows, name
            assert not got.flags.writeable, name

    @settings(max_examples=30)
    @given(seeded_elems(st.integers(2, 4), 8))
    def test_permutation_matches_the_images_on_s3(self, a):
        assert_matches_reference(a, 3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_permutation_matches_the_images_on_s4(self, seed):
        assert_matches_reference(random_ielem(Lcg(seed), 3, 8), 4)

    def test_permutation_matches_the_images_on_s4_at_rank_4(self):
        assert_matches_reference(random_ielem(Lcg(4), 4, 8), 4)

    @pytest.mark.parametrize("k, n", [(3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5)])
    def test_fold_matches_the_table_evaluation(self, k, n):
        # The identity, every one-letter element and random words.
        rng = Lcg(10 * k + n)
        letters = [collect(n, [Token("y", m, i, eps)]) for m, i in generators(n) for eps in (1, -1)]
        for a in [identity_elem(n), *letters, *(random_ielem(rng, n, 12) for _ in range(8))]:
            assert fold_permutation(a, k).tolist() == table_permutation(a, k).tolist()

    @pytest.mark.parametrize("k, n", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 3), (4, 4), (4, 5)])
    def test_chunk_layout(self, k, n):
        # The chunks tile the points in order, each from a piece's first point
        # and of whole pieces, each small unless it is one piece.
        pieces, chunks = conj_mod._pieces(k, n), conj_mod._chunks(k, n)
        sizes = [len(chunk.piece) for chunk in chunks]
        starts = np.cumsum([0, *sizes[:-1]])
        assert sum(sizes) == len(pieces.piece)
        firsts = set(np.flatnonzero(np.diff(pieces.piece, prepend=-1)).tolist())
        for chunk, start, size in zip(chunks, starts, sizes):
            assert start in firsts and (start + size in firsts or start + size == len(pieces.piece))
            assert chunk.piece.tolist() == pieces.piece[start : start + size].tolist()
            assert size <= CHUNK_POINTS or len(set(chunk.piece.tolist())) == 1
            assert len(chunk.perms) == n * (n + 1) - 2
            for perm in chunk.perms:
                assert sorted(perm.tolist()) == list(range(size)) and not perm.flags.writeable
        if k == 3 and n <= 4:
            assert sizes == [len(pieces.piece)]
        if k == 4 and n in (3, 4):
            assert len(chunks) == 4

    def test_a_refuting_piece_past_the_first_chunk(self):
        # conj-hard's pair 20 (counted from 0) is refuted by S_4's piece 71,
        # which starts at point 2,224, in the second chunk; the first chunk
        # agrees, and the piece is the one that the keys over all the points name.
        x, y, _ = _hard_stream()[20]
        res = conjugacy(x, y)
        assert res.reason == "finite-quotient (S_4) cycle type mismatch on the piece of classes ((12), (12), (12)(34))"
        x_hat, y_hat = (conj_mod._greedy_descent(u)[0] for u in (x, y))
        pieces, chunks = conj_mod._pieces(4, 3), conj_mod._chunks(4, 3)
        assert np.flatnonzero(pieces.piece == 71)[0] == 2224 > len(chunks[0].piece)
        assert conj_mod._quotient_refutation(x_hat, y_hat, 4).reason == res.reason
        keys = [conj_mod._cycle_keys(fold_permutation(u, 4), pieces.piece) for u in (x_hat, y_hat)]
        head = min(map(len, keys))
        differ = np.flatnonzero(keys[0][:head] != keys[1][:head])[0]
        assert min(int(key[differ]) for key in keys) // (len(pieces.piece) + 1) == 71
        first = [next(conj_mod._chunk_permutations(u, 4))[1] for u in (x_hat, y_hat)]
        keys = [conj_mod._cycle_keys(perm, chunks[0].piece) for perm in first]
        assert keys[0].tolist() == keys[1].tolist()

    @settings(max_examples=40)
    @given(st.sampled_from([3, 4, 5]), st.integers(0, 10**6))
    def test_planted_pairs_are_never_refuted(self, n, seed):
        x, y, _ = planted_conjugacy_case(Lcg(seed), n, 8)
        for k in (3, 4):
            assert conj_mod._quotient_refutation(x, y, k) is None

    def test_a_key_that_is_not_invariant_refutes_planted_pairs(self):
        # Negative control for the test above: key each cycle by the element
        # rho(x_1) at its least point instead of by its piece.  That key is
        # not invariant, and planted pairs then come out refuted.
        pieces = conj_mod._pieces(4, 3)
        rng = Lcg(7)
        refuted = 0
        for _ in range(40):
            x, y, _ = planted_conjugacy_case(rng, 3, 8)
            perms = [fold_permutation(u, 4) for u in (x, y)]
            by_piece = [conj_mod._cycle_keys(perm, pieces.piece) for perm in perms]
            by_element = [conj_mod._cycle_keys(perm, pieces.homs[0]) for perm in perms]
            assert by_piece[0].tolist() == by_piece[1].tolist()
            refuted += by_element[0].tolist() != by_element[1].tolist()
        assert refuted >= 20  # 29 of 40 on the pieces of S_4 at rank 3

    @pytest.mark.parametrize("k, n", [(3, 2), (3, 5), (3, 6), (3, 8), (4, 3), (4, 4), (4, 6)])
    def test_budget_rule(self, k, n):
        # Rebuilt from every class tuple: the pieces, smallest first and ties
        # in the order of the class tuples, while the points stay within the
        # cap; each laid out as exactly its points, each once.
        perms = list(itertools.permutations(range(k)))
        names = list(dict.fromkeys(map(element_class, perms)))
        size = [sum(element_class(g) == c for g in perms) for c in names]

        def points(c):
            return math.prod(size[t] for t in c)

        want, total = [], 0
        for c in sorted(itertools.product(range(len(names)), repeat=n), key=lambda c: (points(c), c)):
            if total + points(c) > MAX_QUOTIENT_POINTS:
                break
            want.append(c)
            total += points(c)
        pieces = conj_mod._pieces(k, n)
        assert [tuple(c) for c in pieces.classes.tolist()] == want
        laid_out = {}
        for rho, c in zip(pieces.homs.T.tolist(), pieces.piece.tolist()):
            laid_out.setdefault(c, []).append(tuple(perms[e] for e in rho))
        for c, classes in enumerate(want):
            assert sorted(laid_out[c]) == sorted(brute_piece(k, [names[t] for t in classes]))
        assert len(pieces.piece) == total
        assert np.bincount(pieces.piece).max() == max(map(len, laid_out.values()))

    def test_point_cap(self):
        # S_3 takes every piece up to rank 5, so no refutation of the
        # whole-space cycle type is lost; S_4 takes 107 of its 125 pieces at
        # rank 3 and the smallest pieces at every rank above.
        assert 6**5 <= MAX_QUOTIENT_POINTS
        for n in (2, 3, 4, 5):
            assert len(conj_mod._pieces(3, n).piece) == 6**n
        s4 = conj_mod._pieces(4, 3)
        assert (len(s4.classes), len(s4.piece)) == (107, 7840)
        x = collect(4, parse_word("y(3,1) y(2,1)"))
        y = collect(4, parse_word("y(3,2)^-1 y(3,1) y(3,2) y(2,1)"))
        for k in (3, 4):
            assert PIECE_REASON.fullmatch(conj_mod._quotient_refutation(x, y, k).reason)[1] == str(k)

    def test_h3_pair_is_refuted_by_a_piece(self):
        # The pair that S_3 and S_4 left open on the whole of Hom(F_3, S_k):
        # the whole-space cycle types still agree, one piece's do not.
        x, y = H3_PAIR
        res = conjugacy(x, y)
        assert res.verdict == "not_conjugate"
        assert res.reason == "finite-quotient (S_3) cycle type mismatch on the piece of classes ((), (123), (12))"
        pieces = conj_mod._pieces(3, 3)
        assert len(pieces.piece) == 6**3
        perms = [fold_permutation(u, 3) for u in (x, y)]
        keys = [conj_mod._cycle_keys(perm, pieces.piece) for perm in perms]
        assert sorted(keys[0] % (len(pieces.piece) + 1)) == sorted(keys[1] % (len(pieces.piece) + 1))
        piece = ["()", "(123)", "(12)"]
        assert piece_cycle_type(x, 3, piece) != piece_cycle_type(y, 3, piece)

    def test_an_unrefuted_pair_stays_unknown(self):
        # The stage's limit: a pair that no piece tells apart and no search
        # joins ends unknown, never a fake no.
        x, y = OPEN_PAIR
        for k in (3, 4):
            assert conj_mod._quotient_refutation(x, y, k) is None
        res = conjugacy(x, y)
        assert res.verdict == "unknown"
        assert res.bounds == SearchBudget().as_dict()
        # the full walk's radius and state cap, and no bound that no stage reads
        assert res.as_dict() == {"verdict": "unknown", "bounds": {"gen_radius": 8, "max_states": 60000}}


def test_quotient_refutation_runs_under_optimize(tmp_path):
    # Under -O every assert is stripped; the refutation is explicit code.
    code = """
from pik.conj import conjugacy
from pik.igroup import collect, commutator_elem, imul
from pik.words import parse_word

assert False, "assert statements must be stripped"
x = collect(3, parse_word("y(3,1) y(2,1)"))
y = imul(x, commutator_elem(collect(3, parse_word("y(3,1)")), collect(3, parse_word("y(3,2)"))))
print(conjugacy(x, y).reason)
"""
    proc = run_optimized(code, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "finite-quotient (S_3) cycle type mismatch on the piece of classes ((12), (123), ())"


class TestSearchBudget:
    # max_len and coset bound nothing and are no fields, but are checked alike
    @pytest.mark.parametrize("field", ["max_len", "coset", *SearchBudget().as_dict()])
    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "3"])
    def test_rejects_a_field_that_is_not_a_positive_int(self, field, value):
        with pytest.raises(ConjError, match=field):
            SearchBudget(**{field: value})

    def test_accepts_one(self):
        ones = {field: 1 for field in SearchBudget().as_dict()}
        assert SearchBudget(**ones).as_dict() == ones

    def test_drops_the_arguments_that_bound_nothing(self):
        budget = SearchBudget(gen_radius=3, max_states=400_000, max_len=10, coset=8)
        assert budget == SearchBudget(gen_radius=3, max_states=400_000)
        assert budget.as_dict() == {"gen_radius": 3, "max_states": 400_000}

    def test_the_dropped_arguments_are_no_attributes(self):
        # Neither the budget nor its class can be read as having a max_len or
        # a coset, whatever was passed, and replace keeps only the bounds.
        budget = SearchBudget(max_len=10, coset=3)
        for name in ("max_len", "coset"):
            assert not hasattr(budget, name) and not hasattr(SearchBudget, name)
        assert replace(budget, gen_radius=3) == SearchBudget(gen_radius=3)


# ---------------------------------------------------------------------------
# The walks on letter tuples against the element-level walks they replace.
# ---------------------------------------------------------------------------


def _reference_orbit_walk(x, y, radius, max_states, sizes=None):
    """The orbit walk on IElem states: conj_elem per step, every step tried.

    Appends to ``sizes`` the state count at each depth boundary it passes.
    """
    n = x.n
    steps = []
    for m, i in generators(n):
        s = gen_elem(n, m, i)
        steps += [s, iinv(s)]
    fwd, bwd = {x: None}, {y: None}

    def conjugator_to(table, state):
        acc = identity_elem(n)
        while table[state] is not None:
            state, k = table[state]
            acc = imul(acc, steps[k])
        return acc

    fwd_frontier, bwd_frontier = [x], [y]
    depth = 0
    while fwd_frontier and bwd_frontier and depth < radius and len(fwd) + len(bwd) < max_states:
        if sizes is not None:
            sizes.append(len(fwd) + len(bwd))
        depth += 1
        fwd_side = len(fwd_frontier) <= len(bwd_frontier)
        frontier = fwd_frontier if fwd_side else bwd_frontier
        table, other = (fwd, bwd) if fwd_side else (bwd, fwd)
        new_frontier = []
        for state in frontier:
            for k, s in enumerate(steps):
                nstate = conj_elem(s, state)
                if nstate in table:
                    continue
                table[nstate] = (state, k)
                new_frontier.append(nstate)
                if nstate in other:
                    return imul(iinv(conjugator_to(bwd, nstate)), conjugator_to(fwd, nstate))
        if fwd_side:
            fwd_frontier = new_frontier
        else:
            bwd_frontier = new_frontier
    return None


def _walk_pairs():
    """Planted pairs at n = 3, 4 and x against x [a, b] at n = 3."""
    rng = Lcg(4242)
    pairs = [planted_conjugacy_case(rng, n, 5)[:2] for n in (3, 4) for _ in range(6)]
    while len(pairs) < 18:
        x = random_ielem(rng, 3, 6)
        y = imul(x, commutator_elem(random_ielem(rng, 3, 2), random_ielem(rng, 3, 2)))
        if y != x:
            pairs.append((x, y))
    return pairs


class TestWalksAgainstReference:
    # Both walks stop at a depth boundary once the state count reaches the
    # cap.  A cap equal to one of the reference's boundary counts stops it
    # exactly there, and one more lets it go on; a walk holding any other
    # count at that boundary goes on, or stops, where the reference does not.

    def test_orbit_walk(self):
        found = 0
        for x, y in _walk_pairs():
            sizes = []
            _reference_orbit_walk(x, y, 6, 10**6, sizes)
            for cap in sorted({2, 700, *sizes, *(c + 1 for c in sizes)}):
                path = conj_mod._orbit_walk(x, y, 6, cap)
                got = None if path is None else conj_mod._step_product(x.n, path)
                assert got == _reference_orbit_walk(x, y, 6, cap), (x, y, cap)
                found += got is not None
        assert found  # the comparison covers meets, not only exhausted walks

class TestWalkPruning:
    def test_dropped_steps_commute(self):
        # after move a the orbit walk drops a's inverse and exactly the
        # moves k < a that commute with a, checked here by multiplying
        for n in (2, 3, 4, 5):
            after = conj_mod._walk_steps(n)
            table = after[-1][1]
            assert after[-1][0] == tuple(range(len(table)))
            assert table == tuple((m, i, e) for m, i in generators(n) for e in (1, -1))
            moves = []
            for m, i, e in table:
                moves.append(gen_elem(n, m, i) if e > 0 else iinv(gen_elem(n, m, i)))
            dropped = 0
            for a, t in enumerate(moves):
                ks, steps = after[a]
                assert steps == tuple(table[k] for k in ks)
                for k, s in enumerate(moves):
                    commute = imul(s, t) == imul(t, s)
                    if k == a ^ 1:
                        assert k not in ks
                    elif k not in ks:
                        assert k < a and commute, (n, a, k)
                        dropped += 1
                    else:
                        assert not (k < a and commute), (n, a, k)
            assert dropped or n == 2, n  # y(2,1) and y(2,2) do not commute

    def test_commuting_steps_are_the_presentations(self):
        # the generator pairs the walk prunes as commuting, which it finds by
        # conjugating, are those of the kind-1 and kind-2 relators: the
        # presentation lists every commuting pair of generators
        counts = []
        for n in range(2, 9):
            gens, after = generators(n), conj_mod._walk_steps(n)
            walk = {
                frozenset((gens[k // 2], gens[a // 2]))
                for a in range(len(gens) * 2)
                for k in range(a)
                if k != a ^ 1 and k not in after[a][0]
            }
            relators = {frozenset(((m, i), (r, j))) for kind, m, i, r, j in relator_indices(n) if kind < 3}
            assert walk == relators, n
            counts.append(len(walk))
        assert counts == [0, 4, 16, 41, 85, 155, 259]

    def test_pruned_walk_yields_the_same_meets(self, monkeypatch):
        # every meet, in order, of the pruned orbit walk and of one that
        # tries every step, inverse included, at radius 6 and no state cap
        def every(n, state, made_by):
            return enumerate(_conj_steps(n, state, conj_mod._walk_steps(n)[-1][1]))

        meets = 0
        for x, y in _walk_pairs():
            roots = _SEP.join(x.parts), _SEP.join(y.parts)
            with monkeypatch.context() as patch:
                patch.setattr(conj_mod, "_expand", every)
                full = list(conj_mod._meet_walk(x.n, *roots, 6, 10**7))
            pruned = conj_mod._meet_walk(x.n, *roots, 6, 10**7)
            assert list(pruned) == full, (x, y)
            meets += len(full)
        assert meets

    def test_last_round_yields_the_same_meets(self):
        # every meet, in order, of the walk and of one that stores every
        # state of its last round and keeps (parent, step) links, at each
        # radius up to 6
        meets = 0
        for x, y in _walk_pairs():
            expand = functools.partial(conj_mod._expand, x.n)
            roots = _SEP.join(x.parts), _SEP.join(y.parts)
            for radius in range(1, 7):
                stored = list(_stored_meet_walk(*roots, expand, radius))
                got = list(conj_mod._meet_walk(x.n, *roots, radius, 10**7))
                assert got == stored, (x, y, radius)
                meets += len(stored)
        assert meets

    def test_last_round_stores_only_meets(self):
        # at each meet yielded in the round at depth == radius, read while the
        # walk is suspended on it, every state that round has stored so far
        # is in the other side's table
        stored = 0
        for x, y in _walk_pairs():
            roots = _SEP.join(x.parts), _SEP.join(y.parts)
            for radius in range(1, 7):
                walk = conj_mod._meet_walk(x.n, *roots, radius, 10**7)
                for _ in walk:
                    round_ = walk.gi_frame.f_locals
                    if round_["depth"] == radius:
                        assert all(s in round_["other"] for s in round_["new_frontier"]), (x, y, radius)
                        stored += len(round_["new_frontier"])
        assert stored


def _stored_meet_walk(a_root, b_root, expand, radius):
    """_meet_walk with no state cap, storing every state it makes with a (parent, step) link."""
    fwd, bwd = {a_root: None}, {b_root: None}

    def path(table, state):
        steps = []
        while table[state] is not None:
            state, k = table[state]
            steps.append(k)
        return steps

    frontiers = {True: [(a_root, -1)], False: [(b_root, -1)]}
    for _ in range(radius):
        if not (frontiers[True] and frontiers[False]):
            break
        fwd_side = len(frontiers[True]) <= len(frontiers[False])
        table, other = (fwd, bwd) if fwd_side else (bwd, fwd)
        new_frontier = []
        for state, made_by in frontiers[fwd_side]:
            for k, nstate in expand(state, made_by):
                if nstate in table:
                    continue
                table[nstate] = (state, k)
                new_frontier.append((nstate, k))
                if nstate in other:
                    yield [j ^ 1 for j in reversed(path(bwd, nstate))] + path(fwd, nstate)
        frontiers[fwd_side] = new_frontier


def _pinned_stream():
    """Planted pairs at n = 3 and 4, and x against x [a, b] at n = 3.

    Descent or the plateau decides every planted pair that is not equal,
    so no full generator walk runs.  Five of the x [a, b] pairs
    ended unknown until the finite-quotient stage: pieces of S_3 refute four
    of them (cases 120, 121, 122 and 124) and a piece of S_4 the fifth
    (case 123).
    """
    cases = []
    for n, count in ((3, 40), (4, 80)):
        rng = Lcg(13 + n)
        cases += [planted_conjugacy_case(rng, n, 7) for _ in range(count)]
    rng = Lcg(5)
    while len(cases) < 126:
        x = random_ielem(rng, 3, 6)
        y = imul(x, commutator_elem(random_ielem(rng, 3, 2), random_ielem(rng, 3, 2)))
        if y != x:
            cases.append((x, y, None))
    return cases


# SHA-256 of the JSON of every ConjResult.as_dict() on _pinned_stream(), taken
# when the plateau began to stop at the first state both sides reach; against
# the outputs before it, which joined the sides at the least shared state of
# least length, cases 12, 21, 35, 73 and 101 changed their witness and no
# pair its method.  A change that only makes the search faster keeps it.
PINNED_SHA256 = "0617c3065970f3ca04b3ea5f248babf05751d14c7a959b14ebce97a272ff5d3a"
# SHA-256 of the JSON of the [verdict, reason] list alone: a change of which
# stage decides a pair, or of the witness it finds, keeps it; a change of any
# verdict or reason does not.
VERDICTS_SHA256 = "c6c1d6a95789111364ab37099fc39ff7cfdfa62806be2f084d216fbf882057e3"


class TestPinnedOutputs:
    def test_conjugacy_outputs_are_pinned(self, monkeypatch):
        walk, walks = conj_mod._orbit_walk, []

        def spy(*args):
            walks.append(args)
            return walk(*args)

        monkeypatch.setattr(conj_mod, "_orbit_walk", spy)
        out = [conjugacy(x, y, budget).as_dict() for x, y, budget in _pinned_stream()]
        assert walks == []  # the plateau decides every planted pair that descent leaves open
        assert [d.get("method") for d in out].count("plateau") == 33
        assert [d["verdict"] for d in out].count("unknown") == 0
        reasons = [reason_kind(d.get("reason", "")) for d in out]
        assert reasons.count("finite-quotient (S_3)") == 4
        assert reasons.count("finite-quotient (S_4)") == 1
        verdicts = json.dumps([[d["verdict"], d.get("reason", "")] for d in out]).encode()
        assert hashlib.sha256(verdicts).hexdigest() == VERDICTS_SHA256
        blob = json.dumps(out, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == PINNED_SHA256


def _hard_stream(n=3, count=45):
    """scripts/conj_timings.py's hard_pairs(n, count), each pair with the default budget, None.

    The defaults give conj-hard's 45 pairs.
    """
    return [(x, y, None) for x, y in conj_timings.hard_pairs(n, count)]


# The pinned streams' pairs that end unknown under the default budget, by
# index from 0: no stage of conj.STAGES decides them.  A stage that decides
# one re-pins the verdict list and drops the pair here.
GAMMA3_UNKNOWN = {
    3: [5, 9, 18, 19, 43, 87, 114, 119, 157, 164, 198],
    4: [6, 15, 21, 24, 25, 40, 59, 63, 76, 83, 93],
}
GAMMA3_VERDICTS_SHA256 = {
    3: "f5934817819743fbfe6e62be3a156bee12c853b908e8e94150c7cb40db14cca6",
    4: "1d41fe04f0422abdf3d350982cf17768273b1d383bcb54c1dda22bfc78c8be14",
}
HARD_UNKNOWN = {
    3: [69, 154, 206, 225],
    4: [26, 71, 119, 120, 134],
}
HARD_VERDICTS_SHA256 = {
    3: "51eb79cb539c7870bf189b6acc96644bfe16f50c731b3576ec547fee1a1a49ff",
    4: "68c66bc1929ec8d30c0c8c1be4a7eba21a186c1857f711bd7d3aed73ceca218d",
}


CORE = "level-2 free-conjugacy core mismatch"


def _stream_pin(pairs):
    """What a stream pin holds: the unknown indices, the count per deciding stage and the verdicts' SHA-256."""
    out = [conjugacy(x, y) for x, y, *_ in pairs]
    verdicts = json.dumps([[res.verdict, res.reason or ""] for res in out]).encode()
    return (
        [i for i, res in enumerate(out) if res.verdict == "unknown"],
        Counter(reason_kind(res.reason) if res.reason else res.method or res.verdict for res in out),
        hashlib.sha256(verdicts).hexdigest(),
    )


@pytest.mark.parametrize(
    "n, count, deciders",
    [
        (3, 200, {"finite-quotient (S_3)": 95, "finite-quotient (S_4)": 62, CORE: 30, "descent": 2, "unknown": 11}),
        (4, 100, {"finite-quotient (S_3)": 64, "finite-quotient (S_4)": 21, CORE: 4, "unknown": 11}),
    ],
)
def test_gamma3_streams_are_pinned(n, count, deciders):
    # x against x [[a, b], c]: class 2 cannot tell these sides apart, and the
    # finite quotients decide most of them.  Each verdict and reason is pinned.
    pin = (GAMMA3_UNKNOWN[n], deciders, GAMMA3_VERDICTS_SHA256[n])
    assert _stream_pin(conj_timings.gamma3_pairs(n, count)) == pin


@pytest.mark.parametrize(
    "n, count, deciders",
    [
        (3, 300, {"finite-quotient (S_3)": 190, CORE: 55, "finite-quotient (S_4)": 27, "descent": 12, "plateau": 12, "unknown": 4}),
        (4, 150, {"finite-quotient (S_3)": 122, CORE: 10, "finite-quotient (S_4)": 9, "descent": 3, "plateau": 1, "unknown": 5}),
    ],
)
def test_hard_streams_are_pinned(n, count, deciders):
    # x against x [a, b], conj-hard's draws at rank n, open pairs and all.
    # Each verdict and reason is pinned.
    assert _stream_pin(_hard_stream(n, count)) == (HARD_UNKNOWN[n], deciders, HARD_VERDICTS_SHA256[n])


def _planted_stream():
    """conj-planted's 76 planted pairs for a 15 s run: 38 at n = 3 from Lcg(2003) and 38 at n = 4 from Lcg(2004)."""
    pairs = []
    for n in (3, 4):
        rng = Lcg(2000 + n)
        pairs += [planted_conjugacy_case(rng, n, 8) for _ in range(38)]
    return pairs


def spied_stages(monkeypatch, stream):
    """The stages each pair of stream runs after descent, in order, with the verdicts.

    A finite quotient reads "S_k", or "S_k refutes" when it decides; each
    slack of the plateau reads "plateau", or "plateau meets" at the slack
    that joins the pair; the full walk reads "walk", or "walk meets".
    """
    plateau = conj_mod._plateau_walk
    labels = {
        "S_3": ("S_3", "S_3 refutes"),
        "slack": ("plateau", "plateau meets"),
        "S_4": ("S_4", "S_4 refutes"),
        "full walk": ("walk", "walk meets"),
    }
    log, stages, verdicts = [], [], []

    def plateau_spy(x, y):
        for path in plateau(x, y):
            log.append(("slack", path is not None))
            yield path

    with monkeypatch.context() as patch:
        patch.setattr(conj_mod, "_plateau_walk", plateau_spy)
        spy_stages(patch, log)
        for x, y, budget in stream:
            log.clear()
            verdicts.append(conjugacy(x, y, budget).verdict)
            stages.append(tuple(labels[name][decided] for name, decided in log if name in labels))
    return Counter(stages), Counter(verdicts)


def test_stages_run_in_order(monkeypatch):
    # Every conj-hard pair is non-conjugate.  S_3 runs on each of the 33
    # that descent leaves open and refutes 30; the other 3 pay for the
    # plateau's slack 0 before S_4 refutes them, and no pair reaches a
    # larger slack or an orbit walk.
    stages, verdicts = spied_stages(monkeypatch, _hard_stream())
    assert verdicts == {"not_conjugate": 45}
    assert stages == {
        (): 12,
        ("S_3 refutes",): 30,
        ("S_3", "plateau", "S_4 refutes"): 3,
    }
    # Every conj-planted pair is conjugate: slack 0 joins 20 of the 28 that
    # descent leaves open, none of which pays for S_4, and the larger
    # slacks join the other 8 after S_4 has run on them.
    stages, verdicts = spied_stages(monkeypatch, _planted_stream())
    assert verdicts == {"conjugate": 76}
    assert stages == {
        (): 48,
        ("S_3", "plateau meets"): 20,
        ("S_3", "plateau", "S_4", "plateau meets"): 6,
        ("S_3", "plateau", "S_4", "plateau", "plateau meets"): 2,
    }


def test_plateau_decides_long_planted_pairs(monkeypatch):
    # conj-long-n3's 60 pairs and LONG_PAIR: conjugators drawn as 14
    # generator letters, beyond the default budget's radius of 8.  Each pair
    # that equality and descent leave open is decided by the plateau; 17 of
    # conj-long-n3's pairs ended unknown before it, and LONG_PAIR did too.
    walk, walks = conj_mod._orbit_walk, []

    def spy(*args):
        walks.append(args)
        return walk(*args)

    monkeypatch.setattr(conj_mod, "_orbit_walk", spy)
    pairs = conj_timings.long_pairs() + [LONG_PAIR]
    methods = Counter()
    for x, y in pairs:
        res = conjugacy(x, y)
        assert res.verdict == "conjugate" and conj_elem(res.witness, x) == y
        methods[res.method] += 1
    assert methods == {"equality": 4, "descent": 11, "plateau": 46}
    assert walks == []
    monkeypatch.undo()
    assert conj_mod._orbit_walk(*LONG_PAIR, SearchBudget().gen_radius, SearchBudget().max_states) is None


@settings(max_examples=60, deadline=None)
@given(seeded_elems(st.integers(3, 5), 12))
def test_every_step_keeps_the_length_parity(u):
    # A reduced word's length has the parity of its exponent sum, and the
    # sum over all parts is fixed by the abelianization, which conjugation
    # fixes: so the plateau's odd slacks would join nothing that the even
    # slack below them does not.
    n = u.n
    state = _SEP.join(u.parts)
    for nstate in _conj_steps(n, state, conj_mod._walk_steps(n)[-1][1]):
        assert (len(nstate) - len(state)) % 2 == 0


def test_plateau_tables_rebuild_every_path(monkeypatch):
    # across restarts and slacks, each side's table holds for every state in
    # it a step path from its root, and every meet a walk returns is a state
    # of both sides' tables; a cap of 100 states a walk, which some walks
    # reach, cuts those walks short
    monkeypatch.setattr(conj_mod, "PLATEAU_STATES", 100)
    restarts = meets = 0
    for pair in conj_timings.long_pairs()[:8]:
        us = [conj_mod._greedy_descent(side)[0] for side in pair]
        roots = [_SEP.join(u.parts) for u in us]
        tables = [{root: -1} for root in roots]
        for slack in conj_mod.PLATEAU_SLACKS:
            for side in (0, 1):
                walk = conj_mod._plateau(3, roots[side], tables[side], tables[1 - side], slack)
                meet = next(filter(None, walk), None)  # the walk run to its meet or its end
                if meet is not None:
                    assert meet in tables[0] and meet in tables[1]
                    meets += 1
        for u, table in zip(us, tables):
            restarts += min(map(len, table)) - 1 < sum(map(len, u.parts))
            for state in table:
                c = conj_mod._step_product(3, conj_mod._path(3, table, state))
                assert _SEP.join(conj_elem(c, u).parts) == state
    assert restarts  # plateaus that went below descent's local minimum
    assert meets


def test_plateau_stops_at_the_first_meet(monkeypatch):
    # The states the plateau expands over conj-long-n3's 60 pairs, none of
    # which reaches the full walk: 709 since slack 0 runs before slack 2,
    # whose walks then start from the tables slack 0 filled.  With slacks
    # 2, 4, 6 and 8 alone, in lockstep and stopping at the first state that
    # the other side's table holds, they expanded 860; walking x's side to
    # the end of each slack before y's expanded 1,207, and walking both to
    # the end and then intersecting their least states 2,417.
    expand, expanded = conj_mod._expand, [0]

    def counted_expand(n, state, made_by):
        expanded[0] += 1
        return expand(n, state, made_by)

    monkeypatch.setattr(conj_mod, "_expand", counted_expand)
    monkeypatch.setattr(conj_mod, "_orbit_walk", lambda *args: pytest.fail("the full walk ran"))
    for x, y in conj_timings.long_pairs():
        assert conjugacy(x, y).verdict == "conjugate"
    assert expanded[0] == 709


def test_open_pair_search_work_is_pinned(monkeypatch):
    # conj-hard-n4's open pair, hard pair 26 at rank 4: the plateau expands
    # 3,797 states over its slacks and the full walk 4,344 before the pair
    # ends unknown, counted through _expand as scripts/conj_timings.py counts them
    x, y, _ = _hard_stream(4, 27)[26]
    expand, stage, expanded = conj_mod._expand, [None], Counter()

    def counted_expand(n, state, made_by):
        expanded[stage[0]] += 1
        return expand(n, state, made_by)

    def staged(name, run):
        def entry(call):
            stage[0] = "plateau" if name == "plateau-0" else name
            return run(call)

        return entry

    monkeypatch.setattr(conj_mod, "_expand", counted_expand)
    monkeypatch.setattr(conj_mod, "STAGES", tuple((name, staged(name, run)) for name, run in conj_mod.STAGES))
    assert conjugacy(x, y).verdict == "unknown"
    assert expanded == {"plateau": 3797, "full walk": 4344}


@pytest.mark.parametrize("stream, refutations", [(_hard_stream, 33), (_pinned_stream, 5)])
def test_piece_refutations_rederive(stream, refutations):
    # Every piece a refutation names is rebuilt by brute force, and the
    # original pair's permutations of it, read off the images letter by
    # letter, have different cycle types.
    seen = 0
    for x, y, budget in stream():
        res = conjugacy(x, y, budget)
        m = PIECE_REASON.fullmatch(res.reason or "")
        if m:
            names = m[2].split(", ")
            assert len(names) == x.n
            assert piece_cycle_type(x, int(m[1]), names) != piece_cycle_type(y, int(m[1]), names)
            seen += 1
    assert seen == refutations
