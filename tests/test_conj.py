import os
import subprocess
import sys
from pathlib import Path

import pytest

from pik.conj import (
    ConjError,
    SearchBudget,
    conjugacy,
    peel,
    peel_product,
    twisted_abelian_obstruction,
    twisted_class2_obstruction,
    twisted_conjugate,
    twisted_solutions,
)
from pik.endos import apply as endo_apply, identity_endo, inverse, tau, y_gen
from pik.fuzz import planted_conjugacy_case, random_ielem
from pik.igroup import (
    abelianize,
    collect,
    conj_elem,
    gen_elem,
    identity_elem,
    iinv,
    imul,
)
from pik.prng import Lcg
from pik.words import empty, gen, invert, multiply, parse_x_word


SRC = Path(__file__).resolve().parent.parent / "src"


def w(s, rank=2):
    return parse_x_word(s, rank)


class TestPeel:
    def test_trivial_upper_levels(self):
        x = collect(3, __import__("pik.words", fromlist=["parse_word"]).parse_word("y(2,1) y(2,2)"))
        levels = peel(x, identity_elem(3))
        assert levels[0].t == x.part(2)
        assert levels[1].a.is_identity and levels[1].t.is_identity

    def test_hand_expansion_n3(self):
        from pik.igroup import act

        x = imul(gen_elem(3, 3, 2), gen_elem(3, 2, 1))
        g = gen_elem(3, 2, 2)  # only g_2 nonempty
        levels = peel(x, g)
        a3 = levels[1].a
        assert a3 == act(g.part(2), x.part(3))

    def test_roundtrip_oracle(self):
        rng = Lcg(2024)
        for n in (3, 4):
            for _ in range(50):
                x = random_ielem(rng, n, 8)
                g = random_ielem(rng, n, 8)
                assert peel_product(x, g) == conj_elem(g, x)


class TestTwistedObstructions:
    def test_abelian_obstruction_identity_twist(self):
        tw = identity_endo(2)
        assert twisted_abelian_obstruction(w("x1 x2"), w("x2 x1"), tw)
        assert not twisted_abelian_obstruction(w("x1"), w("x2"), tw)

    def test_abelian_obstruction_nontrivial_twist(self):
        # twist x1 |-> x1 x2, x2 |-> x2: Id - twistbar has image spanned by (0,-1)
        from pik.endos import automorphism

        tw = automorphism(
            (w("x1 x2"), w("x2")),
            (w("x1 x2^-1"), w("x2")),
        )
        # image of Id - induced map is spanned by (0,-1)
        assert twisted_abelian_obstruction(w("x2"), w("x2 x2"), tw)
        assert not twisted_abelian_obstruction(w("x1"), w("x1 x1"), tw)

    def test_class2_is_sound_on_solvable_cases(self):
        rng = Lcg(31337)
        tw = tau(gen(2, 1))
        for _ in range(40):
            a = random_ielem(rng, 3, 6).part(2)
            g = random_ielem(rng, 3, 6).part(2)
            z = multiply(multiply(g, a), endo_apply(tw, invert(g)))
            assert twisted_abelian_obstruction(a, z, tw)
            assert twisted_class2_obstruction(a, z, tw)

    def test_class2_sound_for_ladder_twists(self):
        # the twists that actually occur: conjugation actions of lower parts
        from pik.conj import _level_twist
        from pik.igroup import lower_part

        rng = Lcg(525)
        for _ in range(30):
            n = 3 + rng.below(2)
            y_elem = random_ielem(rng, n, 6)
            i = n
            tw = _level_twist(y_elem, i)
            a = random_ielem(rng, n, 6).part(i)
            g = random_ielem(rng, n, 6).part(i)
            z = multiply(multiply(g, a), endo_apply(tw, invert(g)))
            assert twisted_abelian_obstruction(a, z, tw)
            assert twisted_class2_obstruction(a, z, tw)

    def test_class2_refutes(self):
        # a and z agree on the abelianization but differ mod the third term
        tw = tau(gen(2, 1))
        a = w("x1")
        z = w("x2 x1 x2^-1 x1 x1^-1")  # = x2 x1 x2^-1, same abelianization
        ok_somewhere = twisted_class2_obstruction(a, z, tw)
        # x2 x1 x2^-1 IS twisted-conjugate to x1 here? verify by search; the
        # obstruction must never contradict an actual solution
        res = twisted_conjugate(a, z, tw)
        if res.status == "found":
            assert ok_somewhere


class TestTwistedConjugate:
    def test_identity_twist_reduces_to_free(self):
        res = twisted_conjugate(w("x1 x2"), w("x2 x1"), identity_endo(2))
        assert res.status == "found"
        assert multiply(multiply(res.witness, w("x1 x2")), invert(res.witness)) == w("x2 x1")

    def test_identity_twist_refutes(self):
        res = twisted_conjugate(w("x1"), w("x2"), identity_endo(2))
        assert res.status == "refuted"

    def test_inner_twist_witness(self):
        # brute-force oracle over |g| <= 2 confirms a witness exists
        tw = tau(gen(2, 1))
        a, z = w("x2"), w("x1^-1 x2 x1")

        def brute():
            frontier = [empty(2)]
            seen = set()
            for _ in range(2):
                nxt = []
                for g in frontier:
                    for i in (1, 2):
                        for s in (1, -1):
                            h = multiply(g, gen(2, i, s))
                            if h.letters not in seen:
                                seen.add(h.letters)
                                nxt.append(h)
                frontier = nxt
            for letters in seen:
                from pik.words import FreeWord

                g = FreeWord(2, letters)
                if multiply(multiply(g, a), endo_apply(tw, invert(g))) == z:
                    return g
            return None

        oracle = brute()
        assert oracle is not None
        res = twisted_conjugate(a, z, tw)
        assert res.status == "found"
        assert multiply(multiply(res.witness, a), endo_apply(tw, invert(res.witness))) == z

    def test_unflagged_twist_rejected(self):
        from pik.endos import EndoF

        bad = EndoF(2, (w("x1"), w("x2")))
        with pytest.raises(ConjError):
            twisted_conjugate(w("x1"), w("x1"), bad)

    def test_planted_twisted_instances(self):
        rng = Lcg(808)
        tw_base = y_gen(3, 2, 1)
        tw = tau(parse_x_word("x1 x2", 3))
        for _ in range(25):
            a = random_ielem(rng, 4, 5).part(3)
            g = random_ielem(rng, 4, 5).part(3)
            z = multiply(multiply(g, a), endo_apply(tw, invert(g)))
            res = twisted_conjugate(a, z, tw, SearchBudget(max_len=10, twisted_states=4000))
            assert res.status == "found"


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
        small = SearchBudget(gen_radius=2, max_states=500, ladder_nodes=20, twisted_states=100)
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
        # an adversarial pair the bounded search cannot settle: same
        # abelianization, conjugate bottom level, but (very likely) not
        # conjugate overall; the verdict must then be unknown, never a fake no
        from pik.words import parse_word

        x = collect(3, parse_word("y(3,1) y(2,1)"))
        y = collect(3, parse_word("y(3,2)^-1 y(3,1) y(3,2) y(2,1)"))
        budget = SearchBudget(gen_radius=2, max_states=300, ladder_nodes=10, twisted_states=60)
        res = conjugacy(x, y, budget)
        assert res.verdict in ("unknown", "conjugate")
        if res.verdict == "unknown":
            assert res.bounds is not None
        else:
            assert conj_elem(res.witness, x) == y

    def test_trace_is_reported(self):
        from pik.words import parse_word

        x = collect(3, parse_word("y(2,1) y(3,1)"))
        g = collect(3, parse_word("y(2,2)"))
        y = conj_elem(g, x)
        res = conjugacy(x, y, SearchBudget())
        assert res.verdict == "conjugate"
        assert conj_elem(res.witness, x) == y


def test_unverified_witness_raises_under_optimize(tmp_path):
    # Under -O every assert is stripped; the witness check must still run.
    code = """
import sys
import pik.conj as conj
from pik.igroup import conj_elem, parse_ielem
from pik.words import WitnessError

assert False, "assert statements must be stripped"
x = parse_ielem(3, "y(3,1) y(3,2)^2 y(2,1)")
y = conj_elem(parse_ielem(3, "y(2,2) y(3,3)"), x)
conj.conj_elem = lambda g, u: u  # corrupted: no witness re-multiplies to y
try:
    res = conj.conjugacy(x, y)
except WitnessError as exc:
    print(exc)
    sys.exit(0)
sys.exit(f"returned {res.verdict} with an unchecked witness")
"""
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert "re-verification" in proc.stdout
