import os
import subprocess
import sys
from pathlib import Path

import pytest

import pik.conj as conj_mod
from pik.conj import (
    ConjError,
    SearchBudget,
    conjugacy,
    twisted_abelian_obstruction,
    twisted_class2_obstruction,
    twisted_solutions,
)
from pik.endos import apply as endo_apply, identity_endo, inverse, tau, y_gen
from pik.fuzz import planted_conjugacy_case, random_ielem
from pik.igroup import (
    abelianize,
    collect,
    commutator_elem,
    conj_elem,
    gen_elem,
    generators,
    identity_elem,
    iinv,
    imul,
)
from pik.prng import Lcg
from pik.words import empty, gen, invert, multiply, parse_x_word


SRC = Path(__file__).resolve().parent.parent / "src"


def w(s, rank=2):
    return parse_x_word(s, rank)


def first_solution(a, z, twist, budget=SearchBudget()):
    """The first solution g of g a twist(g^-1) = z that the ladder would try."""
    return next(twisted_solutions(a, z, twist, budget), None)


def solves(g, a, z, twist):
    return multiply(multiply(g, a), endo_apply(twist, invert(g))) == z


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
        if first_solution(a, z, tw) is not None:
            assert ok_somewhere


class TestTwistedConjugate:
    def test_identity_twist_reduces_to_free(self):
        g = first_solution(w("x1 x2"), w("x2 x1"), identity_endo(2))
        assert g is not None
        assert multiply(multiply(g, w("x1 x2")), invert(g)) == w("x2 x1")

    def test_identity_twist_refutes(self):
        assert first_solution(w("x1"), w("x2"), identity_endo(2)) is None

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
        g = first_solution(a, z, tw)
        assert g is not None and solves(g, a, z, tw)

    def test_planted_twisted_instances(self):
        rng = Lcg(808)
        tw_base = y_gen(3, 2, 1)
        tw = tau(parse_x_word("x1 x2", 3))
        for _ in range(25):
            a = random_ielem(rng, 4, 5).part(3)
            g = random_ielem(rng, 4, 5).part(3)
            z = multiply(multiply(g, a), endo_apply(tw, invert(g)))
            sol = first_solution(a, z, tw, SearchBudget(max_len=10, twisted_states=4000))
            assert sol is not None and solves(sol, a, z, tw)


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

    def test_refutations_name_only_the_two_invariants(self, monkeypatch):
        # The twisted obstructions reject ladder candidates but never decide
        # the instance: every "no" cites the abelianization or the level-2 core.
        import pik.conj as conj_mod

        reasons = {
            "abelianization mismatch (conjugation fixes the abelianization)",
            "level-2 free-conjugacy core mismatch",
        }
        pruned = []
        for name in ("twisted_abelian_obstruction", "twisted_class2_obstruction"):
            real = getattr(conj_mod, name)

            def counted(a, z, twist, real=real):
                ok = real(a, z, twist)
                pruned.append(not ok)
                return ok

            monkeypatch.setattr(conj_mod, name, counted)
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
        ]
        budget = SearchBudget(gen_radius=2, max_states=500, ladder_nodes=20, twisted_states=100)
        seen = set()
        for x, y in pairs:
            res = conjugacy(x, y, budget)
            if res.verdict == "not_conjugate":
                assert res.reason in reasons
                seen.add(res.reason)
            elif res.verdict == "conjugate":
                assert conj_elem(res.witness, x) == y
        assert seen == reasons
        assert any(pruned)

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


class TestSearchBudget:
    @pytest.mark.parametrize("field", list(SearchBudget().as_dict()))
    @pytest.mark.parametrize("value", [0, -1, 2.5, True, "3"])
    def test_rejects_a_field_that_is_not_a_positive_int(self, field, value):
        with pytest.raises(ConjError, match=field):
            SearchBudget(**{field: value})

    def test_accepts_one(self):
        ones = {field: 1 for field in SearchBudget().as_dict()}
        assert SearchBudget(**ones).as_dict() == ones


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


def _reference_twisted_walk(a, z, twist, budget, limit):
    """The twisted walk on FreeWord states with eagerly multiplied g-words."""
    rank = a.rank
    letters = [gen(rank, i, s) for i in range(1, rank + 1) for s in (1, -1)]
    twisted_inv = {s.letters: endo_apply(twist, invert(s)) for s in letters}
    fwd, bwd = {a.letters: empty(rank)}, {z.letters: empty(rank)}
    fwd_frontier, bwd_frontier = [a], [z]
    found, seen = [], set()

    def meet(g, u):
        cand = multiply(invert(u), g)
        if cand.letters not in seen and solves(cand, a, z, twist):
            seen.add(cand.letters)
            found.append(cand)

    if a == z:
        meet(empty(rank), empty(rank))
    depth = 0
    while (
        fwd_frontier
        and bwd_frontier
        and depth < budget.max_len
        and len(fwd) + len(bwd) < budget.twisted_states
        and len(found) < limit
    ):
        depth += 1
        fwd_side = len(fwd_frontier) <= len(bwd_frontier)
        frontier = fwd_frontier if fwd_side else bwd_frontier
        table, other = (fwd, bwd) if fwd_side else (bwd, fwd)
        new_frontier = []
        for state in frontier:
            gword = table[state.letters]
            for s in letters:
                nstate = multiply(multiply(s, state), twisted_inv[s.letters])
                if nstate.letters in table:
                    continue
                ng = multiply(s, gword)
                table[nstate.letters] = ng
                new_frontier.append(nstate)
                hit = other.get(nstate.letters)
                if hit is not None:
                    if fwd_side:
                        meet(ng, hit)
                    else:
                        meet(hit, ng)
                if len(found) >= limit:
                    break
            if len(found) >= limit:
                break
        if fwd_side:
            fwd_frontier = new_frontier
        else:
            bwd_frontier = new_frontier
    return found


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
                got = conj_mod._orbit_walk(x, y, 6, cap)
                assert got == _reference_orbit_walk(x, y, 6, cap), (x, y, cap)
                found += got is not None
        assert found  # the comparison covers meets, not only exhausted walks

    def test_twisted_walk(self):
        rng = Lcg(777)
        cases = []
        for n in (3, 4):
            for _ in range(5):
                lower = random_ielem(rng, n, 6)
                twist = conj_mod._level_twist(lower, n)
                a = random_ielem(rng, n, 5).part(n)
                g = random_ielem(rng, n, 3).part(n)
                cases.append((a, multiply(multiply(g, a), endo_apply(twist, invert(g))), twist))
                cases.append((a, random_ielem(rng, n, 5).part(n), twist))
        solved = 0
        for a, z, twist in cases:
            for states in (10, 40, 120, 400):
                for limit in (1, 3):
                    budget = SearchBudget(max_len=6, twisted_states=states)
                    got = conj_mod._twisted_bidirectional(a, z, twist, budget, limit)
                    assert got == _reference_twisted_walk(a, z, twist, budget, limit)
                    solved += bool(got)
        assert solved
