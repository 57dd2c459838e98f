"""Conjugacy decision for the partial inner automorphism group.

The normal form peels conjugation level by level: the bottom level is
ordinary conjugacy in a rank-2 free group, and each higher level is a
twisted conjugacy equation g * a * phi(g^-1) = z in a free factor, the twist
phi being the conjugation action of the already-matched lower levels.

Verdicts are sound by construction:

* ``conjugate`` always ships a witness that has been re-multiplied and
  checked;
* ``not_conjugate`` only cites invariants that are independent of all search
  choices: the abelianization (conjugation acts trivially on it), the forced
  bottom-level free conjugacy, or a twisted abelianization / nilpotent
  quotient obstruction at the bottom of the ladder;
* everything else is ``unknown`` together with the exhausted bounds.  The
  full twisted-conjugacy decision procedure from the literature is out of
  scope; bounded verified search replaces it and never fakes a "no".

Search is layered: the level ladder with a centralizer-coset enumeration and
bounded twisted searches first, then a bidirectional conjugation walk in the
generator metric.  For planted instances the walk is complete once its
radius covers the generator length of the planted conjugator, which is how
the acceptance fuzz seeds its budgets.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Optional

from .endos import EndoF, apply as endo_apply, automorphism, is_identity as endo_is_identity
from .igroup import (
    IElem,
    abelianize,
    act_elem,
    conj_by_gen,
    conj_elem,
    format_ielem,
    format_level_word,
    gen_elem,
    generators,
    identity_elem,
    iinv,
    imul,
    lower_part,
)
from .lie import IntLattice
from .magnus import magnus_expand
from .words import (
    FreeWord,
    WitnessError,
    centralizer_root,
    empty,
    free_conjugate,
    gen,
    invert,
    multiply,
    power,
)


class ConjError(ValueError):
    pass


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the incomplete parts of the search.

    max_len bounds twisted-level word searches, coset the centralizer
    exponent range at complete levels, nilpotency the Magnus truncation used
    by quotient obstructions.  gen_radius and max_states bound the
    generator-metric conjugation walk; ladder_nodes bounds backtracking.
    """

    max_len: int = 16
    coset: int = 8
    nilpotency: int = 4
    gen_radius: int = 8
    max_states: int = 60_000
    ladder_nodes: int = 100
    twisted_states: int = 500
    solutions_per_level: int = 8

    def as_dict(self) -> dict:
        return {
            "max_len": self.max_len,
            "coset": self.coset,
            "nilpotency": self.nilpotency,
            "gen_radius": self.gen_radius,
            "max_states": self.max_states,
            "ladder_nodes": self.ladder_nodes,
        }


@dataclass(frozen=True)
class LevelTrace:
    level: int
    a_word: str
    b_desc: str
    twist_desc: str
    solution: str

    def as_dict(self) -> dict:
        return {
            "level": self.level,
            "a": self.a_word,
            "b": self.b_desc,
            "twist": self.twist_desc,
            "g": self.solution,
        }


@dataclass(frozen=True)
class ConjResult:
    verdict: str  # "conjugate" | "not_conjugate" | "unknown"
    witness: Optional[IElem] = None
    reason: Optional[str] = None
    bounds: Optional[dict] = None
    levels: tuple[LevelTrace, ...] = ()
    method: str = ""

    def as_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = format_ielem(self.witness)
        if self.reason:
            out["reason"] = self.reason
        if self.bounds:
            out["bounds"] = self.bounds
        if self.levels:
            out["levels"] = [t.as_dict() for t in self.levels]
        if self.method:
            out["method"] = self.method
        return out


# ---------------------------------------------------------------------------
# Peeling: reproduce the level decomposition of g x g^-1.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PeelLevel:
    level: int
    a: FreeWord  # conjugate of x's component by the lower conjugator prefix
    b: Optional[IElem]  # product of the already-produced lower levels
    t: FreeWord  # the resulting normal-form component of g x g^-1


def peel(x: IElem, g: IElem) -> list[PeelLevel]:
    """Per-level components of g x g^-1.

    Level 2 produces t_2 = g_2 w_2 g_2^-1; level i >= 3 produces
    t_i = g_i a_i B g_i^-1 B^-1 with a_i the conjugate of w_i by the lower
    part of g and B the element with components (t_{i-1}, ..., t_2).  The
    tuple (t_n, ..., t_2) is the normal form of g x g^-1.
    """
    if x.n != g.n:
        raise ConjError("rank mismatch")
    n = x.n
    levels: list[PeelLevel] = []
    t2 = multiply(multiply(g.part(2), x.part(2)), invert(g.part(2)))
    levels.append(PeelLevel(2, x.part(2), None, t2))
    for i in range(3, n + 1):
        prefix = lower_part(g, i)
        a_i = act_elem(prefix, x.part(i))
        b_i = IElem(i - 1, tuple(lev.t for lev in reversed(levels)))
        t_i = multiply(multiply(g.part(i), a_i), act_elem(b_i, invert(g.part(i))))
        levels.append(PeelLevel(i, a_i, b_i, t_i))
    return levels


def peel_product(x: IElem, g: IElem) -> IElem:
    """Reassemble the peeled levels into a normal form (round-trip oracle)."""
    levels = peel(x, g)
    return IElem(x.n, tuple(lev.t for lev in reversed(levels)))


# ---------------------------------------------------------------------------
# Twisted conjugacy in a free factor: g * a * twist(g^-1) = z.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwistedResult:
    status: str  # "found" | "refuted" | "unknown"
    witness: Optional[FreeWord] = None
    reason: Optional[str] = None
    bounds: Optional[dict] = None


def _abelianization_rows(twist: EndoF) -> list[list[int]]:
    """Generators of the image lattice of (Id - induced map on Z^rank)."""
    n = twist.rank
    rows = []
    for l in range(1, n + 1):
        col = [0] * n
        col[l - 1] = 1
        for idx, sign in twist.images[l - 1].letters:
            col[idx - 1] -= sign
        rows.append(col)
    return rows


def _abel(w: FreeWord) -> list[int]:
    v = [0] * w.rank
    for idx, sign in w.letters:
        v[idx - 1] += sign
    return v


def _twist_is_ia(twist: EndoF) -> bool:
    return all(
        _abel(im) == [1 if k == l else 0 for k in range(twist.rank)]
        for l, im in enumerate(twist.images)
    )


def twisted_abelian_obstruction(a: FreeWord, z: FreeWord, twist: EndoF) -> bool:
    """True when the equation is solvable on the abelianization level."""
    lat = IntLattice(a.rank)
    lat.add_all(_abelianization_rows(twist))
    rhs = [zz - aa for zz, aa in zip(_abel(z), _abel(a))]
    return lat.contains(rhs)


def _deg2_vector(p, nvars: int) -> list[int]:
    monos = list(itertools.product(range(1, nvars + 1), repeat=2))
    return [p.terms.get(m, 0) for m in monos]


def twisted_class2_obstruction(a: FreeWord, z: FreeWord, twist: EndoF) -> bool:
    """Solvability of the equation modulo the third lower central term.

    Valid for twists acting trivially on the abelianization: there the
    equation linearizes in the abelianization of g, with the degree-2 Magnus
    data of the twist entering through its Johnson matrix.  Exact over Z.
    """
    n = a.rank
    if not _twist_is_ia(twist):
        return True  # obstruction not applicable
    alpha = _abel(a)
    pa = magnus_expand(a, 2).homogeneous(2)
    pz = magnus_expand(z, 2).homogeneous(2)
    rhs = [zz - aa for zz, aa in zip(_deg2_vector(pz, n), _deg2_vector(pa, n))]
    rows = []
    for l in range(1, n + 1):
        dev = multiply(twist.images[l - 1], invert(gen(n, l)))
        jl = _deg2_vector(magnus_expand(dev, 2).homogeneous(2), n)
        row = []
        for i, jcol in enumerate(itertools.product(range(1, n + 1), repeat=2)):
            u, v = jcol
            # coefficient of X_u X_v in e_l (x) alpha - alpha (x) e_l
            val = (alpha[v - 1] if u == l else 0) - (alpha[u - 1] if v == l else 0)
            row.append(val - jl[i])
        rows.append(row)
    lat = IntLattice(n * n)
    lat.add_all(rows)
    return lat.contains(rhs)


def _letter_words(rank: int) -> list[FreeWord]:
    out = []
    for i in range(1, rank + 1):
        out.append(gen(rank, i))
        out.append(gen(rank, i, -1))
    return out


def _twisted_bidirectional(
    a: FreeWord, z: FreeWord, twist: EndoF, budget: SearchBudget, limit: int
) -> list[FreeWord]:
    """Solutions g of g a twist(g^-1) = z found by a two-sided letter walk.

    Forward states are g a twist(g^-1); backward states are u z twist(u^-1);
    a meet at (g, u) yields the verified solution u^-1 g.
    """
    rank = a.rank
    letters = _letter_words(rank)
    twisted_inv = {w.letters: endo_apply(twist, invert(w)) for w in letters}
    fwd: dict[tuple, FreeWord] = {a.letters: empty(rank)}
    bwd: dict[tuple, FreeWord] = {z.letters: empty(rank)}
    fwd_frontier = [a]
    bwd_frontier = [z]
    found: list[FreeWord] = []
    seen: set[tuple] = set()

    def meet(g: FreeWord, u: FreeWord) -> None:
        cand = multiply(invert(u), g)
        key = cand.letters
        if key in seen:
            return
        if multiply(multiply(cand, a), endo_apply(twist, invert(cand))) == z:
            seen.add(key)
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
        table = fwd if fwd_side else bwd
        other = bwd if fwd_side else fwd
        new_frontier = []
        for state in frontier:
            gword = table[state.letters]
            for s in letters:
                nstate = multiply(multiply(s, state), twisted_inv[s.letters])
                if nstate.letters in table:
                    continue  # cross-pairs are checked at first insertion
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


def _coset_solutions(
    g0: FreeWord, root: Optional[FreeWord], budget: SearchBudget
) -> Iterator[FreeWord]:
    """g0 times the centralizer coset, by increasing exponent magnitude."""
    yield g0
    if root is None:
        return
    for k in range(1, budget.coset + 1):
        yield multiply(power(root, k), g0)
        yield multiply(power(root, -k), g0)


def _all_words(rank: int, max_len: int) -> Iterator[FreeWord]:
    """Freely reduced words by length (used when the solution set is all of F)."""
    yield empty(rank)
    frontier = [empty(rank)]
    letters = _letter_words(rank)
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for s in letters:
                if w.letters and w.letters[-1] == (s.letters[0][0], -s.letters[0][1]):
                    continue
                ext = FreeWord(rank, w.letters + s.letters)
                nxt.append(ext)
                yield ext
        frontier = nxt


def twisted_solutions(
    a: FreeWord, z: FreeWord, twist: EndoF, budget: SearchBudget
) -> Iterator[FreeWord]:
    """Candidate solutions of g a twist(g^-1) = z, best-effort enumeration."""
    if endo_is_identity(twist):
        if a.is_identity and z.is_identity:
            count = 0
            for w in _all_words(a.rank, budget.max_len):
                yield w
                count += 1
                if count >= budget.twisted_states:
                    return
            return
        g0 = free_conjugate(a, z)
        if g0 is None:
            return
        yield from _coset_solutions(g0, centralizer_root(z), budget)
        return
    if not twisted_abelian_obstruction(a, z, twist):
        return
    if not twisted_class2_obstruction(a, z, twist):
        return
    yield from _twisted_bidirectional(a, z, twist, budget, budget.solutions_per_level)


def twisted_conjugate(
    a: FreeWord, z: FreeWord, twist: EndoF, budget: Optional[SearchBudget] = None
) -> TwistedResult:
    """Decide g a twist(g^-1) = z as far as the budget allows.

    found(g) is exact and verified.  refuted is only returned from complete
    subcases (identity twist) or from the abelianization / class-2 nilpotent
    obstructions, which hold for every g.  Everything else is unknown.
    """
    budget = budget or SearchBudget()
    if not twist.invertible:
        raise ConjError("twist must be a flagged automorphism")
    if twist.rank != a.rank or a.rank != z.rank:
        raise ConjError("rank mismatch")
    if endo_is_identity(twist):
        g0 = free_conjugate(a, z)
        if g0 is None:
            return TwistedResult("refuted", reason="free-conjugacy core mismatch")
        return TwistedResult("found", witness=g0)
    if not twisted_abelian_obstruction(a, z, twist):
        return TwistedResult("refuted", reason="twisted-abelianization obstruction")
    if not twisted_class2_obstruction(a, z, twist):
        return TwistedResult("refuted", reason="nilpotent quotient obstruction (class 2)")
    sols = _twisted_bidirectional(a, z, twist, budget, 1)
    if sols:
        g = sols[0]
        if multiply(multiply(g, a), endo_apply(twist, invert(g))) != z:
            raise WitnessError("twisted conjugator failed re-verification")
        return TwistedResult("found", witness=g)
    return TwistedResult(
        "unknown",
        bounds={"max_len": budget.max_len, "states": budget.twisted_states},
    )


# ---------------------------------------------------------------------------
# The level ladder.
# ---------------------------------------------------------------------------


class _Exhausted(Exception):
    pass


def _level_twist(y: IElem, i: int) -> EndoF:
    """Conjugation action of the matched lower part of y on the level-i factor."""
    b = lower_part(y, i)
    b_inv = iinv(b)
    images = tuple(act_elem(b, gen(i, l)) for l in range(1, i + 1))
    inv_images = tuple(act_elem(b_inv, gen(i, l)) for l in range(1, i + 1))
    return automorphism(images, inv_images)


def _ladder(x: IElem, y: IElem, budget: SearchBudget):
    """Returns (witness, trace) on success, ("refuted", reason) on sound
    refutation, or raises _Exhausted when budgets run out."""
    n = x.n
    w2, z2 = x.part(2), y.part(2)
    nodes = [0]

    def spend() -> None:
        nodes[0] += 1
        if nodes[0] > budget.ladder_nodes:
            raise _Exhausted()

    def level2_candidates() -> Iterator[FreeWord]:
        if w2.is_identity and z2.is_identity:
            count = 0
            for w in _all_words(2, budget.max_len):
                yield w
                count += 1
                if count >= budget.twisted_states:
                    return
            return
        g0 = free_conjugate(w2, z2)
        if g0 is None:
            return
        yield from _coset_solutions(g0, centralizer_root(z2), budget)

    if w2.is_identity != z2.is_identity or (
        not w2.is_identity and free_conjugate(w2, z2) is None
    ):
        return ("refuted", "level-2 free-conjugacy core mismatch")

    def solve(i: int, gs: list[FreeWord], trace: list[LevelTrace]):
        # gs holds g_2 .. g_{i-1}
        if i > n:
            parts = tuple(reversed(gs))
            return IElem(n, parts), tuple(trace)
        prefix = IElem(i - 1, tuple(reversed(gs)))
        a_i = act_elem(prefix, x.part(i))
        z_i = y.part(i)
        twist = _level_twist(y, i)
        spend()
        for cand in twisted_solutions(a_i, z_i, twist, budget):
            spend()
            res = solve(
                i + 1,
                gs + [cand],
                trace
                + [
                    LevelTrace(
                        level=i,
                        a_word=format_level_word(a_i),
                        b_desc=format_ielem(lower_part(y, i)),
                        twist_desc="identity" if endo_is_identity(twist) else "partial-inner",
                        solution=format_level_word(cand),
                    )
                ],
            )
            if res is not None:
                return res
        return None

    for g2 in level2_candidates():
        spend()
        t = [
            LevelTrace(
                level=2,
                a_word=format_level_word(w2),
                b_desc="",
                twist_desc="none",
                solution=format_level_word(g2),
            )
        ]
        res = solve(3, [g2], t)
        if res is not None:
            return res
    raise _Exhausted()


# ---------------------------------------------------------------------------
# Generator-metric conjugation walk (bidirectional, complete within radius).
# ---------------------------------------------------------------------------


def _orbit_walk(
    x: IElem, y: IElem, radius: int, max_states: int
) -> Optional[IElem]:
    """Bidirectional walk on the conjugation orbit in the generator metric.

    Complete for conjugator generator-length up to the radius (subject to the
    state cap): forward states are g x g^-1, backward states h y h^-1, and a
    meet yields the witness h^-1 g.
    """
    n = x.n
    steps = []
    for m, i in generators(n):
        s = gen_elem(n, m, i)
        steps.append((m, i, 1, s))
        steps.append((m, i, -1, iinv(s)))

    # tables map a state's parts to (parent parts, step index); conjugators
    # are reconstructed only at a meet.
    fwd: dict[tuple, Optional[tuple]] = {x.parts: None}
    bwd: dict[tuple, Optional[tuple]] = {y.parts: None}

    def conjugator_to(table: dict, key: tuple) -> IElem:
        acc = identity_elem(n)
        while True:
            link = table[key]
            if link is None:
                return acc
            key, step_idx = link
            acc = imul(acc, steps[step_idx][3])

    fwd_frontier, bwd_frontier = [x], [y]
    depth = 0
    while (
        fwd_frontier
        and bwd_frontier
        and depth < radius
        and len(fwd) + len(bwd) < max_states
    ):
        depth += 1
        fwd_side = len(fwd_frontier) <= len(bwd_frontier)
        frontier = fwd_frontier if fwd_side else bwd_frontier
        table = fwd if fwd_side else bwd
        other = bwd if fwd_side else fwd
        new_frontier = []
        for state in frontier:
            key = state.parts
            for step_idx, (m, i, eps, _s) in enumerate(steps):
                nstate = conj_by_gen(n, m, i, eps, state)
                nkey = nstate.parts
                if nkey in table:
                    continue
                table[nkey] = (key, step_idx)
                new_frontier.append(nstate)
                if nkey in other:
                    # fwd g: state = g x g^-1 ; bwd h: state = h y h^-1
                    g = conjugator_to(fwd, nkey)
                    h = conjugator_to(bwd, nkey)
                    witness = imul(iinv(h), g)
                    if conj_elem(witness, x) == y:
                        return witness
        if fwd_side:
            fwd_frontier = new_frontier
        else:
            bwd_frontier = new_frontier
    return None


def _greedy_descent(u: IElem) -> tuple[IElem, IElem, int]:
    """Shrink u inside its conjugacy class by single-generator conjugations.

    First-improvement descent on total component length; deterministic.
    Returns (u_hat, c, steps) with u_hat = c u c^-1.
    """
    n = u.n
    moves = [(m, i, e) for (m, i) in generators(n) for e in (1, -1)]
    elems = {
        (m, i, e): (gen_elem(n, m, i) if e > 0 else iinv(gen_elem(n, m, i)))
        for (m, i, e) in moves
    }
    c = identity_elem(n)
    steps = 0
    improved = True
    while improved:
        improved = False
        cur = u.total_length()
        for m, i, e in moves:
            v = conj_by_gen(n, m, i, e, u)
            if v.total_length() < cur:
                u = v
                c = imul(elems[(m, i, e)], c)
                steps += 1
                improved = True
                break
    return u, c, steps


# ---------------------------------------------------------------------------
# The decision procedure.
# ---------------------------------------------------------------------------


def _check_witness(witness: IElem, x: IElem, y: IElem) -> None:
    """Re-multiply a witness before it is returned; explicit so it survives ``python -O``."""
    if conj_elem(witness, x) != y:
        raise WitnessError("conjugator failed re-verification")


def conjugacy(x: IElem, y: IElem, budget: Optional[SearchBudget] = None) -> ConjResult:
    """Sound verdicts only: invariants, then the ladder, then the orbit walk.

    Greedy descent first shrinks both sides inside their classes; matching
    minima settle the instance outright, and otherwise the descended pair
    gets a cheap shallow probe.  The completeness walk runs on the original
    pair at the budgeted radius, so budgets seeded from a planted conjugator
    keep their guarantee.
    """
    budget = budget or SearchBudget()
    if x.n != y.n:
        raise ConjError(f"rank mismatch: {x.n} != {y.n}")
    if x == y:
        return ConjResult("conjugate", witness=identity_elem(x.n), method="equality")
    if abelianize(x) != abelianize(y):
        return ConjResult(
            "not_conjugate",
            reason="abelianization mismatch (conjugation fixes the abelianization)",
        )
    w2, z2 = x.part(2), y.part(2)
    if w2.is_identity != z2.is_identity or (
        not w2.is_identity and free_conjugate(w2, z2) is None
    ):
        # The bottom-level equation g_2 w_2 g_2^-1 = z_2 is forced; classical
        # free conjugacy decides it completely.
        return ConjResult("not_conjugate", reason="level-2 free-conjugacy core mismatch")
    x_hat, cx, kx = _greedy_descent(x)
    y_hat, cy, ky = _greedy_descent(y)

    def mapped(w: IElem) -> IElem:
        # w x_hat w^-1 = y_hat lifts to (cy^-1 w cx) x (cy^-1 w cx)^-1 = y
        return imul(iinv(cy), imul(w, cx))

    if x_hat == y_hat:
        witness = mapped(identity_elem(x.n))
        _check_witness(witness, x, y)
        return ConjResult("conjugate", witness=witness, method="descent")
    # cheap probe between the descended representatives; descent can land in
    # different local minima, so the completeness walk below stays on the
    # original pair with the budgeted radius.
    witness = _orbit_walk(x_hat, y_hat, 4, min(6_000, budget.max_states))
    if witness is not None:
        witness = mapped(witness)
        _check_witness(witness, x, y)
        return ConjResult("conjugate", witness=witness, method="generator-walk")
    try:
        out = _ladder(x, y, budget)
        if isinstance(out, tuple) and out and out[0] == "refuted":
            return ConjResult("not_conjugate", reason=out[1])
        witness, trace = out
        _check_witness(witness, x, y)
        return ConjResult("conjugate", witness=witness, levels=trace, method="ladder")
    except _Exhausted:
        pass
    witness = _orbit_walk(x, y, budget.gen_radius, budget.max_states)
    if witness is not None:
        _check_witness(witness, x, y)
        return ConjResult("conjugate", witness=witness, method="generator-walk")
    return ConjResult("unknown", bounds=budget.as_dict())
