"""Conjugacy decision for the partial inner automorphism group.

The normal form peels conjugation level by level: the bottom level is
ordinary conjugacy in a rank-2 free group, and each higher level is a
twisted conjugacy equation g * a * (b . g^-1) = z in a free factor, the twist
being the action of y's part b below that level, which the already-matched
lower levels of the conjugate equal.

Verdicts are sound by construction:

* ``conjugate`` always ships a witness that has been re-multiplied and
  checked;
* ``not_conjugate`` only cites invariants that are independent of all search
  choices: the abelianization (conjugation acts trivially on it) or the
  forced bottom-level free conjugacy.  The twisted class-2 nilpotent
  quotient obstruction only prunes ladder candidates and never produces a
  verdict;
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

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .igroup import (
    IElem,
    _conj_parts,
    _lower_inverses,
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
    _join,
    _raw,
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
    exponent range at complete levels.  gen_radius and max_states bound the
    generator-metric conjugation walk; ladder_nodes bounds backtracking;
    twisted_states and solutions_per_level bound each twisted-conjugacy
    search and the solutions it yields per level.
    """

    max_len: int = 16
    coset: int = 8
    gen_radius: int = 8
    max_states: int = 60_000
    ladder_nodes: int = 100
    twisted_states: int = 500
    solutions_per_level: int = 8

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConjError(f"budget {name} must be a positive integer, got {value!r}")

    def as_dict(self) -> dict:
        return {
            "max_len": self.max_len,
            "coset": self.coset,
            "gen_radius": self.gen_radius,
            "max_states": self.max_states,
            "ladder_nodes": self.ladder_nodes,
            "twisted_states": self.twisted_states,
            "solutions_per_level": self.solutions_per_level,
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
# Twisted conjugacy at a level: g * a * (b . g^-1) = z, where b is the part of
# y below the level and acts through act_elem.
# ---------------------------------------------------------------------------


def _abel(w: FreeWord) -> list[int]:
    v = [0] * w.rank
    for idx, sign in w.letters:
        v[idx - 1] += sign
    return v


def _deg2_vector(p, nvars: int) -> list[int]:
    monos = list(itertools.product(range(1, nvars + 1), repeat=2))
    return [p.terms.get(m, 0) for m in monos]


def twisted_class2_obstruction(a: FreeWord, z: FreeWord, images: tuple[FreeWord, ...]) -> bool:
    """Solvability of the equation modulo the third lower central term.

    images[l-1] is b . x_l.  Each is a conjugate of x_l, so the twist acts
    trivially on the abelianization and the equation linearizes in the
    abelianization of g, with the degree-2 Magnus data of the twist entering
    through its Johnson matrix.  Exact over Z.
    """
    n = a.rank
    alpha = _abel(a)
    pa = magnus_expand(a, 2).homogeneous(2)
    pz = magnus_expand(z, 2).homogeneous(2)
    rhs = [zz - aa for zz, aa in zip(_deg2_vector(pz, n), _deg2_vector(pa, n))]
    rows = []
    for l, image in enumerate(images, 1):
        dev = multiply(image, invert(gen(n, l)))
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


def _letters(rank: int) -> list[tuple]:
    """The one-letter words x_1, x_1^-1, x_2, ... as letter tuples; 2k+1 inverts 2k."""
    return [((i, s),) for i in range(1, rank + 1) for s in (1, -1)]


def _twisted_bidirectional(
    a: FreeWord, z: FreeWord, b: IElem, budget: SearchBudget, limit: int
) -> list[FreeWord]:
    """Solutions g of g a (b . g^-1) = z found by a two-sided letter walk.

    Forward states are g a (b . g^-1); backward states are u z (b . u^-1);
    a meet at (g, u) yields the candidate u^-1 g, kept once it is verified.
    When a = z the root is a meet, with the empty path.  Steps are the
    letters, with their twisted inverses precomputed.
    """
    rank = a.rank
    letters = _letters(rank)
    twisted_inv = [act_elem(b, gen(rank, i, -s)).letters for ((i, s),) in letters]

    def expand(state: tuple, back: int) -> list:
        return [
            (k, _join(_join(s, state), twisted_inv[k]))
            for k, s in enumerate(letters)
            if k != back
        ]

    found: list[FreeWord] = []
    seen: set[tuple] = set()
    walk = _meet_walk(a.letters, z.letters, expand, budget.max_len, budget.twisted_states)
    for path in itertools.chain([[]] if a == z else [], walk):
        key = functools.reduce(_join, [letters[k] for k in path], ())
        cand = _raw(rank, key)
        if key not in seen and multiply(multiply(cand, a), act_elem(b, invert(cand))) == z:
            seen.add(key)
            found.append(cand)
            if len(found) >= limit:
                break
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
    letters = _letters(rank)
    for _ in range(max_len):
        nxt = []
        for w in frontier:
            for s in letters:
                if w.letters and w.letters[-1] == (s[0][0], -s[0][1]):
                    continue
                ext = FreeWord(rank, w.letters + s)
                nxt.append(ext)
                yield ext
        frontier = nxt


Twist = Optional[tuple[IElem, tuple[FreeWord, ...]]]


def _lower_action(y: IElem, i: int) -> Twist:
    """(b, images) for the part b of y below level i, with images[l-1] = b . y(i,l).

    None when every image is its generator: then b acts as the identity.
    """
    b = lower_part(y, i)
    images = tuple(act_elem(b, gen(i, l)) for l in range(1, i + 1))
    if all(image == gen(i, l) for l, image in enumerate(images, 1)):
        return None
    return b, images


def twisted_solutions(
    a: FreeWord, z: FreeWord, twist: Twist, budget: SearchBudget
) -> Iterator[FreeWord]:
    """Candidate solutions of g a (b . g^-1) = z, best-effort enumeration.

    twist is _lower_action's (b, images), or None for plain conjugacy.
    """
    if twist is None:
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
    b, images = twist
    if not twisted_class2_obstruction(a, z, images):
        return
    yield from _twisted_bidirectional(a, z, b, budget, budget.solutions_per_level)


# ---------------------------------------------------------------------------
# The level ladder.
# ---------------------------------------------------------------------------


class _Exhausted(Exception):
    pass


def _ladder(x: IElem, y: IElem, budget: SearchBudget) -> tuple[IElem, tuple[LevelTrace, ...]]:
    """Returns (witness, trace) on success, or raises _Exhausted when budgets run out.

    Level 2 is plain conjugacy; level i > 2 is twisted by the part of y
    below it, whose data is worked out once here.
    """
    n = x.n
    twists: list[Twist] = [None] + [_lower_action(y, i) for i in range(3, n + 1)]
    nodes = [0]

    def spend() -> None:
        nodes[0] += 1
        if nodes[0] > budget.ladder_nodes:
            raise _Exhausted()

    def solve(i: int, path: list[tuple[FreeWord, FreeWord]]):
        # path holds (a_k, g_k) for the levels k = 2 .. i-1
        if i > n:
            return path
        if i == 2:
            a_i = x.part(2)
        else:
            prefix = IElem(i - 1, tuple([g.letters for _, g in reversed(path)]))
            a_i = act_elem(prefix, x.part(i))
            spend()
        for cand in twisted_solutions(a_i, y.part(i), twists[i - 2], budget):
            spend()
            res = solve(i + 1, path + [(a_i, cand)])
            if res is not None:
                return res
        return None

    path = solve(2, [])
    if path is None:
        raise _Exhausted()
    witness = IElem(n, tuple([g.letters for _, g in reversed(path)]))
    trace = tuple(
        LevelTrace(
            level=i,
            a_word=format_level_word(a_i),
            b_desc=format_ielem(lower_part(y, i)) if i > 2 else "",
            twist_desc="none" if i == 2 else "identity" if twist is None else "partial-inner",
            solution=format_level_word(g),
        )
        for i, (a_i, g), twist in zip(range(2, n + 1), path, twists)
    )
    return witness, trace


# ---------------------------------------------------------------------------
# Generator-metric conjugation walk (bidirectional, complete within radius).
# ---------------------------------------------------------------------------


def _path(table: dict, key: tuple) -> list[int]:
    """The step indices s_k, ..., s_1 of the steps s_1, ..., s_k that led from the root to key."""
    path = []
    link = table[key]
    while link is not None:
        key, step = link
        path.append(step)
        link = table[key]
    return path


def _meet_walk(
    a_root: tuple,
    b_root: tuple,
    expand: Callable[[tuple, int], list[tuple[int, tuple]]],
    radius: int,
    max_states: int,
) -> Iterator[list[int]]:
    """Bidirectional breadth-first search between two roots; yields each meet.

    expand(state, back) lists (k, state after step k) for every step index
    k but back.  Step 2j+1 inverts step 2j, so a state made by step k is not
    expanded by k ^ 1, which leads back to its parent (a root's -1 gives -2,
    which is no step).  Each round grows the side with the smaller frontier
    by one depth; the caps are read only between rounds.  A meet at a state
    reached by g from a_root and by h from b_root is yielded as the steps
    t_1, ..., t_r of h^-1 g, which carries a_root to b_root.  Why this
    finds what a walk trying every step finds: docs/NOTES.md.
    """
    fwd: dict[tuple, Optional[tuple]] = {a_root: None}
    bwd: dict[tuple, Optional[tuple]] = {b_root: None}
    fwd_frontier = [(a_root, -1)]
    bwd_frontier = [(b_root, -1)]
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
        for state, made_by in frontier:
            for k, nstate in expand(state, made_by ^ 1):
                if nstate in table:
                    continue  # cross-pairs are checked at first insertion
                table[nstate] = (state, k)
                new_frontier.append((nstate, k))
                if nstate in other:
                    yield [j ^ 1 for j in reversed(_path(bwd, nstate))] + _path(fwd, nstate)
        if fwd_side:
            fwd_frontier = new_frontier
        else:
            bwd_frontier = new_frontier


def _moves(n: int) -> list[tuple[int, int, int, IElem]]:
    """(m, i, eps, y(m,i)^eps) for each generator; move 2k+1 inverts move 2k."""
    moves = []
    for m, i in generators(n):
        s = gen_elem(n, m, i)
        moves += [(m, i, 1, s), (m, i, -1, iinv(s))]
    return moves


def _orbit_walk(x: IElem, y: IElem, radius: int, max_states: int) -> Optional[IElem]:
    """Bidirectional walk on the conjugation orbit in the generator metric.

    Complete for conjugator generator-length up to the radius (subject to the
    state cap): forward states are g x g^-1, backward states h y h^-1, and a
    meet yields the witness h^-1 g.  States are the parts of normal forms,
    so equal states are equal elements; the caller re-multiplies the witness.
    """
    n = x.n
    moves = _moves(n)

    def expand(parts: tuple, back: int) -> list:
        inv_parts = _lower_inverses(n, parts, n)
        return [
            (k, _conj_parts(n, m, i, eps, parts, inv_parts))
            for k, (m, i, eps, _s) in enumerate(moves)
            if k != back
        ]

    path = next(_meet_walk(x.parts, y.parts, expand, radius, max_states), None)
    if path is None:
        return None
    return functools.reduce(imul, [moves[k][3] for k in path], identity_elem(n))


def _greedy_descent(u: IElem) -> tuple[IElem, IElem]:
    """Shrink u inside its conjugacy class by single-generator conjugations.

    First-improvement descent on total component length; deterministic.
    Returns (u_hat, c) with u_hat = c u c^-1.
    """
    n = u.n
    moves = _moves(n)
    c = identity_elem(n)
    improved = True
    while improved:
        improved = False
        cur = u.total_length()
        for m, i, e, s in moves:
            v = conj_by_gen(n, m, i, e, u)
            if v.total_length() < cur:
                u = v
                c = imul(s, c)
                improved = True
                break
    return u, c


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
    x_hat, cx = _greedy_descent(x)
    y_hat, cy = _greedy_descent(y)

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
        witness, trace = _ladder(x, y, budget)
        _check_witness(witness, x, y)
        return ConjResult("conjugate", witness=witness, levels=trace, method="ladder")
    except _Exhausted:
        pass
    witness = _orbit_walk(x, y, budget.gen_radius, budget.max_states)
    if witness is not None:
        _check_witness(witness, x, y)
        return ConjResult("conjugate", witness=witness, method="generator-walk")
    return ConjResult("unknown", bounds=budget.as_dict())
