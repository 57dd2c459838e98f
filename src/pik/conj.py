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
  choices: the abelianization (conjugation acts trivially on it), the
  forced bottom-level free conjugacy, or the cycle type of the permutation
  an element induces on Hom(F_n, Q) for Q = S_3 or S_4.  The twisted
  class-2 nilpotent quotient obstruction only prunes ladder candidates and
  never produces a verdict;
* everything else is ``unknown`` together with the search budget, every
  bound of which `pik conj decide` takes as a flag.  The full
  twisted-conjugacy decision procedure from the literature is out of scope;
  bounded verified search replaces it and never fakes a "no".

Search is layered by cost: a shallow probe walk between greedily descended
representatives, then the finite quotients S_3 and S_4, then a
bidirectional conjugation walk in the generator metric at the budgeted
radius, and the level ladder last.  The ladder enumerates a centralizer
coset at untwisted levels and, at twisted ones, runs the same walk
restricted to the level's generators, its own caps being module constants.
For planted instances the walk is complete once its radius covers the
generator length of the planted conjugator, which is how the acceptance
fuzz seeds its budgets.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from .igroup import (
    IElem,
    _conj_steps,
    _signed_gen,
    abelianize,
    act_elem,
    conj_by_gen,
    conj_elem,
    format_ielem,
    format_level_word,
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
    _inverse,
    _join,
    _raw,
    centralizer_root,
    decode,
    empty,
    encode,
    free_conjugate,
    gen,
    invert,
    multiply,
    power,
)


class ConjError(ValueError):
    pass


# The ladder's own caps.  No caller sets them, so they are constants and not
# budgets: the ladder spends at most LADDER_NODES backtracking nodes, and each
# twisted-conjugacy search holds at most TWISTED_STATES states and yields at
# most SOLUTIONS_PER_LEVEL solutions.
LADDER_NODES = 100
TWISTED_STATES = 500
SOLUTIONS_PER_LEVEL = 8

# Q = S_k is used only while Hom(F_n, Q) has at most this many points: S_3
# for n <= 5 and S_4 for n <= 3.
MAX_QUOTIENT_POINTS = 20_000


@dataclass(frozen=True)
class SearchBudget:
    """The caps that callers set for the incomplete parts of the search.

    max_len bounds the depth of each twisted-level search, coset the
    centralizer exponent range at complete levels.  gen_radius and
    max_states bound the generator-metric conjugation walk.  An unknown
    reports all four, and `pik conj decide` takes each as a flag.
    """

    max_len: int = 16
    coset: int = 8
    gen_radius: int = 8
    max_states: int = 60_000

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
    for idx, sign in decode(w.letters):
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

    Kept because it costs less than the walks it saves: on conj-hard, where
    the ladder now runs only on the two pairs that every other stage leaves
    open, it rejects all 17 twisted equations, each of which would otherwise
    be walked to the budget for nothing (docs/NOTES.md, "Twisted conjugacy").
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


def _letters(rank: int) -> list[str]:
    """The one-letter words x_1, x_1^-1, x_2, ... as word strs; 2k+1 inverts 2k."""
    return [encode(((i, s),)) for i in range(1, rank + 1) for s in (1, -1)]


def _twisted_bidirectional(
    a: FreeWord, z: FreeWord, b: IElem, max_len: int, max_states: int, limit: int
) -> list[FreeWord]:
    """Solutions g of g a (b . g^-1) = z found by the orbit walk of (a, b) at one level.

    With i = a.rank, y(i,l)^s sends the rank-i element whose top part is a
    and whose lower part is b to y(i,l)^s a (b . y(i,l)^-s) over the same b
    (_conj_steps's formula, as b is below level i).  So the walk under the
    level-i generators alone has forward states g a (b . g^-1) and backward
    states u z (b . u^-1); a meet at (g, u) yields the candidate u^-1 g,
    kept once it is verified.  When a = z the root is a meet, with the
    empty path.
    """
    rank = a.rank
    letters = _letters(rank)
    roots = (a.letters,) + b.parts, (z.letters,) + b.parts
    walk = _meet_walk(*roots, _orbit_expand(rank, rank), max_len, max_states)
    found: list[FreeWord] = []
    seen: set[str] = set()
    for path in itertools.chain([[]] if a == z else [], walk):
        key = functools.reduce(_join, [letters[k] for k in path], "")
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
                if w.letters[-1:] == _inverse(s):
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


def twisted_solutions(a: FreeWord, z: FreeWord, twist: Twist, budget: SearchBudget) -> Iterator[FreeWord]:
    """Candidate solutions of g a (b . g^-1) = z, best-effort enumeration.

    twist is _lower_action's (b, images), or None for plain conjugacy.
    TWISTED_STATES caps the twisted walk's states and the words tried when
    every word solves.
    """
    if twist is None:
        if a.is_identity and z.is_identity:
            yield from itertools.islice(_all_words(a.rank, budget.max_len), TWISTED_STATES)
            return
        g0 = free_conjugate(a, z)
        if g0 is None:
            return
        yield from _coset_solutions(g0, centralizer_root(z), budget)
        return
    b, images = twist
    if not twisted_class2_obstruction(a, z, images):
        return
    yield from _twisted_bidirectional(a, z, b, budget.max_len, TWISTED_STATES, SOLUTIONS_PER_LEVEL)


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
        if nodes[0] > LADDER_NODES:
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
    expand: Callable[[tuple, int], Iterable[tuple[int, tuple]]],
    radius: int,
    max_states: int,
) -> Iterator[list[int]]:
    """Bidirectional breadth-first search between two roots; yields each meet.

    expand(state, made_by) lists (k, state after step k), k increasing, for
    the steps worth trying on a state made by step made_by (-1 at a root).
    Step 2j+1 inverts step 2j, and no expand tries made_by ^ 1, which leads
    back to the parent, nor a step before made_by that commutes with it
    (_walk_steps).  Each round grows the side with the smaller frontier by
    one depth; the caps are read only between rounds.  A meet at a state
    reached by g from a_root and by h from b_root is yielded as the steps
    t_1, ..., t_r of h^-1 g, which carries a_root to b_root.  Why this finds
    what a walk trying every step finds: docs/NOTES.md.
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
            for k, nstate in expand(state, made_by):
                link = (state, k)
                if table.setdefault(nstate, link) is not link:
                    continue  # cross-pairs are checked at first insertion
                new_frontier.append((nstate, k))
                if nstate in other:
                    yield [j ^ 1 for j in reversed(_path(bwd, nstate))] + _path(fwd, nstate)
        if fwd_side:
            fwd_frontier = new_frontier
        else:
            bwd_frontier = new_frontier


@functools.cache
def _moves(n: int) -> tuple[tuple[int, int, int, IElem], ...]:
    """(m, i, eps, y(m,i)^eps) for each generator; move 2k+1 inverts move 2k."""
    return tuple((m, i, eps, _signed_gen(n, m, i, eps)[0]) for m, i in generators(n) for eps in (1, -1))


@functools.cache
def _walk_steps(n: int, low: int = 2) -> dict[int, tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]]:
    """The orbit walk's steps after move a (-1 at a root), as indices and (m, i, eps).

    The moves are those of the generators of level low and above, ordered
    as in _moves.  Left out are a ^ 1 and every move k < a whose generator
    commutes with a's: a state is first inserted by the lexicographically
    least of its shortest step words, which never has "a, then k"
    (docs/NOTES.md).  Generators y and z commute when z y z^-1 = y, which
    the walk's kernel decides on the parts of y; imul would add to call
    counts in the first run only.  Two generators of one level never
    commute, so at low = n only a ^ 1 is left out.
    """
    gens = [(m, i) for m, i in generators(n) if m >= low]
    steps = tuple((m, i, eps) for m, i in gens for eps in (1, -1))
    fixed = []  # fixed[g][h]: generator h conjugates generator g to itself
    for m, i in gens:
        y = _signed_gen(n, m, i, 1)[0].parts
        fixed.append([c == y for c in _conj_steps(n, y, [(r, j, 1) for r, j in gens])])
    after = {}
    for a in range(-1, len(steps)):
        ks = tuple(k for k in range(len(steps)) if k != a ^ 1 and not (k < a and fixed[k // 2][a // 2]))
        after[a] = (ks, tuple(steps[k] for k in ks))
    return after


def _orbit_expand(n: int, low: int = 2) -> Callable[[tuple, int], Iterable[tuple[int, tuple]]]:
    """The orbit walk's expand at rank n: a state's conjugates by the steps _walk_steps keeps."""
    after = _walk_steps(n, low)

    def expand(state: tuple, made_by: int) -> Iterable[tuple[int, tuple]]:
        ks, steps = after[made_by]
        return zip(ks, _conj_steps(n, state, steps))

    return expand


def _orbit_walk(x: IElem, y: IElem, radius: int, max_states: int) -> Optional[IElem]:
    """Bidirectional walk on the conjugation orbit in the generator metric.

    Complete for conjugator generator-length up to the radius (subject to the
    state cap): forward states are g x g^-1, backward states h y h^-1, and a
    meet yields the witness h^-1 g.  States are the parts of normal forms,
    so equal states are equal elements; the caller re-multiplies the witness.
    """
    path = next(_meet_walk(x.parts, y.parts, _orbit_expand(x.n), radius, max_states), None)
    if path is None:
        return None
    moves = _moves(x.n)
    return functools.reduce(imul, [moves[k][3] for k in path], identity_elem(x.n))


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
# Finite-quotient refutation: Aut(F_n) acts on Hom(F_n, Q) by rho -> rho o phi,
# so conjugate elements permute it with equal cycle types (docs/NOTES.md).
# ---------------------------------------------------------------------------

def symmetric_group(k: int) -> tuple[tuple[int, ...], ...]:
    """The elements of S_k as tuples, identity first; the product a b is t -> a[b[t]]."""
    return tuple(itertools.permutations(range(k)))


@functools.cache
def _group_tables(k: int) -> tuple[np.ndarray, np.ndarray]:
    """S_k's flat product table, mul[a * |S_k| + b] = a b, and its table of inverses.

    The cached arrays are read-only, as every caller shares them.
    """
    elems = symmetric_group(k)
    index = {p: e for e, p in enumerate(elems)}
    mul = np.array([index[tuple(a[t] for t in b)] for a in elems for b in elems], np.int64)
    inv = np.argmax(mul.reshape(len(elems), -1) == 0, axis=1)  # a b = identity, index 0
    mul.flags.writeable = inv.flags.writeable = False
    return mul, inv


@functools.cache
def _hom_points(k: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Hom(F_n, S_k) as an (n, |S_k|^n) array of the images of x_1..x_n, and their inverses.

    The points are coded base |S_k|: point p sends x_j to (p // |S_k|^(j-1)) % |S_k|.
    The cached arrays are read-only.
    """
    q = math.factorial(k)
    codes = np.arange(q**n, dtype=np.int64)
    homs = np.stack([(codes // q**j) % q for j in range(n)])
    homs_inv = _group_tables(k)[1][homs]
    homs.flags.writeable = homs_inv.flags.writeable = False
    return homs, homs_inv


def quotient_permutation(a: IElem, k: int) -> np.ndarray:
    """The permutation rho -> rho o to_endo(a) of Hom(F_n, S_k), as an array of point codes.

    Evaluated from the parts, as igroup._images builds the images: x_j goes to
    P_j x_j P_j^-1 with P_j = V_n ... V_max(j,2), V_m being w_m with every
    sign flipped.  So each point costs sum |w_m| table lookups, not the
    length of the images.
    """
    n, q = a.n, math.factorial(k)
    mul, inv = _group_tables(k)
    homs, homs_inv = _hom_points(k, n)
    p = None  # rho(P_j); None while P_j is empty
    code = np.zeros(q**n, np.int64)
    for j in range(n, 0, -1):
        if j >= 2:  # P_1 = P_2
            for i, s in decode(a.parts[n - j]):
                v = homs_inv[i - 1] if s > 0 else homs[i - 1]  # the letter (i, -s) of V_j
                p = v if p is None else mul[p * q + v]
        image = homs[j - 1] if p is None else mul[mul[p * q + homs[j - 1]] * q + inv[p]]
        code += image * q ** (j - 1)
    return code


def _cycle_type(perm: np.ndarray) -> np.ndarray:
    """The number of cycles of each length, indexed by the length.

    Pointer doubling labels each point with the least point on its cycle:
    after r rounds a label is the least of 2^r consecutive points of the
    cycle, and no cycle is longer than the number of points.
    """
    label = np.arange(len(perm))
    step, reach = perm, 1
    while reach < len(perm):
        label = np.minimum(label, label[step])
        step, reach = step[step], 2 * reach
    sizes = np.bincount(label)  # the cycle's length at its least point, 0 elsewhere
    return np.bincount(sizes[sizes > 0])


def _quotient_refutation(x: IElem, y: IElem, k: int) -> Optional[ConjResult]:
    """not_conjugate when x and y permute Hom(F_n, S_k) with different cycle types.

    None when they agree, or when Hom(F_n, S_k) has more than
    MAX_QUOTIENT_POINTS points.
    """
    if math.factorial(k) ** x.n > MAX_QUOTIENT_POINTS:
        return None
    cx, cy = (_cycle_type(quotient_permutation(u, k)) for u in (x, y))
    if np.array_equal(cx, cy):
        return None
    return ConjResult("not_conjugate", reason=f"finite-quotient (S_{k}) cycle type mismatch")


# ---------------------------------------------------------------------------
# The decision procedure.
# ---------------------------------------------------------------------------


def _check_witness(witness: IElem, x: IElem, y: IElem) -> None:
    """Re-multiply a witness before it is returned; explicit so it survives ``python -O``."""
    if conj_elem(witness, x) != y:
        raise WitnessError("conjugator failed re-verification")


def conjugacy(x: IElem, y: IElem, budget: Optional[SearchBudget] = None) -> ConjResult:
    """Sound verdicts only: invariants, then the orbit walk, then the ladder.

    The abelianization and the level-2 core refute first.  Greedy descent
    then shrinks both sides inside their classes; matching minima settle the
    instance outright, and otherwise the descended pair gets a cheap shallow
    probe.  The cycle types on Hom(F_n, S_3), then on Hom(F_n, S_4), refute
    next.  The completeness walk runs on the original pair at the budgeted
    radius, so budgets seeded from a planted conjugator keep their
    guarantee, and the ladder runs last, on what the walk leaves open.
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
    # The finite quotients run on the descended pair, which is conjugate to
    # the original one and shorter.  Then the budgeted walk, and the ladder
    # last: each stage is sound alone, so the order sets no verdict, only the
    # cost and whose witness returns (docs/NOTES.md, "The order of
    # conjugacy's stages").
    for k in (3, 4):
        refuted = _quotient_refutation(x_hat, y_hat, k)
        if refuted is not None:
            return refuted
    witness = _orbit_walk(x, y, budget.gen_radius, budget.max_states)
    if witness is not None:
        _check_witness(witness, x, y)
        return ConjResult("conjugate", witness=witness, method="generator-walk")
    try:
        witness, trace = _ladder(x, y, budget)
    except _Exhausted:
        return ConjResult("unknown", bounds=budget.as_dict())
    _check_witness(witness, x, y)
    return ConjResult("conjugate", witness=witness, levels=trace, method="ladder")
