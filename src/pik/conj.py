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
  an element induces on a piece {rho : rho(x_j) in C_j for every j} of
  Hom(F_n, Q), for Q = S_3 or S_4 and classes C_j of Q;
* everything else is ``unknown`` together with the search budget, every
  bound of which `pik conj decide` takes as a flag.  The full
  twisted-conjugacy decision procedure from the literature is out of scope;
  bounded verified search replaces it and never fakes a "no".

Search is layered by cost: greedy descent, then on the descended
representatives the finite quotient S_3, descent over plateaus at slack 0,
the finite quotient S_4 and the plateau's larger slacks, and last a
bidirectional conjugation walk on the original pair in the generator
metric at the budgeted radius.  The plateau stage walks both sides in
lockstep through states no more than a small slack longer than the least
length found, and joins them at the first state that both have reached;
its slacks and cap are module constants.  Slack 0 joins most conjugate
pairs in a few expansions, so S_4, which can never decide a conjugate pair,
runs only on the pairs it leaves open.  For planted instances the walk is
complete once its radius covers the generator length of the planted
conjugator, while max_states does not bind, which is how the acceptance
fuzz seeds its budgets.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, deque
from dataclasses import KW_ONLY, InitVar, dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

import numpy as np

from .igroup import (
    _SEP,
    IElem,
    _conj_steps,
    abelianize,
    collect,
    conj_by_gen,
    conj_elem,
    format_ielem,
    gen_elem,
    generators,
    identity_elem,
)
from .words import Token, WitnessError, decode, free_conjugate


class ConjError(ValueError):
    pass


# The plateau stage's slacks, tried in turn, and its cap on the states each
# side inserts per slack.  Every state of an orbit has the length parity of
# the root (docs/NOTES.md, "Descent over plateaus"), so odd slacks are
# skipped.
PLATEAU_SLACKS = (0, 2, 4, 6, 8)
PLATEAU_STATES = 2_000

# Q = S_k is tried on the pieces {rho : rho(x_j) in C_j} of Hom(F_n, Q),
# smallest first while they have at most this many points in all: every
# piece of S_3 for n <= 5, and the 107 smallest of S_4's 125 at n = 3.
MAX_QUOTIENT_POINTS = 8_000


@dataclass(frozen=True)
class SearchBudget:
    """The caps that callers set for the incomplete part of the search.

    gen_radius and max_states bound the generator-metric conjugation walk.
    An unknown reports both, and `pik conj decide` takes each as a flag.
    max_len and coset bound nothing: they are keyword arguments, checked
    like the fields and then dropped, kept only for callers that still pass
    them.  They go once the benchmark's workloads stop passing them
    (ROADMAP direction 13).
    """

    gen_radius: int = 8
    max_states: int = 60_000
    _: KW_ONLY
    max_len: InitVar[int] = 16
    coset: InitVar[int] = 8

    def __post_init__(self, max_len: int, coset: int) -> None:
        for name, value in {**self.as_dict(), "max_len": max_len, "coset": coset}.items():
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConjError(f"budget {name} must be a positive integer, got {value!r}")

    def as_dict(self) -> dict:
        return {"gen_radius": self.gen_radius, "max_states": self.max_states}


@dataclass(frozen=True)
class ConjResult:
    verdict: str  # "conjugate" | "not_conjugate" | "unknown"
    witness: Optional[IElem] = None
    reason: Optional[str] = None
    bounds: Optional[dict] = None
    method: str = ""

    def as_dict(self) -> dict:
        out: dict = {"verdict": self.verdict}
        if self.witness is not None:
            out["witness"] = format_ielem(self.witness)
        if self.reason:
            out["reason"] = self.reason
        if self.bounds:
            out["bounds"] = self.bounds
        if self.method:
            out["method"] = self.method
        return out


# ---------------------------------------------------------------------------
# Generator-metric conjugation walk (bidirectional, complete within radius).
# ---------------------------------------------------------------------------


def _path(table: dict[str, int], state: str, step: Callable[[str, int], str]) -> list[int]:
    """The step indices s_k, ..., s_1 of the steps s_1, ..., s_k that led from the root to state.

    table[state] is the step that made state, and step k ^ 1 takes it back
    to its parent.
    """
    path = []
    k = table[state]
    while k != -1:
        path.append(k)
        state = step(state, k ^ 1)
        k = table[state]
    return path


def _meet_walk(
    a_root: str,
    b_root: str,
    expand: Callable[[str, int], Iterable[tuple[int, str]]],
    step: Callable[[str, int], str],
    radius: int,
    max_states: int,
) -> Iterator[list[int]]:
    """Bidirectional breadth-first search between two roots; yields each meet.

    expand(state, made_by) lists (k, state after step k), k increasing, for
    the steps worth trying on a state made by step made_by (-1 at a root),
    and step(state, k) is the state after step k alone.  Step 2j+1 inverts
    step 2j, and no expand tries made_by ^ 1, which leads back to the
    parent, nor a step before made_by that commutes with it (_walk_steps).
    Each table maps a state to the step that made it, -1 at its root.  Each
    round grows the side with the smaller frontier by one depth; the caps
    are read only between rounds, and the round at depth radius stores only
    its meets, in a frontier that is never expanded.  A meet at a state
    reached by g from a_root and by h from b_root is yielded as the steps
    t_1, ..., t_r of h^-1 g, which carries a_root to b_root.  Why this finds
    what a walk trying every step finds: docs/NOTES.md.
    """
    fwd = {a_root: -1}
    bwd = {b_root: -1}
    fwd_frontier = [a_root]
    bwd_frontier = [b_root]

    def meet(state: str) -> list[int]:
        return [j ^ 1 for j in reversed(_path(bwd, state, step))] + _path(fwd, state, step)

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
        last = depth == radius  # a state that is no meet is never read after the last round
        new_frontier = []
        for state in frontier:
            for k, nstate in expand(state, table[state]):
                if nstate in table or last and nstate not in other:
                    continue  # cross-pairs are checked at first insertion
                table[nstate] = k
                new_frontier.append(nstate)
                if nstate in other:
                    yield meet(nstate)
        if fwd_side:
            fwd_frontier = new_frontier
        else:
            bwd_frontier = new_frontier


@functools.cache
def _walk_steps(n: int) -> dict[int, tuple[tuple[int, ...], tuple[tuple[int, int, int], ...]]]:
    """The orbit walk's steps after move a (-1 at a root), as indices and (m, i, eps).

    The moves are those of the generators in `generators` order with
    eps = 1, -1, so move 2j+1 inverts move 2j; [-1][1] is the step table
    that numbers descent's steps and the orbit walk's paths.  Left out are
    a ^ 1 and every move k < a whose generator commutes with a's: a state
    is first inserted by the lexicographically least of its shortest step
    words, which never has "a, then k" (docs/NOTES.md).  Generators y and z
    commute when z y z^-1 = y, which the walk's kernel decides on the state
    of y; imul would add to call counts in the first run only.
    """
    gens = generators(n)
    steps = tuple((m, i, eps) for m, i in gens for eps in (1, -1))
    fixed = []  # fixed[g][h]: generator h conjugates generator g to itself
    for m, i in gens:
        y = _SEP.join(gen_elem(n, m, i).parts)
        fixed.append([c == y for c in _conj_steps(n, y, [(r, j, 1) for r, j in gens])])
    after = {}
    for a in range(-1, len(steps)):
        ks = tuple(k for k in range(len(steps)) if k != a ^ 1 and not (k < a and fixed[k // 2][a // 2]))
        after[a] = (ks, tuple(steps[k] for k in ks))
    return after


def _orbit_expand(n: int) -> Callable[[str, int], Iterable[tuple[int, str]]]:
    """The orbit walk's expand at rank n: a state's conjugates by the steps _walk_steps keeps."""
    after = _walk_steps(n)

    def expand(state: str, made_by: int) -> Iterable[tuple[int, str]]:
        ks, steps = after[made_by]
        return zip(ks, _conj_steps(n, state, steps))

    return expand


def _orbit_step(n: int) -> Callable[[str, int], str]:
    """The orbit walk's step at rank n: a state's conjugate by move k."""
    steps = _walk_steps(n)[-1][1]

    def step(state: str, k: int) -> str:
        return _conj_steps(n, state, (steps[k],))[0]

    return step


def _orbit_walk(x: IElem, y: IElem, radius: int, max_states: int) -> Optional[list[int]]:
    """Bidirectional walk on the conjugation orbit in the generator metric.

    Complete for conjugator generator-length up to the radius (subject to the
    state cap): forward states are g x g^-1, backward states h y h^-1, and a
    meet yields h^-1 g as a path in the step table, or None.  States are the
    parts of normal forms joined into one str, so equal states are equal
    elements; the caller collects and re-multiplies the witness.
    """
    roots = _SEP.join(x.parts), _SEP.join(y.parts)
    return next(_meet_walk(*roots, _orbit_expand(x.n), _orbit_step(x.n), radius, max_states), None)


def _greedy_descent(u: IElem) -> tuple[IElem, list[int]]:
    """Shrink u inside its conjugacy class by single-generator conjugations.

    First-improvement descent on total component length; deterministic.
    Each try asks _conj_steps for one level's moves at once, levels in
    step-table order, and the first shorter successor is taken with
    conj_by_gen: the steps are those of trying one move at a time.
    Returns (u_hat, steps), the steps taken in order, so u_hat = c u c^-1
    with c their product last first.
    """
    n = u.n
    table = _walk_steps(n)[-1][1]
    state, steps = _SEP.join(u.parts), []
    k = 0  # the level's first move; level m has the 2m moves (m, i, +-1)
    while k < len(table):
        level = table[k : k + 2 * table[k][0]]
        for j, nstate in enumerate(_conj_steps(n, state, level), k):
            if len(nstate) < len(state):
                u, state = conj_by_gen(n, *table[j], u), nstate
                steps.append(j)
                k = 0
                break
        else:
            k += len(level)
    return u, steps


def _plateau(
    n: int, root: str, table: dict[str, int], other: dict[str, int], cap: int, slack: int
) -> Iterator[Optional[str]]:
    """The walk on root's plateau at this slack: None after each expanded state, and last the meet, if any.

    Walks breadth-first from root over every step, keeping a state only if
    its length (its letters, len(state) - (n - 2)) is at most L + slack, L
    being the least length found so far; at the first state shorter than L
    it restarts from that state.  It stops at a meet, the first state it
    inserts that other holds, which it yields; when the component is
    exhausted; or after cap inserted states.  No commuting step is pruned:
    that argument is about depth order, not length.  The walk reads only its
    own seen set and queue, so the states it inserts do not depend on what
    runs between its expansions.  table maps each state to the step that
    first made it, is shared across calls, and is never overwritten, so
    _path rebuilds every state's path from the side's root.
    """
    expand = _orbit_expand(n)
    least = len(root) - (n - 2)
    seen, queue = {root}, deque([root])
    inserted = 0
    while queue and inserted < cap:
        for k, nstate in expand(queue.popleft(), -1):
            length = len(nstate) - (n - 2)
            if nstate in seen or length > least + slack:
                continue
            table.setdefault(nstate, k)
            if nstate in other:
                yield nstate
                return
            inserted += 1
            if length < least:
                least, seen, queue = length, {nstate}, deque([nstate])
                break
            seen.add(nstate)
            queue.append(nstate)
        yield None


def _plateau_walk(x: IElem, y: IElem) -> Iterator[Optional[list[int]]]:
    """Paths from x to y through their plateaus, one slack at a time: after each, the steps of h^-1 g or None.

    Each slack of PLATEAU_SLACKS walks x's plateau and y's in lockstep, one
    expanded state each in turn, under PLATEAU_STATES states a side, each
    walk holding the other side's table; the first state that a walk
    inserts and the other table holds joins them, and its path is yielded
    and ends the walk.  A slack that joins nothing yields None, so the
    caller can run other stages between slacks.  It joins every pair, at
    the same slack, that walking x's side to its end and then y's did
    (docs/NOTES.md, "Descent over plateaus"); deque and dict order make the
    meet the same in every process.  One table per side, rooted at x or y,
    survives every restart and slack.
    """
    n = x.n
    roots = _SEP.join(x.parts), _SEP.join(y.parts)
    tables = {roots[0]: -1}, {roots[1]: -1}
    step = _orbit_step(n)
    for slack in PLATEAU_SLACKS:
        walks = (_plateau(n, roots[side], tables[side], tables[1 - side], PLATEAU_STATES, slack) for side in (0, 1))
        meets = itertools.chain.from_iterable(itertools.zip_longest(*walks))
        meet = next((state for state in meets if state is not None), None)
        if meet is not None:
            yield [j ^ 1 for j in reversed(_path(tables[1], meet, step))] + _path(tables[0], meet, step)
            return
        yield None


def _step_product(n: int, path: Iterable[int]) -> IElem:
    """The product, in order, of the steps of path in the step table (_walk_steps)."""
    table = _walk_steps(n)[-1][1]
    return collect(n, [Token("y", *table[k]) for k in path])


# ---------------------------------------------------------------------------
# Finite-quotient refutation: I_n acts on Hom(F_n, Q) by rho -> rho o phi and
# maps each piece {rho : rho(x_j) in C_j} onto itself, so conjugate elements
# permute every piece with equal cycle types (docs/NOTES.md).
# ---------------------------------------------------------------------------

def symmetric_group(k: int) -> tuple[tuple[int, ...], ...]:
    """The elements of S_k as tuples, identity first; the product a b is t -> a[b[t]]."""
    return tuple(itertools.permutations(range(k)))


def _cycle_notation(p: tuple[int, ...]) -> str:
    """p's cycle shape as the cycle notation of a representative on 1..k, longest cycle first."""
    lengths, seen = [], set()
    for start in range(len(p)):
        t, length = start, 0
        while t not in seen:
            seen.add(t)
            t, length = p[t], length + 1
        if length:
            lengths.append(length)
    name, first = "", 1
    for length in sorted(lengths, reverse=True):
        if length > 1:
            name += "(" + "".join(str(first + t) for t in range(length)) + ")"
        first += length
    return name or "()"


@functools.cache
def _classes(k: int) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """S_k's conjugacy classes, numbered in the order their first elements appear.

    Returns each class's name (`_cycle_notation`), the elements listed class
    by class in `symmetric_group` order, where each class starts in that
    list, each class's size, and each element's position inside its class.
    The identity's class is class 0.  The cached arrays are read-only.
    """
    shapes = [_cycle_notation(p) for p in symmetric_group(k)]
    number = {s: c for c, s in enumerate(dict.fromkeys(shapes))}
    cls = np.array([number[s] for s in shapes], np.int64)
    members = np.argsort(cls, kind="stable")
    sizes = np.bincount(cls)
    start = np.cumsum(sizes) - sizes
    pos = np.empty_like(members)
    pos[members] = np.arange(len(members)) - start[cls[members]]
    for a in (members, start, sizes, pos):
        a.flags.writeable = False
    return tuple(number), members, start, sizes, pos


@functools.cache
def _group_tables(k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """S_k's tables on element numbers, flat over pairs a * q + b, q = |S_k|.

    times[a * q + b] = (a b) q, the product already scaled to index the next
    lookup; inv[a] = a^-1; conj_pos[a * q + b] is the position of a b a^-1 in
    its class.  Products are composed as one array and numbered through
    each permutation's digits in base k, which increase in
    `symmetric_group` order.  The cached arrays are read-only, as every
    caller shares them.
    """
    elems = np.array(symmetric_group(k))
    q, digits = len(elems), k ** np.arange(k - 1, -1, -1)
    index = np.zeros(k**k, np.int64)
    index[elems @ digits] = np.arange(q)
    mul = index[elems[:, elems] @ digits].ravel()  # elems[a, elems[b]] is a b
    inv = index[np.argsort(elems, axis=1) @ digits]
    a = np.repeat(np.arange(q), q)
    conj_pos = _classes(k)[4][mul[mul * q + inv[a]]]
    times = mul * q
    for table in (times, inv, conj_pos):
        table.flags.writeable = False
    return times, inv, conj_pos


class _Pieces(NamedTuple):
    """The chosen pieces of Hom(F_n, S_k), their N points laid end to end.

    classes[c, j] is the class of rho(x_{j+1}) on piece c, and piece[p] the
    piece of point p.  homs[j, p] is rho(x_{j+1}) at p and homs_inv[j, p] its
    inverse.  The point of a piece whose x_{j+1} goes to the element at
    position pos_j of its class is base + sum_j pos_j * weight[j], base being
    the piece's first point; base and weight are given per point.
    """

    classes: np.ndarray
    piece: np.ndarray
    homs: np.ndarray
    homs_inv: np.ndarray
    base: np.ndarray
    weight: np.ndarray
    longest: int


@functools.cache
def _pieces(k: int, n: int) -> _Pieces:
    """S_k's pieces at rank n, smallest first, while they have at most MAX_QUOTIENT_POINTS points.

    Pieces of equal size come in the lexicographic order of their class
    tuples, and the first piece that would pass the cap ends the choice.
    The number of class tuples of each size up to the cap gives the size of
    the first piece that does not fit, and only the tuples up to that size
    are listed.  A point's position in its piece is a mixed-radix number
    whose first digit is x_1's; the homs are read off it one rank
    coordinate at a time, by divmod along contiguous rows, so each row of
    homs, homs_inv and weight is contiguous for quotient_permutation.  The
    cached arrays are read-only.
    """
    cap = MAX_QUOTIENT_POINTS
    _, members, start, sizes, _ = _classes(k)
    multiplicity = Counter(sizes.tolist())  # classes of each size
    counts = {1: 1}  # class tuples of each size up to cap
    for _ in range(n):
        grown: dict[int, int] = {}
        for s, count in counts.items():
            for t, m in multiplicity.items():
                if s * t <= cap:
                    grown[s * t] = grown.get(s * t, 0) + count * m
        counts = grown
    points = itertools.accumulate(s * counts[s] for s in sorted(counts))
    limit = next((s for s, total in zip(sorted(counts), points) if total > cap), cap)
    # Prefixes of the tuples up to that size, in lexicographic order; a prefix
    # over it cannot shrink, one under it extends by identity classes.
    tuples, size = np.zeros((1, 0), np.int64), np.ones(1, np.int64)
    for _ in range(n):
        last = np.tile(np.arange(len(sizes)), len(tuples))
        tuples = np.column_stack([np.repeat(tuples, len(sizes), axis=0), last])
        size = np.outer(size, sizes).ravel()
        keep = size <= limit
        tuples, size = tuples[keep], size[keep]
    order = np.argsort(size, kind="stable")
    order = order[np.cumsum(size[order]) <= cap]
    classes, size = tuples[order], size[order]
    piece = np.repeat(np.arange(len(size)), size)
    radix = sizes[classes]
    base = np.repeat(np.cumsum(size) - size, size)
    weight = np.repeat((np.cumprod(radix, axis=1) // radix).T, size, axis=1)
    homs = np.repeat(start[classes].T, size, axis=1)  # each point's class starts, then its homs
    offset = np.arange(len(piece)) - base
    # The radix rows come as one (n, N) temporary: glibc serves it by mmap
    # and, on freeing it, raises its trim threshold, so later quotients do
    # not page-fault their temporaries afresh (docs/NOTES.md).
    for j, column in enumerate(np.repeat(radix.T, size, axis=1)):
        offset, position = np.divmod(offset, column)
        homs[j] = members[homs[j] + position]
    homs_inv = _group_tables(k)[1][homs]
    for a in (classes, piece, homs, homs_inv, base, weight):
        a.flags.writeable = False
    return _Pieces(classes, piece, homs, homs_inv, base, weight, int(size.max()))


def quotient_permutation(a: IElem, k: int) -> np.ndarray:
    """The permutation rho -> rho o to_endo(a) of the chosen pieces of Hom(F_n, S_k), on their points.

    Evaluated from the parts, as igroup._images builds the images: x_j goes to
    P_j x_j P_j^-1 with P_j = V_n ... V_max(j,2), V_m being w_m with every
    sign flipped.  So each point costs sum |w_m| table lookups, not the
    length of the images.  rho o to_endo(a) lies on rho's piece, where its
    point is read off each image's position in its class.
    """
    n = a.n
    times, _, conj_pos = _group_tables(k)
    pieces = _pieces(k, n)
    homs, homs_inv = pieces.homs, pieces.homs_inv
    p = 0  # rho(P_j) |S_k|; the identity, element 0, while P_j is empty
    point = pieces.base.copy()
    for j in range(n, 0, -1):
        if j >= 2:  # P_1 = P_2
            for i, s in decode(a.parts[n - j]):
                p = times[p + (homs_inv[i - 1] if s > 0 else homs[i - 1])]  # times the letter (i, -s) of V_j
        point += conj_pos[p + homs[j - 1]] * pieces.weight[j - 1]
    return point


def _cycle_keys(perm: np.ndarray, key: np.ndarray, longest: int) -> np.ndarray:
    """key * (N + 1) + length for each cycle of perm, key read at its least point; sorted.

    Pointer doubling labels each point with the least point on its cycle:
    after r rounds a label is the least of 2^r consecutive points of the
    cycle.  It stops once 2^r reaches `longest`, which no cycle exceeds, or
    at the first round that changes no label, as then every label is
    already the least point of its cycle (docs/NOTES.md).  Comparing the
    labels' bytes with the last round's tells such a round; a numpy
    reduction would cost more than the rounds it saves on S_3's pieces.
    """
    label = np.arange(len(perm))
    step, reach, last = perm, 1, label.tobytes()
    while reach < longest:
        label = np.minimum(label, label[step])
        before, last = last, label.tobytes()
        if last == before:
            break
        step, reach = step[step], 2 * reach
    length = np.bincount(label, minlength=len(perm))  # the cycle's length at its least point, 0 elsewhere
    least = length > 0
    return np.sort(key[least] * (len(perm) + 1) + length[least])


def _quotient_refutation(x: IElem, y: IElem, k: int) -> Optional[ConjResult]:
    """not_conjugate when x and y permute a chosen piece of Hom(F_n, S_k) with different cycle types.

    The reason names the first such piece by its classes.  None when every
    chosen piece (`_pieces`) agrees.
    """
    pieces = _pieces(k, x.n)
    cx, cy = (_cycle_keys(quotient_permutation(u, k), pieces.piece, pieces.longest) for u in (x, y))
    if np.array_equal(cx, cy):
        return None
    # Where the sorted keys first part, the smaller key's piece has types
    # that differ, and every piece before it agrees.
    head = min(len(cx), len(cy))
    differ = np.flatnonzero(cx[:head] != cy[:head])
    at = differ[0] if len(differ) else head
    c = min(int(keys[at]) for keys in (cx, cy) if at < len(keys)) // (len(pieces.piece) + 1)
    names = _classes(k)[0]
    classes = ", ".join(names[t] for t in pieces.classes[c])
    return ConjResult(
        "not_conjugate", reason=f"finite-quotient (S_{k}) cycle type mismatch on the piece of classes ({classes})"
    )


# ---------------------------------------------------------------------------
# The decision procedure.
# ---------------------------------------------------------------------------


def _conjugate(x: IElem, y: IElem, witness: IElem, method: str) -> ConjResult:
    """The conjugate verdict, once the witness is re-multiplied; explicit so it survives ``python -O``."""
    if conj_elem(witness, x) != y:
        raise WitnessError("conjugator failed re-verification")
    return ConjResult("conjugate", witness=witness, method=method)


def conjugacy(x: IElem, y: IElem, budget: Optional[SearchBudget] = None) -> ConjResult:
    """Sound verdicts only: invariants, then the searches, else unknown.

    The abelianization and the level-2 core refute first.  Greedy descent
    then shrinks both sides inside their classes; matching minima settle the
    instance outright.  Otherwise the cycle types on the pieces of
    Hom(F_n, S_3) may refute the descended pair; the plateau stage
    (_plateau_walk) looks for a witness between its sides at slack 0; the
    pieces of Hom(F_n, S_4) may refute the pair that slack 0 leaves open;
    and the plateau's larger slacks look on.  The completeness walk runs on
    the original pair at the budgeted radius and state cap, so budgets
    seeded from a planted conjugator keep their guarantee; what it leaves
    open is unknown, with the budget's bounds.
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
    n = x.n
    x_hat, dx = _greedy_descent(x)
    y_hat, dy = _greedy_descent(y)
    # With cx and cy the products of the reversed descent steps, a path w
    # from x_hat to y_hat lifts to the witness cy^-1 w cx from x to y.
    undo_y, redo_x = [k ^ 1 for k in dy], dx[::-1]
    if x_hat == y_hat:
        return _conjugate(x, y, _step_product(n, undo_y + redo_x), "descent")
    # The finite quotients run on the descended pair, which is conjugate to
    # the original one and shorter.  S_3 runs first, as it is cheap and
    # refutes most pairs that are not conjugate.  The plateau's slack 0,
    # which joins most conjugate pairs in a few expansions, runs before
    # S_4, which costs more and can never decide a conjugate pair; the
    # larger slacks run after it.  Each stage is sound alone, so the order
    # sets no verdict, only the cost and whose witness returns
    # (docs/NOTES.md, "The order of conjugacy's stages").
    refuted = _quotient_refutation(x_hat, y_hat, 3)
    if refuted is not None:
        return refuted
    # The plateau stage joins the descended representatives through states
    # of near-least length under caps of its own; it carries no completeness
    # guarantee, so the budgeted walk below still runs on the original pair.
    slacks = _plateau_walk(x_hat, y_hat)
    path = next(slacks)
    if path is None:
        refuted = _quotient_refutation(x_hat, y_hat, 4)
        if refuted is not None:
            return refuted
        path = next((p for p in slacks if p is not None), None)
    if path is not None:
        return _conjugate(x, y, _step_product(n, undo_y + path + redo_x), "plateau")
    path = _orbit_walk(x, y, budget.gen_radius, budget.max_states)
    if path is not None:
        return _conjugate(x, y, _step_product(n, path), "generator-walk")
    return ConjResult("unknown", bounds=budget.as_dict())
