"""Conjugacy decision for the partial inner automorphism group.

`conjugacy` returns the first verdict of the stages of `STAGES`, whose order
the comment above it explains.  Verdicts are sound by construction:

* ``conjugate`` always ships a witness that has been re-multiplied and
  checked;
* ``not_conjugate`` only cites invariants that no conjugation changes: the
  abelianization, the forced bottom-level free conjugacy, or the cycle type
  of the permutation an element induces on a piece {rho : rho(x_j) in C_j
  for every j} of Hom(F_n, Q), for Q = S_3 or S_4 and classes C_j of Q;
* everything else is ``unknown`` with the search budget, every bound of
  which `pik conj decide` takes as a flag.  The full twisted-conjugacy
  decision procedure from the literature is out of scope: bounded verified
  search replaces it and never fakes a "no".
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter, deque
from dataclasses import dataclass
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

# A quotient Q is tried on the pieces {rho : rho(x_j) in C_j} of Hom(F_n, Q),
# smallest first while they have at most this many points in all: every
# piece of S_3 for n <= 5, and the 107 smallest of S_4's 125 at n = 3.
MAX_QUOTIENT_POINTS = 8_000

# The chosen pieces are compared in prefix chunks of whole pieces, each of at
# most this many points unless it is one piece, so a pair that the small
# pieces tell apart pays for none of the large ones.
CHUNK_POINTS = 2_048


@dataclass(frozen=True, init=False)
class SearchBudget:
    """The caps that callers set for the incomplete part of the search.

    gen_radius and max_states bound the generator-metric conjugation walk.
    An unknown reports both, and `pik conj decide` takes each as a flag.
    max_len and coset bound nothing: they are keyword arguments, checked
    like the fields and then dropped, so no budget has them as attributes;
    they are kept only for callers that still pass them.  They go once the
    benchmark's workloads stop passing them (ROADMAP direction 13).
    """

    gen_radius: int
    max_states: int

    def __init__(self, gen_radius: int = 8, max_states: int = 60_000, *, max_len: int = 16, coset: int = 8) -> None:
        bounds = {"gen_radius": gen_radius, "max_states": max_states}
        for name, value in {**bounds, "max_len": max_len, "coset": coset}.items():
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ConjError(f"budget {name} must be a positive integer, got {value!r}")
        for name, value in bounds.items():
            object.__setattr__(self, name, value)

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


class _Quotient(NamedTuple):
    """A finite quotient Q on its element numbers: its name, its classes' names and its tables.

    members lists the elements class by class, each class in element order;
    start[c] and sizes[c] place class c there, and pos[g] is g's position in
    its class.  conj_pos[a * q + b], q = len(members), is the position of
    a b a^-1 in its class.  The arrays are read-only, as every caller shares them.
    """

    name: str
    class_names: tuple[str, ...]
    members: np.ndarray
    start: np.ndarray
    sizes: np.ndarray
    pos: np.ndarray
    conj_pos: np.ndarray


@functools.cache
def _quotient(k: int) -> _Quotient:
    """Q = S_k on the numbers of itertools.permutations(range(k)); the product a b is t -> a[b[t]].

    Products are composed as one array and numbered through each
    permutation's digits in base k, which increase in element order.  The
    classes are the orbits of conjugation, numbered by their least element,
    so the identity's is class 0, and named by `_cycle_notation`.
    """
    elems = np.array(list(itertools.permutations(range(k))))
    q, digits = len(elems), k ** np.arange(k - 1, -1, -1)
    index = np.zeros(k**k, np.int64)
    index[elems @ digits] = np.arange(q)
    mul = index[elems[:, elems] @ digits].ravel()  # elems[a, elems[b]] is a b
    inv = index[np.argsort(elems, axis=1) @ digits]
    conj = mul[mul * q + np.repeat(inv, q)]  # conj[a * q + b] is a b a^-1
    least = conj.reshape(q, q).min(axis=0)  # the least element of each element's class
    cls = np.cumsum(least == np.arange(q))[least] - 1
    members = np.argsort(cls, kind="stable")
    sizes = np.bincount(cls)
    start = np.cumsum(sizes) - sizes
    pos = np.argsort(members) - start[cls]
    names = tuple(_cycle_notation(tuple(elems[g].tolist())) for g in members[start])
    conj_pos = pos[conj]
    for a in (members, start, sizes, pos, conj_pos):
        a.flags.writeable = False
    return _Quotient(f"S_{k}", names, members, start, sizes, pos, conj_pos)


class _Pieces(NamedTuple):
    """The chosen pieces of Hom(F_n, Q), their N points laid end to end.

    classes[c, j] is the class of rho(x_{j+1}) on piece c, first[c] its
    first point, and piece[p] the piece of point p.  homs[j, p] is
    rho(x_{j+1}) at p.  The point of piece c whose x_{j+1} goes to the
    element at position pos_j of its class is first[c] + sum_j pos_j *
    weight[j], weight being given per point.
    """

    classes: np.ndarray
    first: np.ndarray
    piece: np.ndarray
    homs: np.ndarray
    weight: np.ndarray


@functools.cache
def _pieces(k: int, n: int) -> _Pieces:
    """Q's pieces at rank n, Q = `_quotient(k)`, smallest first, while they have at most MAX_QUOTIENT_POINTS points.

    Pieces of equal size come in the lexicographic order of their class
    tuples, and the first piece that would pass the cap ends the choice.
    The number of class tuples of each size up to the cap gives the size of
    the first piece that does not fit, and only the tuples up to that size
    are listed.  A point's position in its piece is a mixed-radix number
    whose first digit is x_1's; the homs are read off it one rank
    coordinate at a time, by divmod along contiguous rows, so each row of
    homs and weight is contiguous for _chunks.  The cached arrays are
    read-only.
    """
    cap = MAX_QUOTIENT_POINTS
    quotient = _quotient(k)
    members, start, sizes = quotient.members, quotient.start, quotient.sizes
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
    first = np.cumsum(size) - size
    base = np.repeat(first, size)
    weight = np.repeat((np.cumprod(radix, axis=1) // radix).T, size, axis=1)
    homs = np.repeat(start[classes].T, size, axis=1)  # each point's class starts, then its homs
    offset = np.arange(len(piece)) - base
    for j, column in enumerate(np.repeat(radix.T, size, axis=1)):
        offset, position = np.divmod(offset, column)
        homs[j] = members[homs[j] + position]
    for a in (classes, first, piece, homs, weight):
        a.flags.writeable = False
    return _Pieces(classes, first, piece, homs, weight)


class _Chunk(NamedTuple):
    """A run of whole chosen pieces, and each generator's permutation of its points.

    perms[r] is the permutation rho -> rho o to_endo(y(m, i)^eps) for step r
    of the step table (`_walk_steps`), on the chunk's points numbered from 0;
    piece[p] is the piece of the chunk's point p, and longest the size of
    its largest piece.
    """

    perms: tuple[np.ndarray, ...]
    piece: np.ndarray
    longest: int


@functools.cache
def _chunks(k: int, n: int) -> tuple[_Chunk, ...]:
    """The chosen pieces of `_quotient(k)` at rank n (`_pieces`) in prefix chunks, with the generators' permutations.

    The chunks tile the points in order, each starting at a piece's first
    point: a chunk of more than CHUNK_POINTS points is cut at the piece start
    nearest its middle, until none is or no piece start lies inside.  Every
    piece is closed under every permutation, so each chunk is.

    to_endo of y(m, i)^-1 sends x_j to x_i x_j x_i^-1 for j <= m and fixes
    x_j above m, so its permutation moves a point by the sum over the rows
    j <= m, j != i, of the shift of rho(x_j)'s position in its class under
    conjugation by rho(x_i), times the row's weight.  Each row's term is one
    table lookup per point, and the generators y(m, i) of one i share these
    sums, which grow one row at a time as m does, so every temporary is a
    row.  y(m, i)'s permutation is the inverse, one scatter.  Step r of the
    step table is y(m, i)^eps with r = m (m - 1) - 4 + 2 i + (eps < 0).  The
    cached arrays are read-only.
    """
    pieces = _pieces(k, n)
    quotient = _quotient(k)
    table, q = quotient.conj_pos, len(quotient.members)
    shift = table - np.tile(table[:q], q)  # position of a b a^-1 less that of b
    homs, weight = pieces.homs, pieces.weight
    firsts = pieces.first.tolist()
    cuts, c = [0, len(pieces.piece)], 0
    while c + 1 < len(cuts):
        lo, hi = cuts[c], cuts[c + 1]
        inside = [p for p in firsts if lo < p < hi]
        if hi - lo > CHUNK_POINTS and inside:
            cuts.insert(c + 1, min(inside, key=lambda p: abs(2 * p - lo - hi)))
        else:
            c += 1
    points = np.arange(len(pieces.piece))
    start = np.repeat(cuts[:-1], np.diff(cuts))  # each point's chunk's first point
    local = points - start
    perms = np.empty((n * (n + 1) - 2, len(points)), np.int64)
    for i in range(1, n + 1):
        by = homs[i - 1] * q  # conjugation by rho(x_i)
        image = points.copy()
        for m in range(1, n + 1):
            if m != i:
                image += shift[by + homs[m - 1]] * weight[m - 1]
            if m >= max(i, 2):
                r = m * (m - 1) - 4 + 2 * i  # y(m, i)'s step; its inverse is step r + 1
                np.subtract(image, start, out=perms[r + 1])
                perms[r][image] = local
    perms.flags.writeable = False
    return tuple(
        _Chunk(tuple(perms[:, lo:hi]), pieces.piece[lo:hi], hi - firsts[pieces.piece[hi - 1]])
        for lo, hi in itertools.pairwise(cuts)
    )


def _chunk_permutations(a: IElem, k: int) -> Iterator[tuple[_Chunk, np.ndarray]]:
    """Each chunk (`_chunks`) and the permutation rho -> rho o to_endo(a) of its points, chunk by chunk.

    a is the product of its normal form's letters, level n first, and
    rho o to_endo(u v) = (rho o to_endo(u)) o to_endo(v), so a's permutation
    applies its letters' permutations in that order: one gather per letter
    (docs/NOTES.md).  A chunk is evaluated only when the caller asks for it.
    """
    steps = [m * (m - 1) - 4 + 2 * i + (s < 0) for m, part in zip(range(a.n, 1, -1), a.parts) for i, s in decode(part)]
    for chunk in _chunks(k, a.n):
        perm = np.arange(len(chunk.piece))
        for r in steps:
            perm = chunk.perms[r][perm]
        yield chunk, perm


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
    """not_conjugate when x and y permute a chosen piece of Hom(F_n, Q), Q = `_quotient(k)`, with different cycle types.

    The chunks are compared in order, and the first whose cycle keys differ
    ends the stage; the reason names the first piece there whose types
    differ, by its classes, which is the first such piece of all.  None when
    every chosen piece (`_pieces`) agrees.
    """
    for (chunk, px), (_, py) in zip(_chunk_permutations(x, k), _chunk_permutations(y, k)):
        cx, cy = (_cycle_keys(perm, chunk.piece, chunk.longest) for perm in (px, py))
        if np.array_equal(cx, cy):
            continue
        # Where the sorted keys first part, the smaller key's piece has types
        # that differ, and every piece before it agrees.
        head = min(len(cx), len(cy))
        differ = np.flatnonzero(cx[:head] != cy[:head])
        at = differ[0] if len(differ) else head
        c = min(int(keys[at]) for keys in (cx, cy) if at < len(keys)) // (len(chunk.piece) + 1)
        quotient = _quotient(k)
        classes = ", ".join(quotient.class_names[t] for t in _pieces(k, x.n).classes[c])
        reason = f"finite-quotient ({quotient.name}) cycle type mismatch on the piece of classes ({classes})"
        return ConjResult("not_conjugate", reason=reason)
    return None


# ---------------------------------------------------------------------------
# The decision procedure.
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class _Call:
    """One conjugacy call's pair and budget, and what its stages leave for the later ones.

    descent sets x_hat, y_hat and the paths undo_y and redo_x that lift a path
    w between them to undo_y + w + redo_x; plateau-0 sets the plateau's slacks.
    """

    x: IElem
    y: IElem
    budget: SearchBudget
    x_hat: Optional[IElem] = None
    y_hat: Optional[IElem] = None
    undo_y: Optional[list[int]] = None
    redo_x: Optional[list[int]] = None
    slacks: Optional[Iterator[Optional[list[int]]]] = None


def _conjugate(c: _Call, path: list[int], method: str) -> ConjResult:
    """The conjugate verdict of a step path from x to y, once its product is re-multiplied; explicit for ``-O``."""
    witness = _step_product(c.x.n, path)
    if conj_elem(witness, c.x) != c.y:
        raise WitnessError("conjugator failed re-verification")
    return ConjResult("conjugate", witness=witness, method=method)


def _equality(c: _Call) -> Optional[ConjResult]:
    return ConjResult("conjugate", witness=identity_elem(c.x.n), method="equality") if c.x == c.y else None


def _abelianization(c: _Call) -> Optional[ConjResult]:
    if abelianize(c.x) == abelianize(c.y):
        return None
    return ConjResult("not_conjugate", reason="abelianization mismatch (conjugation fixes the abelianization)")


def _level2_core(c: _Call) -> Optional[ConjResult]:
    # The bottom-level equation g_2 w_2 g_2^-1 = z_2 is forced; free conjugacy decides it completely.
    w2, z2 = c.x.part(2), c.y.part(2)
    if w2.is_identity != z2.is_identity or (not w2.is_identity and free_conjugate(w2, z2) is None):
        return ConjResult("not_conjugate", reason="level-2 free-conjugacy core mismatch")
    return None


def _descent(c: _Call) -> Optional[ConjResult]:
    (c.x_hat, dx), (c.y_hat, dy) = _greedy_descent(c.x), _greedy_descent(c.y)
    c.undo_y, c.redo_x = [k ^ 1 for k in dy], dx[::-1]
    return _conjugate(c, c.undo_y + c.redo_x, "descent") if c.x_hat == c.y_hat else None


def _plateau_slacks(c: _Call, count: Optional[int] = None) -> Optional[ConjResult]:
    """The plateau's next count slacks, or all it has left, on the descended sides; a meet ends its generator."""
    c.slacks = c.slacks or _plateau_walk(c.x_hat, c.y_hat)
    path = next((p for p in itertools.islice(c.slacks, count) if p is not None), None)
    return None if path is None else _conjugate(c, c.undo_y + path + c.redo_x, "plateau")


def _full_walk(c: _Call) -> Optional[ConjResult]:
    path = _orbit_walk(c.x, c.y, c.budget.gen_radius, c.budget.max_states)
    return None if path is None else _conjugate(c, path, "generator-walk")


# conjugacy's stages in the order it runs them; each returns a verdict or
# None.  Every stage after descent but the full walk runs on the descended
# pair, which is shorter.  S_3 is cheap and refutes most pairs that are not
# conjugate.  The plateau's slack 0 joins most conjugate pairs in a few
# expansions, so it runs before S_4, which costs more and never decides a
# conjugate pair.  The full walk runs last, on the original pair, where a
# budget seeded from a planted conjugator's length keeps its guarantee.
# Each stage is sound alone: the order sets only the cost and whose witness
# returns (docs/NOTES.md, "The order of conjugacy's stages").
STAGES: tuple[tuple[str, Callable[[_Call], Optional[ConjResult]]], ...] = (
    ("equality", _equality),
    ("abelianization", _abelianization),
    ("level-2 core", _level2_core),
    ("descent", _descent),
    ("S_3", lambda c: _quotient_refutation(c.x_hat, c.y_hat, 3)),
    ("plateau-0", lambda c: _plateau_slacks(c, 1)),
    ("S_4", lambda c: _quotient_refutation(c.x_hat, c.y_hat, 4)),
    ("plateau", _plateau_slacks),
    ("full walk", _full_walk),
)


def conjugacy(x: IElem, y: IElem, budget: Optional[SearchBudget] = None) -> ConjResult:
    """Sound verdicts only: the first verdict of the stages of `STAGES`, else unknown with the budget's bounds."""
    if x.n != y.n:
        raise ConjError(f"rank mismatch: {x.n} != {y.n}")
    call = _Call(x, y, budget or SearchBudget())
    for _, stage in STAGES:
        if (res := stage(call)) is not None:
            return res
    return ConjResult("unknown", bounds=call.budget.as_dict())
