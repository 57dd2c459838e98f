"""Arithmetic in the partial inner automorphism group via its normal form.

An element is a tuple (w_n, ..., w_2) with w_m a freely reduced word in the
level-m free factor H_m (rank m, letter l standing for the generator
y(m, l)).  The tuple is the normal form: elements are equal iff the tuples
are equal componentwise.

Levels interact by conjugation: for j < i the level-j factor normalizes the
level-i factor.  On generators, with the left action a . w = a w a^-1,

    y(j,k)   . y(i,l)  =  y(i,l)                     if k = l or l > j
    y(j,k)   . y(i,l)  =  y(i,k) y(i,l) y(i,k)^-1    if k != l and l <= j

and the inverse conjugator acts by the mirrored formula.  Products collect
lower-level factors to the right across higher levels using this action.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable

from . import endos
from .endos import EndoF
from .words import (
    FreeWord,
    Letter,
    Token,
    WordError,
    _inverse,
    _join,
    _raw as _words_raw,
    empty,
    format_word,
    gen,
    invert,
    multiply,
    parse_word,
)


class IGroupError(ValueError):
    pass


@dataclass(frozen=True)
class IElem:
    """Normal form (w_n, ..., w_2); parts[k] is the level-(n-k) component."""

    n: int
    parts: tuple[FreeWord, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise IGroupError(f"need n >= 2, got {self.n}")
        if len(self.parts) != self.n - 1:
            raise IGroupError(f"need {self.n - 1} components, got {len(self.parts)}")
        for k, w in enumerate(self.parts):
            if w.rank != self.n - k:
                raise IGroupError(f"component at level {self.n - k} must have rank {self.n - k}")

    def part(self, m: int) -> FreeWord:
        """The level-m component, 2 <= m <= n."""
        if not 2 <= m <= self.n:
            raise IGroupError(f"level {m} outside 2..{self.n}")
        return self.parts[self.n - m]

    @property
    def is_identity(self) -> bool:
        return all(w.is_identity for w in self.parts)

    def total_length(self) -> int:
        return sum(len(w) for w in self.parts)


def _raw_elem(n: int, parts: tuple[FreeWord, ...]) -> IElem:
    # internal fast path: parts must already be valid components
    e = object.__new__(IElem)
    object.__setattr__(e, "n", n)
    object.__setattr__(e, "parts", parts)
    return e


def identity_elem(n: int) -> IElem:
    return IElem(n, tuple(empty(m) for m in range(n, 1, -1)))


def from_parts(n: int, parts: dict[int, FreeWord]) -> IElem:
    """Build an element from a {level: word} mapping; missing levels are empty."""
    comps = []
    for m in range(n, 1, -1):
        w = parts.get(m, empty(m))
        if w.rank != m:
            raise IGroupError(f"word for level {m} has rank {w.rank}")
        comps.append(w)
    return IElem(n, tuple(comps))


def gen_elem(n: int, m: int, i: int) -> IElem:
    """The generator y(m, i) as an element."""
    if not (2 <= m <= n and 1 <= i <= m):
        raise IGroupError(f"generator y({m},{i}) invalid for n={n}")
    return from_parts(n, {m: gen(m, i)})


def generators(n: int) -> list[tuple[int, int]]:
    """Generator order (m, i) lexicographic: y(2,1), y(2,2), y(3,1), ..."""
    return [(m, i) for m in range(2, n + 1) for i in range(1, m + 1)]


def gen_index(n: int, m: int, i: int) -> int:
    """1-based flat index of y(m, i) in the documented generator order."""
    if not (2 <= m <= n and 1 <= i <= m):
        raise IGroupError(f"generator y({m},{i}) invalid for n={n}")
    return (m * (m - 1)) // 2 - 1 + i


def rank_of_abelianization(n: int) -> int:
    return (n - 1) * (n + 2) // 2


# ---------------------------------------------------------------------------
# The action of lower levels on higher levels.
# ---------------------------------------------------------------------------


def _conjugate_runs(
    letters: tuple[Letter, ...], j: int, g: tuple[Letter, ...], g_inv: tuple[Letter, ...]
) -> tuple[Letter, ...]:
    """The level-i word ``letters`` acted on by a level-j word with letters g, j < i.

    The action is conjugation by g (read at level i) on the free factor
    <y(i,1..j)> and fixes every y(i,l) with l > j (docs/NOTES.md).  So each
    maximal run r of letters with index <= j becomes g r g^-1, reduced at its
    two seams, and the letters above j stay.  Nothing cancels between pieces:
    a conjugated run is nonempty and shares no generator with its neighbours.
    """
    pieces = []
    start = p = 0
    n = len(letters)
    while p < n:
        if letters[p][0] > j:
            p += 1
            continue
        q = p + 1
        while q < n and letters[q][0] <= j:
            q += 1
        pieces.append(letters[start:p])
        pieces.append(_join(_join(g, letters[p:q]), g_inv))
        start = p = q
    if not pieces:
        return letters
    pieces.append(letters[start:])
    return tuple(itertools.chain.from_iterable(pieces))


def act(a: FreeWord, b: FreeWord) -> FreeWord:
    """a . b = a b a^-1 for a in a lower-level factor, b in a higher one.

    Levels are the ranks: a is a word in H_j with j = a.rank, b in H_i with
    i = b.rank, j < i.  Left action: act(uv, b) = act(u, act(v, b)).
    """
    j, i = a.rank, b.rank
    if not j < i:
        raise IGroupError(f"conjugator level {j} must be below target level {i}")
    return _words_raw(i, _conjugate_runs(b.letters, j, a.letters, _inverse(a.letters)))


def _act_below(u: IElem, letters: tuple[Letter, ...], below: int) -> tuple[Letter, ...]:
    """Act on a word by the components of u strictly below a level, lowest level first."""
    for j in range(2, below):
        g = u.parts[u.n - j].letters
        if g and letters:
            letters = _conjugate_runs(letters, j, g, _inverse(g))
    return letters


def act_elem(u: IElem, b: FreeWord) -> FreeWord:
    """Conjugation of a level-i word by a whole lower element u (u.n < i)."""
    if not u.n < b.rank:
        raise IGroupError(f"element of level {u.n} cannot act on level {b.rank}")
    return _words_raw(b.rank, _act_below(u, b.letters, u.n + 1))


def lower_part(a: IElem, below: int) -> IElem:
    """The sub-normal-form of a strictly below the given level."""
    if not 3 <= below <= a.n + 1:
        raise IGroupError(f"level {below} outside 3..{a.n + 1}")
    return _raw_elem(below - 1, a.parts[a.n - below + 1 :])


# ---------------------------------------------------------------------------
# Group operations: semidirect collection.
# ---------------------------------------------------------------------------


def imul(a: IElem, b: IElem) -> IElem:
    """Product in normal form.

    a_n..a_2 * b_n..b_2 collects level by level: the level-m component of the
    product is a_m * (a_{m-1}...a_2 . b_m), the conjugator acting innermost
    factor first.
    """
    if a.n != b.n:
        raise IGroupError(f"rank mismatch: {a.n} != {b.n}")
    n = a.n
    comps = []
    for m in range(n, 1, -1):
        bm = _act_below(a, b.parts[n - m].letters, m)
        comps.append(multiply(a.parts[n - m], _words_raw(m, bm)))
    return _raw_elem(n, tuple(comps))


def iinv(a: IElem) -> IElem:
    """Inverse in normal form: (w_n R)^-1 = (R^-1 . w_n^-1) R^-1, recursively."""
    n = a.n
    if n == 2:
        return _raw_elem(2, (invert(a.part(2)),))
    rest_inv = iinv(lower_part(a, n))
    top = act_elem(rest_inv, invert(a.part(n)))
    return _raw_elem(n, (top,) + rest_inv.parts)


def conj_elem(g: IElem, x: IElem) -> IElem:
    """g x g^-1."""
    return imul(g, imul(x, iinv(g)))


def conj_by_gen(n: int, m: int, i: int, eps: int, u: IElem) -> IElem:
    """y(m,i)^eps * u * y(m,i)^-eps in one collection pass.

    Levels above m are conjugated run by run, the level-m component becomes
    y u_m (L . y^-1) with L the part of u below m, and lower levels are
    untouched.
    """
    g, g_inv = ((i, eps),), ((i, -eps),)
    parts = list(u.parts)
    for q in range(m + 1, n + 1):
        w = parts[n - q]
        if w.letters:
            parts[n - q] = _words_raw(q, _conjugate_runs(w.letters, m, g, g_inv))
    tail = _words_raw(m, _act_below(u, g_inv, m))
    head = multiply(_words_raw(m, g), u.parts[n - m])
    parts[n - m] = multiply(head, tail)
    return _raw_elem(n, tuple(parts))


def commutator_elem(a: IElem, b: IElem) -> IElem:
    """[a, b] = a^-1 b^-1 a b."""
    return imul(imul(imul(iinv(a), iinv(b)), a), b)


def ipow(a: IElem, e: int) -> IElem:
    if e < 0:
        return ipow(iinv(a), -e)
    acc = identity_elem(a.n)
    for _ in range(e):
        acc = imul(acc, a)
    return acc


# ---------------------------------------------------------------------------
# Words in the generators: collection, the word problem, abelianization.
# ---------------------------------------------------------------------------


def _check_y_token(n: int, t: Token) -> None:
    if t.kind != "y":
        raise WordError(f"expected y-generator, got {t.kind!r}")
    if not (2 <= t.a <= n and 1 <= t.b <= t.a):
        raise WordError(f"generator y({t.a},{t.b}) invalid for n={n}")


def collect(n: int, tokens: Iterable[Token]) -> IElem:
    """Collect a word in the generators y(m,i) to its normal form."""
    acc = identity_elem(n)
    for t in tokens:
        _check_y_token(n, t)
        g = gen_elem(n, t.a, t.b)
        if t.exp < 0:
            g = iinv(g)
        for _ in range(abs(t.exp)):
            acc = imul(acc, g)
    return acc


def parse_ielem(n: int, s: str) -> IElem:
    return collect(n, parse_word(s))


def word_problem(n: int, word_or_tokens) -> bool:
    """True iff the generator word collects to the identity normal form."""
    tokens = parse_word(word_or_tokens) if isinstance(word_or_tokens, str) else word_or_tokens
    return collect(n, tokens).is_identity


def to_endo(a: IElem) -> EndoF:
    """The automorphism of F_n realized by a; a group homomorphism."""
    n = a.n
    acc = endos.identity_endo(n)
    for m in range(n, 1, -1):
        for i, sign in a.part(m).letters:
            e = endos.y_gen(n, m, i)
            acc = endos.compose(acc, e if sign > 0 else endos.inverse(e))
    return acc


def direct_endo(n: int, tokens: Iterable[Token]) -> EndoF:
    """Evaluate a generator word in Aut(F_n) without collecting; oracle for collect."""
    acc = endos.identity_endo(n)
    for t in tokens:
        _check_y_token(n, t)
        e = endos.y_gen(n, t.a, t.b)
        if t.exp < 0:
            e = endos.inverse(e)
        for _ in range(abs(t.exp)):
            acc = endos.compose(acc, e)
    return acc


def abelianize(a: IElem) -> tuple[int, ...]:
    """Exponent-sum vector over the documented generator order; length (n-1)(n+2)/2."""
    vec = [0] * rank_of_abelianization(a.n)
    for m in range(2, a.n + 1):
        for i, sign in a.part(m).letters:
            vec[gen_index(a.n, m, i) - 1] += sign
    return tuple(vec)


def format_level_word(w: FreeWord) -> str:
    """Print a level word with its y(m, l) names; the level is the rank."""
    return format_word(w, lambda l: f"y({w.rank},{l})")


def format_ielem(a: IElem) -> str:
    chunks = [format_level_word(w) for w in a.parts if not w.is_identity]
    return " ".join(chunks) if chunks else ""


# ---------------------------------------------------------------------------
# Defining relation instances (used by tests and the verification driver):
#   (1) [y(m,i), y(r,i)] = 1           2 <= r < m <= n, i <= r
#   (2) [y(m,i), y(r,j)] = 1           2 <= r < i <= m <= n, 1 <= j <= r
#   (3) [y(m,i), y(r,j)] = [y(m,i), y(m,j)]
#                                      2 <= r < m <= n, i <= r, j <= r, j != i
# ---------------------------------------------------------------------------


def relation_instances(n: int) -> list[tuple[str, str]]:
    """(label, word) pairs, each word trivial in the group."""
    out = []
    for r in range(2, n):
        for m in range(r + 1, n + 1):
            for i in range(1, r + 1):
                out.append(
                    (f"(1) m={m} r={r} i={i}", f"y({m},{i})^-1 y({r},{i})^-1 y({m},{i}) y({r},{i})")
                )
            for i in range(r + 1, m + 1):
                for j in range(1, r + 1):
                    out.append(
                        (
                            f"(2) m={m} r={r} i={i} j={j}",
                            f"y({m},{i})^-1 y({r},{j})^-1 y({m},{i}) y({r},{j})",
                        )
                    )
            for i in range(1, r + 1):
                for j in range(1, r + 1):
                    if j == i:
                        continue
                    com1 = f"y({m},{i})^-1 y({r},{j})^-1 y({m},{i}) y({r},{j})"
                    com2inv = f"y({m},{j})^-1 y({m},{i})^-1 y({m},{j}) y({m},{i})"
                    out.append((f"(3) m={m} r={r} i={i} j={j}", f"{com1} {com2inv}"))
    return out
