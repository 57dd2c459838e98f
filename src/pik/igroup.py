"""Arithmetic in the partial inner automorphism group via its normal form.

An element is a tuple (w_n, ..., w_2) with w_m a freely reduced word in the
level-m free factor H_m (rank m, letter l standing for the generator
y(m, l)).  The tuple is the normal form: elements are equal iff the tuples
are equal componentwise.  An IElem stores each w_m as a word str of
pik.words, the one encoding that every operation here, the orbit walk's
kernel included, works on; part(m) views it as a rank-m FreeWord for callers
that want the word API.

Levels interact by conjugation: for j < i the level-j factor normalizes the
level-i factor.  On generators, with the left action a . w = a w a^-1,

    y(j,k)   . y(i,l)  =  y(i,l)                     if k = l or l > j
    y(j,k)   . y(i,l)  =  y(i,k) y(i,l) y(i,k)^-1    if k != l and l <= j

and the inverse conjugator acts by the mirrored formula.  Products collect
lower-level factors to the right across higher levels using this action.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable

from . import endos
from .endos import EndoF
from .words import (
    FreeWord,
    Token,
    WordError,
    _inverse,
    _join,
    _raw as _words_raw,
    _runs,
    decode,
    empty,
    encode,
    format_word,
    gen,
    parse_word,
)

Part = str


class IGroupError(ValueError):
    pass


@dataclass(frozen=True)
class IElem:
    """Normal form (w_n, ..., w_2).

    parts[k] is the word str of the level-(n-k) component: a reduced word
    whose letters have index 1..n-k.  Malformed letters raise WordError, as
    they do for a FreeWord.
    """

    n: int
    parts: tuple[Part, ...]

    def __post_init__(self) -> None:
        if self.n < 2:
            raise IGroupError(f"need n >= 2, got {self.n}")
        if len(self.parts) != self.n - 1:
            raise IGroupError(f"need {self.n - 1} components, got {len(self.parts)}")
        for k, p in enumerate(self.parts):
            if not isinstance(p, str):
                raise IGroupError(f"component at level {self.n - k} must be a word str")
            FreeWord(self.n - k, p)  # raises WordError unless p is a reduced level word

    def part(self, m: int) -> FreeWord:
        """The level-m component as a rank-m word, 2 <= m <= n."""
        if not 2 <= m <= self.n:
            raise IGroupError(f"level {m} outside 2..{self.n}")
        return _words_raw(m, self.parts[self.n - m])

    @property
    def is_identity(self) -> bool:
        return not any(self.parts)

    def total_length(self) -> int:
        return sum(map(len, self.parts))


def _raw_elem(n: int, parts: tuple[Part, ...]) -> IElem:
    # internal fast path: parts must already be valid components
    e = object.__new__(IElem)
    object.__setattr__(e, "n", n)
    object.__setattr__(e, "parts", parts)
    return e


def identity_elem(n: int) -> IElem:
    return IElem(n, ("",) * (n - 1))


def from_parts(n: int, parts: dict[int, FreeWord]) -> IElem:
    """Build an element from a {level: word} mapping; missing levels are empty."""
    comps = []
    for m in range(n, 1, -1):
        w = parts.get(m, empty(m))
        if w.rank != m:
            raise IGroupError(f"word for level {m} has rank {w.rank}")
        comps.append(w.letters)
    return IElem(n, tuple(comps))


def gen_elem(n: int, m: int, i: int) -> IElem:
    """The generator y(m, i) as an element."""
    if not (2 <= m <= n and 1 <= i <= m):
        raise IGroupError(f"generator y({m},{i}) invalid for n={n}")
    return from_parts(n, {m: gen(m, i)})


@functools.cache
def _signed_gen(n: int, m: int, i: int, eps: int) -> tuple[IElem, EndoF]:
    """y(m,i)^eps at rank n, eps = +1 or -1, as an element and as its automorphism of F_n.

    Filled in per generator at its first use, O(n) words each
    (docs/NOTES.md, "Per-rank generator tables").  Built from the
    generator's letters alone, with none of iinv, imul or endos' compose and
    apply: bench/tracer.py counts their calls, and a table filled through
    them would add to the counts of the first traced run only.
    """
    if eps == 1:
        return gen_elem(n, m, i), endos.y_gen(n, m, i)
    return from_parts(n, {m: gen(m, i, -1)}), endos.inverse(endos.y_gen(n, m, i))


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


def _conjugate_runs(letters: Part, j: int, g: Part, g_inv: Part) -> Part:
    """The level-i word ``letters`` acted on by a level-j word with letters g, j < i.

    The action is conjugation by g (read at level i) on the free factor
    <y(i,1..j)> and fixes every y(i,l) with l > j (docs/NOTES.md).  So each
    maximal run r of letters with index <= j becomes g r g^-1, reduced at its
    two seams, and the letters above j stay.  Nothing cancels between pieces:
    a conjugated run is nonempty and shares no generator with its neighbours.
    """
    pieces = _runs(j).split(letters)
    word = pieces[0]
    for s in range(1, len(pieces), 2):
        word += _join(_join(g, pieces[s]), g_inv) + pieces[s + 1]
    return word


def _act_below(n: int, parts: tuple[Part, ...], letters: Part, below: int) -> Part:
    """Act on a word by the level parts strictly below a level, lowest level first.

    parts[k] holds the letters of the level-(n-k) component.
    """
    for j in range(2, below):
        g = parts[n - j]
        if g and letters:
            letters = _conjugate_runs(letters, j, g, _inverse(g))
    return letters


def act_elem(u: IElem, b: FreeWord) -> FreeWord:
    """Conjugation of a level-i word by a whole lower element u (u.n < i)."""
    if not u.n < b.rank:
        raise IGroupError(f"element of level {u.n} cannot act on level {b.rank}")
    return _words_raw(b.rank, _act_below(u.n, u.parts, b.letters, u.n + 1))


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
    parts = a.parts
    comps = []
    for m in range(n, 1, -1):
        comps.append(_join(parts[n - m], _act_below(n, parts, b.parts[n - m], m)))
    return _raw_elem(n, tuple(comps))


def iinv(a: IElem) -> IElem:
    """Inverse in normal form: (w_m R)^-1 = (R^-1 . w_m^-1) R^-1, from level 2 up.

    R is the part of a below level m, and inv holds the parts of R^-1.
    """
    n = a.n
    inv: tuple[Part, ...] = ()
    for m in range(2, n + 1):
        inv = (_act_below(m - 1, inv, _inverse(a.parts[n - m]), m),) + inv
    return _raw_elem(n, inv)


def conj_elem(g: IElem, x: IElem) -> IElem:
    """g x g^-1."""
    return imul(g, imul(x, iinv(g)))


def conj_by_gen(n: int, m: int, i: int, eps: int, u: IElem) -> IElem:
    """y(m,i)^eps * u * y(m,i)^-eps: one step of the orbit walk's kernel, _conj_steps."""
    return _raw_elem(n, _conj_steps(n, u.parts, [(m, i, eps)])[0])


@functools.cache
def _kernel_tables(n: int) -> tuple[dict[tuple[int, int, int], tuple[str, str]], list]:
    """The kernel's tables at rank n: step letters and run splits.

    letters[(m, i, eps)] is (a, a^-1) for a = y(m,i)^eps, as words.encode
    codes them, and splits[m] is words._runs(m).split, for 2 <= m <= n.
    """
    letters = {
        (m, i, eps): (encode(((i, eps),)), encode(((i, -eps),)))
        for m, i in generators(n)
        for eps in (1, -1)
    }
    return letters, [None, None] + [_runs(m).split for m in range(2, n + 1)]


def _conj_steps(n: int, parts: tuple[Part, ...], steps: Iterable[tuple[int, int, int]]) -> list[tuple[Part, ...]]:
    """The parts of y(m,i)^eps u y(m,i)^-eps for each step (m, i, eps), u given by its parts.

    With a = y(m,i)^eps: each run r of letters of index <= m at a level above
    m becomes a r a^-1, the level-m component becomes a (u_m P) a^-1 P^-1
    with P = u_{m-1} ... u_max(i,2), which is how the part of u below m acts
    on a^-1, and lower levels are untouched (docs/NOTES.md).  The levels
    above m are split into runs, and u_m P and P^-1 built for every i, once
    per m for all the steps given.  Each run r becomes a r a^-1 with one
    cancellation check at each end.
    """
    letters, splits = _kernel_tables(n)
    levels: dict[int, tuple[list[tuple[int, list[str]]], list[tuple[str, str]]]] = {}
    out = []
    for step in steps:
        m, i, _ = step
        got = levels.get(m)
        if got is None:
            up = []
            split = splits[m]
            for k in range(n - m):
                pieces = split(parts[k])
                if len(pieces) > 1:
                    up.append((k, pieces))
            w = parts[n - m]
            lows = [(w, "")] * (m + 1)  # lows[i] = (u_m P, P^-1)
            p = ""
            for j in range(m - 1, 1, -1):  # P = u_{m-1} ... u_j for i = j
                p = _join(p, parts[n - j])
                lows[j] = (_join(w, p), _inverse(p))
            lows[1] = lows[2]
            got = levels[m] = (up, lows)
        up, lows = got
        a, a_inv = letters[step]
        new = list(parts)
        for k, pieces in up:
            word = pieces[0]
            for s in range(1, len(pieces), 2):
                r = pieces[s]
                r = r[1:] if r[0] == a_inv else a + r
                word += (r[:-1] if r and r[-1] == a else r + a_inv) + pieces[s + 1]
            new[k] = word
        wp, p_inv = lows[i]
        left = wp[1:] if wp and wp[0] == a_inv else a + wp
        right = p_inv[1:] if p_inv and p_inv[0] == a else a_inv + p_inv
        new[n - m] = _join(left, right)
        out.append(tuple(new))
    return out


def commutator_elem(a: IElem, b: IElem) -> IElem:
    """[a, b] = a^-1 b^-1 a b."""
    return imul(imul(imul(iinv(a), iinv(b)), a), b)


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
        g = _signed_gen(n, t.a, t.b, -1 if t.exp < 0 else 1)[0]
        for _ in range(abs(t.exp)):
            acc = imul(acc, g)
    return acc


def word_problem(n: int, word_or_tokens) -> bool:
    """True iff the generator word collects to the identity normal form."""
    tokens = parse_word(word_or_tokens) if isinstance(word_or_tokens, str) else word_or_tokens
    return collect(n, tokens).is_identity


def _images(a: IElem) -> tuple[FreeWord, ...]:
    """Images of x_1..x_n under the automorphism of a, in closed form.

    y(m,i)^s conjugates F_m by x_i^-s and fixes x_{m+1..n}, so w_m acts on
    F_m as conjugation by V_m, w_m with every sign flipped, and x_k goes to
    P_k x_k P_k^-1 with P_k = V_n V_{n-1} ... V_max(k,2) (docs/NOTES.md).
    """
    n = a.n
    images = []
    p = ""
    for k in range(n, 0, -1):
        if k >= 2:  # P_1 = P_2; V_k is the inverse of w_k read backwards
            p = _join(p, _inverse(a.parts[n - k][::-1]))
        images.append(_words_raw(n, _join(_join(p, encode(((k, 1),))), _inverse(p))))
    return tuple(reversed(images))


def to_endo(a: IElem) -> EndoF:
    """The automorphism of F_n realized by a; a group homomorphism."""
    return EndoF(a.n, _images(a), _images(iinv(a)))


def direct_endo(n: int, tokens: Iterable[Token]) -> EndoF:
    """Evaluate a generator word in Aut(F_n) without collecting; oracle for collect.

    Composes the y_gen automorphisms letter by letter, never through the
    normal form.
    """
    acc = endos.identity_endo(n)
    for t in tokens:
        _check_y_token(n, t)
        e = _signed_gen(n, t.a, t.b, -1 if t.exp < 0 else 1)[1]
        for _ in range(abs(t.exp)):
            acc = endos.compose(acc, e)
    return acc


def abelianize(a: IElem) -> tuple[int, ...]:
    """Exponent-sum vector over the documented generator order; length (n-1)(n+2)/2."""
    vec = [0] * rank_of_abelianization(a.n)
    for m in range(2, a.n + 1):
        for i, sign in decode(a.parts[a.n - m]):
            vec[gen_index(a.n, m, i) - 1] += sign
    return tuple(vec)


def format_level_word(w: FreeWord) -> str:
    """Print a level word with its y(m, l) names; the level is the rank."""
    return format_word(w, lambda l: f"y({w.rank},{l})")


def format_ielem(a: IElem) -> str:
    chunks = [format_level_word(_words_raw(a.n - k, p)) for k, p in enumerate(a.parts) if p]
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
