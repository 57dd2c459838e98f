"""Arithmetic in the partial inner automorphism group via its normal form.

An element is a tuple (w_n, ..., w_2) with w_m a freely reduced word in the
level-m free factor H_m (rank m, letter l standing for the generator
y(m, l)).  The tuple is the normal form: elements are equal iff the tuples
are equal componentwise.  An IElem stores each w_m as a word str of
pik.words, the one encoding that every operation here works on; the orbit
walk's kernel takes the parts joined into one str, level n first, with the
separator _SEP between levels.  part(m) views a part as a rank-m FreeWord
for callers that want the word API.

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
from typing import Iterable, Optional

from . import endos
from .endos import EndoF
from .words import (
    _FLIP,
    FreeWord,
    Token,
    WordError,
    _inverse,
    _join,
    _letter_conjugate,
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

# The separator of the levels in a walk state; no letter has its code.
_SEP = "\x00"


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
    for m in parts:
        if not 2 <= m <= n:
            raise IGroupError(f"level {m} is outside 2..{n}")
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
    state = _conj_steps(n, _SEP.join(u.parts), [(m, i, eps)])[0]
    return _raw_elem(n, tuple(state.split(_SEP)))


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


def _conj_steps(n: int, state: str, steps: Iterable[tuple[int, int, int]]) -> list[str]:
    """The walk states of y(m,i)^eps u y(m,i)^-eps for each step (m, i, eps), u given by its state.

    A walk state is u's parts joined by _SEP, level n first.  With
    a = y(m,i)^eps: each run r of letters of index <= m at a level above m
    becomes a r a^-1, the level-m component becomes a (u_m P) a^-1 P^-1 with
    P = u_{m-1} ... u_max(i,2), which is how the part of u below m acts on
    a^-1, and lower levels are untouched (docs/NOTES.md).  Once per m for
    all the steps given, u_m P and P^-1 are built for every i, the levels
    below m are one tail slice whose length their parts give, and the levels
    above m, if they hold a letter, are split into runs in one split, _SEP
    being no letter.  Each run r becomes a r a^-1 with one cancellation
    check at each end.
    """
    letters, splits = _kernel_tables(n)
    parts = state.split(_SEP)
    levels: dict[int, tuple[str, Optional[list[str]], str, list[tuple[str, str]]]] = {}
    out = []
    for step in steps:
        m, i, _ = step
        got = levels.get(m)
        if got is None:
            w = parts[n - m]
            low = m - 2  # the length of the tail: the levels below m and their separators
            lows = [(w, "")] * (m + 1)  # lows[i] = (u_m P, P^-1)
            p = ""
            for j in range(m - 1, 1, -1):  # P = u_{m-1} ... u_j for i = j
                u_j = parts[n - j]
                if u_j:
                    low += len(u_j)
                    p = _join(p, u_j) if p else u_j
                    lows[j] = (_join(w, p), _inverse(p))
                else:
                    lows[j] = lows[j + 1]
            lows[1] = lows[2]
            end = len(state) - low  # where level m ends
            start = end - len(w)
            head = state[:start]
            pieces = splits[m](head) if start > n - m else None  # None: no letter above m
            got = levels[m] = (head, pieces, state[end:], lows)
        word, pieces, tail, lows = got
        a, a_inv = letters[step]
        if pieces:
            word = pieces[0]
            for s in range(1, len(pieces), 2):
                r = pieces[s]
                r = r[1:] if r[0] == a_inv else a + r
                word += (r[:-1] if r and r[-1] == a else r + a_inv) + pieces[s + 1]
        wp, p_inv = lows[i]
        left = wp[1:] if wp and wp[0] == a_inv else a + wp
        right = p_inv[1:] if p_inv and p_inv[0] == a else a_inv + p_inv
        out.append(word + _join(left, right) + tail)
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
    """Collect a word in the generators y(m,i) to its normal form.

    Right-multiplying by a = y(m,i)^eps changes level m only, to the
    component imul gives it: w_m (w_{m-1}...w_2 . a).  The levels below m act
    on the letter a as conjugation by P = w_{m-1} ... w_max(i,2), the walk
    kernel's P (_conj_steps, docs/NOTES.md), so w_m becomes w_m P a P^-1.
    """
    parts = list(identity_elem(n).parts)  # raises IGroupError for n < 2
    letters = _kernel_tables(n)[0]
    for t in tokens:
        _check_y_token(n, t)
        m, i = t.a, t.b
        p = ""
        for j in range(m - 1, max(i, 2) - 1, -1):
            u_j = parts[n - j]
            if u_j:
                p = _join(p, u_j) if p else u_j
        conjugated = _letter_conjugate(p, letters[m, i, -1 if t.exp < 0 else 1][0])
        for _ in range(abs(t.exp)):
            parts[n - m] = _join(parts[n - m], conjugated)
    return _raw_elem(n, tuple(parts))


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
        if k >= 2:  # P_1 = P_2
            p = _join(p, a.parts[n - k].translate(_FLIP))
        images.append(_words_raw(n, _letter_conjugate(p, encode(((k, 1),)))))
    return tuple(reversed(images))


def to_endo(a: IElem) -> EndoF:
    """The automorphism of F_n realized by a; a group homomorphism.

    Its images are built now; its inverse's, those of iinv(a), only when
    endos.inverse asks for them.
    """
    return EndoF(a.n, _images(a), lambda: _images(iinv(a)))


@functools.cache
def _gen_conjugators(n: int, m: int, i: int, eps: int) -> tuple[int, str, tuple]:
    """y(m,i)^eps's automorphism e of F_n, as the one-letter conjugator read off its images.

    Each image e(x_k) must be x_k or x x_k x^-1 for one letter x = x_l^+-1
    shared by every x_k that e moves; any other image raises IGroupError.
    Returns (l - 1, x, moved), with moved holding (k - 1, x_k x_k^-1) for
    each moved x_k.  Its values depend only on (n, m, i, eps).  The images
    are endos.y_gen's, or for eps = -1 those that y_gen's inverse field
    makes, so filling the table calls none of the functions bench/tracer.py
    counts (docs/NOTES.md, "Per-rank generator tables").
    """
    e = endos.y_gen(n, m, i)
    x = ""
    moved = []
    for k, image in enumerate((e if eps == 1 else endos.inverse(e)).images, 1):
        s = image.letters
        half = len(s) // 2
        u = s[:half]
        if s[half:] != encode(((k, 1),)) + _inverse(u):
            raise IGroupError(f"image of x{k} under y({m},{i})^{eps} is not u x{k} u^-1")
        if u:
            if len(u) != 1:
                raise IGroupError(f"image of x{k} under y({m},{i})^{eps} has a conjugator of {len(u)} letters")
            if x and u != x:
                raise IGroupError(
                    f"image of x{k} under y({m},{i})^{eps} has another conjugator than the image of x{moved[0][0] + 1}"
                )
            x = u
            moved.append((k - 1, encode(((k, 1), (k, -1)))))
    return (decode(x)[0][0] - 1 if x else 0), x, tuple(moved)


def direct_endo(n: int, tokens: Iterable[Token]) -> EndoF:
    """Evaluate a generator word in Aut(F_n) without collecting; oracle for collect.

    Composes the y_gen automorphisms letter by letter, never through the
    normal form.  acc sends each x_k to W_k x_k W_k^-1 with W_k reduced and
    not ending in x_k^+-1.  A unit e sends each x_k it moves to x x_k x^-1,
    x = x_l^+-1, so acc o e sends x_k to acc(x) W_k x_k W_k^-1 acc(x)^-1 and
    W_k becomes W x W^-1 W_k, W = W_l, with its trailing x_k^+-1 stripped.
    W^-1 cancels exactly the common prefix of W and W_k, found by prefix
    tests (docs/NOTES.md, "direct_endo by conjugators").
    """
    if n < 2:
        raise IGroupError(f"need n >= 2, got {n}")
    ws = [""] * n
    for t in tokens:
        _check_y_token(n, t)
        l, x, moved = _gen_conjugators(n, t.a, t.b, -1 if t.exp < 0 else 1)
        for _ in range(abs(t.exp)):
            w = ws[l]  # ends in no x^+-1, so W x is reduced
            wx = w + x
            for k, x_pm in moved:
                wk = ws[k]
                if wk.startswith(w):  # x may cancel into the rest of W_k and on into W
                    ws[k] = _join(wx, wk[len(w) :]).rstrip(x_pm)
                    continue
                if w.startswith(wk):
                    c = len(wk)
                else:  # w[:lo] is a prefix of W_k and w[:hi] is not
                    lo, hi = 0, min(len(w), len(wk))
                    while hi - lo > 1:
                        mid = (lo + hi) // 2
                        if wk.startswith(w[:mid]):
                            lo = mid
                        else:
                            hi = mid
                    c = lo
                # W[c] != W_k[c] and W ends in no x^+-1: the concatenation is reduced
                ws[k] = (wx + _inverse(w[c:]) + wk[c:]).rstrip(x_pm)
    images = (_letter_conjugate(w, encode(((k, 1),))) for k, w in enumerate(ws, 1))
    return EndoF(n, tuple(_words_raw(n, image) for image in images))


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
# The defining relators of the presentation.  relator_indices is the one
# place the three families are written down; relation_instances builds
# their group words from it, and pik.decomp.build_relators their Lie
# relators.
# ---------------------------------------------------------------------------


def relator_indices(n: int) -> list[tuple[int, int, int, int, int]]:
    """(kind, m, i, r, j) of each defining relator of I_n, where [a, b] = a^-1 b^-1 a b:

      (1) [y(m,i), y(r,i)] = 1                  2 <= r < m <= n, i <= r  (j = i)
      (2) [y(m,i), y(r,j)] = 1                  2 <= r < i <= m <= n, 1 <= j <= r
      (3) [y(m,i), y(r,j)] = [y(m,i), y(m,j)]   2 <= r < m <= n, i <= r, j <= r, j != i

    Ordered by r, then m; for each (r, m) kind 1 by i, then kind 2 and kind 3
    by i, then j.
    """
    out = []
    for r in range(2, n):
        for m in range(r + 1, n + 1):
            out.extend((1, m, i, r, i) for i in range(1, r + 1))
            out.extend((2, m, i, r, j) for i in range(r + 1, m + 1) for j in range(1, r + 1))
            out.extend((3, m, i, r, j) for i in range(1, r + 1) for j in range(1, r + 1) if j != i)
    return out


def _commutator_tokens(m: int, i: int, r: int, j: int) -> list[Token]:
    """[y(m,i), y(r,j)] = y(m,i)^-1 y(r,j)^-1 y(m,i) y(r,j)."""
    return [Token("y", m, i, -1), Token("y", r, j, -1), Token("y", m, i, 1), Token("y", r, j, 1)]


def relation_instances(n: int) -> list[tuple[str, list[Token]]]:
    """(label, tokens) of each relator of relator_indices(n), each word
    trivial in the group: kind 3 is [y(m,i), y(r,j)] [y(m,j), y(m,i)]."""
    out = []
    for kind, m, i, r, j in relator_indices(n):
        label = f"({kind}) m={m} r={r} i={i}" if kind == 1 else f"({kind}) m={m} r={r} i={i} j={j}"
        tokens = _commutator_tokens(m, i, r, j)
        if kind == 3:
            tokens += _commutator_tokens(m, j, m, i)
        out.append((label, tokens))
    return out
