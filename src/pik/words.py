"""Freely reduced words in a free group of finite rank.

A word is a str with one character per letter: x_l is chr(2l) and x_l^-1 is
chr(2l+1), so a letter's inverse flips bit 0 of its code.  Every layer of
pik holds its words this way.  Only this module knows the code layout:
encode turns (index, sign) letters, with 1-based generator indices and sign
+1 or -1, into a word, and decode reads a word back as such letters; the
pair form is for input and output only.  Words are kept freely reduced at
all times; the empty str is the group identity.  Everything here is a pure
function on immutable values.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

Letter = tuple[int, int]

# The largest rank whose letters all have a code: chr(2 * MAX_RANK + 1) is
# the last code point, 0x10FFFF.
MAX_RANK = 557_055


class WordError(ValueError):
    """Malformed word or incompatible ranks."""


class WitnessError(RuntimeError):
    """A computed witness failed its re-verification: a defect, never an answer."""


class _Codes(dict):
    """The code of each (index, sign) letter, filled in as letters are met."""

    def __missing__(self, letter: Letter) -> str:
        idx, sign = letter
        if sign not in (1, -1):
            raise WordError(f"letter sign must be +1 or -1, got {sign}")
        if not 1 <= idx <= MAX_RANK:
            raise WordError(f"letter index {idx} outside 1..{MAX_RANK}")
        code = self[letter] = chr(2 * idx + (sign < 0))
        return code


_CODES = _Codes()


def encode(letters: Iterable[Letter]) -> str:
    """The word str of (index, sign) letters, letter for letter: not reduced, no rank checked."""
    return "".join(map(_CODES.__getitem__, letters))


def decode(letters: str) -> list[Letter]:
    """The (index, sign) letters of a word str."""
    return [(c >> 1, -1 if c & 1 else 1) for c in map(ord, letters)]


class _Flip(dict):
    """str.translate's table of letter inverses, code c to c ^ 1, filled in as codes are met."""

    def __missing__(self, c: int) -> int:
        self[c] = c ^ 1
        return c ^ 1


_FLIP = _Flip()


def _inverse(letters: str) -> str:
    """The inverse of a reduced word: reversed, every letter flipped."""
    return letters[::-1].translate(_FLIP)


@functools.cache
def _runs(j: int) -> re.Pattern:
    """The pattern whose split cuts a word into h_0, r_1, h_1, ..., r_t, h_t.

    The letters of index <= j are the codes 2..2j+1, so the one group
    matches each maximal run r_s of them, and each h_s holds the letters
    above j between two runs, possibly none.  A word with no letter of
    index <= j is the one piece h_0.
    """
    return re.compile(f"([\\x02-\\U{2 * j + 1:08x}]+)")


def reduce_letters(letters: str) -> str:
    """Freely reduce a word str with a single stack pass."""
    out: list[str] = []
    for c in letters:
        if out and ord(out[-1]) ^ 1 == ord(c):
            out.pop()
        else:
            out.append(c)
    return "".join(out)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word over generators x_1..x_rank, as a word str."""

    rank: int
    letters: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.rank <= MAX_RANK:
            raise WordError(f"rank must be in 1..{MAX_RANK}, got {self.rank}")
        letters = self.letters
        if not isinstance(letters, str):
            raise WordError(f"letters must be a word str, got {type(letters).__name__}")
        top = chr(2 * self.rank + 1)
        for c in letters:
            if not "\x02" <= c <= top:
                raise WordError(f"letter index {ord(c) >> 1} outside 1..{self.rank}")
        # no letter may equal the flip of the one before it
        if len(letters) > 1 and any(map(str.__eq__, letters[1:], letters.translate(_FLIP))):
            raise WordError("word is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FreeWord({self.rank}, {format_x_word(self)!r})"


def _raw(rank: int, letters: str) -> FreeWord:
    # internal fast path: letters must already be reduced and in range
    w = object.__new__(FreeWord)
    object.__setattr__(w, "rank", rank)
    object.__setattr__(w, "letters", letters)
    return w


def word(rank: int, letters: Iterable[Letter] = ()) -> FreeWord:
    """Build a word from (index, sign) letters, freely reducing the input.

    encode checks each sign and index, and the reduced word is checked
    against the rank here, so FreeWord's checks do not run a second time.
    """
    if not 1 <= rank <= MAX_RANK:
        raise WordError(f"rank must be in 1..{MAX_RANK}, got {rank}")
    reduced = reduce_letters(encode(letters))
    if reduced and max(reduced) > chr(2 * rank + 1):
        raise WordError(f"letter index {ord(max(reduced)) >> 1} outside 1..{rank}")
    return _raw(rank, reduced)


def gen(rank: int, i: int, sign: int = 1) -> FreeWord:
    return FreeWord(rank, _CODES[i, sign])


def empty(rank: int) -> FreeWord:
    return FreeWord(rank, "")


def _join(a: str, b: str) -> str:
    """The reduced product of two reduced words.

    Both factors are reduced, so letters can only cancel in pairs straddling
    the seam: a[-1-t] against b[t] for t = 0, 1, ...
    """
    if not a or not b or ord(a[-1]) ^ 1 != ord(b[0]):
        return a + b
    c = 1
    stop = min(len(a), len(b))
    while c < stop and ord(a[-1 - c]) ^ 1 == ord(b[c]):
        c += 1
    return a[: len(a) - c] + b[c:]


def _letter_conjugate(w: str, x: str) -> str:
    """The reduced word w x w^-1 of a reduced word w and a one-letter word x.

    w's trailing letters x^+-1 cancel against their inverses around x, so
    they are stripped.  What is left of w ends in neither x nor x^-1, so
    nothing cancels at either side of x and the concatenation is reduced.
    """
    while w and ord(w[-1]) | 1 == ord(x) | 1:
        w = w[:-1]
    return w + x + _inverse(w) if w else x


def _substitute(images: Sequence[str], words: Iterable[str]) -> list[str]:
    """Each word str with every x_k replaced by the str images[k-1], freely reduced.

    Images and the output so far are reduced, so each joined image cancels
    only at the seam.  Each image is inverted at most once per call.
    """
    table: dict[str, str] = {}  # letter to its image
    out = []
    for w in words:
        acc = ""
        for c in w:
            img = table.get(c)
            if img is None:
                k = ord(c)
                img = table[c] = _inverse(images[(k >> 1) - 1]) if k & 1 else images[(k >> 1) - 1]
            acc = _join(acc, img) if acc else img
        out.append(acc)
    return out


def multiply(a: FreeWord, b: FreeWord) -> FreeWord:
    """Product a*b with free reduction across the seam."""
    if a.rank != b.rank:
        raise WordError(f"rank mismatch: {a.rank} != {b.rank}")
    return _raw(a.rank, _join(a.letters, b.letters))


def invert(a: FreeWord) -> FreeWord:
    return _raw(a.rank, _inverse(a.letters))


def power(a: FreeWord, n: int) -> FreeWord:
    if n < 0:
        return power(invert(a), -n)
    acc = empty(a.rank)
    for _ in range(n):
        acc = multiply(acc, a)
    return acc


def conjugate(g: FreeWord, w: FreeWord) -> FreeWord:
    """g * w * g^-1."""
    return multiply(multiply(g, w), invert(g))


def commutator(a: FreeWord, b: FreeWord) -> FreeWord:
    """[a, b] = a^-1 b^-1 a b."""
    return multiply(multiply(multiply(invert(a), invert(b)), a), b)


def cyclic_reduce(a: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Split a = conjugator * core * conjugator^-1 with core cyclically reduced."""
    letters = a.letters
    t = 0
    while len(letters) - 2 * t >= 2 and ord(letters[t]) ^ 1 == ord(letters[-1 - t]):
        t += 1
    return _raw(a.rank, letters[t : len(letters) - t]), _raw(a.rank, letters[:t])


def is_cyclically_reduced(a: FreeWord) -> bool:
    core, _ = cyclic_reduce(a)
    return core == a


def _rotation(letters: str, r: int) -> str:
    return letters[r:] + letters[:r]


def free_conjugate(a: FreeWord, b: FreeWord) -> Optional[FreeWord]:
    """A witness g with g*a*g^-1 = b, or None if no such g exists.

    Classical: a and b are conjugate iff their cyclic cores are rotations of
    one another.  Returns the witness from the leftmost matching rotation.
    """
    if a.rank != b.rank:
        raise WordError(f"rank mismatch: {a.rank} != {b.rank}")
    core_a, ca = cyclic_reduce(a)
    core_b, cb = cyclic_reduce(b)
    if len(core_a) != len(core_b):
        return None
    for r in range(max(1, len(core_a))):
        if _rotation(core_a.letters, r) == core_b.letters:
            # core_a = u v with u of length r; v core_a v^-1 = core_b.
            v = _raw(a.rank, core_a.letters[r:])
            g = multiply(multiply(cb, v), invert(ca))
            if conjugate(g, a) != b:
                raise WitnessError("free conjugator failed re-verification")
            return g
    return None


def primitive_root(a: FreeWord) -> FreeWord:
    """The primitive c with a = c^m, for cyclically reduced nontrivial a.

    The centralizer of a in the free group is the cyclic group on c.
    """
    if a.is_identity:
        raise WordError("identity has no primitive root")
    if not is_cyclically_reduced(a):
        raise WordError("primitive_root requires a cyclically reduced word")
    n = len(a.letters)
    for d in range(1, n + 1):
        if n % d == 0 and a.letters[:d] * (n // d) == a.letters:
            return _raw(a.rank, a.letters[:d])
    raise AssertionError("unreachable")


def centralizer_root(a: FreeWord) -> Optional[FreeWord]:
    """Generator of the centralizer of a; None when a = 1 (centralizer is everything)."""
    if a.is_identity:
        return None
    core, conj = cyclic_reduce(a)
    return conjugate(conj, primitive_root(core))


# ---------------------------------------------------------------------------
# Word grammar, shared by the CLI and all file inputs:
#
#   word := term (ws term)* | ""
#   term := gen ("^" signed-int)?
#   gen  := "x" int | "y(" int "," int ")"
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    """Word syntax error, with a 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} at column {column}")
        self.column = column


@dataclass(frozen=True)
class Token:
    kind: str  # "x" or "y"
    a: int
    b: int  # 0 for "x" tokens
    exp: int


def _scan_int(s: str, pos: int, signed: bool = False) -> tuple[int, int]:
    start = pos
    if signed and pos < len(s) and s[pos] in "+-":
        pos += 1
    digits = pos
    while pos < len(s) and s[pos].isdigit():
        pos += 1
    if pos == digits:
        raise ParseError("expected integer", pos + 1)
    return int(s[start:pos]), pos


def parse_word(s: str) -> list[Token]:
    """Tokenize a word string; exponents are kept for the caller to expand."""
    tokens: list[Token] = []
    pos = 0
    n = len(s)
    while True:
        while pos < n and s[pos].isspace():
            pos += 1
        if pos >= n:
            return tokens
        kind = s[pos]
        if kind == "x":
            a, pos = _scan_int(s, pos + 1)
            b = 0
        elif kind == "y":
            pos += 1
            if pos >= n or s[pos] != "(":
                raise ParseError("expected '('", pos + 1)
            a, pos = _scan_int(s, pos + 1)
            if pos >= n or s[pos] != ",":
                raise ParseError("expected ','", pos + 1)
            b, pos = _scan_int(s, pos + 1)
            if pos >= n or s[pos] != ")":
                raise ParseError("expected ')'", pos + 1)
            pos += 1
        else:
            raise ParseError(f"unexpected character {s[pos]!r}", pos + 1)
        exp = 1
        if pos < n and s[pos] == "^":
            exp, pos = _scan_int(s, pos + 1, signed=True)
        tokens.append(Token(kind, a, b, exp))


def tokens_to_letters(tokens: Iterable[Token], index_of: Callable[[Token], int]) -> list[Letter]:
    """Expand token exponents into a +-1 letter list via an index mapping."""
    letters: list[Letter] = []
    for t in tokens:
        idx = index_of(t)
        sign = 1 if t.exp > 0 else -1
        letters.extend((idx, sign) for _ in range(abs(t.exp)))
    return letters


def parse_x_word(s: str, rank: int) -> FreeWord:
    """Parse a word over x1..x_rank."""

    def index_of(t: Token) -> int:
        if t.kind != "x":
            raise WordError(f"expected x-generator, got {t.kind!r}")
        if not 1 <= t.a <= rank:
            raise WordError(f"generator x{t.a} outside rank {rank}")
        return t.a

    return word(rank, tokens_to_letters(parse_word(s), index_of))


def format_word(w: FreeWord, name_of: Callable[[int], str]) -> str:
    """Print letter by letter; inverse letters carry '^-1'."""
    parts = []
    for idx, sign in decode(w.letters):
        parts.append(name_of(idx) if sign > 0 else name_of(idx) + "^-1")
    return " ".join(parts)


def format_x_word(w: FreeWord) -> str:
    return format_word(w, lambda i: f"x{i}")
