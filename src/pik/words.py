"""Freely reduced words in a free group of finite rank.

A word is a sequence of letters ``(index, sign)`` with 1-based generator
indices and sign +1 or -1.  Words are kept freely reduced at all times; the
empty word is the group identity.  Everything here is a pure function on
immutable values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

Letter = tuple[int, int]


class WordError(ValueError):
    """Malformed word or incompatible ranks."""


class WitnessError(RuntimeError):
    """A computed witness failed its re-verification: a defect, never an answer."""


def reduce_letters(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Freely reduce a letter sequence with a single stack pass."""
    out: list[Letter] = []
    for idx, sign in letters:
        if out and out[-1][0] == idx and out[-1][1] == -sign:
            out.pop()
        else:
            out.append((idx, sign))
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """A freely reduced word over generators x_1..x_rank."""

    rank: int
    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise WordError(f"rank must be positive, got {self.rank}")
        prev: Optional[Letter] = None
        for idx, sign in self.letters:
            if not 1 <= idx <= self.rank:
                raise WordError(f"letter index {idx} outside 1..{self.rank}")
            if sign not in (1, -1):
                raise WordError(f"letter sign must be +1 or -1, got {sign}")
            if prev is not None and prev[0] == idx and prev[1] == -sign:
                raise WordError("word is not freely reduced")
            prev = (idx, sign)

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FreeWord({self.rank}, {format_x_word(self)!r})"


def _raw(rank: int, letters: tuple[Letter, ...]) -> FreeWord:
    # internal fast path: letters must already be reduced and in range
    w = object.__new__(FreeWord)
    object.__setattr__(w, "rank", rank)
    object.__setattr__(w, "letters", letters)
    return w


def word(rank: int, letters: Iterable[Letter] = ()) -> FreeWord:
    """Build a word, freely reducing the input."""
    return FreeWord(rank, reduce_letters(letters))


def gen(rank: int, i: int, sign: int = 1) -> FreeWord:
    return FreeWord(rank, ((i, sign),))


def empty(rank: int) -> FreeWord:
    return FreeWord(rank, ())


def _join(a: tuple[Letter, ...], b: tuple[Letter, ...]) -> tuple[Letter, ...]:
    """The reduced product of two reduced letter tuples.

    Both factors are reduced, so letters can only cancel in pairs straddling
    the seam: a[-1-t] against b[t] for t = 0, 1, ...
    """
    if not a or not b:
        return a or b
    idx, sign = b[0]
    if a[-1] != (idx, -sign):
        return a + b
    c = 1
    stop = min(len(a), len(b))
    while c < stop:
        idx, sign = b[c]
        if a[-1 - c] != (idx, -sign):
            break
        c += 1
    return a[: len(a) - c] + b[c:]


def _inverse(letters: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return tuple([(i, -s) for i, s in reversed(letters)])


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
    letters = list(a.letters)
    conj: list[Letter] = []
    while len(letters) >= 2:
        i0, s0 = letters[0]
        i1, s1 = letters[-1]
        if i0 == i1 and s0 == -s1:
            conj.append(letters[0])
            letters = letters[1:-1]
        else:
            break
    return _raw(a.rank, tuple(letters)), _raw(a.rank, tuple(conj))


def is_cyclically_reduced(a: FreeWord) -> bool:
    core, _ = cyclic_reduce(a)
    return core == a


def _rotation(letters: tuple[Letter, ...], r: int) -> tuple[Letter, ...]:
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
    for idx, sign in w.letters:
        parts.append(name_of(idx) if sign > 0 else name_of(idx) + "^-1")
    return " ".join(parts)


def format_x_word(w: FreeWord) -> str:
    return format_word(w, lambda i: f"x{i}")
