"""Truncated noncommutative integer polynomials and the Magnus expansion.

The tensor algebra on X_1..X_N over Z, truncated above a per-call degree D.
Group words embed via x_i |-> 1 + X_i; the lowest nonzero degree of the
expansion of w minus 1 equals the lower-central-series depth of w, exactly,
for depths <= D.  Coefficients are exact Python integers.
"""

from __future__ import annotations

from typing import Iterator, Optional

from .endos import EndoF
from .words import FreeWord, decode, gen, invert, multiply

Monomial = tuple[int, ...]


class MagnusError(ValueError):
    pass


class NcPoly:
    """Truncated polynomial in noncommuting variables X_1..X_nvars.

    terms maps monomials (tuples of variable indices, length <= maxdeg) to
    nonzero integer coefficients.  Term iteration order for serialization is
    length-then-lexicographic.
    """

    __slots__ = ("nvars", "maxdeg", "terms")

    def __init__(self, nvars: int, maxdeg: int, terms: Optional[dict[Monomial, int]] = None):
        if nvars < 1 or maxdeg < 1:
            raise MagnusError("nvars and maxdeg must be positive")
        self.nvars = nvars
        self.maxdeg = maxdeg
        self.terms: dict[Monomial, int] = {}
        if terms:
            for mono, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(mono) > maxdeg:
                    continue
                if any(not 1 <= v <= nvars for v in mono):
                    raise MagnusError(f"monomial {mono} outside 1..{nvars}")
                self.terms[mono] = coeff

    # -- construction -------------------------------------------------------

    @classmethod
    def one(cls, nvars: int, maxdeg: int) -> "NcPoly":
        return cls(nvars, maxdeg, {(): 1})

    @classmethod
    def variable(cls, nvars: int, maxdeg: int, i: int) -> "NcPoly":
        return cls(nvars, maxdeg, {(i,): 1})

    # -- ring operations ----------------------------------------------------

    def _compatible(self, other: "NcPoly") -> None:
        if self.nvars != other.nvars or self.maxdeg != other.maxdeg:
            raise MagnusError("mixed nvars/maxdeg arithmetic")

    def add(self, other: "NcPoly") -> "NcPoly":
        self._compatible(other)
        out = dict(self.terms)
        for mono, c in other.terms.items():
            acc = out.get(mono, 0) + c
            if acc:
                out[mono] = acc
            else:
                out.pop(mono, None)
        res = NcPoly(self.nvars, self.maxdeg)
        res.terms = out
        return res

    def neg(self) -> "NcPoly":
        res = NcPoly(self.nvars, self.maxdeg)
        res.terms = {m: -c for m, c in self.terms.items()}
        return res

    def sub(self, other: "NcPoly") -> "NcPoly":
        return self.add(other.neg())

    # -- inspection ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, NcPoly)
            and self.nvars == other.nvars
            and self.maxdeg == other.maxdeg
            and self.terms == other.terms
        )

    def __hash__(self):  # pragma: no cover
        raise TypeError("NcPoly is not hashable")

    def sorted_terms(self) -> Iterator[tuple[Monomial, int]]:
        for mono in sorted(self.terms, key=lambda m: (len(m), m)):
            yield mono, self.terms[mono]

    def homogeneous(self, c: int) -> "NcPoly":
        res = NcPoly(self.nvars, self.maxdeg)
        res.terms = {m: v for m, v in self.terms.items() if len(m) == c}
        return res

    def min_positive_degree(self) -> Optional[int]:
        degs = [len(m) for m in self.terms if m]
        return min(degs) if degs else None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        bits = []
        for mono, c in self.sorted_terms():
            name = "".join(f"X{v}" for v in mono) or "1"
            bits.append(f"{c}*{name}")
        return " + ".join(bits) if bits else "0"


def _letter_series(nvars: int, D: int, idx: int, sign: int) -> NcPoly:
    """Magnus image of a single letter: 1 + X or the truncated inverse series."""
    terms: dict[Monomial, int] = {(): 1}
    if sign > 0:
        terms[(idx,)] = 1
    else:
        coeff = -1
        for d in range(1, D + 1):
            terms[(idx,) * d] = coeff
            coeff = -coeff
    return NcPoly(nvars, D, terms)


def _bump(out: dict[Monomial, int], mono: Monomial, c: int) -> None:
    acc = out.get(mono, 0) + c
    if acc:
        out[mono] = acc
    else:
        del out[mono]


def magnus_expand(w: FreeWord, D: int) -> NcPoly:
    """Multiplicative extension of x_i |-> 1 + X_i, truncated above degree D.

    Each letter is one step on the term dict: p (1 + X_i) adds p X_i, and
    p (1 + X_i)^-1 adds the runs -p X_i + p X_i^2 - ... up to degree D (see
    docs/NOTES.md).  No generic product is formed.
    """
    acc = NcPoly.one(w.rank, D)  # validates rank and D
    terms = acc.terms
    for idx, sign in decode(w.letters):
        out = dict(terms)
        if sign > 0:
            step = (idx,)
            for mono, c in terms.items():
                if len(mono) < D:
                    _bump(out, mono + step, c)
        else:
            for mono, c in terms.items():
                tail = mono
                for _ in range(D - len(mono)):
                    tail += (idx,)
                    c = -c
                    _bump(out, tail, c)
        terms = out
    acc.terms = terms
    return acc


def gamma_degree(w: FreeWord, D: int) -> int:
    """Least c <= D with a nonzero degree-c term of magnus_expand(w) - 1.

    Returns D + 1 when no such term exists, meaning "at least D+1"; the
    identity word is exact (it lies in every term of the series), every other
    word only bounded.  For c <= D the value is the exact lower-central depth.
    """
    if w.is_identity:
        return D + 1
    p = magnus_expand(w, D)
    d = p.min_positive_degree()
    return d if d is not None else D + 1


class NotIAError(ValueError):
    """Automorphism does not act trivially on the abelianization."""


def _deviations(f: EndoF) -> list[FreeWord]:
    n = f.rank
    return [multiply(f.images[i - 1], invert(gen(n, i))) for i in range(1, n + 1)]


def ia_degree(f: EndoF, D: int) -> int:
    """max{c : f(x_i) x_i^-1 in gamma_c for all i}, capped at D + 1.

    A return of D + 1 means "at least D+1".  Raises NotIAError when some
    deviation has depth 1, i.e. f acts nontrivially on the abelianization.
    """
    deg = D + 1
    for dw in _deviations(f):
        d = gamma_degree(dw, D)
        if d == 1:
            raise NotIAError("endomorphism is not an IA automorphism")
        deg = min(deg, d)
    return deg


def johnson_image(f: EndoF, c: int, D: int) -> tuple[NcPoly, ...]:
    """Degree-c homogeneous parts of the expansions of all f(x_i) x_i^-1.

    Requires f to fix F/gamma_c, i.e. ia_degree(f, D) >= c; the image then
    determines f modulo the (c+1)-st filtration term and is additive on
    compositions at that level.  Each deviation is expanded once, truncated
    at degree c: truncation is a ring map, so the parts of degree <= c, and
    with them the level test, are those of the degree-D expansion.  The
    returned polynomials carry maxdeg D.
    """
    if not c < D:
        raise MagnusError(f"need c < D, got c={c}, D={D}")
    expansions = [magnus_expand(dw, max(c, 1)) for dw in _deviations(f)]
    depths = [p.min_positive_degree() for p in expansions]
    if 1 in depths:
        raise NotIAError("endomorphism is not an IA automorphism")
    if any(d is not None and d < c for d in depths):
        raise NotIAError(f"automorphism is not in filtration level {c}")
    return tuple(NcPoly(f.rank, D, p.homogeneous(c).terms) for p in expansions)
