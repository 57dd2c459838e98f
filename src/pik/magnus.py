"""The Magnus expansion into the truncated tensor algebra.

The tensor algebra on X_1..X_N over Z, truncated above a per-call degree D.
A polynomial is a term dict {monomial: coefficient}, a monomial being a
tuple of variable indices, with no zero coefficient stored (the same type
as ``pik.lie.Terms``).  Group words embed via x_i |-> 1 + X_i; the lowest
nonzero degree of the expansion of w minus 1 equals the
lower-central-series depth of w, exactly, for depths <= D.  Coefficients
are exact Python integers.
"""

from __future__ import annotations

from typing import Optional

from .endos import EndoF
from .words import FreeWord, decode, gen, invert, multiply

Monomial = tuple[int, ...]
Terms = dict[Monomial, int]  # a truncated polynomial: monomial -> nonzero coefficient


class MagnusError(ValueError):
    pass


def _check_maxdeg(D: int) -> None:
    if D < 1:
        raise MagnusError(f"maxdeg must be positive, got {D}")


def _bump(out: Terms, mono: Monomial, c: int) -> None:
    acc = out.get(mono, 0) + c
    if acc:
        out[mono] = acc
    else:
        del out[mono]


def magnus_expand(w: FreeWord, D: int) -> Terms:
    """Multiplicative extension of x_i |-> 1 + X_i, truncated above degree D.

    Each letter is one step on the term dict: p (1 + X_i) adds p X_i, and
    p (1 + X_i)^-1 adds the runs -p X_i + p X_i^2 - ... up to degree D (see
    docs/NOTES.md).  No generic product is formed.
    """
    _check_maxdeg(D)
    terms: Terms = {(): 1}
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
    return terms


def _depth(p: Terms) -> Optional[int]:
    """Least degree of a nonconstant term of p; None when p is constant."""
    return min((len(m) for m in p if m), default=None)


def gamma_degree(w: FreeWord, D: int) -> int:
    """Least c <= D with a nonzero degree-c term of magnus_expand(w) - 1.

    Returns D + 1 when no such term exists, meaning "at least D+1"; the
    identity word is exact (it lies in every term of the series), every other
    word only bounded.  For c <= D the value is the exact lower-central depth.
    """
    _check_maxdeg(D)
    if w.is_identity:
        return D + 1
    d = _depth(magnus_expand(w, D))
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
    _check_maxdeg(D)
    deg = D + 1
    for dw in _deviations(f):
        d = gamma_degree(dw, D)
        if d == 1:
            raise NotIAError("endomorphism is not an IA automorphism")
        deg = min(deg, d)
    return deg


def johnson_image(f: EndoF, c: int) -> tuple[Terms, ...]:
    """Degree-c homogeneous parts of the expansions of all f(x_i) x_i^-1.

    Requires f to fix F/gamma_c, i.e. ia_degree(f, D) >= c for any D >= c;
    the image then determines f modulo the (c+1)-st filtration term and is
    additive on compositions at that level.  Each deviation is expanded
    once, truncated at degree c: truncation is a ring map, so the parts of
    degree <= c, and with them the level test, are those of any deeper
    expansion.
    """
    if c < 1:
        raise MagnusError(f"need c >= 1, got {c}")
    expansions = [magnus_expand(dw, c) for dw in _deviations(f)]
    depths = [_depth(p) for p in expansions]
    if 1 in depths:
        raise NotIAError("endomorphism is not an IA automorphism")
    if any(d is not None and d < c for d in depths):
        raise NotIAError(f"automorphism is not in filtration level {c}")
    return tuple({m: v for m, v in p.items() if len(m) == c} for p in expansions)
