"""Endomorphisms of a free group given by generator images.

Houses the basis-conjugating generators chi(i, j), the partial inner
generators realized as automorphisms, and the relation checker for the
basis-conjugating relation families.

Composition convention, fixed once for the whole package:

    compose(f, g) applies g first:  compose(f, g)(x) = f(g(x))

and the group commutator is [a, b] = a^-1 b^-1 a b.  Every formula
transcribed from conjugation notation goes through this convention.

A map is known by its images alone.  compose, apply and is_identity read
only images; an inverse is carried only where something inverts the map
(see EndoF), and a commutator relation [a, b] = 1 is checked as ab = ba.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from .words import (
    FreeWord,
    _raw,
    _substitute,
    decode,
    encode,
    gen,
    invert,
    multiply,
    word,
)


class EndoError(ValueError):
    pass


@dataclass(frozen=True)
class EndoF:
    """Endomorphism of F_rank; images[k] is the image of x_{k+1}.

    _inverse, when present, makes the inverse's images: the endomorphism is
    then a flagged automorphism that inverse() can invert, and a map that
    is never inverted never builds them.  Only y_gen, automorphism (which
    checks the images it is given), inverse (which hands back this map's
    images) and igroup.to_endo set it; compose and the other constructors
    leave it None.  Maps are equal when their images are: _inverse is
    neither compared nor shown.
    """

    rank: int
    images: tuple[FreeWord, ...]
    _inverse: Optional[Callable[[], tuple[FreeWord, ...]]] = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise EndoError(f"need {self.rank} images, got {len(self.images)}")
        for im in self.images:
            if im.rank != self.rank:
                raise EndoError("image rank mismatch")


def apply(f: EndoF, w: FreeWord) -> FreeWord:
    """Image of w under f, freely reduced."""
    if f.rank != w.rank:
        raise EndoError(f"rank mismatch: endo {f.rank}, word {w.rank}")
    return _raw(f.rank, _substitute([im.letters for im in f.images], (w.letters,))[0])


def compose(f: EndoF, g: EndoF) -> EndoF:
    """compose(f, g)(x) = f(g(x)), by images; the result carries no inverse."""
    if f.rank != g.rank:
        raise EndoError(f"rank mismatch: {f.rank} != {g.rank}")
    return EndoF(f.rank, tuple(apply(f, im) for im in g.images))


def inverse(f: EndoF) -> EndoF:
    if f._inverse is None:
        raise EndoError("endomorphism is not flagged invertible")
    return EndoF(f.rank, f._inverse(), lambda: f.images)


def is_identity(f: EndoF) -> bool:
    return all(decode(im.letters) == [(i, 1)] for i, im in enumerate(f.images, 1))


def automorphism(images: Sequence[FreeWord], inv_images: Sequence[FreeWord]) -> EndoF:
    """Build a flagged automorphism, checking both compositions on generators."""
    n = len(images)
    f = EndoF(n, tuple(images))
    finv = EndoF(n, tuple(inv_images))
    if not (is_identity(compose(f, finv)) and is_identity(compose(finv, f))):
        raise EndoError("stored inverse does not compose to the identity")
    return EndoF(n, f.images, lambda: finv.images)


def chi(n: int, i: int, j: int) -> EndoF:
    """x_i |-> x_j^-1 x_i x_j, all other generators fixed."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise EndoError(f"chi indices outside 1..{n}")
    if i == j:
        raise EndoError("chi requires i != j")
    images = [gen(n, k) for k in range(1, n + 1)]
    images[i - 1] = word(n, [(j, -1), (i, 1), (j, 1)])
    return EndoF(n, tuple(images))


def y_gen(n: int, m: int, i: int) -> EndoF:
    """Conjugate x_1..x_m by x_i, fix x_{m+1}..x_n.

    Equals the composition chi(1,i) ... chi(m,i) with chi(i,i) omitted; the
    factors commute since each moves a different generator.  Its inverse's
    images, y(m,i)^-1's, are made without composing, and igroup's generator
    table reads them.
    """
    if not (2 <= m <= n):
        raise EndoError(f"level m={m} outside 2..{n}")
    if not (1 <= i <= m):
        raise EndoError(f"conjugating index i={i} outside 1..{m}")

    def conjugated(e: int) -> tuple[FreeWord, ...]:  # x_k |-> x_i^-e x_k x_i^e for k <= m
        return tuple(
            _raw(n, encode([(i, -e), (k, 1), (i, e)] if k <= m and k != i else [(k, 1)]))
            for k in range(1, n + 1)
        )

    return EndoF(n, conjugated(1), lambda: conjugated(-1))


def tau(g: FreeWord) -> EndoF:
    """Inner automorphism w |-> g w g^-1."""
    n = g.rank
    ginv = invert(g)
    return EndoF(n, tuple(multiply(multiply(g, gen(n, k)), ginv) for k in range(1, n + 1)))


# ---------------------------------------------------------------------------
# Relation checking.  The three defining relation families of the
# basis-conjugating group, instances indexed by pairwise distinct letters:
#   [chi_ij, chi_kj] = [chi_ij, chi_kl] = [chi_ij chi_kj, chi_ik] = 1.
# In any group [a, b] = 1 exactly when ab = ba, so each instance is checked
# as compose(a, b) == compose(b, a) on the generator images, which needs no
# inverse.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RelationReport:
    n: int
    instances: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        return {"n": self.n, "instances": self.instances, "failures": list(self.failures)}


def check_mccool_relations(n: int, chi_factory=chi) -> RelationReport:
    """Evaluate every relation instance as a commutation of maps of F_n.

    chi_factory is injectable so a perturbed generator can be used as a
    negative control.
    """
    if n < 2:
        raise EndoError("need n >= 2")
    instances = 0
    failures: list[str] = []

    def record(label: str, a: EndoF, b: EndoF) -> None:
        nonlocal instances
        instances += 1
        if compose(a, b).images != compose(b, a).images:
            failures.append(label)

    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                if len({i, j, k}) != 3:
                    continue
                a, b = chi_factory(n, i, j), chi_factory(n, k, j)
                record(f"[chi({i},{j}),chi({k},{j})]", a, b)
                record(
                    f"[chi({i},{j})chi({k},{j}),chi({i},{k})]",
                    compose(a, b),
                    chi_factory(n, i, k),
                )
                for l in rng:
                    if len({i, j, k, l}) != 4:
                        continue
                    record(f"[chi({i},{j}),chi({k},{l})]", a, chi_factory(n, k, l))
    return RelationReport(n, instances, tuple(failures))


def perturbed_chi(n: int, i: int, j: int) -> EndoF:
    """Deliberately wrong chi family; test fixture for the negative control.

    The (1, 2) generator conjugates by x_2^2 instead of x_2, which still
    commutes where it should but breaks the mixed relation family.
    """
    if (i, j) != (1, 2):
        return chi(n, i, j)
    images = [gen(n, k) for k in range(1, n + 1)]
    images[i - 1] = word(n, [(j, -1), (j, -1), (i, 1), (j, 1), (j, 1)])
    return EndoF(n, tuple(images))
