"""Endomorphisms of a free group given by generator images.

Houses the basis-conjugating generators chi(i, j), the partial inner
generators realized as automorphisms, and the relation checker for the
basis-conjugating relation families.

Composition convention, fixed once for the whole package:

    compose(f, g) applies g first:  compose(f, g)(x) = f(g(x))

and the group commutator is [a, b] = a^-1 b^-1 a b.  Every formula
transcribed from conjugation notation goes through this convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .words import (
    FreeWord,
    Letter,
    Token,
    WordError,
    _inverse,
    _raw,
    format_x_word,
    gen,
    invert,
    multiply,
    parse_word,
    word,
)


class EndoError(ValueError):
    pass


@dataclass(frozen=True)
class EndoF:
    """Endomorphism of F_rank; images[k] is the image of x_{k+1}.

    inv_images, when present, is a checked inverse: the endomorphism is then
    a flagged automorphism.
    """

    rank: int
    images: tuple[FreeWord, ...]
    inv_images: Optional[tuple[FreeWord, ...]] = None

    def __post_init__(self) -> None:
        if len(self.images) != self.rank:
            raise EndoError(f"need {self.rank} images, got {len(self.images)}")
        for im in self.images:
            if im.rank != self.rank:
                raise EndoError("image rank mismatch")

    @property
    def invertible(self) -> bool:
        return self.inv_images is not None


def identity_endo(n: int) -> EndoF:
    imgs = tuple(gen(n, i) for i in range(1, n + 1))
    return EndoF(n, imgs, imgs)


def apply(f: EndoF, w: FreeWord) -> FreeWord:
    """Image of w under f, freely reduced."""
    if f.rank != w.rank:
        raise EndoError(f"rank mismatch: endo {f.rank}, word {w.rank}")
    # Images and the output so far are reduced, so each pushed image cancels
    # only against the tail of the output.
    out: list[Letter] = []
    pop = out.pop
    for idx, sign in w.letters:
        img = f.images[idx - 1].letters
        if sign < 0:
            img = _inverse(img)
        c = 0
        while out and c < len(img):
            i, s = img[c]
            if out[-1] != (i, -s):
                break
            pop()
            c += 1
        out.extend(img[c:])
    return _raw(f.rank, tuple(out))


def compose(f: EndoF, g: EndoF) -> EndoF:
    """compose(f, g)(x) = f(g(x)); inverses propagate when both are flagged."""
    if f.rank != g.rank:
        raise EndoError(f"rank mismatch: {f.rank} != {g.rank}")
    images = tuple(apply(f, im) for im in g.images)
    inv = None
    if f.inv_images is not None and g.inv_images is not None:
        ginv = EndoF(g.rank, g.inv_images)
        finv = EndoF(f.rank, f.inv_images)
        inv = tuple(apply(ginv, im) for im in finv.images)
    return EndoF(f.rank, images, inv)


def compose_all(n: int, endos: Iterable[EndoF]) -> EndoF:
    acc = identity_endo(n)
    for e in endos:
        acc = compose(acc, e)
    return acc


def inverse(f: EndoF) -> EndoF:
    if f.inv_images is None:
        raise EndoError("endomorphism is not flagged invertible")
    return EndoF(f.rank, f.inv_images, f.images)


def is_identity(f: EndoF) -> bool:
    return all(im.letters == ((i + 1, 1),) for i, im in enumerate(f.images))


def automorphism(images: Sequence[FreeWord], inv_images: Sequence[FreeWord]) -> EndoF:
    """Build a flagged automorphism, checking both compositions on generators."""
    n = len(images)
    f = EndoF(n, tuple(images))
    finv = EndoF(n, tuple(inv_images))
    if not (is_identity(compose(f, finv)) and is_identity(compose(finv, f))):
        raise EndoError("stored inverse does not compose to the identity")
    return EndoF(n, tuple(images), tuple(inv_images))


def chi(n: int, i: int, j: int) -> EndoF:
    """x_i |-> x_j^-1 x_i x_j, all other generators fixed."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise EndoError(f"chi indices outside 1..{n}")
    if i == j:
        raise EndoError("chi requires i != j")
    images = []
    inv_images = []
    for k in range(1, n + 1):
        if k == i:
            images.append(word(n, [(j, -1), (i, 1), (j, 1)]))
            inv_images.append(word(n, [(j, 1), (i, 1), (j, -1)]))
        else:
            images.append(gen(n, k))
            inv_images.append(gen(n, k))
    return EndoF(n, tuple(images), tuple(inv_images))


def y_gen(n: int, m: int, i: int) -> EndoF:
    """Conjugate x_1..x_m by x_i, fix x_{m+1}..x_n.

    Equals the composition chi(1,i) ... chi(m,i) with chi(i,i) omitted; the
    factors commute since each moves a different generator.
    """
    if not (2 <= m <= n):
        raise EndoError(f"level m={m} outside 2..{n}")
    if not (1 <= i <= m):
        raise EndoError(f"conjugating index i={i} outside 1..{m}")
    images = []
    inv_images = []
    for k in range(1, n + 1):
        if k <= m and k != i:
            images.append(word(n, [(i, -1), (k, 1), (i, 1)]))
            inv_images.append(word(n, [(i, 1), (k, 1), (i, -1)]))
        else:
            images.append(gen(n, k))
            inv_images.append(gen(n, k))
    return EndoF(n, tuple(images), tuple(inv_images))


def tau(g: FreeWord) -> EndoF:
    """Inner automorphism w |-> g w g^-1."""
    n = g.rank
    ginv = invert(g)
    images = tuple(multiply(multiply(g, gen(n, k)), ginv) for k in range(1, n + 1))
    inv_images = tuple(multiply(multiply(ginv, gen(n, k)), g) for k in range(1, n + 1))
    return EndoF(n, images, inv_images)


def commutator_endo(a: EndoF, b: EndoF) -> EndoF:
    """[a, b] = a^-1 b^-1 a b as a composition."""
    return compose(compose(compose(inverse(a), inverse(b)), a), b)


def word_to_endo(n: int, tokens: Iterable[Token]) -> EndoF:
    """Evaluate a word in c(i,j) / y(m,i) generators as an automorphism."""
    acc = identity_endo(n)
    for t in tokens:
        if t.kind == "c":
            base = chi(n, t.a, t.b)
        elif t.kind == "y":
            base = y_gen(n, t.a, t.b)
        else:
            raise WordError(f"cannot evaluate {t.kind!r}-generator as an automorphism")
        factor = base if t.exp > 0 else inverse(base)
        for _ in range(abs(t.exp)):
            acc = compose(acc, factor)
    return acc


def parse_endo_word(n: int, s: str) -> EndoF:
    return word_to_endo(n, parse_word(s))


# ---------------------------------------------------------------------------
# Relation checking.  The three defining relation families of the
# basis-conjugating group, instances indexed by pairwise distinct letters:
#   [chi_ij, chi_kj] = [chi_ij, chi_kl] = [chi_ij chi_kj, chi_ik] = 1.
# Evaluating on generators suffices for endomorphism equality.
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
    """Evaluate every relation instance as automorphisms of F_n.

    chi_factory is injectable so a perturbed generator can be used as a
    negative control.
    """
    if n < 2:
        raise EndoError("need n >= 2")
    instances = 0
    failures: list[str] = []

    def record(label: str, f: EndoF) -> None:
        nonlocal instances
        instances += 1
        if not is_identity(f):
            failures.append(label)

    rng = range(1, n + 1)
    for i in rng:
        for j in rng:
            for k in rng:
                if len({i, j, k}) != 3:
                    continue
                a, b = chi_factory(n, i, j), chi_factory(n, k, j)
                record(f"[chi({i},{j}),chi({k},{j})]", commutator_endo(a, b))
                prod = compose(a, b)
                record(
                    f"[chi({i},{j})chi({k},{j}),chi({i},{k})]",
                    commutator_endo(prod, chi_factory(n, i, k)),
                )
                for l in rng:
                    if len({i, j, k, l}) != 4:
                        continue
                    record(
                        f"[chi({i},{j}),chi({k},{l})]",
                        commutator_endo(a, chi_factory(n, k, l)),
                    )
    return RelationReport(n, instances, tuple(failures))


def perturbed_chi(n: int, i: int, j: int) -> EndoF:
    """Deliberately wrong chi family; test fixture for the negative control.

    The (1, 2) generator conjugates by x_2^2 instead of x_2, which still
    commutes where it should but breaks the mixed relation family.
    """
    if (i, j) != (1, 2):
        return chi(n, i, j)
    images = []
    inv_images = []
    for k in range(1, n + 1):
        if k == i:
            images.append(word(n, [(j, -1), (j, -1), (i, 1), (j, 1), (j, 1)]))
            inv_images.append(word(n, [(j, 1), (j, 1), (i, 1), (j, -1), (j, -1)]))
        else:
            images.append(gen(n, k))
            inv_images.append(gen(n, k))
    return EndoF(n, tuple(images), tuple(inv_images))


def format_endo(f: EndoF) -> str:
    cols = [f"x{k+1} -> {format_x_word(im) or '1'}" for k, im in enumerate(f.images)]
    return "; ".join(cols)
