"""The four workloads: seeded inputs, the timed call, and its output check.

Every op is one call a user of pik waits for.  Inputs are built only through
public calls (collect, conj_elem, imul, commutator_elem, SearchBudget).  The
amount of work is fixed by --seconds through per-workload rates set so that
a run's ops take about that long on a 2-vCPU reference machine; it never
depends on how fast the code under test is, so two commits do the same work.

The conjugacy workloads replay fixed case streams in stream order and do not
read --seed.  Their cost and verdict mix are set by a handful of cases (on
conj-planted, four of the first fifty n=4 cases take 18 of 21 s; on
conj-hard, about a quarter of the pairs are decided), so drawing fresh cases
per seed moved ops_per_s by 2x and decided_share by +-20 % between seeds.
Shuffling the order per seed moved single ops by up to a third, because
igroup memoizes across calls and an op is faster after ops that share its
states.  normal-form draws fresh words from --seed; lie-certs has no random
input.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from pik import ajohnson, conj, decomp, igroup
from pik.conj import SearchBudget
from pik.igroup import collect, commutator_elem, conj_elem, imul
from pik.words import Token

import checks
from lcg import Lcg


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    decided: Callable[[object], bool] = lambda out: True


def gen_tokens(rng: Lcg, n: int, max_len: int) -> list[Token]:
    """A random generator word; same draws as the acceptance-suite fuzz."""
    return tokens_of_length(rng, n, rng.below(max_len + 1))


def tokens_of_length(rng: Lcg, n: int, length: int) -> list[Token]:
    gens = igroup.generators(n)
    out = []
    for _ in range(length):
        m, i = gens[rng.below(len(gens))]
        out.append(Token("y", m, i, rng.sign()))
    return out


def planted_case(rng: Lcg, n: int, max_len: int):
    """(x, y, budget) with y = g x g^-1; the budget makes the walk complete for g."""
    x_tokens = gen_tokens(rng, n, max_len)
    g_tokens = gen_tokens(rng, n, max_len)
    x = collect(n, x_tokens)
    y = conj_elem(collect(n, g_tokens), x)
    budget = SearchBudget(gen_radius=max(len(g_tokens), 1), max_states=400_000, max_len=10, coset=8)
    return x, y, budget


def mismatched_pairs(rng: Lcg, n: int, count: int):
    out = []
    while len(out) < count:
        x = collect(n, gen_tokens(rng, n, 6))
        y = collect(n, gen_tokens(rng, n, 6))
        if igroup.abelianize(x) != igroup.abelianize(y):
            out.append((x, y))
    return out


def hard_pairs(rng: Lcg, count: int):
    """(x, x [a, b]) at n=3 with x != y: equal abelianizations, rarely decided."""
    out = []
    while len(out) < count:
        x = collect(3, gen_tokens(rng, 3, 8))
        a = collect(3, gen_tokens(rng, 3, 2))
        b = collect(3, gen_tokens(rng, 3, 2))
        y = imul(x, commutator_elem(a, b))
        if y != x:
            out.append((x, y))
    return out


def _conj_decided(res) -> bool:
    return res.verdict != "unknown"


def _planted_op(x, y, budget) -> Op:
    return Op(
        "planted",
        lambda: conj.conjugacy(x, y, budget),
        lambda res: checks.planted_error(res, x, y),
        _conj_decided,
    )


def _mismatch_op(x, y) -> Op:
    return Op("mismatch", lambda: conj.conjugacy(x, y), checks.mismatch_error, _conj_decided)


def _hard_op(x, y, bounds: dict) -> Op:
    return Op(
        "hard",
        lambda: conj.conjugacy(x, y),
        lambda res: checks.hard_error(res, x, y, bounds),
        _conj_decided,
    )


def conj_planted(seed: int, seconds: int) -> list[Op]:
    """Acceptance 04's streams in its proportions (500:500 planted, 50:100
    mismatched at n=3:4): the first k planted cases of each n, k/10 and k/5
    mismatched pairs."""
    k = max(1, round(2.5 * seconds))
    ops = []
    for n in (3, 4):
        rng = Lcg(2000 + n)
        ops += [_planted_op(*planted_case(rng, n, 8)) for _ in range(k)]
    for n, count in ((3, max(1, k // 10)), (4, max(1, k // 5))):
        ops += [_mismatch_op(x, y) for x, y in mismatched_pairs(Lcg(3000 + n), n, count)]
    return ops


def conj_hard(seed: int, seconds: int) -> list[Op]:
    bounds = SearchBudget().as_dict()
    return [_hard_op(x, y, bounds) for x, y in hard_pairs(Lcg(99), max(1, 3 * seconds))]


def _normal_form_op(n: int, tokens: list[Token]) -> Op:
    def run():
        collected = igroup.to_endo(igroup.collect(n, tokens)).images
        return collected, igroup.direct_endo(n, tokens).images

    return Op("normal-form", run, checks.normal_form_error)


def normal_form(seed: int, seconds: int) -> list[Op]:
    """Words at n = 3, 4, 5 in turn, of lengths 0..30 in turn, letters from the seed.

    An op's cost grows steeply with the word's length, so drawing lengths at
    random as acceptance 03 does spread ops_per_s by 0.25 between seeds at
    264 ops; cycling through the lengths cut that to 0.10.
    """
    rng = Lcg(seed)
    count = 3 * max(1, round(22 * seconds))
    return [_normal_form_op(n, tokens_of_length(rng, n, (k // 3) % 31))
            for k, n in enumerate((3, 4, 5) * (count // 3))]


def _th1_op(n: int, max_m: int) -> Op:
    return Op(
        "th1",
        lambda: decomp.verify_theorem_th1(n, max_m),
        lambda rep: checks.th1_error(rep, n, max_m),
    )


def _l1_op(n: int, c: int, trunc: int) -> Op:
    return Op(
        "l1",
        lambda: ajohnson.l1_rank(n, c, trunc),
        lambda rank: checks.l1_error(rank, n, c),
    )


def lie_certs(seed: int, seconds: int) -> list[Op]:
    """Th1 at (3,6) and (4,4), then l1_rank at (3,4,6) and (4,3,5), in this
    fixed order; one pass takes 6-12 s of wall time.  The seed is unused."""
    jobs = [_th1_op(3, 6), _th1_op(4, 4), _l1_op(3, 4, 6), _l1_op(4, 3, 5)]
    return jobs * max(1, round(seconds / 8))


WORKLOADS: dict[str, Callable[[int, int], list[Op]]] = {
    "conj-planted": conj_planted,
    "conj-hard": conj_hard,
    "normal-form": normal_form,
    "lie-certs": lie_certs,
}
