"""Output checks.  Each returns None when the output is right, else a reason.

They run outside the timed region and do not reuse the code under test for
the property they check: witnesses are re-multiplied in Aut(F_n) rather than
in the normal form, and ranks are compared with Witt ranks computed here.
"""

from __future__ import annotations

from typing import Optional

from pik import endos, igroup


def mobius(d: int) -> int:
    mu = 1
    p = 2
    while p * p <= d:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if d > 1 else mu


def witt(k: int, m: int) -> int:
    """Rank of the degree-m part of the free Lie algebra on k letters."""
    total = sum(mobius(d) * k ** (m // d) for d in range(1, m + 1) if m % d == 0)
    return total // m


def alphabet_size(n: int) -> int:
    """Number of generators y(m, i), 2 <= m <= n, 1 <= i <= m."""
    return (n - 1) * (n + 2) // 2


def witness_error(w, x, y) -> Optional[str]:
    """w x w^-1 = y, checked on the images of the free generators."""
    fw = igroup.to_endo(w)
    lhs = endos.compose(endos.compose(fw, igroup.to_endo(x)), endos.inverse(fw))
    if lhs.images != igroup.to_endo(y).images:
        return "witness does not conjugate x to y in Aut(F_n)"
    return None


def planted_error(res, x, y) -> Optional[str]:
    if res.verdict != "conjugate":
        return f"planted pair answered {res.verdict!r}"
    return witness_error(res.witness, x, y)


def mismatch_error(res) -> Optional[str]:
    if res.verdict != "not_conjugate":
        return f"abelianization-mismatched pair answered {res.verdict!r}"
    return None


def hard_error(res, x, y, budget_bounds: dict) -> Optional[str]:
    if res.verdict == "conjugate":
        return witness_error(res.witness, x, y)
    if res.verdict == "not_conjugate":
        return None if res.reason else "not_conjugate without a reason"
    if res.verdict == "unknown":
        return None if res.bounds == budget_bounds else "unknown without its bounds"
    return f"unexpected verdict {res.verdict!r}"


def th1_error(rep, n: int, max_m: int) -> Optional[str]:
    if not rep.ok:
        return "Th1 direct-sum certificate failed"
    k = alphabet_size(n)
    if [d.m for d in rep.degrees] != list(range(2, max_m + 1)):
        return "Th1 report does not cover degrees 2..max_m"
    for d in rep.degrees:
        if d.direct_sum.rank_sum != witt(k, d.m):
            return f"m={d.m}: rank_sum {d.direct_sum.rank_sum} != witt({k},{d.m})"
        want_y = tuple(witt(i, d.m) for i in range(2, n + 1))
        if tuple(d.ranks_y) != want_y:
            return f"m={d.m}: ranks_Y {tuple(d.ranks_y)} != {want_y}"
    return None


def l1_error(rank: int, n: int, c: int) -> Optional[str]:
    want = sum(witt(i, c) for i in range(2, n + 1))
    return None if rank == want else f"l1_rank {rank} != {want}"


def normal_form_error(out) -> Optional[str]:
    collected_images, direct_images = out
    if collected_images != direct_images:
        return "to_endo(collect(w)) differs from direct_endo(w)"
    return None
