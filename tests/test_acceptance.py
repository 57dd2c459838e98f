"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single pass/fail line (visible under pytest -s) and
asserts both the mathematical statement and its stated runtime budget.
"""

import time

import pytest

from pik import ajohnson, conj, decomp, endos, fuzz, igroup, lie
from pik.conj import SearchBudget
from pik.igroup import abelianize, collect, conj_elem, direct_endo, to_endo, word_problem
from pik.prng import Lcg


def report(num: int, name: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} ({name}) failed"
    assert elapsed < budget, f"criterion {num} ({name}) exceeded {budget}s: {elapsed:.1f}s"


def test_01_mccool_relations():
    t0 = time.perf_counter()
    ok = all(endos.check_mccool_relations(n).ok for n in range(2, 6))
    report(1, "mccool relations n<=5", ok, time.perf_counter() - t0, 1.0)


def test_02_presentation_relations():
    t0 = time.perf_counter()
    ok = True
    for n in range(3, 6):
        for label, toks in igroup.relation_instances(n):
            if not word_problem(n, toks):
                ok = False
            if not endos.is_identity(direct_endo(n, toks)):
                ok = False
    report(2, "presentation relations n<=5", ok, time.perf_counter() - t0, 5.0)


def test_03_normal_form_faithfulness():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4, 5):
        rng = Lcg(1000 + n)
        for _ in range(500):
            toks = fuzz.random_gen_tokens(rng, n, 30)
            if to_endo(collect(n, toks)).images != direct_endo(n, toks).images:
                ok = False
    report(3, "normal-form faithfulness 3x500", ok, time.perf_counter() - t0, 30.0)


def test_04_conjugacy():
    t0 = time.perf_counter()
    ok = True
    for n in (3, 4):
        rng = Lcg(2000 + n)
        for _ in range(500):
            x, y, budget = fuzz.planted_conjugacy_case(rng, n, 8)
            res = conj.conjugacy(x, y, budget)
            if res.verdict != "conjugate" or conj_elem(res.witness, x) != y:
                ok = False
    refuted = 0
    for n in (3, 4):
        rng = Lcg(3000 + n)
        while refuted < 50 * (n - 2):
            x = fuzz.random_ielem(rng, n, 6)
            y = fuzz.random_ielem(rng, n, 6)
            if abelianize(x) == abelianize(y):
                continue
            if conj.conjugacy(x, y).verdict != "not_conjugate":
                ok = False
            refuted += 1
    report(4, "conjugacy 2x500 planted + 100 refuted", ok, time.perf_counter() - t0, 120.0)


def test_05_and_07_decomposition_and_ranks():
    t0 = time.perf_counter()
    rep3 = decomp.verify_theorem_th1(3, 5)
    rep4 = decomp.verify_theorem_th1(4, 4)
    ok = rep3.ok and rep4.ok
    by_m = {d.m: d for d in rep3.degrees}
    ok = ok and by_m[2].rank_j == 6 and by_m[3].rank_j == 30
    ok = ok and [d.witt_rank for d in rep3.degrees] == [10, 40, 150, 624]
    # criterion 7, bundled: quotient ranks agree with the factor Witt sums
    rows3 = decomp.gr_rank_table(3, 3)
    rows4 = decomp.gr_rank_table(4, 3)
    ok = ok and all(r.ok for r in rows3 + rows4)
    ok = ok and [r.via_factors for r in rows3] == [5, 4, 10]
    elapsed = time.perf_counter() - t0
    report(5, "direct-sum certificates n=3 m<=5, n=4 m<=4", ok, elapsed, 120.0)
    report(7, "graded rank identities", ok, elapsed, 120.0)


def test_06_per_level_splitting():
    t0 = time.perf_counter()
    ok = decomp.verify_lie_certificates(3, 3)[1].ok and decomp.verify_lie_certificates(4, 3)[1].ok
    report(6, "per-level ideal splitting m<=3", ok, time.perf_counter() - t0, 120.0)


def test_08_and_09_embedding_ranks():
    t0 = time.perf_counter()
    ok = True
    for n, cs in ((3, (1, 2, 3)), (4, (1, 2))):
        for c in cs:
            expected = sum(lie.witt(i, c) for i in range(2, n + 1))
            if ajohnson.l1_rank(n, c, c + 2) != expected:
                ok = False
    # spot anchors
    ok = ok and ajohnson.l1_rank(3, 2, 4) == 4 and ajohnson.l1_rank(3, 3, 5) == 10
    elapsed = time.perf_counter() - t0
    # criterion 9, bundled: each equality above certifies the Witt-sum lower bound
    report(8, "embedding rank identities", ok, elapsed, 180.0)
    report(9, "certified lower bounds", ok, elapsed, 180.0)


def test_10_inner_filtration_degrees():
    t0 = time.perf_counter()
    ok = True
    for m in (2, 3):
        for c in (1, 2, 3):
            rep = ajohnson.inner_degree_check(m, c, c + 2)
            if not rep.ok or rep.checked == 0:
                ok = False
    report(10, "inner automorphism filtration degrees", ok, time.perf_counter() - t0, 10.0)


def test_11_negative_controls():
    t0 = time.perf_counter()
    ok = True
    rels = decomp.build_relators(3)
    for victim in rels.of_kind(3):
        rep = decomp.verify_theorem_th1(3, 2, relators=rels.without(victim))
        fail = rep.first_failure()
        if rep.ok or fail is None or fail.m != 2:
            ok = False
        elif fail.witt_rank - fail.direct_sum.rank_sum != 1:
            ok = False
    if endos.check_mccool_relations(3, chi_factory=endos.perturbed_chi).ok:
        ok = False
    report(11, "negative controls fail loudly", ok, time.perf_counter() - t0, 60.0)
