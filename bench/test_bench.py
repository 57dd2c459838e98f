"""Tests of the benchmark itself: python3 -m pytest bench

The negative controls make sure a tampered witness or rank is flagged, so a
run that reports correct=true has really checked its outputs.
"""

import dataclasses
import signal

import run

run.load_pik()

import checks  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from lcg import Lcg  # noqa: E402
from pik import conj, decomp, fuzz, igroup, lie  # noqa: E402
from pik.prng import Lcg as PikLcg  # noqa: E402
from tracer import Tracer, metric_names  # noqa: E402


def test_lcg_matches_documented_generator():
    ours, theirs = Lcg(2024), PikLcg(2024)
    assert [ours.u32() for _ in range(50)] == [theirs.u32() for _ in range(50)]


def test_cases_replay_the_fuzz_streams():
    for n in (3, 4):
        ours, theirs = Lcg(2000 + n), PikLcg(2000 + n)
        for _ in range(5):
            x, y, budget = workloads.planted_case(ours, n, 8)
            fx, fy, fbudget = fuzz.planted_conjugacy_case(theirs, n, 8)
            assert (x, y, budget) == (fx, fy, fbudget)


def test_witt_matches_library():
    for k in range(1, 8):
        for m in range(1, 8):
            assert checks.witt(k, m) == lie.witt(k, m)


def test_tampered_witness_is_flagged():
    x, y, budget = workloads.planted_case(Lcg(2004), 4, 8)
    res = conj.conjugacy(x, y, budget)
    assert checks.planted_error(res, x, y) is None
    bad = dataclasses.replace(res, witness=igroup.imul(res.witness, igroup.gen_elem(4, 3, 1)))
    assert checks.planted_error(bad, x, y) is not None
    assert checks.planted_error(dataclasses.replace(res, verdict="unknown"), x, y) is not None


def test_verdict_checks():
    x, y = workloads.hard_pairs(Lcg(99), 1)[0]
    bounds = conj.SearchBudget().as_dict()
    unknown = conj.ConjResult("unknown", bounds=bounds)
    assert checks.hard_error(unknown, x, y, bounds) is None
    assert checks.hard_error(conj.ConjResult("unknown"), x, y, bounds) is not None
    assert checks.hard_error(conj.ConjResult("not_conjugate"), x, y, bounds) is not None
    assert checks.mismatch_error(unknown) is not None


def test_tampered_ranks_are_flagged():
    rep = decomp.verify_theorem_th1(3, 3)
    assert checks.th1_error(rep, 3, 3) is None
    d = rep.degrees[-1]
    wrong_y = dataclasses.replace(d, ranks_y=(d.ranks_y[0] + 1,) + d.ranks_y[1:])
    assert checks.th1_error(dataclasses.replace(rep, degrees=rep.degrees[:-1] + (wrong_y,)), 3, 3)
    wrong_sum = dataclasses.replace(d, direct_sum=dataclasses.replace(d.direct_sum, rank_sum=d.witt_rank - 1))
    assert checks.th1_error(dataclasses.replace(rep, degrees=rep.degrees[:-1] + (wrong_sum,)), 3, 3)
    assert checks.th1_error(dataclasses.replace(rep, degrees=rep.degrees[:-1]), 3, 3)
    assert checks.l1_error(10, 3, 3) is None
    assert checks.l1_error(11, 3, 3) is not None


def _traced_counts(ops):
    tracer = Tracer()
    tracer.install()
    try:
        for k, op in enumerate(ops):
            tracer.op_id = k
            op.run()
    finally:
        tracer.uninstall()
    return tracer


def test_trace_counts_repeat_and_bindings_restore():
    original = conj.conj_by_gen
    ops = workloads.conj_planted(3, 1)[:6] + workloads.normal_form(3, 1)[:6]
    a, b = _traced_counts(ops), _traced_counts(ops)
    ma, mb = a.metrics(), b.metrics()
    counts = [k for k in ma if k.endswith((".calls", ".count", ".rows_in"))]
    assert [ma[k] for k in counts] == [mb[k] for k in counts]
    assert ma["igroup.conj_by_gen.calls"] > 0  # bound in conj by name
    assert conj.conj_by_gen is original and igroup.imul is not None
    assert set(ma) | {"trace.ops_ratio"} == {name for name, _, _ in metric_names()}


def test_busy_and_self_time():
    x = workloads.collect(3, workloads.gen_tokens(Lcg(5), 3, 20))
    tracer = Tracer()
    tracer.install()
    try:
        tracer.op_id = 0
        igroup.to_endo(x)
    finally:
        tracer.uninstall()
    m = tracer.metrics()
    # compose encloses every apply: both have busy time, the layer counts it once.
    assert m["endos.compose.busy_s"] >= m["endos.apply.busy_s"] > 0
    assert m["endos.busy_s"] == m["endos.compose.busy_s"]
    total = m["igroup.to_endo.busy_s"]
    assert m["igroup.busy_s"] == total
    assert abs(m["igroup.self_s"] + m["endos.self_s"] + m["words.self_s"] - total) < 1e-6


def test_meter_samples_during_the_call_and_restores_the_timer():
    meter = speed.Meter()
    previous = signal.getsignal(signal.SIGALRM)
    out, wall, ref = meter.measure(lambda: sum(speed.kernel() for _ in range(400)))
    assert out > 0 and wall > 0 and ref > 0
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_meter_rescales_by_kernel_time_and_drops_preempted_samples(monkeypatch):
    meter = speed.Meter()
    slow = 2 * speed.REF_S
    samples = iter([slow, slow, 100 * slow] + [slow] * 10)
    monkeypatch.setattr(speed, "sample", lambda: next(samples))
    _, wall, ref = meter.measure(lambda: None)
    assert abs(ref - wall / 2) < 1e-12
