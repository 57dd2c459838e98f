#!/usr/bin/env python3
"""Time conjugacy stage by stage on the benchmark's streams and record it in a BENCH file.

Each of the conj-planted and conj-hard streams, as ``bench/workloads.py``
builds them for a 15 s run, conj-hard-n4, the same draws as conj-hard
(``workloads.hard_pairs`` from ``Lcg(99)``) at rank 4, and conj-long-n3, 60
planted pairs at rank 3 from ``Lcg(5)`` whose conjugators have exactly 14
generator letters, run under the default budget, is a stream of
``timing.py``, run REPEAT times per tree.  conj-long-n3's conjugators lie
beyond the full walk's radius, so it is the stream that times the plateau
on long conjugators.  The stages are entries of ``pik.conj.STAGES``, which
the child replaces in the table by timed wrappers, and the plateau and the
full walk also count the states they expand:

    descent     the descent entry: greedy descent on both sides of a pair,
                and the witness when the descended sides match
    tables      _chunks(k, n) before each S_k entry, which builds S_k's
                pieces and the generators' permutations of their points on
                the first call per k and n in a process
    S_3         the S_3 entry, on the descended sides
    plateau     the plateau-0 entry (slack 0, before S_4) and the plateau
                entry (the larger slacks, after it), so at most two calls a
                pair, with the witness when a slack meets
    S_4         the S_4 entry
    full walk   the full walk entry, on the original sides, with its witness

The tables stage leaves only the quotients' own work in S_3 and S_4, so
their times do not depend on which call builds the tables; after the first
call per k and n it reads the caches.  "other" is the equality, abelianization
and level-2 core entries and the loop over the table.  Counting states adds
one Python call per expanded state to what the walks time.  The child also
counts the ``unknown`` verdicts, and hashes the stream's
``ConjResult.as_dict()`` outputs.  ``outputs_agree`` in the BENCH file says,
per stream, whether every record there has the same SHA-256.
"""

import sys

import timing

STREAMS = ("conj-planted", "conj-hard", "conj-hard-n4", "conj-long-n3")
STAGES = ("descent", "tables", "S_3", "plateau", "S_4", "full walk")
SECONDS = 15
REPEAT = 7
OUT = "BENCH_conj.json"

HOOKS = """
from pik import conj

states.update({"plateau": 0, "full walk": 0})
searching = [None]  # the stage that asks for expand next


def counted_expand(n, orbit_expand=conj._orbit_expand):
    expand = orbit_expand(n)
    stage = searching[0]  # the stage that asked for it

    def counted(state, made_by):
        states[stage] += 1
        return expand(state, made_by)

    return counted


def hard_pairs_n4(seconds):
    # workloads.hard_pairs's draws at rank 4, with conj-hard's default budget
    rng, pairs = workloads.Lcg(99), []
    while len(pairs) < max(1, 3 * seconds):
        x = workloads.collect(4, workloads.gen_tokens(rng, 4, 8))
        a = workloads.collect(4, workloads.gen_tokens(rng, 4, 2))
        b = workloads.collect(4, workloads.gen_tokens(rng, 4, 2))
        y = workloads.imul(x, workloads.commutator_elem(a, b))
        if y != x:
            pairs.append(workloads._hard_op(x, y, conj.SearchBudget().as_dict()))
    return pairs


def long_pairs_n3():
    # ROADMAP Baseline's long planted conjugators: x from gen_tokens(rng, 3, 8),
    # g of exactly 14 generator letters, y = g x g^-1, under the default budget
    rng, ops = workloads.Lcg(5), []
    for _ in range(60):
        x = workloads.collect(3, workloads.gen_tokens(rng, 3, 8))
        g = workloads.collect(3, workloads.tokens_of_length(rng, 3, 14))
        ops.append(workloads._planted_op(x, workloads.conj_elem(g, x), conj.SearchBudget()))
    return ops


def timed_entry(name, run, tables=timed(conj._chunks, lambda k, n: "tables")):
    # the table entry timed as its stage, after S_k's tables for a finite quotient; one of no stage as it is
    stage = "plateau" if name == "plateau-0" else name
    if stage not in STAGES:
        return run
    run = timed(run, lambda call: stage)

    def entry(call):
        if name.startswith("S_"):
            tables(int(name[2:]), call.x.n)
        searching[0] = stage
        return run(call)

    return entry


conj.STAGES = tuple((name, timed_entry(name, run)) for name, run in conj.STAGES)
conj._orbit_expand = counted_expand
if sys.argv[2] == "conj-hard-n4":
    ops = hard_pairs_n4(int(sys.argv[3]))
elif sys.argv[2] == "conj-long-n3":
    ops = long_pairs_n3()
else:
    ops = workloads.WORKLOADS[sys.argv[2]](1, int(sys.argv[3]))
report(ops, lambda res: res.as_dict(), unknown=lambda outputs: sum(res.verdict == "unknown" for res in outputs))
"""


def main(argv: list[str]) -> int:
    trees = timing.trees(argv, __doc__)
    records = {label: {} for label in trees}
    for stream in STREAMS:
        runs = timing.alternate(trees, REPEAT, timing.run_stages, STAGES, HOOKS, stream, SECONDS)
        for label, got in runs.items():
            rec = records[label][stream] = timing.medians(got, stream)
            stages = ", ".join(f"{s} {v['wall_s']}" for s, v in rec["stages"].items())
            print(f"{label}: {stream} {rec['wall_s']} s ({stages}), {rec['peak_rss_mb']} MB, {rec['unknown']} unknown")
        if len(trees) > 1:
            agree = timing.agree(records[label][stream] for label in trees)
            print(f"{stream}: the trees' outputs_sha256 {'agree' if agree else 'DIFFER'}")
    what = (
        f"conj.conjugacy on the conj-planted and conj-hard streams of a {SECONDS} s benchmark run, "
        "on conj-hard's draws at rank 4 (conj-hard-n4) and on 60 planted pairs at rank 3 with "
        "14-letter conjugators under the default budget (conj-long-n3, Lcg(5)): wall time per "
        "stage, states expanded by the plateau and the full walk and unknown verdicts, median of "
        "fresh processes"
    )

    def outputs_agree(runs):
        return {stream: timing.agree(rec[stream] for rec in runs.values() if stream in rec) for stream in STREAMS}

    timing.write_bench(OUT, what, records, outputs_agree=outputs_agree)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
