#!/usr/bin/env python3
"""Time conjugacy stage by stage on the benchmark's streams and record it in a BENCH file.

Each of these streams, run under the default budget, is a stream of
``timing.py``, run REPEAT times per tree:

    conj-planted, conj-hard
                  as ``bench/workloads.py`` builds them for a 15 s run
    conj-hard-n4  hard_pairs(4, 45), conj-hard's draws at rank 4
    conj-g3-n3, conj-g3-n4
                  gamma3_pairs(3, 200) and gamma3_pairs(4, 100), the pairs
                  that tests/test_conj.py pins with their 11 unknowns each
    conj-long-n3  long_pairs(), planted pairs whose conjugators lie beyond
                  the full walk's radius, so it times the plateau on long
                  conjugators

The draw functions below are the one copy of these streams: the tests
import them too.  Each imports pik when it is called, from the tree that
the child runs on, so this script itself never imports pik.  The stages
are entries of ``pik.conj.STAGES``, which
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

STREAMS = ("conj-planted", "conj-hard", "conj-hard-n4", "conj-g3-n3", "conj-g3-n4", "conj-long-n3")
STAGES = ("descent", "tables", "S_3", "plateau", "S_4", "full walk")
SECONDS = 15
REPEAT = 7
OUT = "BENCH_conj.json"

HOOKS = """
import conj_timings
from pik import conj

states.update({"plateau": 0, "full walk": 0})
searching = [None]  # the stage that asks for expand next


def counted_expand(n, state, made_by, expand=conj._expand):
    states[searching[0]] += 1
    return expand(n, state, made_by)


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
conj._expand = counted_expand
stream, seconds = sys.argv[2], int(sys.argv[3])
drawn = {  # the streams of x against a perturbed x, with conj-hard's default budget
    "conj-hard-n4": lambda: conj_timings.hard_pairs(4, max(1, 3 * seconds)),
    "conj-g3-n3": lambda: conj_timings.gamma3_pairs(3, 200),
    "conj-g3-n4": lambda: conj_timings.gamma3_pairs(4, 100),
}
if stream in drawn:
    ops = [workloads._hard_op(x, y, conj.SearchBudget().as_dict()) for x, y in drawn[stream]()]
elif stream == "conj-long-n3":
    ops = [workloads._planted_op(x, y, conj.SearchBudget()) for x, y in conj_timings.long_pairs()]
else:
    ops = workloads.WORKLOADS[stream](1, seconds)
report(ops, lambda res: res.as_dict(), unknown=lambda outputs: sum(res.verdict == "unknown" for res in outputs))
"""


def hard_pairs(n: int, count: int) -> list:
    """The first count pairs (x, x [a, b]) at rank n drawn from Lcg(99), a draw with y = x skipped.

    The draws are bench/workloads.py's hard_pairs at rank n: x is
    random_ielem(rng, n, 8), then a and b are each random_ielem(rng, n, 2).
    hard_pairs(3, 45) is conj-hard's stream for a 15 s run.
    """
    from pik.fuzz import random_ielem
    from pik.igroup import commutator_elem, imul
    from pik.prng import Lcg

    rng, pairs = Lcg(99), []
    while len(pairs) < count:
        x = random_ielem(rng, n, 8)
        y = imul(x, commutator_elem(random_ielem(rng, n, 2), random_ielem(rng, n, 2)))
        if y != x:
            pairs.append((x, y))
    return pairs


def gamma3_pairs(n: int, count: int) -> list:
    """The first count pairs (x, x [[a, b], c]) at rank n drawn from Lcg(77), a draw with y = x skipped.

    x is random_ielem(rng, n, 8), then a, b and c, in that order, are each
    random_ielem(rng, n, 2).  Class 2 cannot tell the sides apart.
    """
    from pik.fuzz import random_ielem
    from pik.igroup import commutator_elem, imul
    from pik.prng import Lcg

    rng, pairs = Lcg(77), []
    while len(pairs) < count:
        x = random_ielem(rng, n, 8)
        a, b, c = (random_ielem(rng, n, 2) for _ in range(3))
        y = imul(x, commutator_elem(commutator_elem(a, b), c))
        if y != x:
            pairs.append((x, y))
    return pairs


def long_pairs() -> list:
    """60 planted pairs (x, g x g^-1) at rank 3 drawn from Lcg(5), each g of exactly 14 generator letters.

    x is random_ielem(rng, 3, 8), then g's letters are drawn one by one as
    bench/workloads.py's tokens_of_length draws them.
    """
    from pik.fuzz import random_ielem
    from pik.igroup import collect, conj_elem, generators
    from pik.prng import Lcg
    from pik.words import Token

    rng, gens, pairs = Lcg(5), generators(3), []
    for _ in range(60):
        x = random_ielem(rng, 3, 8)
        g = collect(3, [Token("y", *gens[rng.below(len(gens))], rng.sign()) for _ in range(14)])
        pairs.append((x, conj_elem(g, x)))
    return pairs


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
        "on conj-hard's draws at rank 4 (conj-hard-n4), on the first 200 (n=3) and 100 (n=4) pairs "
        "of x against x [[a, b], c] (conj-g3-n3 and conj-g3-n4, Lcg(77)) and on 60 planted pairs at "
        "rank 3 with 14-letter conjugators (conj-long-n3, Lcg(5)), under the default budget: wall "
        "time per stage, states expanded by the plateau and the full walk and unknown verdicts, "
        "median of fresh processes"
    )

    def outputs_agree(runs):
        return {stream: timing.agree(rec[stream] for rec in runs.values() if stream in rec) for stream in STREAMS}

    timing.write_bench(OUT, what, records, outputs_agree=outputs_agree)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
