#!/usr/bin/env python3
"""Time the Th1 direct-sum certificate, l1_rank and both Lie certificates, and record them in a BENCH file.

Each Th1 case (n, m) runs ``decomp.verify_theorem_th1(n, m)``, each
l1_rank case (n, c) runs ``ajohnson.l1_rank(n, c, c + 2)`` and checks it
against the sum of the per-level Witt ranks, and each certs case (n, m)
runs ``decomp.verify_lie_certificates(n, m)``, Th1 and the splitting of J
into the T_r from one pass over J, which must pass both.  ``timing.py``
runs each case REPEAT times per tree.  The child reports the wall time of
the call, the part of it spent inside ``lie.lattice_from_rows`` (the
echelon, timed with ``timing.py``'s stage hook, which adds one Python call
per echelon), and its peak RSS (``ru_maxrss``, which includes the
interpreter and numpy).  The record for a label is the median of the runs
for each case, next to the raw runs, keyed "n,m" for Th1, "l1_rank n,c"
for l1_rank and "certs n,m" for the certs cases.

The child caps its own address space at AS_LIMIT bytes, so a case that
needs more fails with a MemoryError instead of pushing the machine out of
memory.  A run that does not exit 0 is recorded by its exit status in
"runs_exit" (a negative status is the signal that killed it), and the
medians are taken over the runs that completed; a case with none has no
medians.  A run that completes with a wrong answer stops the script.
"""

import statistics
import sys

import timing

CASES = (
    ("th1", 3, 6),
    ("th1", 4, 4),
    ("th1", 4, 5),
    ("th1", 5, 4),
    ("th1", 4, 6),
    ("th1", 5, 5),
    ("th1", 6, 5),
    ("th1", 4, 7),
    ("l1_rank", 3, 5),
    ("l1_rank", 4, 4),
    ("l1_rank", 5, 3),
    ("certs", 4, 5),
    ("certs", 4, 6),
    ("certs", 5, 5),
)
REPEAT = 3
OUT = "BENCH_th1.json"
AS_LIMIT = 4 << 30

CHILD = f"""
import json, resource, sys
resource.setrlimit(resource.RLIMIT_AS, ({AS_LIMIT}, {AS_LIMIT}))
STAGES = ("echelon",)
{timing.TIMED}
import pik
from pik import ajohnson, decomp, lie
echelon = timed(lie.lattice_from_rows, lambda rows, dim: "echelon")
for module in (lie, decomp, ajohnson):
    module.lattice_from_rows = echelon
kind, n, m = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
start = time.perf_counter()
if kind == "th1":
    ok = decomp.verify_theorem_th1(n, m).ok
elif kind == "certs":
    th1, tilde = decomp.verify_lie_certificates(n, m)
    ok = th1.ok and tilde.ok
else:
    ok = ajohnson.l1_rank(n, m, m + 2) == sum(lie.witt(i, m) for i in range(2, n + 1))
total = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({{"pik": pik.__file__, "ok": ok, "wall_s": total, "echelon_s": wall["echelon"], "peak_rss_mb": rss}}))
"""


def main(argv: list[str]) -> int:
    trees = timing.trees(argv, __doc__)
    records = {label: {} for label in trees}
    for kind, n, m in CASES:
        key = f"{n},{m}" if kind == "th1" else f"{kind} {n},{m}"
        runs = timing.alternate(trees, REPEAT, timing.run, CHILD, kind, n, m)
        for label, got in runs.items():
            done = [g for g in got if "exit" not in g]
            if not all(g["ok"] for g in done):
                raise SystemExit(f"{kind} failed at ({n},{m}) on {label}")
            case = records[label][key] = {"runs_exit": [g.get("exit", 0) for g in got]}
            if done:
                case.update(
                    wall_s=round(statistics.median(g["wall_s"] for g in done), 4),
                    echelon_s=round(statistics.median(g["echelon_s"] for g in done), 4),
                    peak_rss_mb=round(statistics.median(g["peak_rss_mb"] for g in done), 1),
                    runs_wall_s=[round(g["wall_s"], 4) for g in done],
                    runs_peak_rss_mb=[round(g["peak_rss_mb"], 1) for g in done],
                )
                summary = f"{case['wall_s']} s ({case['echelon_s']} s echelon), {case['peak_rss_mb']} MB"
            else:
                summary = "no run completed"
            print(f"{label}: {kind} ({n},{m}) {summary}, exits {case['runs_exit']}")
    what = (
        "verify_theorem_th1(n, m) (keys n,m), l1_rank(n, c, c + 2) (keys l1_rank n,c) and "
        "verify_lie_certificates(n, m) (keys certs n,m) "
        "wall time, time inside lie.lattice_from_rows (echelon_s) and peak RSS, median of fresh processes"
    )
    timing.write_bench(OUT, what, records)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
