#!/usr/bin/env python3
"""Time collect, to_endo and direct_endo on the normal-form stream and record it in a BENCH file.

The normal-form stream, as ``bench/workloads.py`` builds it for a 15 s run at
seed 1, is the one stream of ``timing.py``, run REPEAT times per tree.  Each
op collects a generator word to its normal form, takes that element's
automorphism of F_n, and evaluates the same word in Aut(F_n) letter by
letter.  The stages are the three functions, wrapped in the igroup module
through which the op calls them:

    collect      igroup.collect, generator word to normal form
    to_endo      igroup.to_endo, normal form to automorphism in closed form
    direct_endo  igroup.direct_endo, the word's y_gen automorphisms composed as conjugators W_k

Each stage's record also has the mean time per call.  The child hashes
every op's two image tuples.
"""

import sys

import timing

STAGES = ("collect", "to_endo", "direct_endo")
SEED = 1
SECONDS = 15
REPEAT = 7
OUT = "BENCH_normal_form.json"

HOOKS = """
from pik import igroup

for stage in STAGES:
    setattr(igroup, stage, timed(getattr(igroup, stage), lambda *args, stage=stage: stage))
ops = workloads.WORKLOADS["normal-form"](int(sys.argv[2]), int(sys.argv[3]))
report(ops, lambda images_pair: [[im.letters for im in images] for images in images_pair])
"""


def main(argv: list[str]) -> int:
    trees = timing.trees(argv, __doc__)
    runs = timing.alternate(trees, REPEAT, timing.run_stages, STAGES, HOOKS, SEED, SECONDS)
    records = {}
    for label, got in runs.items():
        rec = records[label] = timing.medians(got, "normal-form")
        for stage in (rec["stages"][s] for s in STAGES):
            stage["per_call_us"] = round(1e6 * stage["wall_s"] / max(stage["calls"], 1), 1)
        stages = ", ".join(f"{s} {v['wall_s']}" for s, v in rec["stages"].items())
        print(f"{label}: normal-form {rec['wall_s']} s ({stages}), {rec['peak_rss_mb']} MB")
    if len(trees) > 1:
        agree = timing.agree(records.values())
        print(f"normal-form: the trees' outputs_sha256 {'agree' if agree else 'DIFFER'}")
    what = (
        f"igroup.collect, igroup.to_endo and igroup.direct_endo on the normal-form stream of a {SECONDS} s "
        f"benchmark run at seed {SEED}: wall time per function, median of fresh processes"
    )
    timing.write_bench(OUT, what, records)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
