#!/usr/bin/env python3
"""Time collect, to_endo and direct_endo on the normal-form stream and record it in a BENCH file.

The normal-form stream, as ``bench/workloads.py`` builds it for a 15 s run at
seed 1, is run in a fresh Python process.  Each op collects a generator word
to its normal form, takes that element's automorphism of F_n, and evaluates
the same word in Aut(F_n) letter by letter:

    collect      igroup.collect, generator word to normal form
    to_endo      igroup.to_endo, normal form to automorphism in closed form
    direct_endo  igroup.direct_endo, the word's y_gen automorphisms composed

The child wraps the three functions from outside (the op calls them through
the igroup module) and reports, for each, the wall time summed over the
stream, the number of calls and the mean time per call.  "other" is the
rest of the stream's wall time.  The child also reports its peak RSS
(``ru_maxrss``) and a SHA-256 of every op's two image tuples, and the script
prints whether the trees' SHA-256s agree, so two trees can be seen to
compute alike.  The wrappers add one Python call per timed call.

Give each tree to compare as LABEL=SRC; the runs alternate between the
trees, starting with a different one at each repeat, and a tree's record
is the median of REPEAT runs next to the raw ones:

    python scripts/normal_form_timings.py --tree before=../old/src --tree after=src

With no --tree the checkout's own src is timed as "after".  Each label
replaces its own record in BENCH_normal_form.json and keeps the others.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STAGES = ("collect", "to_endo", "direct_endo")
SEED = 1
SECONDS = 15
REPEAT = 7
OUT = ROOT / "BENCH_normal_form.json"

CHILD = """
import hashlib, json, resource, sys, time
import pik
from pik import igroup
sys.path.insert(0, sys.argv[1])
import workloads

STAGES = %r
wall = dict.fromkeys(STAGES, 0.0)
calls = dict.fromkeys(STAGES, 0)


def timed(fn, stage):
    def wrapper(*args):
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall[stage] += time.perf_counter() - start
            calls[stage] += 1
    return wrapper


for stage in STAGES:
    setattr(igroup, stage, timed(getattr(igroup, stage), stage))
ops = workloads.WORKLOADS["normal-form"](int(sys.argv[2]), int(sys.argv[3]))
start = time.perf_counter()
outputs = [op.run() for op in ops]
total = time.perf_counter() - start
blob = json.dumps([[[im.letters for im in images] for images in out] for out in outputs]).encode()
print(json.dumps({
    "pik": pik.__file__,
    "ops": len(ops),
    "wall_s": total,
    "stages": {s: {"wall_s": wall[s], "calls": calls[s]} for s in STAGES},
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "outputs_sha256": hashlib.sha256(blob).hexdigest(),
}))
""" % (STAGES,)


def run_stream(src: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [sys.executable, "-c", CHILD, str(ROOT / "bench"), str(SEED), str(SECONDS)]
    out = subprocess.run(args, env=env, check=True, capture_output=True, text=True)
    got = json.loads(out.stdout)
    if not Path(got["pik"]).resolve().is_relative_to(src):
        raise SystemExit(f"the child imported pik from outside {src}")
    return got


def summary(got: list[dict]) -> dict:
    """The median over the runs of each figure, next to the raw wall times."""
    if len({g["outputs_sha256"] for g in got}) != 1:
        raise SystemExit("the runs of one tree computed the stream differently")
    stages = {}
    for s in STAGES:
        wall = statistics.median(g["stages"][s]["wall_s"] for g in got)
        count = got[0]["stages"][s]["calls"]
        stages[s] = {"wall_s": round(wall, 4), "calls": count, "per_call_us": round(1e6 * wall / max(count, 1), 1)}
    other = [g["wall_s"] - sum(g["stages"][s]["wall_s"] for s in STAGES) for g in got]
    stages["other"] = {"wall_s": round(statistics.median(other), 4)}
    return {
        "ops": got[0]["ops"],
        "wall_s": round(statistics.median(g["wall_s"] for g in got), 4),
        "peak_rss_mb": round(statistics.median(g["peak_rss_mb"] for g in got), 1),
        "outputs_sha256": got[0]["outputs_sha256"],
        "stages": stages,
        "runs_wall_s": [round(g["wall_s"], 4) for g in got],
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC", help="a labelled pik source tree")
    args = parser.parse_args(argv[1:])
    trees = {}
    for spec in args.tree or [f"after={ROOT / 'src'}"]:
        label, sep, src = spec.partition("=")
        if not (sep and label and label not in trees and (Path(src) / "pik" / "igroup.py").is_file()):
            parser.error(f"--tree wants a new LABEL=SRC with a pik package under SRC, got {spec!r}")
        trees[label] = Path(src).resolve()
    runs = {label: [] for label in trees}
    for r in range(REPEAT):
        labels = list(trees)[r % len(trees) :] + list(trees)[: r % len(trees)]
        for label in labels:
            runs[label].append(run_stream(trees[label]))
    records = {}
    for label, got in runs.items():
        rec = records[label] = summary(got)
        stages = ", ".join(f"{s} {v['wall_s']}" for s, v in rec["stages"].items())
        print(f"{label}: normal-form {rec['wall_s']} s ({stages}), {rec['peak_rss_mb']} MB")
    if len(trees) > 1:
        agree = len({rec["outputs_sha256"] for rec in records.values()}) == 1
        print(f"normal-form: the trees' outputs_sha256 {'agree' if agree else 'DIFFER'}")
    bench = json.loads(OUT.read_text()) if OUT.exists() else {}
    bench["what"] = (
        f"igroup.collect, igroup.to_endo and igroup.direct_endo on the normal-form stream of a {SECONDS} s "
        f"benchmark run at seed {SEED}: wall time per function, median of fresh processes"
    )
    bench["machine"] = {"python": platform.python_version(), "cpus": os.cpu_count(), "platform": platform.platform()}
    bench.setdefault("runs", {}).update(records)
    OUT.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
