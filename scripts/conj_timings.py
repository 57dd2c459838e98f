#!/usr/bin/env python3
"""Time conjugacy stage by stage on the benchmark's streams and record it in a BENCH file.

Each of the conj-planted and conj-hard streams, as ``bench/workloads.py``
builds them for a 15 s run, conj-hard-n4, the same draws as conj-hard
(``workloads.hard_pairs`` from ``Lcg(99)``) at rank 4, and conj-long-n3, 60
planted pairs at rank 3 from ``Lcg(5)`` whose conjugators have exactly 14
generator letters, run under the default budget, is decided in a fresh
Python process.  conj-long-n3 is the stream that spends measurable time
in the ladder: the budgeted walk misses some of its conjugators, and
those pairs end in the ladder.  The child wraps the stages of
``pik.conj.conjugacy`` from outside (the functions it calls by name) and
reports, for each stage, the wall time summed over the stream, the number
of calls and, for the two orbit walks, the number of states they expand:

    descent     _greedy_descent, on both sides of a pair
    S_3         _quotient_refutation with k = 3
    probe walk  the first _orbit_walk of a pair, between the descended sides
    S_4         _quotient_refutation with k = 4
    full walk   the second _orbit_walk of a pair, the budgeted one
    ladder      _ladder

in the order conjugacy runs them.

"other" is the rest of the stream's wall time: equality, the abelianization,
the level-2 core and the witness checks.  The child also reports its peak
RSS (``ru_maxrss``), the number of ``unknown`` verdicts and a SHA-256 of
the stream's ``ConjResult.as_dict()`` outputs.  ``outputs_agree`` in the
BENCH file says, per stream, whether every record there has the same
SHA-256, so two trees can be seen to decide alike.  The wrappers add one
Python call per stage call and per expanded state to what they time.

Give each tree to compare as LABEL=SRC; the runs alternate between the
trees, starting with a different one at each repeat, and a tree's record
is the median of REPEAT runs next to the raw ones:

    python scripts/conj_timings.py --tree before=../old/src --tree after=src

With no --tree the checkout's own src is timed as "after".  Each label
replaces its own record in BENCH_conj.json and keeps the others.
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
STREAMS = ("conj-planted", "conj-hard", "conj-hard-n4", "conj-long-n3")
STAGES = ("descent", "S_3", "probe walk", "S_4", "full walk", "ladder")
SECONDS = 15
REPEAT = 7
OUT = ROOT / "BENCH_conj.json"

CHILD = """
import hashlib, json, resource, sys, time
import pik
from pik import conj
sys.path.insert(0, sys.argv[1])
import workloads

STAGES = %r
wall = dict.fromkeys(STAGES, 0.0)
calls = dict.fromkeys(STAGES, 0)
states = {"probe walk": 0, "full walk": 0}
walks = [0]  # orbit walks so far in the current pair


def timed(fn, stage_of):
    def wrapper(*args):
        stage = stage_of(*args)
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            wall[stage] += time.perf_counter() - start
            calls[stage] += 1
    return wrapper


def walk_stage(*args):
    walks[0] += 1
    return "probe walk" if walks[0] == 1 else "full walk"


def counted_expand(n, *low, orbit_expand=conj._orbit_expand):
    expand = orbit_expand(n, *low)
    if low:  # the ladder's walk at one level, not an orbit walk stage
        return expand
    stage = "probe walk" if walks[0] == 1 else "full walk"  # the walk that asked for it

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


def per_pair(x, y, budget=None, decide=conj.conjugacy):
    walks[0] = 0
    return decide(x, y, budget)


conj._greedy_descent = timed(conj._greedy_descent, lambda u: "descent")
conj._orbit_walk = timed(conj._orbit_walk, walk_stage)
conj._quotient_refutation = timed(conj._quotient_refutation, lambda x, y, k: f"S_{k}")
conj._ladder = timed(conj._ladder, lambda x, y, budget: "ladder")
conj._orbit_expand = counted_expand
conj.conjugacy = per_pair
if sys.argv[2] == "conj-hard-n4":
    ops = hard_pairs_n4(int(sys.argv[3]))
elif sys.argv[2] == "conj-long-n3":
    ops = long_pairs_n3()
else:
    ops = workloads.WORKLOADS[sys.argv[2]](1, int(sys.argv[3]))
start = time.perf_counter()
outputs = [op.run() for op in ops]
total = time.perf_counter() - start
blob = json.dumps([res.as_dict() for res in outputs], sort_keys=True).encode()
print(json.dumps({
    "pik": pik.__file__,
    "ops": len(ops),
    "wall_s": total,
    "stages": {s: {"wall_s": wall[s], "calls": calls[s], "states": states.get(s)} for s in STAGES},
    "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    "unknown": sum(res.verdict == "unknown" for res in outputs),
    "outputs_sha256": hashlib.sha256(blob).hexdigest(),
}))
""" % (STAGES,)


def run_stream(src: Path, stream: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    args = [sys.executable, "-c", CHILD, str(ROOT / "bench"), stream, str(SECONDS)]
    out = subprocess.run(args, env=env, check=True, capture_output=True, text=True)
    got = json.loads(out.stdout)
    if not Path(got["pik"]).resolve().is_relative_to(src):
        raise SystemExit(f"the child imported pik from outside {src}")
    return got


def summary(got: list[dict]) -> dict:
    """The median over the runs of each figure, next to the raw wall times."""
    if len({g["outputs_sha256"] for g in got}) != 1:
        raise SystemExit("the runs of one tree decided the stream differently")
    stages = {}
    for s in STAGES:
        stages[s] = {
            "wall_s": round(statistics.median(g["stages"][s]["wall_s"] for g in got), 4),
            "calls": got[0]["stages"][s]["calls"],
        }
        if got[0]["stages"][s]["states"] is not None:
            stages[s]["states"] = got[0]["stages"][s]["states"]
    other = [g["wall_s"] - sum(g["stages"][s]["wall_s"] for s in STAGES) for g in got]
    stages["other"] = {"wall_s": round(statistics.median(other), 4)}
    return {
        "ops": got[0]["ops"],
        "wall_s": round(statistics.median(g["wall_s"] for g in got), 4),
        "peak_rss_mb": round(statistics.median(g["peak_rss_mb"] for g in got), 1),
        "unknown": got[0]["unknown"],
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
        if not (sep and label and label not in trees and (Path(src) / "pik" / "conj.py").is_file()):
            parser.error(f"--tree wants a new LABEL=SRC with a pik package under SRC, got {spec!r}")
        trees[label] = Path(src).resolve()
    records = {label: {} for label in trees}
    for stream in STREAMS:
        runs = {label: [] for label in trees}
        for r in range(REPEAT):
            labels = list(trees)[r % len(trees) :] + list(trees)[: r % len(trees)]
            for label in labels:
                runs[label].append(run_stream(trees[label], stream))
        for label, got in runs.items():
            rec = records[label][stream] = summary(got)
            stages = ", ".join(f"{s} {v['wall_s']}" for s, v in rec["stages"].items())
            print(f"{label}: {stream} {rec['wall_s']} s ({stages}), {rec['peak_rss_mb']} MB, {rec['unknown']} unknown")
        if len(trees) > 1:
            agree = len({records[label][stream]["outputs_sha256"] for label in trees}) == 1
            print(f"{stream}: the trees' outputs_sha256 {'agree' if agree else 'DIFFER'}")
    bench = json.loads(OUT.read_text()) if OUT.exists() else {}
    bench["what"] = (
        f"conj.conjugacy on the conj-planted and conj-hard streams of a {SECONDS} s benchmark run, "
        "on conj-hard's draws at rank 4 (conj-hard-n4) and on 60 planted pairs at rank 3 with "
        "14-letter conjugators under the default budget (conj-long-n3, Lcg(5)): wall time per "
        "stage, states expanded per orbit walk and unknown verdicts, median of fresh processes"
    )
    bench["machine"] = {"python": platform.python_version(), "cpus": os.cpu_count(), "platform": platform.platform()}
    bench.setdefault("runs", {}).update(records)
    bench["outputs_agree"] = {
        stream: len({rec[stream]["outputs_sha256"] for rec in bench["runs"].values() if stream in rec}) == 1
        for stream in STREAMS
    }
    OUT.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
