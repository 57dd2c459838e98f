"""Run the benchmark over several seeds and record a result set.

    python3 bench/sweep.py --out runs.jsonl --seeds 1-10
    python3 bench/sweep.py --out traced.jsonl --workloads lie-certs --seeds 7,7 --trace 1

Each run is a fresh process, one at a time.  Every result line is appended
to --out, then the spread of each metric over the seeds is printed: the
interquartile distance as a share of the median, against the metric's bound
from BENCHMARK.json (steady means below a third of it).  Exits 1 when a run
fails or an end-to-end spread other than setup_s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time

import report


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv=None) -> int:
    cfg = report.load_config()
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in cfg["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=cfg["run_seconds"])
    args = ap.parse_args(argv)

    failures = 0
    records = []
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            cmd = [*cfg["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=report.ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures += 1
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                continue
            rec = {"workload": workload, "seed": seed, "trace": args.trace,
                   "wall_s": wall, "result": json.loads(lines[-1])}
            records.append(rec)
            with open(args.out, "a") as fh:
                fh.write(json.dumps(rec) + "\n")
            print(f"{workload} seed {seed}: {wall:.1f} s, correct={rec['result']['correct']}", flush=True)

    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    for (workload, _, name), s in sorted(report.spreads(records).items()):
        bound = bounds.get(name)
        flag = ""
        if bound is not None:
            flag = "steady" if s["spread"] < bound / 3 else "WIDE"
            if s["spread"] > bound and name != "setup_s":
                failures += 1
        print(f"{workload:13} {name:40} median {s['median']:<12.6g} spread {s['spread']:.4f}"
              f" bound {bound if bound is not None else '-'} {flag}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
