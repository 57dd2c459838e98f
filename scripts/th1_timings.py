#!/usr/bin/env python3
"""Time the Th1 direct-sum certificate and l1_rank, and record them in a BENCH file.

Each Th1 case (n, m) runs ``decomp.verify_theorem_th1(n, m)``, and each
l1_rank case (n, c) runs ``ajohnson.l1_rank(n, c, c + 2)`` and checks it
against the sum of the per-level Witt ranks.  Every run is a fresh Python
process, so no cache survives from one run to the next.  The child reports
the wall time of the call and its peak RSS (``ru_maxrss``, which includes
the interpreter and numpy).  The record for a label is the median of
REPEAT runs for each case, next to the raw runs, keyed "n,m" for Th1 and
"l1_rank n,c" for l1_rank.

Give each tree to compare as LABEL=SRC; the runs alternate between the
trees, starting with a different one at each repeat, so drift in the
machine's speed falls on all of them alike:

    python scripts/th1_timings.py --tree before=../old/src --tree after=src

With no --tree the checkout's own src is timed as "after".  Each label
replaces its own record in BENCH_th1.json and keeps the others.
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
CASES = (
    ("th1", 3, 6),
    ("th1", 4, 4),
    ("th1", 4, 5),
    ("th1", 5, 4),
    ("th1", 4, 6),
    ("th1", 5, 5),
    ("l1_rank", 3, 5),
    ("l1_rank", 4, 4),
    ("l1_rank", 5, 3),
)
REPEAT = 3
OUT = ROOT / "BENCH_th1.json"

CHILD = """
import json, resource, sys, time
import numpy, pik
from pik.ajohnson import l1_rank
from pik.decomp import verify_theorem_th1
from pik.lie import witt
kind, n, m = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
start = time.perf_counter()
if kind == "th1":
    ok = verify_theorem_th1(n, m).ok
else:
    ok = l1_rank(n, m, m + 2) == sum(witt(i, m) for i in range(2, n + 1))
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
out = {"pik": pik.__file__, "numpy": numpy.__version__, "ok": ok, "wall_s": wall, "peak_rss_mb": rss}
print(json.dumps(out))
"""


def run_case(src: Path, kind: str, n: int, m: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, kind, str(n), str(m)], env=env, check=True, capture_output=True, text=True
    )
    got = json.loads(out.stdout)
    if not Path(got["pik"]).resolve().is_relative_to(src):
        raise SystemExit(f"the child imported pik from outside {src}")
    return got


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC", help="a labelled pik source tree")
    args = parser.parse_args(argv[1:])
    trees = {}
    for spec in args.tree or [f"after={ROOT / 'src'}"]:
        label, sep, src = spec.partition("=")
        if not (sep and label and label not in trees and (Path(src) / "pik" / "decomp.py").is_file()):
            parser.error(f"--tree wants a new LABEL=SRC with a pik package under SRC, got {spec!r}")
        trees[label] = Path(src).resolve()
    records = {label: {} for label in trees}
    numpy_version = None
    for kind, n, m in CASES:
        key = f"{n},{m}" if kind == "th1" else f"{kind} {n},{m}"
        runs = {label: [] for label in trees}
        for r in range(REPEAT):
            labels = list(trees)[r % len(trees) :] + list(trees)[: r % len(trees)]
            for label in labels:
                runs[label].append(run_case(trees[label], kind, n, m))
        for label, got in runs.items():
            if not all(g["ok"] for g in got):
                raise SystemExit(f"{kind} failed at ({n},{m}) on {label}")
            numpy_version = got[0]["numpy"]
            case = records[label][key] = {
                "wall_s": round(statistics.median(g["wall_s"] for g in got), 4),
                "peak_rss_mb": round(statistics.median(g["peak_rss_mb"] for g in got), 1),
                "runs_wall_s": [round(g["wall_s"], 4) for g in got],
                "runs_peak_rss_mb": [round(g["peak_rss_mb"], 1) for g in got],
            }
            print(f"{label}: {kind} ({n},{m}) {case['wall_s']} s, {case['peak_rss_mb']} MB")
    bench = json.loads(OUT.read_text()) if OUT.exists() else {}
    bench["what"] = (
        "verify_theorem_th1(n, m) (keys n,m) and l1_rank(n, c, c + 2) (keys l1_rank n,c) "
        "wall time and peak RSS, median of fresh processes"
    )
    bench["machine"] = {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
    }
    bench.setdefault("runs", {}).update(records)
    OUT.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
