#!/usr/bin/env python3
"""Time the Th1 direct-sum certificate and record it in a BENCH file.

Each case (n, m) runs ``decomp.verify_theorem_th1(n, m)`` in a fresh Python
process, so no cache survives from one run to the next.  The child reports
the wall time of the call and its peak RSS (``ru_maxrss``, which includes
the interpreter and numpy).  The record for a label is the median of
REPEAT runs for each case, next to the raw runs.

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
CASES = ((3, 6), (4, 4), (4, 5), (5, 4), (4, 6), (5, 5))
REPEAT = 3
OUT = ROOT / "BENCH_th1.json"

CHILD = """
import json, resource, sys, time
import numpy, pik
from pik.decomp import verify_theorem_th1
n, m = int(sys.argv[1]), int(sys.argv[2])
start = time.perf_counter()
ok = verify_theorem_th1(n, m).ok
wall = time.perf_counter() - start
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
out = {"pik": pik.__file__, "numpy": numpy.__version__, "ok": ok, "wall_s": wall, "peak_rss_mb": rss}
print(json.dumps(out))
"""


def run_case(src: Path, n: int, m: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(n), str(m)], env=env, check=True, capture_output=True, text=True
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
    for n, m in CASES:
        runs = {label: [] for label in trees}
        for r in range(REPEAT):
            labels = list(trees)[r % len(trees) :] + list(trees)[: r % len(trees)]
            for label in labels:
                runs[label].append(run_case(trees[label], n, m))
        for label, got in runs.items():
            if not all(g["ok"] for g in got):
                raise SystemExit(f"Th1 failed at ({n},{m}) on {label}")
            numpy_version = got[0]["numpy"]
            case = records[label][f"{n},{m}"] = {
                "wall_s": round(statistics.median(g["wall_s"] for g in got), 4),
                "peak_rss_mb": round(statistics.median(g["peak_rss_mb"] for g in got), 1),
                "runs_wall_s": [round(g["wall_s"], 4) for g in got],
                "runs_peak_rss_mb": [round(g["peak_rss_mb"], 1) for g in got],
            }
            print(f"{label}: ({n},{m}) {case['wall_s']} s, {case['peak_rss_mb']} MB")
    bench = json.loads(OUT.read_text()) if OUT.exists() else {}
    bench["what"] = "verify_theorem_th1(n, m) wall time and peak RSS, median of fresh processes"
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
