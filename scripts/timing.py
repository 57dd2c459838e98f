"""The harness the *_timings.py scripts share: trees, fresh-process runs, medians and BENCH files.

Each script runs a child, a Python source, in a fresh process per run with
PYTHONPATH=SRC, so no cache survives from one run to the next, and records
the result in a ``BENCH_*.json`` file at the root of the checkout, with the
machine it ran on.  Give each tree to compare as LABEL=SRC; the runs
alternate between the trees, starting with a different one at each repeat,
so drift in the machine's speed falls on all of them alike:

    python scripts/conj_timings.py --tree before=../old/src --tree after=src

With no --tree the checkout's own src is timed as "after".  Each label
replaces its own record in the BENCH file and keeps the others.

A stage-timing child (``run_stages``) runs one stream of ops, as
``bench/workloads.py`` builds them, with the checkout's ``bench/`` and
``scripts/`` on its path and some of pik's functions wrapped from outside, and reports for each such stage the wall time summed over the
stream and the number of calls; "other" is the rest of the stream's wall
time.  It runs the stream after one collection with Python's cyclic
garbage collector off, so that no collection pause of a millisecond or so
lands in whichever stage the allocation count happens to reach.  It also
reports its peak RSS (``ru_maxrss``) and a SHA-256 of the stream's
outputs, and the script prints whether the trees' SHA-256s agree, so two
trees can be seen to compute alike.  A tree's record of a stream is
the median of its runs next to the raw wall times and their spread, the
slowest over the fastest; a spread over MAX_SPREAD is warned about, as the
machine's speed moved during the runs.  A failed run stops the script.
The wrappers add one Python call per timed call.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# A stream whose slowest run took more than this many times its fastest ran
# while the machine's speed moved, and its medians do not compare.
MAX_SPREAD = 1.2

# The stage hooks of a child that defines STAGES: timed(fn, stage_of) adds
# each call's wall time to wall[stage_of(*args)] and counts it in calls.
TIMED = """
import time

wall = dict.fromkeys(STAGES, 0.0)
calls = dict.fromkeys(STAGES, 0)


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
"""

STAGE_HEAD = """
import gc, hashlib, json, os, resource, sys
import pik
sys.path[:0] = [sys.argv[1], os.path.join(os.path.dirname(sys.argv[1]), "scripts")]
import workloads
""" + TIMED + """
states = {}  # states expanded, for the stages that count them


def report(ops, as_json, **counts):
    # run the ops with the cyclic GC off and print the child's report; each count maps the outputs to a number
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    outputs = [op.run() for op in ops]
    total = time.perf_counter() - start
    blob = json.dumps([as_json(out) for out in outputs], sort_keys=True).encode()
    print(json.dumps({
        "pik": pik.__file__,
        "ops": len(ops),
        "wall_s": total,
        "stages": {s: {"wall_s": wall[s], "calls": calls[s]} for s in STAGES},
        "states": states,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs_sha256": hashlib.sha256(blob).hexdigest(),
        "counts": {key: count(outputs) for key, count in counts.items()},
    }))
"""


def trees(argv: list[str], doc: str) -> dict[str, Path]:
    """The labelled source trees of the --tree options; exits 2 on a malformed, repeated or pik-less one."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--tree", action="append", metavar="LABEL=SRC", help="a labelled pik source tree")
    args = parser.parse_args(argv[1:])
    found = {}
    for spec in args.tree or [f"after={ROOT / 'src'}"]:
        label, sep, src = spec.partition("=")
        if not (sep and label and label not in found and (Path(src) / "pik" / "__init__.py").is_file()):
            parser.error(f"--tree wants a new LABEL=SRC with a pik package under SRC, got {spec!r}")
        found[label] = Path(src).resolve()
    return found


def run(src: Path, child: str, *args) -> dict:
    """The child's report, or {"exit": status, "stderr": tail} if it did not exit 0, with the tail printed.

    A negative status is the signal that killed the child; the tail is the last 20 lines of its stderr.
    """
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", child, *map(str, args)], env=env, capture_output=True, text=True)
    if out.returncode:
        tail = "\n".join(out.stderr.splitlines()[-20:])
        print(f"a run on {src} exited {out.returncode}; its stderr ends:\n{tail}", file=sys.stderr)
        return {"exit": out.returncode, "stderr": tail}
    got = json.loads(out.stdout)
    if not Path(got["pik"]).resolve().is_relative_to(src):
        raise SystemExit(f"the child imported pik from outside {src}")
    return got


def alternate(trees: dict[str, Path], repeat: int, run_one, *args) -> dict[str, list[dict]]:
    """Each tree's ``run_one(src, *args)`` results over ``repeat`` rounds, each round starting with another tree."""
    runs = {label: [] for label in trees}
    for r in range(repeat):
        for label in list(trees)[r % len(trees) :] + list(trees)[: r % len(trees)]:
            runs[label].append(run_one(trees[label], *args))
    return runs


def run_stages(src: Path, stages: tuple[str, ...], hooks: str, *args) -> dict:
    """The report of a stage-timing child, STAGE_HEAD for these stages and then the hooks; stops on a failed run.

    The hooks wrap the stages with ``timed``, build the ``ops`` from the
    stream's arguments in sys.argv[2:], and end by calling ``report``.
    """
    got = run(src, f"STAGES = {stages!r}\n{STAGE_HEAD}{hooks}", ROOT / "bench", *args)
    if "exit" in got:
        raise SystemExit(f"a run on {src} exited {got['exit']}")
    return got


def agree(records) -> bool:
    """Whether the records all have the same outputs_sha256."""
    return len({rec["outputs_sha256"] for rec in records}) == 1


def medians(got: list[dict], stream: str) -> dict:
    """One tree's record of a stream: the median over the runs of each figure, next to the raw wall times.

    runs_spread is the slowest run's wall time over the fastest's; over
    MAX_SPREAD, a warning naming the stream goes to stderr.
    """
    if not agree(got):
        raise SystemExit("the runs of one tree computed the stream differently")
    stages = {}
    for s, first in got[0]["stages"].items():
        wall = statistics.median(g["stages"][s]["wall_s"] for g in got)
        stages[s] = {"wall_s": round(wall, 4), "calls": first["calls"]}
    for s, count in got[0]["states"].items():
        stages[s]["states"] = count
    other = [g["wall_s"] - sum(st["wall_s"] for st in g["stages"].values()) for g in got]
    stages["other"] = {"wall_s": round(statistics.median(other), 4)}
    walls = [g["wall_s"] for g in got]
    spread = max(walls) / min(walls)
    if spread > MAX_SPREAD:
        print(f"warning: {stream}'s runs spread {spread:.2f}x, over {MAX_SPREAD}x", file=sys.stderr)
    return {
        "ops": got[0]["ops"],
        "wall_s": round(statistics.median(g["wall_s"] for g in got), 4),
        "peak_rss_mb": round(statistics.median(g["peak_rss_mb"] for g in got), 1),
        "outputs_sha256": got[0]["outputs_sha256"],
        "stages": stages,
        "runs_wall_s": [round(wall, 4) for wall in walls],
        "runs_spread": round(spread, 3),
        **got[0]["counts"],
    }


def write_bench(name: str, what: str, records: dict[str, dict], **of_runs) -> None:
    """Replace each label's record in ROOT/name, say what was measured where, and set each key of of_runs."""
    path = ROOT / name
    bench = json.loads(path.read_text()) if path.exists() else {}
    bench["what"] = what
    bench["machine"] = {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "cpus": os.cpu_count(),
        "platform": platform.platform(),
    }
    bench.setdefault("runs", {}).update(records)
    for key, of in of_runs.items():
        bench[key] = of(bench["runs"])
    path.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")
