"""pik benchmark: one seeded workload, in-process, closed loop, one caller.

    python3 bench/run.py --workload conj-hard --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --compare BEFORE.jsonl AFTER.jsonl

A run builds its inputs from --seed, times each op (one call a user waits
for), checks every output outside the timed region and prints one JSON object
as its last line.  Times are reported at reference speed (see speed.py): each
call's wall time is rescaled by the machine speed sampled around and during
it, so host drift between runs does not show as a change of pik.  The
raw wall-time figures go to standard error.  --trace 0 reports the
end-to-end metrics; --trace 1 runs every op once untraced and once traced
(alternating which goes first) and reports per-layer metrics from the traced
runs.  The run exits 1 when an
output is wrong and 2 when the pik sources are not in the checkout.
--compare summarises two result sets written by sweep.py.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
PERCENTILE_BAND = 0.05


def percentile(sorted_values: list[float], q: float) -> float:
    """Mean of the values ranked within 5 points of the q-quantile.

    Op latencies form separate clusters (equality, descent, walks), so the
    single value at a rank jumps between clusters with run-to-run noise; the
    mean over the band around it does not.
    """
    n = len(sorted_values)
    lo = min(n - 1, int((q - PERCENTILE_BAND) * n))
    hi = max(lo + 1, math.ceil((q + PERCENTILE_BAND) * n))
    band = sorted_values[max(0, lo):hi]
    return sum(band) / len(band)


def load_pik() -> None:
    """Put the checkout's src/ first on the path; exit 2 if pik is not there."""
    if not (SRC / "pik" / "__init__.py").is_file():
        print(f"pik sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import pik

    if Path(pik.__file__).resolve().parent != SRC / "pik":
        print(f"imported pik from {pik.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)


def build(meter: speed.Meter, workload: str, seed: int, seconds: int):
    """Build the op list SETUP_REPEATS times.

    Returns the ops and the median build time, wall and at reference speed.
    """
    from workloads import WORKLOADS

    walls, refs = [], []
    for _ in range(SETUP_REPEATS):
        ops, wall, ref = meter.measure(lambda: WORKLOADS[workload](seed, seconds))
        walls.append(wall)
        refs.append(ref)
    return ops, statistics.median(walls), statistics.median(refs)


def run_plain(meter: speed.Meter, ops) -> tuple[list[float], list[float], list[object]]:
    """Run each op once; return wall times, times at reference speed and outputs."""
    durations, ref_durations, outputs = [], [], []
    for op in ops:
        out, wall, ref = meter.measure(op.run)
        durations.append(wall)
        ref_durations.append(ref)
        outputs.append(out)
    return durations, ref_durations, outputs


def timing_metrics(setup_s: float, durations: list[float]) -> dict[str, float]:
    ms = sorted(d * 1e3 for d in durations)
    return {
        "setup_s": setup_s,
        "ops_per_s": len(durations) / sum(durations),
        "op_p50_ms": percentile(ms, 0.5),
        "op_p90_ms": percentile(ms, 0.9),
    }


def run_traced(ops) -> tuple[dict, list[list[object]]]:
    from tracer import Tracer

    tracer = Tracer()
    clock = time.perf_counter
    plain = traced = 0.0
    outputs = []
    for k, op in enumerate(ops):
        tracer.op_id = k
        outs = []
        for with_trace in ((False, True) if k % 2 == 0 else (True, False)):
            if with_trace:
                tracer.install()
            t0 = clock()
            try:
                outs.append(op.run())
            finally:
                dt = clock() - t0
                tracer.uninstall()
            if with_trace:
                traced += dt
            else:
                plain += dt
        outputs.append(outs)
    metrics = tracer.metrics()
    metrics["trace.ops_ratio"] = plain / traced
    return metrics, outputs


def import_workloads():
    load_pik()
    import workloads

    return workloads


def bench(workload: str, seed: int, seconds: int, trace: bool) -> int:
    meter = speed.Meter()
    workloads, import_s, import_ref_s = meter.measure(import_workloads)
    if workload not in workloads.WORKLOADS:
        print(f"unknown workload {workload!r}", file=sys.stderr)
        return 2
    ops, build_s, build_ref_s = build(meter, workload, seed, seconds)

    if trace:
        from tracer import metric_names

        values, outputs = run_traced(ops)
        units = {name: unit for name, unit, _ in metric_names()}
    else:
        durations, ref_durations, single = run_plain(meter, ops)
        outputs = [[out] for out in single]
    failed = 0
    for op, outs in zip(ops, outputs):
        errors = [e for e in map(op.check, outs) if e is not None]
        if errors:
            failed += 1
            print(f"FAIL {op.kind}: {errors[0]}", file=sys.stderr)

    if not trace:
        wall = timing_metrics(import_s + build_s, durations)
        print("wall time: " + ", ".join(f"{k} {v:.6g}" for k, v in wall.items()), file=sys.stderr)
        values = {
            **timing_metrics(import_ref_s + build_ref_s, ref_durations),
            "decided_share": sum(op.decided(o[0]) for op, o in zip(ops, outputs)) / len(ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                 "decided_share": "ratio", "peak_rss_mb": "MB"}
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", nargs=2, metavar=("BEFORE", "AFTER"))
    args = ap.parse_args(argv)
    if args.compare:
        import report

        return report.compare(*args.compare)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be positive")
    return bench(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
