"""Result sets: JSON lines {"workload", "seed", "trace", "result"} from sweep.py.

spreads() gives, per workload and metric, the median, the quartiles from
statistics.quantiles(values, n=4) and the interquartile distance as a share
of the median.  compare() prints two result sets side by side and says
whether each end-to-end median agrees within the bound in BENCHMARK.json.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load(path: str) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def spreads(records: list[dict]) -> dict[tuple[str, int, str], dict]:
    """(workload, trace, metric) -> {median, q1, q3, spread, n, values}."""
    values: dict[tuple[str, int, str], list[float]] = {}
    for rec in records:
        for name, m in rec["result"]["metrics"].items():
            values.setdefault((rec["workload"], rec["trace"], name), []).append(m["value"])
    out = {}
    for key, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        out[key] = {
            "median": med, "q1": q1, "q3": q3, "n": len(vals), "values": vals,
            "spread": (q3 - q1) / med if med else 0.0,
        }
    return out


def _worse_by(before: float, after: float, better: str) -> float:
    """Share of the before-median by which after is worse (negative: better)."""
    if not before:
        return 0.0
    change = (after - before) / before
    return change if better == "lower" else -change


def compare(path_a: str, path_b: str) -> int:
    cfg = load_config()
    e2e = {m["name"]: m for m in cfg["end_to_end"]}
    layer = {m["name"]: m for m in cfg["per_layer"]}
    a, b = spreads(load(path_a)), spreads(load(path_b))
    disagree = 0
    print(f"{'workload':13} {'metric':40} {'A median [q1, q3]':>36} {'B median [q1, q3]':>36} "
          f"{'worse':>7} {'bound':>6}  verdict")
    for key in sorted(set(a) & set(b)):
        workload, _, name = key
        sa, sb = a[key], b[key]
        spec = e2e.get(name) or layer.get(name)
        if spec is None:
            continue
        worse = _worse_by(sa["median"], sb["median"], spec["better"])
        if "bound" in spec:
            bound = spec["bound"]
            if abs(worse) <= bound:
                verdict = "agree"
            else:
                verdict = "WORSE" if worse > 0 else "better"
                disagree += 1
            bound_txt = f"{bound:.2f}"
        else:
            same = sa["values"] == sb["values"]
            verdict = "same values" if same else ("same median" if sa["median"] == sb["median"] else "differs")
            bound_txt = "-"
        print(f"{workload:13} {name:40} "
              f"{sa['median']:>12.5g} [{sa['q1']:>9.4g}, {sa['q3']:>9.4g}] "
              f"{sb['median']:>12.5g} [{sb['q1']:>9.4g}, {sb['q3']:>9.4g}] "
              f"{worse:>+7.3f} {bound_txt:>6}  {verdict}")
    missing = sorted(set(a) ^ set(b))
    for key in missing:
        print(f"only in {'A' if key in a else 'B'}: {key}")
    return 1 if disagree or missing else 0
