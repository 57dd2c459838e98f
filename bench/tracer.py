"""Spans around calls into pik's layers, recorded from the benchmark's side.

Each named public function is replaced, at every pik.* module attribute bound
to it (conj imports conj_by_gen by name, for instance), by a wrapper that
records a span: function, start, end, parent span and op id.  Spans live in
flat arrays in memory and are aggregated with numpy when the run ends.

Aggregates:
  <layer>.<fn>.calls   spans of fn.
  <layer>.<fn>.busy_s  time in spans of fn that no other span of fn encloses,
                       so recursion is not counted twice.
  <layer>.busy_s       time in spans of the layer that no other span of the
                       same layer encloses.
  <layer>.self_s       time in which the innermost open span belongs to the
                       layer: its busy time minus the time covered by child
                       spans from other layers.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

LAYERS: dict[str, tuple[str, ...]] = {
    "words": ("multiply", "free_conjugate"),
    "endos": ("compose", "apply", "automorphism"),
    "magnus": ("magnus_expand", "johnson_image"),
    "igroup": ("conj_by_gen", "imul", "iinv", "act_elem", "collect", "to_endo", "direct_endo"),
    "conj": ("conjugacy",),
    "lie": ("bracket", "lie_from_tensor", "lattice_from_rows", "lattice_direct_sum_is_whole"),
    "decomp": ("verify_theorem_th1", "ideal_rows_by_degree"),
    "ajohnson": ("l1_rank",),
}

CONJ_METHODS = ("equality", "descent", "generator-walk", "ladder", "refuted", "unknown")


def conj_method(res) -> str:
    if res.verdict == "conjugate":
        return res.method
    return "refuted" if res.verdict == "not_conjugate" else "unknown"


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for layer, fns in LAYERS.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
            out.append((f"{layer}.{fn}.busy_s", "s", "lower"))
        out.append((f"{layer}.busy_s", "s", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    for m in CONJ_METHODS:
        better = "lower" if m == "unknown" else "higher"
        out.append((f"conj.method.{m}.count", "count", better))
        out.append((f"conj.method.{m}.busy_s", "s", "lower"))
    out.append(("lie.lattice_from_rows.rows_in", "count", "lower"))
    out.append(("lie.lattice_from_rows.bytes_computed", "B", "lower"))
    out.append(("lie.rank_per_row", "ratio", "higher"))
    out.append(("trace.ops_ratio", "ratio", "higher"))
    return out


class Tracer:
    def __init__(self) -> None:
        self.names = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]
        layer_ids = {layer: k for k, layer in enumerate(LAYERS)}
        self.layer_of = np.array([layer_ids[name.split(".")[0]] for name in self.names], dtype=np.int64)
        self.fn = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.depth = array("H")
        self.op = array("i")
        self.stack: list[int] = []
        self.op_id = -1
        self.conj_spans: list[tuple[int, str]] = []
        self.rows_in = 0
        self.dim_rows = 0
        self.rank_out = 0
        self._bindings = self._find_bindings()

    def _find_bindings(self):
        """(module, attribute, original, wrapper) for every pik binding of a named function."""
        out = []
        for nid, name in enumerate(self.names):
            layer, fn_name = name.split(".")
            original = getattr(sys.modules[f"pik.{layer}"], fn_name)
            wrapper = self._wrap(nid, original, getattr(self, f"_after_{fn_name}", None))
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "pik" or mod_name.startswith("pik.")):
                    continue
                for attr, value in vars(mod).items():
                    if value is original:
                        out.append((mod, attr, original, wrapper))
        return out

    def install(self) -> None:
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original, _ in self._bindings:
            setattr(mod, attr, original)

    def _after_conjugacy(self, idx: int, args, kwargs, out) -> None:
        self.conj_spans.append((idx, conj_method(out)))

    def _after_lattice_from_rows(self, idx: int, args, kwargs, out) -> None:
        rows = args[0] if args else kwargs["rows"]
        dim = args[1] if len(args) > 1 else kwargs["dim"]
        self.rows_in += len(rows)
        self.dim_rows += len(rows) * dim
        self.rank_out += out.rank

    def _wrap(self, nid: int, fn, after):
        fns, starts, ends, parents, depths, ops = (
            self.fn, self.start, self.end, self.parent, self.depth, self.op)
        stack = self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            fns.append(nid)
            parents.append(stack[-1] if stack else -1)
            depths.append(len(stack))
            ops.append(self.op_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(idx, args, kwargs, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self) -> dict[str, float]:
        fn = np.frombuffer(self.fn, dtype=np.uint16).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        depth = np.frombuffer(self.depth, dtype=np.uint16)
        layer = self.layer_of[fn] if len(fn) else np.zeros(0, dtype=np.int64)
        nfn, nlayer = len(self.names), len(LAYERS)

        # Bit f of fn_above[i] (bit l of layer_above[i]) is set when some
        # ancestor of span i is a span of function f (of layer l).
        fn_above = np.zeros(len(fn), dtype=np.int64)
        layer_above = np.zeros(len(fn), dtype=np.int64)
        one = np.int64(1)
        for d in range(1, int(depth.max()) + 1 if len(depth) else 0):
            at = np.nonzero(depth == d)[0]
            p = parent[at]
            fn_above[at] = fn_above[p] | (one << fn[p])
            layer_above[at] = layer_above[p] | (one << layer[p])
        fn_outer = ((fn_above >> fn) & 1) == 0
        layer_outer = ((layer_above >> layer) & 1) == 0

        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(fn))
        calls = np.bincount(fn, minlength=nfn)
        busy = np.bincount(fn[fn_outer], weights=dur[fn_outer], minlength=nfn)
        layer_busy = np.bincount(layer[layer_outer], weights=dur[layer_outer], minlength=nlayer)
        self_s = np.bincount(layer, weights=dur - child, minlength=nlayer)

        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = int(calls[nid])
            out[f"{name}.busy_s"] = float(busy[nid])
        for lid, layer_name in enumerate(LAYERS):
            out[f"{layer_name}.busy_s"] = float(layer_busy[lid])
            out[f"{layer_name}.self_s"] = float(self_s[lid])
        for m in CONJ_METHODS:
            spans = [idx for idx, method in self.conj_spans if method == m]
            out[f"conj.method.{m}.count"] = len(spans)
            out[f"conj.method.{m}.busy_s"] = float(dur[spans].sum()) if spans else 0.0
        out["lie.lattice_from_rows.rows_in"] = self.rows_in
        out["lie.lattice_from_rows.bytes_computed"] = 8 * self.dim_rows
        out["lie.rank_per_row"] = self.rank_out / self.rows_in if self.rows_in else 0.0
        return out
