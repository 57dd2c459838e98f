"""Command line interface: one binary, stable JSON schemas, a batch driver.

Every subcommand is a thin wrapper over the library; no algorithmic logic
lives here.  ``verify-all`` runs the whole verification suite and emits a
schema-versioned machine-readable report; with a fixed seed the report is
byte-identical across runs.  The PIK_THREADS environment variable caps the
process pool used to run independent checks (default 1, sequential; never
more workers than checks or CPUs).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
from dataclasses import dataclass
from typing import Callable, Optional

from . import ajohnson, conj, decomp, endos, fuzz, igroup, lie, magnus
from .conj import SearchBudget
from .prng import Lcg
from .words import ParseError, parse_word, parse_x_word

SCHEMA = "pik/5"
OUTPUT_FORMATS = ("json", "text")
NEGATIVE_CONTROLS = ("drop-relator", "perturb-chi")


@dataclass(frozen=True)
class RunConfig:
    n: int = 3
    max_degree: int = 4
    seed: int = 20240601
    fuzz_words: int = 100
    fuzz_conj: int = 40
    output_format: str = "json"  # one of OUTPUT_FORMATS
    output_path: Optional[str] = None
    negative_control: Optional[str] = None  # None or one of NEGATIVE_CONTROLS

    def __post_init__(self) -> None:
        if self.output_format not in OUTPUT_FORMATS:
            raise ValueError(f"--format must be one of {', '.join(OUTPUT_FORMATS)}, got {self.output_format!r}")
        if self.negative_control not in (None, *NEGATIVE_CONTROLS):
            raise ValueError(
                f"--negative-control must be one of {', '.join(NEGATIVE_CONTROLS)}, got {self.negative_control!r}"
            )
        if self.n < 3:
            raise ValueError(f"--n must be at least 3, got {self.n}")
        if self.max_degree < 2:
            raise ValueError(f"--max-degree must be at least 2, got {self.max_degree}")
        if min(self.fuzz_words, self.fuzz_conj) < 0:
            raise ValueError("fuzz counts must be non-negative")

    def as_dict(self) -> dict:
        return {
            "n": self.n,
            "max_degree": self.max_degree,
            "seed": self.seed,
            "fuzz": {"words": self.fuzz_words, "conjugacy": self.fuzz_conj},
        }


def emit_report(results: list[dict], config: Optional[RunConfig] = None) -> dict:
    report: dict = {"schema": SCHEMA}
    if config is not None:
        report["config"] = config.as_dict()
    report["checks"] = results
    return report


def _dump(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _report_text(report: dict) -> str:
    lines = []
    for check in report.get("checks", []):
        lines.append(f"{check['status']:4s}  {check['name']}")
    ok = all(c["status"] == "pass" for c in report.get("checks", []))
    lines.append("OK" if ok else "FAILED")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# verify-all checks.  Top-level functions taking the config dict so a process
# pool can run them; each returns {name, status, details}.
# ---------------------------------------------------------------------------


def _check(name: str, ok: bool, details: dict) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", "details": details}


def check_mccool(cfg: RunConfig) -> dict:
    factory = endos.perturbed_chi if cfg.negative_control == "perturb-chi" else endos.chi
    rep = endos.check_mccool_relations(cfg.n, chi_factory=factory)
    return _check("mccool_relations", rep.ok, rep.as_dict())


def check_igroup_relations(cfg: RunConfig) -> dict:
    failures = []
    count = 0
    for label, tokens in igroup.relation_instances(cfg.n):
        count += 1
        if not igroup.word_problem(cfg.n, tokens):
            failures.append(label + " (collection)")
        if not endos.is_identity(igroup.direct_endo(cfg.n, tokens)):
            failures.append(label + " (automorphism)")
    return _check(
        "igroup_relations", not failures, {"instances": count, "failures": failures}
    )


def check_normal_form_fuzz(cfg: RunConfig) -> dict:
    rng = Lcg(cfg.seed)
    bad = 0
    for _ in range(cfg.fuzz_words):
        tokens = fuzz.random_gen_tokens(rng, cfg.n, 30)
        got = igroup.to_endo(igroup.collect(cfg.n, tokens))
        direct = igroup.direct_endo(cfg.n, tokens)
        # direct is an automorphism, so a one-sided inverse is the inverse.
        if got.images != direct.images or not endos.is_identity(
            endos.compose(endos.inverse(got), direct)
        ):
            bad += 1
    return _check("normal_form_fuzz", bad == 0, {"cases": cfg.fuzz_words, "failures": bad})


def check_conjugacy_fuzz(cfg: RunConfig) -> dict:
    rng = Lcg(cfg.seed + 1)
    planted_fail = 0
    for _ in range(cfg.fuzz_conj):
        x, y, budget = fuzz.planted_conjugacy_case(rng, cfg.n, 8)
        res = conj.conjugacy(x, y, budget)
        if res.verdict != "conjugate":
            planted_fail += 1
    refute_fail = 0
    for _ in range(cfg.fuzz_conj // 2):
        x = fuzz.random_ielem(rng, cfg.n, 6)
        y = fuzz.random_ielem(rng, cfg.n, 6)
        if igroup.abelianize(x) == igroup.abelianize(y):
            continue
        res = conj.conjugacy(x, y)
        if res.verdict != "not_conjugate":
            refute_fail += 1
    ok = planted_fail == 0 and refute_fail == 0
    return _check(
        "conjugacy_fuzz",
        ok,
        {"planted": cfg.fuzz_conj, "planted_failures": planted_fail, "refuted_failures": refute_fail},
    )


def _embedding_row(n: int, c: int, lhs: int) -> dict:
    """Whether l1_rank(n, c, c + 2), the rank of the weight-c image piece, is lhs."""
    return {"c": c, "lhs": lhs, "certified": ajohnson.l1_rank(n, c, c + 2) == lhs}


def check_lie_certificates(cfg: RunConfig) -> dict:
    """Th1, the T_r splitting with the F1-F3 maps it rests on, and the
    Johnson embedding, from one build of J (see docs/NOTES.md, "The
    embedding certificate").  Each embedding row compares the image's rank
    with rank L^c / J^c: k at c = 1, else Th1's witt_rank - rank_J."""
    rels = decomp.build_relators(cfg.n)
    if cfg.negative_control == "drop-relator":
        rels = rels.without(rels.of_kind(3)[0])
    th1, tilde = decomp.verify_lie_certificates(cfg.n, cfg.max_degree, rels)
    th1_details = th1.as_dict()
    fail = th1.first_failure()
    if fail is not None:
        th1_details["first_failure"] = {"m": fail.m, "rank_deficit": fail.witt_rank - fail.direct_sum.rank_sum}
    psi = [decomp.verify_psi_automorphism(cfg.n, r, rels) for r in range(2, cfg.n)]
    ranks = [decomp.alphabet_size(cfg.n)] + [d.witt_rank - d.rank_j for d in th1.degrees]
    rows = [_embedding_row(cfg.n, c, rank) for c, rank in enumerate(ranks, 1)]
    nonzero = ajohnson.nonzero_relators(cfg.n, rels.relators)
    ok = th1.ok and tilde.ok and all(p.ok for p in psi) and all(r["certified"] for r in rows) and not nonzero
    details = {
        "theorem_th1": th1_details,
        "tilde_T": tilde.as_dict(),
        "psi_maps": [p.as_dict() for p in psi],
        "johnson_embedding": {"rows": rows, "relators": len(rels.relators), "nonzero_relators": nonzero},
    }
    return _check("lie_certificates", ok, details)


_CHECKS: list[Callable[[RunConfig], dict]] = [
    check_mccool,
    check_igroup_relations,
    check_normal_form_fuzz,
    check_conjugacy_fuzz,
    check_lie_certificates,
]


def pool_size(raw: Optional[str], cpus: Optional[int]) -> int:
    """Worker processes for verify-all from a PIK_THREADS value.

    Unset, empty or below 2 runs serially; larger values are capped at the
    number of checks and of CPUs, since more workers than either only add
    processes.
    """
    if not raw:
        return 1
    try:
        threads = int(raw)
    except ValueError:
        raise ValueError(f"PIK_THREADS must be an integer, got {raw!r}") from None
    return max(1, min(threads, len(_CHECKS), cpus or 1))


def cmd_verify_all(cfg: RunConfig) -> int:
    threads = pool_size(os.environ.get("PIK_THREADS"), os.cpu_count())
    try:  # an --out that cannot be written is a bad input, found before any check runs
        out = open(cfg.output_path, "w") if cfg.output_path else contextlib.nullcontext(sys.stdout)
    except OSError as exc:
        raise ValueError(f"cannot write --out {cfg.output_path}: {exc.strerror}") from None
    with out as fh:
        if threads > 1:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(fn, cfg) for fn in _CHECKS]
                results = [f.result() for f in futures]
        else:
            results = [fn(cfg) for fn in _CHECKS]
        report = emit_report(results, cfg)
        fh.write(_dump(report) if cfg.output_format == "json" else _report_text(report))
    failed = [c["name"] for c in results if c["status"] != "pass"]
    if failed:
        print(f"failed checks: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def _budget_from_args(args) -> SearchBudget:
    return SearchBudget(gen_radius=args.budget_radius, max_states=args.budget_states)


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        n=args.n,
        max_degree=args.max_degree,
        seed=args.seed,
        fuzz_words=args.fuzz_words,
        fuzz_conj=args.fuzz_conj,
        output_format=args.format,
        output_path=args.out,
        negative_control=args.negative_control,
    )


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="pik")
    sub = p.add_subparsers(dest="command", required=True)

    endos_p = sub.add_parser("endos", help="automorphism generators and relations")
    endos_sub = endos_p.add_subparsers(dest="subcommand", required=True)
    mc = endos_sub.add_parser("check-mccool")
    mc.add_argument("--n", type=int, required=True)

    ig = sub.add_parser("igroup", help="normal-form arithmetic")
    ig_sub = ig.add_subparsers(dest="subcommand", required=True)
    nf = ig_sub.add_parser("normal-form")
    nf.add_argument("--n", type=int, required=True)
    nf.add_argument("word")
    wp = ig_sub.add_parser("word-problem")
    wp.add_argument("--n", type=int, required=True)
    wp.add_argument("word")

    mg = sub.add_parser("magnus", help="truncated Magnus expansion")
    mg_sub = mg.add_subparsers(dest="subcommand", required=True)
    ex = mg_sub.add_parser("expand")
    ex.add_argument("--n", type=int, required=True)
    ex.add_argument("--maxdeg", type=int, required=True)
    ex.add_argument("word")

    cj = sub.add_parser("conj", help="conjugacy decision")
    cj_sub = cj.add_subparsers(dest="subcommand", required=True)
    dec = cj_sub.add_parser("decide")
    dec.add_argument("--n", type=int, required=True)
    default = SearchBudget()
    dec.add_argument("--budget-radius", type=int, default=default.gen_radius)
    dec.add_argument("--budget-states", type=int, default=default.max_states)
    dec.add_argument("x_word")
    dec.add_argument("y_word")

    li = sub.add_parser("lie", help="free Lie algebra data")
    li_sub = li.add_subparsers(dest="subcommand", required=True)
    wt = li_sub.add_parser("witt")
    wt.add_argument("--N", type=int, required=True)
    wt.add_argument("--c", type=int, required=True)
    bs = li_sub.add_parser("basis")
    bs.add_argument("--N", type=int, required=True)
    bs.add_argument("--m", type=int, required=True)
    bs.add_argument("--format", choices=OUTPUT_FORMATS, default="json")

    dc = sub.add_parser("decomp", help="graded decomposition certificates")
    dc_sub = dc.add_subparsers(dest="subcommand", required=True)
    dv = dc_sub.add_parser("verify")
    dv.add_argument("--n", type=int, required=True)
    dv.add_argument("--max-degree", type=int, required=True)
    dv.add_argument("--format", choices=OUTPUT_FORMATS, default="json")
    rt = dc_sub.add_parser("rank-table")
    rt.add_argument("--n", type=int, required=True)
    rt.add_argument("--max-degree", type=int, required=True)

    ia = sub.add_parser("ia", help="IA filtration ranks")
    ia_sub = ia.add_subparsers(dest="subcommand", required=True)
    l1 = ia_sub.add_parser("l1-rank")
    l1.add_argument("--n", type=int, required=True)
    l1.add_argument("--c", type=int, required=True)
    th = ia_sub.add_parser("thu1")
    th.add_argument("--n", type=int, required=True)
    th.add_argument("--c", type=int, required=True)

    va = sub.add_parser("verify-all", help="run the full verification suite")
    cfg = RunConfig()
    va.add_argument("--n", type=int, default=cfg.n)
    va.add_argument("--max-degree", type=int, default=cfg.max_degree)
    va.add_argument("--seed", type=int, default=cfg.seed)
    va.add_argument("--fuzz-words", type=int, default=cfg.fuzz_words)
    va.add_argument("--fuzz-conj", type=int, default=cfg.fuzz_conj)
    va.add_argument("--format", choices=OUTPUT_FORMATS, default=cfg.output_format)
    va.add_argument("--out", default=cfg.output_path)
    va.add_argument(
        "--negative-control",
        choices=NEGATIVE_CONTROLS,
        default=cfg.negative_control,
        help="corrupt one input on purpose; the run must fail",
    )

    return p


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(json.dumps({"error": str(exc), "column": exc.column}), file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


def _print(obj: dict) -> None:
    sys.stdout.write(_dump(obj))


def _dispatch(args) -> int:
    if args.command == "endos" and args.subcommand == "check-mccool":
        rep = endos.check_mccool_relations(args.n)
        _print({"instances": rep.instances, "failures": list(rep.failures)})
        return 0 if rep.ok else 1

    if args.command == "igroup":
        tokens = parse_word(args.word)
        if args.subcommand == "normal-form":
            elem = igroup.collect(args.n, tokens)
            comps = {
                str(m): igroup.format_level_word(elem.part(m))
                for m in range(args.n, 1, -1)
            }
            _print({"components": comps})
            return 0
        if args.subcommand == "word-problem":
            _print({"trivial": igroup.word_problem(args.n, tokens)})
            return 0

    if args.command == "magnus" and args.subcommand == "expand":
        w = parse_x_word(args.word, args.n)
        poly = magnus.magnus_expand(w, args.maxdeg)
        terms = [
            {"monomial": list(mono), "coeff": poly[mono]}
            for mono in sorted(poly, key=lambda m: (len(m), m))
        ]
        sys.stdout.write(json.dumps(terms, sort_keys=True, indent=2) + "\n")
        return 0

    if args.command == "conj" and args.subcommand == "decide":
        x = igroup.collect(args.n, parse_word(args.x_word))
        y = igroup.collect(args.n, parse_word(args.y_word))
        res = conj.conjugacy(x, y, _budget_from_args(args))
        _print(res.as_dict())
        return 0

    if args.command == "lie":
        if args.subcommand == "witt":
            _print({"N": args.N, "c": args.c, "witt": lie.witt(args.N, args.c)})
            return 0
        if args.subcommand == "basis":
            basis = lie.lyndon_basis(args.N, args.m)
            if args.format == "json":
                _print(
                    {
                        "N": args.N,
                        "m": args.m,
                        "count": len(basis),
                        "basis": [
                            {
                                "lyndon_word": list(e.lyndon[0][0]),
                                "tensor": [
                                    {"monomial": list(mono), "coeff": c}
                                    for mono, c in sorted(e.coords.items())
                                ],
                            }
                            for e in basis
                        ],
                    }
                )
            else:
                sep = " " if args.N >= 10 else ""  # a letter of two digits needs a separator
                for e in basis:
                    print(sep.join(str(a) for a in e.lyndon[0][0]))
            return 0

    if args.command == "decomp":
        if args.subcommand == "verify":
            rep = decomp.verify_theorem_th1(args.n, args.max_degree)
            if args.format == "json":
                _print(rep.as_dict())
            else:
                for d in rep.degrees:
                    print(f"m={d.m}: J={d.rank_j} Y={list(d.ranks_y)} ok={d.ok}")
            return 0 if rep.ok else 1
        if args.subcommand == "rank-table":
            rows = decomp.gr_rank_table(args.n, args.max_degree)
            _print({"rows": [r.as_dict() for r in rows]})
            return 0 if all(r.ok for r in rows) else 1

    if args.command == "ia":
        if args.subcommand == "l1-rank":
            rank = ajohnson.l1_rank(args.n, args.c, args.c + 2)
            _print({"n": args.n, "c": args.c, "l1_rank": rank})
            return 0
        if args.subcommand == "thu1":
            # the lower bound sum_{i=2..n} witt(i, c), which Th1 shows is rank L^c / J^c
            row = _embedding_row(args.n, args.c, sum(lie.witt(i, args.c) for i in range(2, args.n + 1)))
            _print({"n": args.n, **row})
            return 0 if row["certified"] else 1

    if args.command == "verify-all":
        return cmd_verify_all(_config_from_args(args))

    raise ValueError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
