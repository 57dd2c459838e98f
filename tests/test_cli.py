import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from pik import cli, lie
from pik.cli import _CHECKS, RunConfig, build_parser, emit_report, main, pool_size
from pik.conj import SearchBudget, conjugacy
from pik.igroup import collect
from pik.words import parse_word

SRC = Path(__file__).resolve().parent.parent / "src"

BUDGET_FLAGS = {
    "gen_radius": "--budget-radius",
    "max_states": "--budget-states",
}


def run_cli(args, **kwargs):
    proc = subprocess.run(
        [sys.executable, "-m", "pik.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        **kwargs,
    )
    return proc


class TestReportSchema:
    def test_empty_results(self):
        assert emit_report([]) == {"schema": "pik/5", "checks": []}

    def test_passing_check(self):
        rep = emit_report([{"name": "x", "status": "pass", "details": {}}])
        assert rep["checks"][0]["status"] == "pass"

    def test_failing_check_details(self):
        rep = emit_report([{"name": "x", "status": "fail", "details": {"why": 1}}])
        assert rep["checks"][0]["status"] == "fail"
        assert rep["checks"][0]["details"] == {"why": 1}

    def test_config_embedded(self):
        rep = emit_report([], RunConfig(n=3))
        assert rep["config"]["n"] == 3

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RunConfig(n=1)
        with pytest.raises(ValueError):
            RunConfig(fuzz_words=-1)
        with pytest.raises(ValueError):
            RunConfig(fuzz_conj=-1)
        with pytest.raises(ValueError, match="--n must be at least 3"):
            RunConfig(n=2)
        with pytest.raises(ValueError, match="--max-degree must be at least 2"):
            RunConfig(max_degree=1)
        # a library caller's misspelling is refused, not run as no control or as text
        with pytest.raises(ValueError, match="--negative-control must be one of drop-relator, perturb-chi"):
            RunConfig(negative_control="drop_relator")
        with pytest.raises(ValueError, match="--format must be one of json, text, got 'yaml'"):
            RunConfig(output_format="yaml")

    def test_verify_all_defaults_are_run_config_defaults(self):
        args = build_parser().parse_args(["verify-all"])
        assert cli._config_from_args(args) == RunConfig()


class TestSubcommands:
    def test_check_mccool(self, capsys):
        assert main(["endos", "check-mccool", "--n", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["failures"] == [] and out["instances"] == 12

    def test_normal_form(self, capsys):
        assert main(["igroup", "normal-form", "--n", "3", "y(2,1) y(3,2)"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["components"]["3"] == "y(3,1) y(3,2) y(3,1)^-1"
        assert out["components"]["2"] == "y(2,1)"

    def test_word_problem(self, capsys):
        assert main(["igroup", "word-problem", "--n", "3", "y(2,1)^-1 y(2,1)"]) == 0
        assert json.loads(capsys.readouterr().out) == {"trivial": True}
        assert main(["igroup", "word-problem", "--n", "3", "y(2,1)"]) == 0
        assert json.loads(capsys.readouterr().out) == {"trivial": False}

    def test_magnus_expand(self, capsys):
        assert main(["magnus", "expand", "--n", "2", "--maxdeg", "2", "x1 x2 x1^-1 x2^-1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert isinstance(out, list)
        assert {"monomial": [1, 2], "coeff": 1} in out
        assert {"monomial": [2, 1], "coeff": -1} in out

    def test_magnus_expand_at_the_rank_cap(self, capsys):
        # letters have codes up to rank 557,055; one rank more is refused at the boundary
        assert main(["magnus", "expand", "--n", "557055", "--maxdeg", "1", "x557055"]) == 0
        assert {"monomial": [557055], "coeff": 1} in json.loads(capsys.readouterr().out)
        assert main(["magnus", "expand", "--n", "557056", "--maxdeg", "1", "x1"]) == 2
        assert "rank must be in 1..557055" in json.loads(capsys.readouterr().err)["error"]

    @pytest.mark.parametrize(
        "args,digest",
        [
            (
                ["magnus", "expand", "--n", "3", "--maxdeg", "5", "x1^-1 x3 x2^2 x1"],
                "f4913d602fb126035ffccf18a1535a78615941bbe3ae1d0314fc0429a6d20e07",
            ),
            (
                ["magnus", "expand", "--n", "2", "--maxdeg", "3", "x1 x2 x1^-1 x2^-1"],
                "6ec06a1aa2f7b77e2a904de36a9ed3dedda410fae0902870f345ce21ece15dcd",
            ),
            (
                ["lie", "basis", "--N", "3", "--m", "3"],
                "780677cc1ca2aafc58a4ef2ee57ba857636c04f798f8b1ff59ee3c1a910223bf",
            ),
        ],
    )
    def test_term_order_bytes(self, capsys, args, digest):
        # the CLI orders the terms itself: by (length, monomial) for magnus
        # expand, and by monomial for lie basis, whose terms share one degree
        assert main(args) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest

    def test_magnus_expand_maxdeg_zero(self, capsys):
        assert main(["magnus", "expand", "--n", "2", "--maxdeg", "0", "x1"]) == 2
        assert "maxdeg must be positive" in json.loads(capsys.readouterr().err)["error"]

    def test_conj_decide(self, capsys):
        code = main(["conj", "decide", "--n", "3", "--budget-radius", "4", "y(2,1) y(3,1)", "y(3,1) y(2,1)"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "conjugate"
        assert "witness" in out

    def test_conj_decide_replays_a_library_unknown(self, capsys):
        # Every bound an unknown names can be set again from the command
        # line.  y is x [a, b], pair 69 of conj-hard's draws at rank 3: no
        # invariant tells its sides apart and no search joins them, so
        # unknown is the only honest verdict.
        assert set(BUDGET_FLAGS) == set(SearchBudget().as_dict())
        xs = "y(3,2) y(3,1)^-1 y(2,2)^2"
        ys = "y(3,2) y(3,1)^-1 y(3,2)^-1 y(3,3)^2 y(3,2) y(3,3)^-2 y(2,2)^2"
        budget = SearchBudget(gen_radius=2, max_states=300)
        res = conjugacy(collect(3, parse_word(xs)), collect(3, parse_word(ys)), budget)
        assert res.verdict == "unknown"
        assert res.bounds == budget.as_dict()
        flags = [arg for name, flag in BUDGET_FLAGS.items() for arg in (flag, str(res.bounds[name]))]
        assert main(["conj", "decide", "--n", "3", *flags, xs, ys]) == 0
        assert json.loads(capsys.readouterr().out) == res.as_dict()

    @pytest.mark.parametrize("flag", sorted(BUDGET_FLAGS.values()))
    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_conj_decide_rejects_a_budget_below_one(self, capsys, flag, value):
        assert main(["conj", "decide", "--n", "3", flag, value, "y(2,1)", "y(2,2)"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be a positive integer" in json.loads(captured.err)["error"]

    @pytest.mark.parametrize("flags", [["--budget-len", "8"], ["--budget-coset", "4"]])
    def test_conj_decide_rejects_the_flags_that_bounded_nothing(self, capsys, flags):
        with pytest.raises(SystemExit) as exc:
            main(["conj", "decide", "--n", "3", *flags, "y(2,1)", "y(2,2)"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err

    def test_conj_decide_refuted(self, capsys):
        main(["conj", "decide", "--n", "3", "y(2,1)", "y(2,2)"])
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "not_conjugate"

    def test_lie_witt(self, capsys):
        assert main(["lie", "witt", "--N", "5", "--c", "3"]) == 0
        assert json.loads(capsys.readouterr().out)["witt"] == 40

    def test_lie_basis(self, capsys):
        assert main(["lie", "basis", "--N", "2", "--m", "2", "--format", "json"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["count"] == 1
        assert out["basis"][0]["lyndon_word"] == [1, 2]
        assert main(["lie", "basis", "--N", "3", "--m", "3", "--format", "text"]) == 0
        assert capsys.readouterr().out.split() == ["112", "113", "122", "123", "132", "133", "223", "233"]

    def test_lie_basis_text_two_digit_letters(self, capsys):
        # at N >= 10 a letter can have two digits: (1, 1, 12) and (1, 11, 2)
        # must print as different lines that read back as the Lyndon words
        assert main(["lie", "basis", "--N", "12", "--m", "3", "--format", "text"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(set(lines)) == len(lines)
        assert [tuple(map(int, line.split())) for line in lines] == list(lie.lyndon_words(12, 3))

    def test_decomp_verify(self, capsys):
        assert main(["decomp", "verify", "--n", "3", "--max-degree", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["per_degree"][0]["rank_J"] == 6
        assert main(["decomp", "verify", "--n", "3", "--max-degree", "3", "--format", "text"]) == 0
        assert capsys.readouterr().out == "m=2: J=6 Y=[1, 3] ok=True\nm=3: J=30 Y=[2, 8] ok=True\n"

    def test_decomp_rank_table(self, capsys):
        assert main(["decomp", "rank-table", "--n", "3", "--max-degree", "3"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["sum_witt_factors"] for r in rows] == [5, 4, 10]

    def test_decomp_rank_table_n2(self, capsys):
        assert main(["decomp", "rank-table", "--n", "2", "--max-degree", "2"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert [r["sum_witt_factors"] for r in rows] == [2, 1]

    @pytest.mark.parametrize(
        "args",
        [["verify", "--max-degree", "1"], ["rank-table", "--max-degree", "0"]],
    )
    def test_decomp_without_a_degree_is_an_error(self, args, capsys):
        # no degree to certify: an input error, not a pass over nothing
        assert main(["decomp", args[0], "--n", "3", *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max degree" in json.loads(captured.err)["error"]

    def test_ia_l1_rank(self, capsys):
        assert main(["ia", "l1-rank", "--n", "3", "--c", "2"]) == 0
        assert json.loads(capsys.readouterr().out)["l1_rank"] == 4

    @pytest.mark.parametrize(
        "args", [["l1-rank", "--n", "1"], ["l1-rank", "--n", "0"], ["thu1", "--n", "1"]]
    )
    def test_ia_without_generators_is_an_error(self, args, capsys):
        # I_1 has no generators: an input error, not a pass over nothing
        assert main(["ia", *args, "--c", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "no generators" in json.loads(captured.err)["error"]

    def test_ia_thu1(self, capsys):
        assert main(["ia", "thu1", "--n", "3", "--c", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"n": 3, "c": 1, "lhs": 5, "certified": True}

    def test_parse_error_exit_code(self, capsys):
        assert main(["igroup", "word-problem", "--n", "3", "y(3,"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["column"] == 5

    def test_c_generator_is_a_parse_error(self, capsys):
        assert main(["igroup", "normal-form", "--n", "3", "c(1,2)"]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["column"] == 1


class TestVerifyAll:
    CFG = [
        "verify-all", "--n", "3", "--max-degree", "3",
        "--fuzz-words", "10", "--fuzz-conj", "6", "--seed", "7",
    ]

    def test_default_passes_and_is_deterministic(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert main(self.CFG + ["--out", str(out1)]) == 0
        assert main(self.CFG + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rep = json.loads(out1.read_text())
        assert rep["schema"] == "pik/5"
        assert all(c["status"] == "pass" for c in rep["checks"])

    def test_negative_control_drop_relator(self, tmp_path, capsys):
        code = main(self.CFG + ["--negative-control", "drop-relator", "--out", str(tmp_path / "r.json")])
        assert code == 1
        rep = json.loads((tmp_path / "r.json").read_text())
        failing = {c["name"]: c for c in rep["checks"] if c["status"] == "fail"}
        assert "lie_certificates" in failing
        assert failing["lie_certificates"]["details"]["theorem_th1"]["first_failure"] == {"m": 2, "rank_deficit": 1}

    def test_negative_control_perturb_chi(self, tmp_path, capsys):
        code = main(self.CFG + ["--negative-control", "perturb-chi", "--out", str(tmp_path / "r.json")])
        assert code == 1
        rep = json.loads((tmp_path / "r.json").read_text())
        assert any(c["name"] == "mccool_relations" and c["status"] == "fail" for c in rep["checks"])

    # SHA-256 of the report bytes of CFG, re-pinned at schema pik/5, which
    # folded theorem_th1, tilde_T and l1_rank_identity into lie_certificates
    # (their details unchanged, as its theorem_th1 and tilde_T parts) and
    # added the F1-F3 maps and the embedding at every degree; the other
    # checks' entries did not change.  A change that keeps every verdict
    # keeps them.
    @pytest.mark.parametrize(
        "extra, digest",
        [
            ([], "9f7c6b40319fcc83e24267f0d3e93a881e40ba00a72fcc0d390df353a6434422"),
            (
                ["--negative-control", "perturb-chi"],
                "15d05aed3d516fe051c554eca75c3b21429a5081eb1fdbb0e6e3769c77320b47",
            ),
        ],
        ids=["default", "perturb-chi"],  # a re-pin keeps the test ids
    )
    def test_report_bytes_are_pinned(self, tmp_path, capsys, extra, digest):
        out = tmp_path / "r.json"
        main(self.CFG + extra + ["--out", str(out)])
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_lie_certificates_parts(self, tmp_path):
        # one check: the embedding row of each degree certifies rank L^c / J^c,
        # which Th1 reads as the per-level Witt sum, and every relator goes to 0
        out = tmp_path / "r.json"
        assert main(self.CFG + ["--out", str(out)]) == 0
        rep = json.loads(out.read_text())
        assert [c["name"] for c in rep["checks"]] == [
            "mccool_relations", "igroup_relations", "normal_form_fuzz", "conjugacy_fuzz", "lie_certificates"
        ]
        details = rep["checks"][-1]["details"]
        assert details["johnson_embedding"] == {
            "rows": [{"c": c, "lhs": lhs, "certified": True} for c, lhs in ((1, 5), (2, 4), (3, 10))],
            "relators": 6,
            "nonzero_relators": [],
        }
        assert details["psi_maps"] == [{"r": 2, "block_is_identity": True, "injective": True}]
        assert [d["rank_J"] for d in details["tilde_T"]["per_degree"]] == [
            d["rank_J"] for d in details["theorem_th1"]["per_degree"]
        ]

    def test_j_is_built_once_per_run(self, tmp_path, monkeypatch):
        # the ideal of the whole relator set over every letter is entered
        # once: Th1 and the T_r splitting read the same echelons of J, and
        # at n = 3, where T_2 has J's relators and letters, so does T_2
        from pik import decomp

        build = decomp.ideal_rows_by_degree
        seen = []

        def spy(relators, max_m, letters):
            if relators == whole and list(letters) == every:
                seen.append(max_m)
            return build(relators, max_m, letters)

        monkeypatch.setattr(decomp, "ideal_rows_by_degree", spy)
        monkeypatch.delenv("PIK_THREADS", raising=False)
        for n in (3, 4):
            whole = decomp.build_relators(n)
            every = list(range(1, decomp.alphabet_size(n) + 1))
            seen.clear()
            cfg = ["verify-all", "--n", str(n), "--max-degree", "3", "--fuzz-words", "2", "--fuzz-conj", "2"]
            assert main(cfg + ["--out", str(tmp_path / "r.json")]) == 0
            assert seen == [3]

    def test_text_format(self, capsys):
        code = main(self.CFG + ["--format", "text"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.strip().endswith("OK")

    def test_threads_env(self, tmp_path, monkeypatch):
        # An absolute src first on PYTHONPATH lets the child import this checkout's pik from any cwd.
        pythonpath = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        env = dict(os.environ, PYTHONPATH=pythonpath, PIK_THREADS="2")
        out1 = tmp_path / "t1.json"
        proc = run_cli(self.CFG + ["--out", str(out1)], env=env, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr
        # The in-process run is the serial reference, whatever the caller's shell exports.
        monkeypatch.delenv("PIK_THREADS", raising=False)
        out2 = tmp_path / "t2.json"
        assert main(self.CFG + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_pool_size_is_clamped(self):
        # Only the arithmetic: no pool is started at these values.
        assert pool_size(None, 8) == 1
        assert pool_size("", 8) == 1
        assert pool_size("0", 8) == 1
        assert pool_size("-3", 8) == 1
        assert pool_size("2", 8) == 2
        assert pool_size("100000", 64) == len(_CHECKS)
        assert pool_size("100000", 2) == 2
        assert pool_size("4", None) == 1
        with pytest.raises(ValueError, match="PIK_THREADS must be an integer"):
            pool_size("two", 8)

    @pytest.mark.parametrize("flag, value", [("--n", "2"), ("--max-degree", "1")])
    def test_bounds_rejected_before_any_check(self, flag, value, monkeypatch, capsys):
        def run_checks(cfg):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "cmd_verify_all", run_checks)
        assert main(["verify-all", flag, value]) == 2
        assert flag in json.loads(capsys.readouterr().err)["error"]

    def test_unwritable_out_rejected_before_any_check(self, tmp_path, monkeypatch, capsys):
        def check(cfg):
            raise AssertionError("a check ran")

        monkeypatch.setattr(cli, "_CHECKS", [check])
        out = tmp_path / "missing" / "r.json"
        assert main(["verify-all", "--out", str(out)]) == 2
        assert str(out) in json.loads(capsys.readouterr().err)["error"]

    def test_threads_env_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("PIK_THREADS", "two")
        assert main(self.CFG) == 2
        assert "PIK_THREADS must be an integer" in json.loads(capsys.readouterr().err)["error"]

    def test_conjugacy_fuzz_keeps_the_planted_budget(self, monkeypatch):
        # each planted case seeds its budget so that its walk is complete,
        # and conjugacy gets that budget unchanged
        from types import SimpleNamespace

        from pik import conj, fuzz
        from pik.cli import check_conjugacy_fuzz
        from pik.prng import Lcg

        cfg = RunConfig(n=3, seed=7, fuzz_conj=6)
        rng = Lcg(cfg.seed + 1)
        planted = [fuzz.planted_conjugacy_case(rng, cfg.n, 8)[2] for _ in range(cfg.fuzz_conj)]
        seen = []

        def fake(x, y, budget=None):
            if budget is None:  # the abelianization refutations use the default budget
                return SimpleNamespace(verdict="not_conjugate")
            seen.append(budget)
            return SimpleNamespace(verdict="conjugate")

        monkeypatch.setattr(conj, "conjugacy", fake)
        assert check_conjugacy_fuzz(cfg)["status"] == "pass"
        assert seen == planted
        assert {b.max_states for b in planted} == {400_000}

    @pytest.mark.parametrize("n", [6, 7])
    def test_conjugacy_fuzz_passes_at_ranks_6_and_7(self, n):
        # with the planted budgets unchanged: the full walk hits their
        # 400,000-state cap before radius 8 at these ranks, and descent over
        # plateaus decides every planted case first
        assert cli.check_conjugacy_fuzz(RunConfig(n=n))["status"] == "pass"

    def test_normal_form_fuzz_checks_inverse_images(self, monkeypatch):
        # Negative control: right images with a wrong inverse must fail.
        from pik import igroup
        from pik.cli import check_normal_form_fuzz

        cfg = RunConfig(n=3, seed=7, fuzz_words=10)
        assert check_normal_form_fuzz(cfg)["status"] == "pass"
        real = igroup.to_endo

        def wrong_inverse(a):
            e = real(a)
            return replace(e, _inverse=lambda: e.images)

        monkeypatch.setattr(igroup, "to_endo", wrong_inverse)
        res = check_normal_form_fuzz(cfg)
        assert res["status"] == "fail"
        assert res["details"] == {"cases": 10, "failures": 10}

    def test_conjugacy_fuzz_fails_on_wrong_verdicts(self, monkeypatch):
        # Negative control: a conjugacy that refutes the planted pairs and
        # finds the refutable ones conjugate must fail both counts.
        from types import SimpleNamespace

        from pik import conj
        from pik.cli import check_conjugacy_fuzz

        def wrong(x, y, budget=None):
            return SimpleNamespace(verdict="conjugate" if budget is None else "not_conjugate")

        monkeypatch.setattr(conj, "conjugacy", wrong)
        cfg = RunConfig(n=3, seed=7, fuzz_conj=6)
        res = check_conjugacy_fuzz(cfg)
        assert res["status"] == "fail"
        assert res["details"]["planted_failures"] == cfg.fuzz_conj
        assert res["details"]["refuted_failures"] > 0

    def test_igroup_relations_flags_a_nontrivial_word(self, monkeypatch):
        # Negative control: a relator that is not trivial must fail both the
        # collection and the automorphism check, under its own label.
        from pik import igroup
        from pik.cli import check_igroup_relations
        from pik.words import Token

        real = igroup.relation_instances

        def planted(n):
            return real(n) + [("planted y(2,1)", [Token("y", 2, 1, 1)])]

        monkeypatch.setattr(igroup, "relation_instances", planted)
        res = check_igroup_relations(RunConfig(n=3))
        assert res["status"] == "fail"
        assert res["details"]["failures"] == ["planted y(2,1) (collection)", "planted y(2,1) (automorphism)"]


def test_script_runs_from_any_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = SRC.parent / "scripts" / "verify_all.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify-all" in proc.stdout


@pytest.mark.parametrize("args", [["2", "3"], ["4", "0"], ["x"]])
def test_rank_tables_rejects_bad_arguments(args, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = SRC.parent / "scripts" / "rank_tables.py"
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "rank_tables.py: error:" in proc.stderr


def test_rank_tables_runs_from_any_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = SRC.parent / "scripts" / "rank_tables.py"
    proc = subprocess.run(
        [sys.executable, str(script), "3", "3"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:] if line.strip()]
    assert [int(row[1]) for row in rows] == [5, 4, 10]
    assert [int(row[2]) for row in rows] == [5, 4, 10]
    assert "MISMATCH" not in proc.stdout


def test_rank_tables_flags_a_johnson_mismatch(monkeypatch, capsys):
    # negative control: an embedded rank one too high marks its rows, though
    # the two Th1 columns agree
    import importlib.util

    spec = importlib.util.spec_from_file_location("rank_tables", SRC.parent / "scripts" / "rank_tables.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "l1_rank", lambda n, c, D: 5 if c == 1 else 0)
    script.main(["rank_tables.py", "3", "2"])
    rows = [line for line in capsys.readouterr().out.splitlines()[2:] if line.strip()]
    assert ["MISMATCH" in row for row in rows] == [False, True]
