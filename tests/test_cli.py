import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pik import cli
from pik.cli import _CHECKS, RunConfig, build_parser, emit_report, main, pool_size
from pik.conj import SearchBudget, conjugacy
from pik.igroup import collect
from pik.words import parse_word

SRC = Path(__file__).resolve().parent.parent / "src"

BUDGET_FLAGS = {
    "max_len": "--budget-len",
    "coset": "--budget-coset",
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
        assert emit_report([]) == {"schema": "pik/2", "checks": []}

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
            RunConfig(budget_len=0)
        with pytest.raises(ValueError):
            RunConfig(fuzz_words=-1)
        with pytest.raises(ValueError):
            RunConfig(fuzz_conj=-1)
        with pytest.raises(ValueError, match="--n must be at least 3"):
            RunConfig(n=2)
        with pytest.raises(ValueError, match="--max-degree must be at least 2"):
            RunConfig(max_degree=1)

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

    def test_conj_decide(self, capsys):
        code = main(
            ["conj", "decide", "--n", "3", "--budget-len", "8", "--budget-coset", "4",
             "y(2,1) y(3,1)", "y(3,1) y(2,1)"]
        )
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["verdict"] == "conjugate"
        assert "witness" in out

    def test_conj_decide_replays_a_library_unknown(self, capsys):
        # The bounds that callers in this repo change can be set again from
        # the command line; the others keep their defaults.
        xs, ys = "y(3,1) y(2,1)", "y(3,2)^-1 y(3,1) y(3,2) y(2,1)"
        budget = SearchBudget(max_len=5, coset=3, gen_radius=2, max_states=300)
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

    def test_decomp_verify(self, capsys):
        assert main(["decomp", "verify", "--n", "3", "--max-degree", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["ok"] and out["per_degree"][0]["rank_J"] == 6

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
        assert rep["schema"] == "pik/2"
        assert all(c["status"] == "pass" for c in rep["checks"])

    def test_negative_control_drop_relator(self, tmp_path, capsys):
        code = main(self.CFG + ["--negative-control", "drop-relator", "--out", str(tmp_path / "r.json")])
        assert code == 1
        rep = json.loads((tmp_path / "r.json").read_text())
        failing = {c["name"]: c for c in rep["checks"] if c["status"] == "fail"}
        assert "theorem_th1" in failing
        assert failing["theorem_th1"]["details"]["first_failure"] == {"m": 2, "rank_deficit": 1}

    def test_negative_control_perturb_chi(self, tmp_path, capsys):
        code = main(self.CFG + ["--negative-control", "perturb-chi", "--out", str(tmp_path / "r.json")])
        assert code == 1
        rep = json.loads((tmp_path / "r.json").read_text())
        assert any(c["name"] == "mccool_relations" and c["status"] == "fail" for c in rep["checks"])

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

    def test_threads_env_not_an_integer(self, monkeypatch, capsys):
        monkeypatch.setenv("PIK_THREADS", "two")
        assert main(self.CFG) == 2
        assert "PIK_THREADS must be an integer" in json.loads(capsys.readouterr().err)["error"]

    def test_conjugacy_fuzz_keeps_the_planted_budget(self, monkeypatch):
        # each planted case seeds gen_radius and max_states so that its walk
        # is complete; the run's length and coset budgets replace only those two
        from types import SimpleNamespace

        from pik import conj, fuzz
        from pik.cli import check_conjugacy_fuzz
        from pik.prng import Lcg

        cfg = RunConfig(n=3, seed=7, fuzz_conj=6, budget_len=5, budget_coset=3)
        rng = Lcg(cfg.seed + 1)
        planted = [fuzz.planted_conjugacy_case(rng, cfg.n, 8)[2] for _ in range(cfg.fuzz_conj)]
        seen = []

        def fake(x, y, budget=None):
            if budget is None:  # the abelianization refutations use the default budget
                return SimpleNamespace(verdict="not_conjugate")
            seen.append((budget.gen_radius, budget.max_states, budget.max_len, budget.coset))
            return SimpleNamespace(verdict="conjugate")

        monkeypatch.setattr(conj, "conjugacy", fake)
        assert check_conjugacy_fuzz(cfg)["status"] == "pass"
        assert seen == [(b.gen_radius, b.max_states, 5, 3) for b in planted]
        assert {b.max_states for b in planted} == {400_000}


def test_script_runs_from_any_directory(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    script = SRC.parent / "scripts" / "verify_all.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--help"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "verify-all" in proc.stdout
