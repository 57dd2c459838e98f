"""Smoke tests of the timing scripts: each child runs once through the shared runner, and --tree is checked.

A stage hook that no longer fits pik (a renamed function, a new signature)
makes its child fail, and the runner stops on it.  Nothing here writes a
BENCH file.
"""

import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from pik import conj

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

import conj_timings  # noqa: E402
import normal_form_timings  # noqa: E402
import th1_timings  # noqa: E402
import timing  # noqa: E402

SRC = timing.ROOT / "src"
CONJ, NF = conj_timings, normal_form_timings
CHILDREN = {  # the longest first
    "conj-long-n3": (timing.run_stages, CONJ.STAGES, CONJ.HOOKS, "conj-long-n3", 1),
    "conj-planted": (timing.run_stages, CONJ.STAGES, CONJ.HOOKS, "conj-planted", 1),
    "normal-form": (timing.run_stages, NF.STAGES, NF.HOOKS, NF.SEED, 1),
    "th1": (timing.run, th1_timings.CHILD, "th1", 3, 3),
    "l1_rank": (timing.run, th1_timings.CHILD, "l1_rank", 3, 3),
    "certs": (timing.run, th1_timings.CHILD, "certs", 3, 4),
}


@pytest.fixture(scope="module")
def reports():
    """Each child's report to come, two children at a time, so the six take about as long as conj-long-n3."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        yield {name: pool.submit(run_one, SRC, *args) for name, (run_one, *args) in CHILDREN.items()}


def result(reports, name):
    return reports[name].result(timeout=120)


@pytest.mark.parametrize("kind", ["th1", "l1_rank", "certs"])
def test_th1_child(kind, reports):
    got = result(reports, kind)
    assert got["ok"] is True
    assert 0 < got["echelon_s"] < got["wall_s"]


def test_normal_form_child(reports):
    rec = timing.medians([result(reports, "normal-form")], "normal-form")
    assert rec["ops"] == 66 and rec["runs_spread"] == 1
    assert list(rec["stages"]) == [*NF.STAGES, "other"]
    assert all(rec["stages"][s]["calls"] == 66 for s in NF.STAGES)
    # the ops' images as they were when collect acted by run splits and direct_endo composed image strs
    assert rec["outputs_sha256"] == "83325064ffa3ee2aae43e17700c399bd4024c36c4322b93a95dca7d1b3c8385b"


# Each child's outputs_sha256, taken when the plateau's slack 0 began to run
# before S_4 and its tables to carry over to slack 2, which moved the
# witnesses of conj-long-n3's pairs 14 and 54 and no method: conj-long-n3's
# is BENCH_conj.json's and covers the plateau's witnesses of its 45 pairs
# that descent leaves open; conj-planted's is that of the stream drawn for
# one second, shorter than BENCH_conj.json's, and did not move.
CONJ_OUTPUTS_SHA256 = {
    "conj-planted": "8a5b87b2b1592fdee60b8b99bb0df0b332d6b0ac763bf58c194e357aa8d6fe2e",
    "conj-long-n3": "75c9577a75d32f86d4a843620c020ffe4cbc16401fdfd0e40c2536b6c7d92927",
}


# The stages each stream reaches, in the order of conj.STAGES: the plateau
# decides every planted pair that descent leaves open, so the full walk
# never runs; S_4 runs on the pairs that the plateau's slack 0 leaves open.
REACHED = ["descent", "tables", "S_3", "plateau", "S_4"]


def test_conj_stages_are_table_entries():
    # A stage of the script that no entry of conj.STAGES bears, or that runs
    # out of the table's order, fails here instead of timing nothing.
    names = ["plateau" if name == "plateau-0" else name for name, _ in conj.STAGES]
    for stages in (CONJ.STAGES, REACHED):
        timed = [s for s in stages if s != "tables"]
        assert set(timed) <= set(names)
        assert timed == sorted(timed, key=names.index)


@pytest.mark.parametrize("stream, reached", [("conj-planted", REACHED), ("conj-long-n3", REACHED)])
def test_conj_child(stream, reached, reports):
    rec = timing.medians([result(reports, stream)], stream)
    assert list(rec["stages"]) == [*CONJ.STAGES, "other"]
    assert [s for s in CONJ.STAGES if rec["stages"][s]["calls"] > 0] == reached
    assert rec["stages"]["plateau"]["states"] > 0
    assert {s for s, stage in rec["stages"].items() if "states" in stage} == {"plateau", "full walk"}
    assert 0 <= rec["unknown"] <= rec["ops"]
    assert rec["outputs_sha256"] == CONJ_OUTPUTS_SHA256[stream]


def fake_report(wall_s):
    return {
        "ops": 1,
        "wall_s": wall_s,
        "stages": {"stage": {"wall_s": wall_s / 2, "calls": 1}},
        "states": {},
        "peak_rss_mb": 30.0,
        "outputs_sha256": "0" * 64,
        "counts": {},
    }


def test_medians_warn_of_a_wide_spread(capsys):
    # The slowest run over the fastest is recorded; over MAX_SPREAD, a
    # warning names the stream.
    rec = timing.medians([fake_report(wall) for wall in (1.0, 1.2, 1.1)], "steady")
    assert rec["runs_spread"] == 1.2 and rec["wall_s"] == 1.1
    assert capsys.readouterr().err == ""
    rec = timing.medians([fake_report(wall) for wall in (1.0, 1.5, 1.1)], "drifting")
    assert rec["runs_spread"] == 1.5 and rec["runs_wall_s"] == [1.0, 1.5, 1.1]
    assert capsys.readouterr().err == "warning: drifting's runs spread 1.50x, over 1.2x\n"


def test_a_failed_run_shows_its_stderr(tmp_path, capsys):
    (tmp_path / "pik").mkdir()
    (tmp_path / "pik" / "__init__.py").write_text('raise RuntimeError("broken tree")\n')
    got = timing.run(tmp_path, "import pik")
    assert got["exit"] == 1 and got["stderr"].endswith("RuntimeError: broken tree")
    with pytest.raises(SystemExit, match="exited 1"):
        timing.run_stages(tmp_path, ("stage",), "report([], str)\n")
    assert capsys.readouterr().err.count("RuntimeError: broken tree") == 2


@pytest.mark.parametrize("specs", [["after"], ["=src"], ["a=src", "a=src"], ["a=."]])
def test_bad_tree_exits_2(specs, monkeypatch):
    monkeypatch.chdir(timing.ROOT)
    argv = ["conj_timings.py"]
    for spec in specs:
        argv += ["--tree", spec]
    with pytest.raises(SystemExit) as exc:
        timing.trees(argv, CONJ.__doc__)
    assert exc.value.code == 2


def test_trees_default_to_the_checkout():
    assert timing.trees(["th1_timings.py"], th1_timings.__doc__) == {"after": SRC}
