"""The exit status of ``tools/ab_pairs.py``, with its benchmark runs stubbed
or replaced by a failing ``benchmark/run.py``."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab_pairs", ROOT / "tools" / "ab_pairs.py")
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)


PARENT_PASS = {"query_evals": 5, "update_evals": 9}


def _stub_runs(monkeypatch, change_digest: str, change_correct: bool,
               change_update_evals=lambda: 9) -> None:
    """Every run reads the same metrics; the change's runs carry the given
    digest and correctness, and ``update_evals`` from a call of
    ``change_update_evals`` per run."""
    def run_once(checkout, args):
        change = checkout.name == "change"
        per_pass = dict(PARENT_PASS, update_evals=change_update_evals()) if change else PARENT_PASS
        record = {
            "digests": ["d" if not change else change_digest],
            "per_pass": per_pass,
            "reference_us": {"median": 1000.0},
            "pass_raw_run_s": {"plain": [1.0], "traced": []},
        }
        result = {"metrics": {"updates_per_s": {"value": 2.0 if change else 1.0}},
                  "correct": change_correct if change else True}
        return {"record": record, "result": result}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    monkeypatch.setattr(ab_pairs, "directions", lambda checkout: {"updates_per_s": ("higher", 0)})


@pytest.mark.parametrize("digest, correct, status", [
    ("d", True, 0),       # every run correct, with one digest
    ("x", True, 1),       # the sides' digests differ
    ("d", False, 1),      # a run fails its correctness gate
])
def test_ab_pairs_exits_1_unless_every_run_is_correct_and_agrees(
        monkeypatch, capsys, tmp_path, digest, correct, status):
    _stub_runs(monkeypatch, digest, correct)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]
    assert ab_pairs.main(argv) == status
    out = capsys.readouterr().out
    assert "change wins 2 of 2 pairs" in out
    assert ("DIFFER between runs" in out) == (digest != "d")
    assert ("per_pass fields that differ" in out) == (digest != "d")


def test_ab_pairs_out_records_paths_by_their_final_name(monkeypatch, tmp_path):
    _stub_runs(monkeypatch, "d", True)
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    out = tmp_path / "runs.json"
    argv = [str(tmp_path / "parent"), "../change", "--workload", "w", "--pairs", "2", "--out", str(out)]
    assert ab_pairs.main(argv) == 0
    text = out.read_text()
    given = json.loads(text)["args"]
    assert (given["parent"], given["change"], given["out"]) == ("parent", "change", "runs.json")
    assert given["pairs"] == "2" and str(tmp_path) not in text and ".." not in text


def test_ab_pairs_prints_the_stderr_of_a_failed_run_and_exits_1(monkeypatch, capsys, tmp_path):
    # the change's benchmark/run.py raises, as an engine exception would
    for side, body in (("parent", "print('{}')\nprint('{}')\n"),
                       ("change", "import sys\nprint('step 1', file=sys.stderr)\n"
                                  "raise ValueError('engine failed')\n")):
        (tmp_path / side / "benchmark").mkdir(parents=True)
        (tmp_path / side / "benchmark" / "run.py").write_text(body)
    monkeypatch.setattr(ab_pairs, "directions", lambda checkout: {"updates_per_s": ("higher", 0)})
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]
    assert ab_pairs.main(argv) == 1
    err = capsys.readouterr().err
    assert "pair 1: the change run exited with status 1" in err
    assert "step 1" in err and "ValueError: engine failed" in err


def test_ab_pairs_names_the_per_pass_fields_that_differ(monkeypatch, capsys, tmp_path):
    # the change evaluates fewer pairs per update and answers the same queries
    _stub_runs(monkeypatch, "x", True, change_update_evals=lambda: 6)
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]
    assert ab_pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "per_pass fields that differ between parent and change: update_evals (parent 9, change 6)\n" in out
    assert "per_pass fields identical on both sides: query_evals\n" in out
    assert "parent: digests and per_pass the same in each of its runs" in out
    assert "change: digests and per_pass the same in each of its runs" in out


def test_ab_pairs_says_which_side_disagrees_with_itself(monkeypatch, capsys, tmp_path):
    counts = iter([6, 7])
    _stub_runs(monkeypatch, "d", True, change_update_evals=lambda: next(counts))
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "w", "--pairs", "2"]
    assert ab_pairs.main(argv) == 1
    out = capsys.readouterr().out
    assert "update_evals (parent 9, change 6 7)" in out
    assert "parent: digests and per_pass the same in each of its runs" in out
    assert "change: digests and per_pass DIFFER between its own runs" in out
