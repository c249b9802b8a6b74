"""``tools/query_replay.py`` on a workload small enough for a unit test: this
checkout against itself exits 0 and prints each side's distance evaluations,
and a replay whose centers or cost differ between the sides or between
repetitions makes it exit 1."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("query_replay", ROOT / "tools" / "query_replay.py")
query_replay = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(query_replay)
sys.path.insert(0, str(ROOT / "benchmark"))
import run  # noqa: E402  (benchmark/run.py, whose workload table the capture reads)
from dynkmed.solver import _PANEL  # noqa: E402

TINY = run.Workload("tiny", components=3, dim=4, count=500, window=300, k=3, phi=20, p=1.0,
                    steps=150, queries=3, pass_s=1.0)


def test_the_checkout_replayed_against_itself_exits_0(monkeypatch, capsys, tmp_path):
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    assert query_replay.main([str(ROOT), str(ROOT), TINY.name, "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "tiny seed 2024: 3 query instances of pass 0, 1 repetition(s)" in out
    assert "centers and costs identical on both sides and in every repetition" in out
    # a solve evaluates only its Gram's panels, each against the rows from its own on
    assert query_replay.capture(TINY.name, 2024, tmp_path / "instances.npz") == 3
    with np.load(tmp_path / "instances.npz") as data:
        sizes = [data[f"ids{i}"].shape[0] for i in range(3)]
    evals = sum(min(_PANEL, m - lo) * (m - lo) for m in sizes if m > TINY.k for lo in range(0, m, _PANEL))
    lines = {line.split(":")[0].strip(): line for line in out.splitlines()}
    for side in query_replay.SIDES:
        assert lines[side].endswith(f" ms, {evals:,} distance evaluations")


@pytest.mark.parametrize("call, field, side, rep", [
    (1, "cost", "change", 1),     # the change's first replay: the sides differ
    (1, "centers", "change", 1),
    (3, "cost", "parent", 2),     # the parent's second replay: its repetitions differ
])
def test_a_perturbed_replay_exits_1_naming_the_instance(monkeypatch, capsys, call, field, side, rep):
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    calls = []

    def replay_in_process(checkout, path):  # repetition 1 runs parent then change, 2 the reverse
        results = query_replay.replay(checkout, path)
        if len(calls) == call:
            if field == "cost":
                results[1]["cost"] = repr(np.nextafter(float(results[1]["cost"]), np.inf))
            else:
                results[1]["centers"] = results[1]["centers"][::-1]
        calls.append(checkout)
        return results

    monkeypatch.setattr(query_replay, "replay_once", replay_in_process)
    assert query_replay.main([str(ROOT), str(ROOT), TINY.name, "--reps", "2"]) == 1
    assert len(calls) == 4
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines if line.startswith("instance")] == ["instance 1"]
    assert f"{side} repetition {rep} gives" in lines[-1]
