"""``tools/rebuild_profile.py`` on a workload small enough for a unit test:
it prints every depth the slide rebuilt from, exits 1 when the per-depth
evaluations of ``stats()`` miss some that its updates made, and fits rebuilding
updates' time against their evaluations only where the fit is a cost model."""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("rebuild_profile", ROOT / "tools" / "rebuild_profile.py")
rebuild_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rebuild_profile)
run = rebuild_profile.run

TINY = run.Workload("tiny", components=3, dim=4, count=500, window=300, k=3, phi=20, p=1.0,
                    steps=150, queries=1, pass_s=1.0)


def slide_counts(w: run.Workload) -> dict[str, list[int]]:
    """Per depth the slide rebuilt from, what its steps add to ``stats()``."""
    inputs = run.Inputs.make(w, run.DEFAULT_SEED)
    state, _ = inputs.bulk_load()
    bulk = state.stats()
    for step in range(1, w.steps + 1):
        state.insert(inputs.points[w.window + step - 1])
        state.delete(inputs.points[step - 1].id)
    added = {i: [c[f] - bulk.get(i, rebuild_profile.NONE)[f] for f in rebuild_profile.FIELDS]
             for i, c in state.stats().items()}
    return {str(i): c for i, c in added.items() if c[0]}


def test_the_profile_prints_every_depth_and_exits_1_when_stats_miss_evaluations(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    assert rebuild_profile.main([TINY.name]) == 0
    lines = capsys.readouterr().out.splitlines()
    rows = {row[0]: row[1:] for row in map(str.split, lines[2:]) if row[0] not in ("updates", "rebuilding")}
    want = slide_counts(TINY)
    assert len(want) > 1 and want["1"][4] and list(rows) == [*want, "all"]
    for i, (rebuilds, points, rounds, empty, evals) in want.items():
        assert rows[i] == [str(rebuilds), f"{points / rebuilds:.1f}", str(rounds), str(empty), str(evals),
                           rows[i][-1]]

    stats = run.dk.ClusteringState.stats

    def dropped(state):  # the counts, less depth 1's evaluations
        counts = stats(state)
        counts[1]["evals"] = 0
        return counts

    monkeypatch.setattr(run.dk.ClusteringState, "stats", dropped)
    assert rebuild_profile.main([TINY.name]) == 1
    assert "but its per-depth stats count" in capsys.readouterr().err


@pytest.mark.parametrize("evals, us, printed", [
    ([100, 100, 100], [40.0, 50.0, 60.0],
     "mean 50.0 us per update and 500.00 ns per evaluation (no fit: every one evaluated 100)"),
    ([0, 0], [3.0, 5.0], "no fit, since no rebuilding update evaluated anything"),
    ([100, 200], [10.0, 30.0], "mean 20.0 us per update and 133.33 ns per evaluation "
                               "(no fit: the fit's fixed part, -10.0 us, is negative)"),
    ([100, 200], [30.0, 40.0], "fit time = 20.0 us + 100.00 ns * evals; fixed part 0.0 ms"),
])
def test_the_profile_fits_update_time_only_where_the_fit_is_a_cost_model(evals, us, printed):
    assert rebuild_profile.update_cost(np.array(evals, dtype=np.float64), np.array(us) * 1e-6, 1) == printed
