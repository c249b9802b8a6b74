"""``tools/rebuild_profile.py`` on a workload small enough for a unit test:
its cover-round spans account for every evaluation of the pass's rebuilds,
and it exits 1 when they do not; on stubbed passes, it fits round time
against entries only where the fit is a cost model."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("rebuild_profile", ROOT / "tools" / "rebuild_profile.py")
rebuild_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rebuild_profile)
run = rebuild_profile.run
from spans import Span  # noqa: E402  (benchmark/, which the tool puts on the path)

TINY = run.Workload("tiny", components=3, dim=4, count=500, window=300, k=3, phi=20, p=1.0,
                    steps=150, queries=1, pass_s=1.0)


def test_the_round_spans_account_for_every_rebuild_evaluation():
    tracer, _ = rebuild_profile.profile_pass(run.Inputs.make(TINY, 2024))
    names = [span.name for span in tracer.spans]
    assert names.count(rebuild_profile.ROUND) >= 1
    assert any(s.attrs["evals"] for s in tracer.spans if s.name == rebuild_profile.REBUILD)
    assert rebuild_profile.unaccounted(tracer) == 0


def test_the_profile_exits_1_when_a_round_runs_outside_its_hook(monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    assert rebuild_profile.main([TINY.name]) == 0
    assert "cover rounds:" in capsys.readouterr().out

    profile_pass = rebuild_profile.profile_pass

    def unhooked(inputs):  # the rounds' spans, as if another function ran them
        tracer, scale = profile_pass(inputs)
        for span in tracer.spans:
            if span.name == rebuild_profile.ROUND:
                span.name = "elsewhere"
        return tracer, scale

    monkeypatch.setattr(rebuild_profile, "profile_pass", unhooked)
    assert rebuild_profile.main([TINY.name]) == 1
    assert "ran outside the hooked cover round" in capsys.readouterr().err


@pytest.mark.parametrize("round_entries, round_us, printed", [
    ([100, 100, 100], [40.0, 50.0, 60.0],
     "mean 50.0 us per round and 500.00 ns per entry (no fit: every one evaluated 100 entries)"),
    ([0, 0], [3.0, 5.0], "no fit, since no round evaluated anything"),
    ([100, 200], [10.0, 30.0],
     "mean 20.0 us per round and 133.33 ns per entry (no fit: the fit's fixed part, -10.0 us, is negative)"),
    ([100, 200], [30.0, 40.0], "fit time = 20.0 us + 100.00 ns * entries; fixed part 0.0 ms"),
])
def test_the_profile_fits_round_time_only_where_the_fit_is_a_cost_model(
        monkeypatch, capsys, round_entries, round_us, printed):
    def stubbed(inputs):
        tracer = rebuild_profile.Tracer()
        tracer.spans.append(Span(rebuild_profile.UPDATE, 0, 10**6))
        tracer.spans.append(Span(rebuild_profile.REBUILD, 0, 10**6, parent=0,
                                 attrs={"depth": 1, "size": 50, "evals": sum(round_entries)}))
        start = 0
        for evals, us in zip(round_entries, round_us):
            end = start + round(us * 1e3)
            tracer.spans.append(Span(rebuild_profile.ROUND, start, end, parent=1, attrs={"evals": evals}))
            start = end
        return tracer, lambda start: 1.0

    monkeypatch.setitem(run.WORKLOADS, TINY.name, TINY)
    monkeypatch.setattr(rebuild_profile, "profile_pass", stubbed)
    assert rebuild_profile.main([TINY.name]) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.endswith(printed)
