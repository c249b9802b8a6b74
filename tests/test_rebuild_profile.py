"""``tools/rebuild_profile.py`` on a workload small enough for a unit test:
its cover-round spans account for every evaluation of the pass's rebuilds,
and it exits 1 when they do not."""
from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("rebuild_profile", ROOT / "tools" / "rebuild_profile.py")
rebuild_profile = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(rebuild_profile)
run = rebuild_profile.run

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
