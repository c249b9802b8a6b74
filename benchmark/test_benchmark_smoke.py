"""Smoke test of the benchmark harness at tiny sizes.

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that the correctness gate passes (and fails when an answer is wrong), and
that counts and the behaviour digest repeat exactly across runs and with
tracing on.
"""
from __future__ import annotations

import json
import math
import time
from pathlib import Path

import run

TINY = run.Workload(
    "tiny", components=3, dim=2, count=600, window=150, k=5, phi=20,
    p=1.0, steps=200, queries=10, pass_s=1.0,
)
SPEC = json.loads((Path(run.__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
EXACT = ("evals_per_update", "evals_per_query", "query_cost_mean", "ops_ok_frac")


def units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def emitted(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


def test_spec_names_the_harness_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert units("end_to_end") == run.END_TO_END_UNITS
    assert units("per_layer") == run.PER_LAYER_UNITS
    for w in run.WORKLOADS.values():
        assert w.window + w.steps <= w.count


def test_untraced_runs_pass_the_gate_and_repeat_exactly():
    runs = [run.run_workload(TINY, seed=3, seconds=0, trace=False) for _ in range(2)]
    for record, result in runs:
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert result["attempted"] == 2 * (2 * TINY.steps + TINY.queries)
        assert emitted(result) == units("end_to_end")
        assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())
    (rec_a, res_a), (rec_b, res_b) = runs
    assert len(rec_a["digests"]) == 2
    assert rec_a["digests"][0] != rec_a["digests"][1]   # each pass has its own queries
    assert rec_a["digests"] == rec_b["digests"]
    assert rec_a["per_pass"] == rec_b["per_pass"]
    for name in EXACT:
        assert res_a["metrics"][name]["value"] == res_b["metrics"][name]["value"]
    other_seed, _ = run.run_workload(TINY, seed=4, seconds=0, trace=False)
    assert other_seed["digests"][0] != rec_a["digests"][0]


def test_traced_run_reports_layers_without_changing_behaviour():
    plain, _ = run.run_workload(TINY, seed=3, seconds=0, trace=False)
    record, result = run.run_workload(TINY, seed=3, seconds=0, trace=True)
    assert result["correct"], record["failures"]
    assert record["passes"] == {"plain": 1, "traced": 1}
    assert record["digests"] == plain["digests"][:1]
    assert emitted(result) == units("per_layer")
    figures = {name: m["value"] for name, m in result["metrics"].items()}
    # every counted evaluation goes through the traced kernel, and every
    # update evaluation happens inside a rebuild
    per_pass = record["per_pass"]
    assert figures["metric.kernel_pairs"] == per_pass["update_evals"] + per_pass["query_evals"]
    rebuild_evals = sum(figures[f"dynamic.rebuild_evals.{d}"] for d in run.DEPTHS)
    assert rebuild_evals == per_pass["update_evals"]
    assert figures["solver.search_self_s"] < figures["solver.solve_s"]


def test_speed_clock_scales_by_the_reference_around_an_operation(monkeypatch):
    # best of three per checkpoint: 2 ms, then 2 ms, then 6 ms
    times = iter([2_500_000, 2_000_000, 2_100_000] + [2_000_000] * 3 + [6_000_000] * 3)
    monkeypatch.setattr(run, "reference", lambda: next(times))
    speed = run.SpeedClock()
    first = time.perf_counter_ns()
    speed.checkpoint()
    second = time.perf_counter_ns()
    scale = speed.finish()
    assert scale(first) == 0.5      # 1 ms over the mean of 2 ms and 2 ms
    assert scale(second) == 0.25    # 1 ms over the mean of 2 ms and 6 ms


def test_gate_counts_a_wrong_answer_as_failed(monkeypatch):
    real_query = run.dk_solver.query

    def off_by_one_percent(*args, **kwargs):
        answer = real_query(*args, **kwargs)
        return type(answer)(answer.centers, answer.cost * 1.01)

    monkeypatch.setattr(run.dk_solver, "query", off_by_one_percent)
    record, result = run.run_workload(TINY, seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] == 2 * TINY.queries
    assert "recomputed" in record["failures"][0]
