"""Per-depth profile of the rebuilds in one benchmark workload's update stream.

    python3 tools/rebuild_profile.py WORKLOAD [--seed 2024] [--passes 1]

Builds the workload as ``benchmark/run.py`` does, from its ``WORKLOADS``
table and its ``Inputs``, and runs each pass's slide steps (one insert and
one delete each) in this process. Queries are left out: they neither change
the state nor draw from its sample stream, so the updates are those of a
benchmark pass. The engine's calls are wrapped with ``benchmark/spans.py``
for the slide only, so the bulk load is not profiled.

Prints, per pass (every pass makes the same updates):

- per depth i of ``rebuild_from_layer(i)``: the rebuild count, the mean
  |U_i| at rebuild, the cover rounds, how many of them evaluated nothing
  (rounds whose sampled centers fill the beta-quantile), the evaluations
  and the wall time;
- the update time, split into updates that rebuild and updates that do not;
- a least-squares fit over every cover round (one ``dynamic._cover_arrays`` call)
  that evaluated something of its wall time as ``fixed + per_entry *
  entries``, where ``entries`` is the round's evaluation count, the size of
  its distance block; the rounds that evaluated nothing are left out of it.
  The fit is printed only where it is a cost model: when those rounds have
  at least two distinct entry counts and the fixed part is not negative.
  Otherwise the mean time per round and per entry is printed, with the
  reason the fit was skipped.

Wall times are scaled as the benchmark scales them, by its ``SpeedClock``
(to a machine where ``reference()`` takes 1 ms), so runs at different
moments of a shared machine compare; with ``--passes`` above 1 each is the
median over the passes, and the fit runs over every pass's rounds. They
include the wrappers' own cost of about a microsecond per wrapped call.
Nothing under ``benchmark/`` is changed.

Exits 1 when a pass's cover-round spans do not account for every
evaluation of its rebuilds: a round that runs outside the hooked function
would otherwise read as fewer rounds and a wrong fit.
"""
from __future__ import annotations

import argparse
import inspect
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Callable

BENCHMARK = Path(__file__).resolve().parent.parent / "benchmark"
sys.path.insert(0, str(BENCHMARK))

import run  # noqa: E402  (benchmark/run.py: puts src/ on the path, pins one BLAS thread)
import numpy as np  # noqa: E402
from spans import Tracer, instrument  # noqa: E402

import dynkmed as dk  # noqa: E402
from dynkmed import dynamic  # noqa: E402

UPDATE, REBUILD, ROUND = "update", "rebuild", "round"


_ROUND_SIGNATURE = inspect.signature(dynamic._cover_arrays)


def _round_oracle(args, kwargs) -> dk.DistanceOracle:
    return _ROUND_SIGNATURE.bind(*args, **kwargs).arguments["oracle"]


def _round_enter(args, kwargs, attrs) -> None:
    attrs["evals"] = _round_oracle(args, kwargs).evals


def _round_exit(args, kwargs, result, attrs) -> None:
    attrs["evals"] = _round_oracle(args, kwargs).evals - attrs["evals"]


def profile_pass(inputs: run.Inputs) -> tuple[Tracer, Callable[[int], float]]:
    """Bulk-load, then slide with the update path wrapped; returns the spans
    and the speed clock's scale factor of a span by its start."""
    w = inputs.workload
    state, _ = inputs.bulk_load()
    points = inputs.points
    tracer = Tracer()
    targets = [
        (dk.ClusteringState, "insert", UPDATE, None, None),
        (dk.ClusteringState, "delete", UPDATE, None, None),
        (dk.ClusteringState, "rebuild_from_layer", REBUILD, run._rebuild_enter, run._rebuild_exit),
        (dynamic, "_cover_arrays", ROUND, _round_enter, _round_exit),
    ]
    speed = run.SpeedClock()
    with instrument(tracer, targets):
        for step in range(1, w.steps + 1):
            speed.maybe_checkpoint()
            state.insert(points[w.window + step - 1])
            state.delete(points[step - 1].id)
    return tracer, speed.finish()


def unaccounted(tracer: Tracer) -> int:
    """The evaluations of a pass's rebuilds that none of its cover-round spans made."""
    def total(name: str) -> int:
        return sum(s.attrs["evals"] for s in tracer.spans if s.name == name)

    return total(REBUILD) - total(ROUND)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    inputs = run.Inputs.make(run.WORKLOADS[args.workload], args.seed)
    passes = []                 # per pass: per depth [rebuilds, sum |U_i|, rounds, empty, evals, s],
    entries, round_s = [], []   # and per kind of update [count, s]; every pass's cover rounds
    for _ in range(args.passes):
        tracer, scale = profile_pass(inputs)
        if missed := unaccounted(tracer):
            print(f"{missed} rebuild evaluations of pass {len(passes) + 1} ran outside "
                  f"the hooked cover round dynamic._cover_arrays", file=sys.stderr)
            return 1
        depth = defaultdict(lambda: np.zeros(6))
        rebuilt = set()
        for index, span in enumerate(tracer.spans):
            if span.name == REBUILD:
                depth[span.attrs["depth"]] += (1, span.attrs["size"], 0, 0, span.attrs["evals"],
                                               span.seconds * scale(span.start))
                rebuilt.add(span.parent)
            elif span.name == ROUND:
                depth[tracer.ancestor(index, frozenset({REBUILD})).attrs["depth"]][2:4] += (
                    1, span.attrs["evals"] == 0)
                entries.append(span.attrs["evals"])
                round_s.append(span.seconds * scale(span.start))
        depth = dict(sorted(depth.items()))
        depth["all"] = np.sum(list(depth.values()), axis=0)
        kinds = {"that rebuild": np.zeros(2), "that rebuild nothing": np.zeros(2)}
        for index, span in enumerate(tracer.spans):
            if span.name == UPDATE:
                kinds["that rebuild" if index in rebuilt else "that rebuild nothing"] += (
                    1, span.seconds * scale(span.start))
        kinds["in all"] = sum(kinds.values())
        passes.append((depth, kinds))

    def median_ms(pick) -> float:
        return statistics.median(pick(p) for p in passes) * 1e3

    depth, kinds = passes[0]
    print(f"{args.workload} seed {args.seed}, {args.passes} pass(es) of "
          f"{inputs.workload.steps} steps; per pass, in scaled ms:")
    print(f"{'depth':>5} {'rebuilds':>9} {'mean |U_i|':>11} {'rounds':>7} {'empty':>6} {'evals':>10} "
          f"{'ms':>9}")
    for i in depth:
        count, size, rounds, empty, evals, _ = depth[i]
        print(f"{i:>5} {count:9.0f} {size / count:11.1f} {rounds:7.0f} {empty:6.0f} {evals:10.0f} "
              f"{median_ms(lambda p: p[0][i][5]):9.2f}")
    for kind in kinds:
        print(f"updates {kind}: {kinds[kind][0]:.0f}, {median_ms(lambda p: p[1][kind][1]):.1f} ms")
    x = np.asarray(entries, dtype=np.float64)
    y = np.asarray(round_s)
    empty = x == 0
    print(f"cover rounds: {len(x) // args.passes}, {np.count_nonzero(empty) // args.passes} of them "
          f"evaluated nothing in {y[empty].sum() / args.passes * 1e3:.1f} ms")
    x, y = x[~empty], y[~empty]
    print(f"the {len(x) // args.passes} others, {y.sum() / args.passes * 1e3:.1f} ms: "
          f"{round_cost(x, y, args.passes)}")
    return 0


def round_cost(entries: np.ndarray, seconds: np.ndarray, passes: int) -> str:
    """The evaluating rounds' wall time against their entries: the
    least-squares fit ``fixed + per_entry * entries`` where it is a cost
    model, else the mean time per round and per entry and why there is no fit."""
    if entries.size == 0:
        return "no fit, since no round evaluated anything"
    if np.unique(entries).size < 2:
        reason = f"every one evaluated {entries[0]:.0f} entries"
    else:
        (fixed, per_entry), *_ = np.linalg.lstsq(np.stack([np.ones_like(entries), entries], axis=1),
                                                 seconds, rcond=None)
        if fixed >= 0.0:
            return (f"fit time = {fixed * 1e6:.1f} us + {per_entry * 1e9:.2f} ns * entries; "
                    f"fixed part {fixed * entries.size / passes * 1e3:.1f} ms")
        reason = f"the fit's fixed part, {fixed * 1e6:.1f} us, is negative"
    return (f"mean {seconds.mean() * 1e6:.1f} us per round and {seconds.sum() / entries.sum() * 1e9:.2f} "
            f"ns per entry (no fit: {reason})")


if __name__ == "__main__":
    sys.exit(main())
