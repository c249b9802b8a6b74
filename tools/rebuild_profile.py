"""Per-depth profile of the rebuilds in one benchmark workload's update stream.

    python3 tools/rebuild_profile.py WORKLOAD [--seed 2024] [--passes 1]

Builds the workload as ``benchmark/run.py`` does, from its ``WORKLOADS``
table and its ``Inputs``, and times each update of each pass's slide steps
(one insert and one delete each) in this process. Queries are left out:
they neither change the state nor draw from its sample stream. The counts
are what each update adds to the state's ``stats()``.

Prints, per pass (every pass makes the same updates):

- per depth i of ``rebuild_from_layer(i)``: the rebuild count, the mean
  |U_i| at rebuild, the cover rounds, those that evaluated nothing, the
  evaluations and the wall time of the updates that rebuilt from depth i;
- the update time, split into updates that rebuild and updates that do not;
- a least-squares fit of each rebuilding update's wall time as ``fixed +
  per_eval * evals`` where it is a cost model (at least two distinct counts,
  a fixed part that is not negative), else the mean time per update and per
  evaluation, with the reason.

Wall times are scaled by the benchmark's ``SpeedClock`` (to a machine where
``reference()`` takes 1 ms), so runs on a shared machine compare; with
``--passes`` above 1 each is the median over the passes, and the fit runs
over every pass's updates. Exits 1 when a pass's per-depth evaluations
differ from the evaluations its updates made.
"""
import argparse
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))

import run  # noqa: E402  (benchmark/run.py: puts src/ on the path, pins one BLAS thread)
import numpy as np  # noqa: E402

FIELDS = run.dk.dynamic._STATS
NONE = dict.fromkeys(FIELDS, 0)


def profile_pass(inputs: run.Inputs) -> np.ndarray:
    """Bulk-load, then slide, timing each update. Returns one row per update:
    the depth it rebuilt from (0: none), what it added to the ``stats()`` of
    that depth, the evaluations it made and its scaled seconds."""
    w, points = inputs.workload, inputs.points
    state, _ = inputs.bulk_load()
    last, updates, speed = state.stats(), [], run.SpeedClock()
    for step in range(1, w.steps + 1):
        speed.maybe_checkpoint()
        for update, arg in ((state.insert, points[w.window + step - 1]), (state.delete, points[step - 1].id)):
            evals, start = state.oracle.evals, time.perf_counter_ns()
            update(arg)
            ns = time.perf_counter_ns() - start
            stats = state.stats()
            i = next((i for i in stats if stats[i] != last.get(i)), 0)
            added = [stats.get(i, NONE)[f] - last.get(i, NONE)[f] for f in FIELDS]
            updates.append((i, *added, state.oracle.evals - evals, start, ns))
            last = stats
    scale = speed.finish()
    return np.array([(*u[:-2], u[-1] * scale(u[-2]) / 1e9) for u in updates])


def update_cost(evals: np.ndarray, seconds: np.ndarray, passes: int) -> str:
    """The fit of the rebuilding updates' seconds where it is a cost model,
    else their mean time per update and per evaluation and why there is no fit."""
    if not evals.any():
        return "no fit, since no rebuilding update evaluated anything"
    if np.unique(evals).size < 2:
        reason = f"every one evaluated {evals[0]:.0f}"
    else:
        (fixed, per_eval), *_ = np.linalg.lstsq(np.stack([np.ones_like(evals), evals], 1), seconds, rcond=None)
        if fixed >= 0.0:
            return (f"fit time = {fixed * 1e6:.1f} us + {per_eval * 1e9:.2f} ns * evals; "
                    f"fixed part {fixed * evals.size / passes * 1e3:.1f} ms")
        reason = f"the fit's fixed part, {fixed * 1e6:.1f} us, is negative"
    return (f"mean {seconds.mean() * 1e6:.1f} us per update and {seconds.sum() / evals.sum() * 1e9:.2f} "
            f"ns per evaluation (no fit: {reason})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=sorted(run.WORKLOADS))
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    inputs = run.Inputs.make(run.WORKLOADS[args.workload], args.seed)
    passes = [profile_pass(inputs) for _ in range(args.passes)]
    for number, updates in enumerate(passes, start=1):
        if (counted := updates[:, 5].sum()) != (made := updates[:, 6].sum()):
            print(f"pass {number}: its updates made {made:.0f} evaluations, but its per-depth stats "
                  f"count {counted:.0f}", file=sys.stderr)
            return 1

    def median_ms(mask: np.ndarray) -> float:  # every pass makes the same updates
        return statistics.median(updates[mask, 7].sum() for updates in passes) * 1e3

    depth = passes[0][:, 0]
    print(f"{args.workload} seed {args.seed}, {args.passes} pass(es) of {inputs.workload.steps} steps; "
          f"per pass, in scaled ms:\n{'depth':>5} {'rebuilds':>9} {'mean |U_i|':>11} {'rounds':>7} "
          f"{'empty':>6} {'evals':>10} {'ms':>9}")
    rows = {i: depth == i for i in np.unique(depth[depth > 0]).astype(int)} | {"all": depth > 0}
    for i, mask in rows.items():
        count, size, rounds, empty, evals = passes[0][mask, 1:6].sum(axis=0)
        print(f"{i:>5} {count:9.0f} {size / count:11.1f} {rounds:7.0f} {empty:6.0f} {evals:10.0f} "
              f"{median_ms(mask):9.2f}")
    kinds = {"that rebuild": depth > 0, "that rebuild nothing": depth == 0, "in all": depth >= 0}
    for kind, mask in kinds.items():
        print(f"updates {kind}: {np.count_nonzero(mask)}, {median_ms(mask):.1f} ms")
    evals, seconds = np.concatenate([updates[depth > 0] for updates in passes])[:, 6:].T
    print(f"rebuilding updates: {update_cost(evals, seconds, args.passes)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
