"""Replay one benchmark pass's query instances through ``weighted_solve`` of
two checkouts, in alternating fresh processes.

    python3 tools/query_replay.py PARENT CHANGE WORKLOAD [--seed 2024] [--reps 5]

Captures the query instances of pass 0 of a workload exactly as
``benchmark/run.py`` drives it: its ``Inputs`` bulk-load the first window,
the slide makes the pass's updates, and at each of the ``query_points`` the
state's weighted instance is taken with that query's seed (the first block
of ``Inputs.query_seeds``). Queries change no state, so no query is run
while capturing. The capture runs this checkout's benchmark and engine.

Each repetition then replays every instance through ``weighted_solve`` of
each checkout, on a fresh oracle at the workload's offset, each side in a
fresh process whose ``dynkmed`` is imported from that checkout's ``src``;
repetition i runs the parent first when i is even and the change first
when it is odd. A process solves its first instance once untimed, so lazy
set-up is not timed. Prints each side's sum over instances of the least
CPU time of any repetition, next to its total distance evaluations over
the instances (the oracle's count, which repeats exactly), and the ratio of
change to parent.

Exits 1 when an instance's centers or ``repr(cost)`` differ between the
sides or between repetitions of one side, so ``query_replay.py . .`` is a
determinism check, and when a replay process fails.

Its resolution is a few percent: replaying one checkout against itself on a
shared 2-vCPU machine gave ratios of 0.94 to 1.03 over 9 and 21 repetitions.
A cut of about 1% is priced by counting calls instead.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmark/run.py pins it

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
WORKER = "--replay-worker"  # argv[1] of a replay process: CHECKOUT INSTANCES
STDERR_TAIL = 20            # lines of a failed replay's stderr to print


def capture(workload: str, seed: int, path: Path) -> int:
    """Write the query instances of pass 0 of ``workload`` to ``path``;
    returns their count."""
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmark"))
    import run  # benchmark/run.py: puts src/ on the path

    inputs = run.Inputs.make(run.WORKLOADS[workload], seed)
    w, points = inputs.workload, inputs.points
    seeds = inputs.query_seeds(0)
    due = run.query_points(w.steps, w.queries)
    state, _ = inputs.bulk_load()
    arrays, meta = {}, []
    for step in range(1, w.steps + 1):
        state.insert(points[w.window + step - 1])
        state.delete(points[step - 1].id)
        for j in due.get(step, ()):
            instance, i = state.weighted_instance(), len(meta)
            arrays.update({f"ids{i}": instance.ids, f"coords{i}": instance.coords,
                           f"weights{i}": instance.weights})
            ss = seeds[j - 1]
            meta.append({"entropy": ss.entropy, "spawn_key": list(ss.spawn_key),
                         "pool_size": ss.pool_size})
    settings = {"k": w.k, "p": w.p, "offset": inputs.offset, "seeds": meta}
    np.savez(path, settings=np.array(json.dumps(settings)), **arrays)
    return len(meta)


def replay(checkout: Path, path: Path) -> list[dict]:
    """Solve every instance of ``path`` with ``checkout``'s engine; per
    instance its sorted centers, ``repr(cost)``, CPU time in ns and
    distance evaluations."""
    sys.path.insert(0, str(checkout / "src"))
    import dynkmed as dk

    source = Path(dk.__file__).resolve().parent
    if source != (checkout / "src" / "dynkmed").resolve():
        raise SystemExit(f"dynkmed was imported from {source}, not from the checkout {checkout}")
    with np.load(path) as data:
        settings = json.loads(str(data["settings"]))
        instances = [dk.WeightedInstance(data[f"ids{i}"], data[f"coords{i}"], data[f"weights{i}"])
                     for i in range(len(settings["seeds"]))]
    seeds = [np.random.SeedSequence(s["entropy"], spawn_key=s["spawn_key"], pool_size=s["pool_size"])
             for s in settings["seeds"]]
    k, p, offset = settings["k"], settings["p"], settings["offset"]
    if instances:  # lazy set-up, untimed
        dk.weighted_solve(instances[0], k, p, seeds[0], dk.DistanceOracle(offset))
    results = []
    for instance, seed in zip(instances, seeds):
        oracle = dk.DistanceOracle(offset)
        start = time.process_time_ns()
        solution = dk.weighted_solve(instance, k, p, seed, oracle)
        ns = time.process_time_ns() - start
        results.append({"centers": sorted(solution.centers), "cost": repr(solution.cost), "ns": ns,
                        "evals": oracle.evals})
    return results


def replay_once(checkout: Path, path: Path) -> list[dict]:
    """:func:`replay` in a fresh process."""
    done = subprocess.run([sys.executable, __file__, WORKER, str(checkout), str(path)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def disagreements(runs: dict[str, list[list[dict]]]) -> list[str]:
    """Lines naming each instance whose centers or cost differ between
    repetitions of one side or between the sides."""
    lines = []
    first = runs[SIDES[0]][0]
    for i, want in enumerate(first):
        for side in SIDES:
            for rep, results in enumerate(runs[side]):
                got = results[i]
                if (got["centers"], got["cost"]) != (want["centers"], want["cost"]):
                    lines.append(f"instance {i}: {side} repetition {rep + 1} gives cost {got['cost']} "
                                 f"and centers {got['centers']}, parent repetition 1 cost "
                                 f"{want['cost']} and centers {want['centers']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [WORKER]:
        json.dump(replay(Path(argv[1]), Path(argv[2])), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be at least 1")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[list[dict]]] = {side: [] for side in SIDES}
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "instances.npz"
        count = capture(args.workload, args.seed, path)
        for rep in range(args.reps):
            for side in SIDES if rep % 2 == 0 else SIDES[::-1]:
                try:
                    runs[side].append(replay_once(checkouts[side], path))
                except subprocess.CalledProcessError as exc:
                    tail = "\n".join(exc.stderr.splitlines()[-STDERR_TAIL:])
                    print(f"repetition {rep + 1}: the {side} replay exited with status "
                          f"{exc.returncode}; the end of its stderr:\n{tail}", file=sys.stderr)
                    return 1

    print(f"{args.workload} seed {args.seed}: {count} query instances of pass 0, {args.reps} repetition(s)")
    best = {side: np.min([[r["ns"] for r in results] for results in runs[side]], axis=0) / 1e6
            for side in SIDES}
    for side in SIDES:
        evals = sum(r["evals"] for r in runs[side][0])
        print(f"  {side}: sum of per-instance least solve times {best[side].sum():.2f} ms, "
              f"{evals:,} distance evaluations")
    ratio = best["change"].sum() / best["parent"].sum() if count else float("nan")
    print(f"  change / parent: {ratio:.4f}")
    if lines := disagreements(runs):
        print("\n".join(lines))
        return 1
    print("  centers and costs identical on both sides and in every repetition")
    return 0


if __name__ == "__main__":
    sys.exit(main())
