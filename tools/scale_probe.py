"""Memory and speed of two checkouts at a scale the benchmark's workloads do
not reach, in alternating fresh-process pairs.

    python3 tools/scale_probe.py PARENT CHANGE [--pairs 5] [--window 50000]
        [--steps 20000] [--phi 500] [--bulk 200000] [--centers 50] [--out FILE]

Every probe runs in its own process whose ``dynkmed`` is imported from that
checkout's ``src``, with ``OPENBLAS_NUM_THREADS=1`` as ``benchmark/run.py``
pins it. The points are 5-d draws of a 10-component Gaussian mixture on a
fixed seed, so both sides see the same input. Three probes:

- ``window``: ``preprocess`` of the first ``--window`` points, then
  ``--steps`` slide steps (insert the next point, delete the oldest), each
  step timed. Reports updates/s over the steps, the slowest step, and the
  process's peak RSS (``ru_maxrss``) at the end.
- ``bulk``: ``preprocess`` of ``--bulk`` points. Reports its time and how far
  it raised ``ru_maxrss`` above the process's peak before the call.
- ``cost``: ``cost_set`` of ``--centers`` of ``--bulk`` points over a store
  holding them all, built without ``preprocess``: the least time of 5 calls
  and how far they raised ``ru_maxrss``.

Pair i runs the parent first when i is even and the change first when it is
odd. Prints each side's median and quartiles per metric and how many pairs
the change won, and writes every run to ``--out`` as JSON. Exits 1 when a
probe process fails or when the evaluation counts, layer radii or cost differ
between runs, so ``scale_probe.py . .`` is a determinism check.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # as benchmark/run.py pins it

import numpy as np  # noqa: E402

SIDES = ("parent", "change")
WORKER = "--probe-worker"  # argv[1] of a probe process: CHECKOUT PROBE SETTINGS
PROBES = ("window", "bulk", "cost")
STDERR_TAIL = 20           # lines of a failed probe's stderr to print
SEED, DIM, COMPONENTS = 2024, 5, 10
# metric -> the direction that is better; "check" fields must be equal in every run
METRICS = {
    "window": {"updates_per_s": "higher", "slowest_step_ms": "lower", "peak_rss_mb": "lower"},
    "bulk": {"rss_rise_mb": "lower", "seconds": "lower"},
    "cost": {"rss_rise_mb": "lower", "seconds": "lower"},
}


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def probe(checkout: Path, kind: str, settings: dict) -> dict:
    """One probe with ``checkout``'s engine; its metrics and its check fields."""
    sys.path.insert(0, str(checkout / "src"))
    import dynkmed as dk

    source = Path(dk.__file__).resolve().parent
    if source != (checkout / "src" / "dynkmed").resolve():
        raise SystemExit(f"dynkmed was imported from {source}, not from the checkout {checkout}")
    n = settings["window"] + settings["steps"] if kind == "window" else settings["bulk"]
    rng = np.random.default_rng(SEED)
    means = rng.normal(scale=10.0, size=(COMPONENTS, DIM))
    coords = means[rng.integers(0, COMPONENTS, n)] + rng.normal(size=(n, DIM))
    points = dk.points_from_array(coords)
    params = dk.DynamicParams(k=settings["centers"], phi=settings["phi"], seed=SEED)
    oracle = dk.DistanceOracle(offset=1.0 / n)
    if kind == "bulk":
        before, start = maxrss_mb(), time.perf_counter()
        state = dk.preprocess(points, params, oracle)
        seconds = time.perf_counter() - start
        return {"metrics": {"rss_rise_mb": maxrss_mb() - before, "seconds": seconds},
                "check": {"evals": oracle.evals, "radii": [repr(l.radius) for l in state.layers]}}
    if kind == "cost":  # over a store alone: a preprocess would set the process's peak first
        store = dk.PointStore()
        store.add_many(points)
        centers = sorted(rng.choice(n, settings["centers"], replace=False).tolist())
        dk.cost_set(centers[:1], store, 1.0, oracle)  # lazy set-up, untimed
        before, times = maxrss_mb(), []
        for _ in range(5):
            start = time.perf_counter()
            cost = dk.cost_set(centers, store, 1.0, oracle)
            times.append(time.perf_counter() - start)
        return {"metrics": {"rss_rise_mb": maxrss_mb() - before, "seconds": min(times)},
                "check": {"evals": oracle.evals, "cost": repr(cost)}}
    window = settings["window"]
    state = dk.preprocess(points[:window], params, oracle)
    steps = np.empty(settings["steps"])
    for i in range(settings["steps"]):
        start = time.perf_counter()
        state.insert(points[window + i])
        state.delete(i)
        steps[i] = time.perf_counter() - start
    return {"metrics": {"updates_per_s": 2 * steps.size / steps.sum(),
                        "slowest_step_ms": 1e3 * steps.max(), "peak_rss_mb": maxrss_mb()},
            "check": {"evals": oracle.evals, "radii": [repr(l.radius) for l in state.layers]}}


def probe_once(checkout: Path, kind: str, settings: dict) -> dict:
    """:func:`probe` in a fresh process."""
    done = subprocess.run([sys.executable, __file__, WORKER, str(checkout), kind, json.dumps(settings)],
                          capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == [WORKER]:
        json.dump(probe(Path(argv[1]), argv[2], json.loads(argv[3])), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--window", type=int, default=50_000)
    parser.add_argument("--steps", type=int, default=20_000)
    parser.add_argument("--phi", type=int, default=500)
    parser.add_argument("--bulk", type=int, default=200_000)
    parser.add_argument("--centers", type=int, default=50)
    parser.add_argument("--out", type=Path, help="write every run here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    if min(args.window, args.steps, args.phi, args.centers) < 1 or args.bulk < args.centers:
        parser.error("sizes must be positive, and --bulk at least --centers")
    if args.steps > args.window:
        parser.error("--steps must not exceed --window: a step deletes a point of the first window")
    settings = {key: getattr(args, key) for key in ("window", "steps", "phi", "bulk", "centers")}

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs = {kind: {side: [] for side in SIDES} for kind in PROBES}
    for i in range(args.pairs):
        for kind in PROBES:
            for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                try:
                    runs[kind][side].append(probe_once(checkouts[side], kind, settings))
                except subprocess.CalledProcessError as exc:
                    tail = "\n".join(exc.stderr.splitlines()[-STDERR_TAIL:])
                    print(f"pair {i + 1}: the {side} {kind} probe exited with status "
                          f"{exc.returncode}; the end of its stderr:\n{tail}", file=sys.stderr)
                    return 1
        print(f"pair {i + 1} of {args.pairs} done", flush=True)

    agree, summary = True, {}
    print(f"{args.pairs} pairs, settings {json.dumps(settings)}: median [q1, q3]")
    for kind in PROBES:
        summary[kind] = {}
        for metric, better in METRICS[kind].items():
            values = {side: [r["metrics"][metric] for r in runs[kind][side]] for side in SIDES}
            sign = 1.0 if better == "higher" else -1.0
            wins = sum(sign * (c - p) > 0 for p, c in zip(values["parent"], values["change"]))
            cells = {}
            for side in SIDES:
                q1, median, q3 = statistics.quantiles(values[side], n=4)
                cells[side] = {"median": median, "q1": q1, "q3": q3}
            summary[kind][metric] = {**cells, "better": better, "change_wins": wins}
            print(f"  {kind:6s} {metric:16s} " + "   ".join(
                f"{side} {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]" for side, c in cells.items())
                + f"   change wins {wins} of {args.pairs}")
        seen = {json.dumps(r["check"], sort_keys=True) for side in SIDES for r in runs[kind][side]}
        agree &= len(seen) == 1
        print(f"  {kind:6s} evaluation counts and results: "
              f"{'identical in every run' if len(seen) == 1 else 'DIFFER between runs'}")
    if args.out:
        # checkouts by their final names, so the record does not show the local layout
        record = {"args": {**vars(args), "parent": args.parent.name or ".", "change": args.change.name or ".",
                           "out": args.out.name},
                  "environment": {"python": sys.version.split()[0], "numpy": np.__version__,
                                  "cpus": len(os.sched_getaffinity(0))},
                  "summary": summary, "runs": runs}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
