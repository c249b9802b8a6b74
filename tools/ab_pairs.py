"""Alternating benchmark pairs of two checkouts of the repository.

    python3 tools/ab_pairs.py PARENT CHANGE --workload slide-update --pairs 10 \
        [--metric updates_per_s] [--seed 2024] [--seconds 0] [--trace 0] [--out runs.json]

Runs ``benchmark/run.py`` of each checkout, each run in its own process
and with the checkout as the working directory, ``--pairs`` times per side.
Pair i runs the parent first when i is even and the change first when i is
odd, so a drift in machine speed does not favour one side. Prints, for
each metric of the result line, each side's median and quartiles
(``statistics.quantiles(values, n=4)``, as ``benchmark/spread.py``
computes them), and how many pairs the change won on ``--metric``: better
in the direction ``BENCHMARK.json`` gives for it, ties counting for
neither side. The result line of ``--trace 0`` holds the end-to-end
metrics and that of ``--trace 1`` the per-layer ones, so ``--metric`` must
be one the chosen ``--trace`` reports. It also prints each side's median ``reference_us`` (the
speed clock's reference time) and ``pass_raw_run_s`` (unscaled pass time),
which a speed claim quotes next to the scaled metrics, and whether the
digests and the per-pass evaluation counts agree across every run. When they
do not, it names the ``per_pass`` fields whose values differ between parent
and change, and says whether each side's runs agree with each other. Exits 1
when a run fails its correctness gate or when the digests or the per-pass
counts differ between runs, so ``ab_pairs.py . .`` is a determinism check.
A run whose process exits nonzero stops the pairs: the side, the pair and
the tail of that run's stderr are printed, and the exit status is 1.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
STDERR_TAIL = 20  # lines of a failed run's stderr to print


def run_once(checkout: Path, args: argparse.Namespace) -> dict:
    """One ``benchmark/run.py`` process; returns its record and result lines."""
    command = [
        sys.executable, "benchmark/run.py", "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    return {"record": record, "result": result}


def directions(checkout: Path) -> dict[str, tuple[str, int]]:
    """Metric name -> ("higher" or "lower", the ``--trace`` value whose result
    line reports it), from the checkout's BENCHMARK.json."""
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    return {m["name"]: (m["better"], trace)
            for trace, group in enumerate(("end_to_end", "per_layer")) for m in spec[group]}


def differences(runs: dict[str, list[dict]]) -> list[str]:
    """Lines naming the ``per_pass`` fields whose values differ between the
    sides, with each side's values, and whether each side agrees with itself."""
    def values(side: str, read) -> list[str]:
        return sorted({json.dumps(read(r["record"]), sort_keys=True) for r in runs[side]})

    fields = sorted({f for side in SIDES for r in runs[side] for f in r["record"]["per_pass"]})
    differ, same = [], []
    for f in fields:
        parent, change = (values(side, lambda rec: rec["per_pass"].get(f)) for side in SIDES)
        if parent == change:
            same.append(f)
        else:
            differ.append(f"{f} (parent {' '.join(parent)}, change {' '.join(change)})")
    lines = [f"  per_pass fields that differ between parent and change: {', '.join(differ) or 'none'}",
             f"  per_pass fields identical on both sides: {', '.join(same) or 'none'}"]
    for side in SIDES:
        own = values(side, lambda rec: [rec["digests"], rec["per_pass"]])
        lines.append(f"  {side}: digests and per_pass " + (
            "the same in each of its runs" if len(own) == 1 else "DIFFER between its own runs"))
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--metric", default="updates_per_s")
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write every run's record and result here")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2 to give quartiles")
    better, trace = directions(args.parent).get(args.metric, (None, None))
    if better is None:
        parser.error(f"--metric {args.metric} is not a metric of BENCHMARK.json")
    if trace != args.trace:
        parser.error(f"--metric {args.metric} is reported only with --trace {trace}")

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    runs: dict[str, list[dict]] = {side: [] for side in SIDES}
    for i in range(args.pairs):
        for side in SIDES if i % 2 == 0 else SIDES[::-1]:
            try:
                runs[side].append(run_once(checkouts[side], args))
            except subprocess.CalledProcessError as exc:
                tail = "\n".join(exc.stderr.splitlines()[-STDERR_TAIL:])
                print(f"pair {i + 1}: the {side} run exited with status {exc.returncode}; "
                      f"the end of its stderr:\n{tail}", file=sys.stderr)
                return 1
        values = [runs[side][-1]["result"]["metrics"][args.metric]["value"] for side in SIDES]
        print(f"pair {i + 1:2d}: {args.metric} parent {values[0]:.6g} change {values[1]:.6g}",
              flush=True)

    def values(side: str, metric: str) -> list[float]:
        return [r["result"]["metrics"][metric]["value"] for r in runs[side]]

    print(f"\n{args.workload} seed {args.seed}, {args.pairs} pairs: median [q1, q3]")
    for metric in runs["parent"][0]["result"]["metrics"]:
        cells = []
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values(side, metric), n=4)
            cells.append(f"{side} {median:.6g} [{q1:.6g}, {q3:.6g}]")
        print(f"  {metric:26s} " + "   ".join(cells))
    parent, change = values("parent", args.metric), values("change", args.metric)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, median, q3 = statistics.quantiles(parent, n=4)
    gain = statistics.median(change) / median - 1.0 if median else float("nan")
    print(f"  {args.metric}: change wins {wins} of {args.pairs} pairs, median {gain:+.2%}, "
          f"parent IQR {q3 - q1:.6g}")
    for side in SIDES:
        refs = [r["record"]["reference_us"]["median"] for r in runs[side]]
        raw = [statistics.median(r["record"]["pass_raw_run_s"]["plain"] or
                                 r["record"]["pass_raw_run_s"]["traced"]) for r in runs[side]]
        print(f"  {side}: reference_us median {statistics.median(refs):.1f}, "
              f"pass_raw_run_s median {statistics.median(raw):.4g}")
    agree = True
    for key in ("digests", "per_pass"):
        seen = {json.dumps(r["record"][key], sort_keys=True) for side in SIDES for r in runs[side]}
        agree &= len(seen) == 1
        print(f"  {key}: {'identical in every run' if len(seen) == 1 else 'DIFFER between runs'}")
    if not agree:
        print("\n".join(differences(runs)))
    correct = all(r["result"]["correct"] for side in SIDES for r in runs[side])
    print(f"  correct in every run: {correct}")
    if args.out:
        # a path by its final name, so the record does not show the local layout
        given = {name: value.resolve().name if isinstance(value, Path) else str(value)
                 for name, value in vars(args).items()}
        args.out.write_text(json.dumps({"args": given, "runs": runs}, indent=1) + "\n")
    return 0 if correct and agree else 1


if __name__ == "__main__":
    sys.exit(main())
