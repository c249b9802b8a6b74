"""Run-to-run spread of the end-to-end metrics.

    python3 benchmark/spread.py --label seeds --seeds 201-210
    python3 benchmark/spread.py --label repeat --seeds 2024 --repeat 10

Runs ``run.py`` untraced, each run in its own process and for
``run_seconds`` of ``BENCHMARK.json``: for every workload, once per seed
(``--repeat`` times per seed). Writes ``benchmark/results/SPREAD_<label>.json``
with every run's record and result lines and, per workload and metric, the
median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, and that
spread as a share of the metric's bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys

import record
import run

BOUNDS = {
    m["name"]: m["bound"]
    for m in json.loads((run.REPO / "BENCHMARK.json").read_text())["end_to_end"]
}


def seed_list(text: str) -> list[int]:
    """``201-210`` or ``1,5,9``."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def summary(values: list[float], bound: float) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median if median else 0.0
    return {"median": median, "spread": spread, "spread_over_bound": spread / bound,
            "min": min(values), "max": max(values)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--repeat", type=int, default=1)
    args = parser.parse_args(argv)
    runs, spreads = [], {}
    for workload in run.WORKLOADS:
        done = [record.run_once(workload, seed, 0) for seed in args.seeds for _ in range(args.repeat)]
        runs += done
        spreads[workload] = {
            name: summary([r["result"]["metrics"][name]["value"] for r in done], bound)
            for name, bound in BOUNDS.items()
        }
        for name, s in spreads[workload].items():
            print(f"  {workload:13s} {name:17s} median {s['median']:<14.6g} "
                  f"spread {s['spread']:.4f} ({s['spread_over_bound']:.2f} of bound)", flush=True)
    record.write(f"SPREAD_{args.label}.json", {
        "label": args.label, "seeds": args.seeds, "repeat": args.repeat,
        "spreads": spreads, "runs": runs,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main())
