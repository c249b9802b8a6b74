"""Record the benchmark's numbers for every workload in one file.

    python3 benchmark/record.py --label baseline [--seed 2024]

Runs ``run.py`` once per workload untraced and once traced, each in its own
process and with ``run_seconds`` of ``BENCHMARK.json``, and writes
``benchmark/results/BENCH_<label>.json`` with each run's record line
(digests, sample counts, environment) and result line.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def run_once(workload: str, seed: int, trace: int) -> dict:
    """One ``run.py`` process; returns its record and result lines."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace),
    ]
    done = subprocess.run(command, capture_output=True, text=True, check=True)
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    print(f"{workload} seed={seed} trace={trace} correct={result['correct']}", flush=True)
    return {"record": record, "result": result}


def write(name: str, content: dict) -> None:
    out = HERE / "results" / name
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(content, indent=1) + "\n")
    print(out)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True)
    parser.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    args = parser.parse_args(argv)
    runs = [run_once(w, args.seed, trace) for w in run.WORKLOADS for trace in (0, 1)]
    write(f"BENCH_{args.label}.json", {"label": args.label, "runs": runs})
    return 0


if __name__ == "__main__":
    sys.exit(main())
