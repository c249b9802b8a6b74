"""Command-line entry point for the benchmark harness.

Exit codes: 0 success, 1 config error, 2 ingestion error, 3 invariant
violation detected during the run.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .bench import (
    ConfigError,
    DatasetError,
    ExperimentConfig,
    SyntheticSpec,
    run_experiment,
)


def _parse_synthetic(text: str) -> SyntheticSpec:
    parts = text.split(":")
    if len(parts) != 4 or parts[0] != "g":
        raise ConfigError("synthetic spec must look like g:<components>:<dim>:<count>")
    try:
        components, dim, count = (int(v) for v in parts[1:])
    except ValueError:
        raise ConfigError("synthetic spec fields must be integers") from None
    return SyntheticSpec(components=components, dim=dim, count=count)


def _parse_baseline(text: str) -> Optional[int]:
    if text == "none":
        return None
    if text.startswith("static:"):
        try:
            period = int(text.split(":", 1)[1])
        except ValueError:
            raise ConfigError("baseline period must be an integer") from None
        return period
    raise ConfigError("baseline must be 'none' or 'static:<q>'")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynkmed",
        description="Sliding-window benchmark for dynamic k-median clustering",
        exit_on_error=False,
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--dataset", help="path to a numeric text dataset")
    source.add_argument(
        "--synthetic",
        help="Gaussian mixture spec g:<components>:<dim>:<count>",
    )
    parser.add_argument("--limit", type=int, help="keep only the first N points")
    parser.add_argument("--window", type=int, required=True, help="sliding window size")
    parser.add_argument("--k", type=int, required=True, help="number of centers")
    parser.add_argument("--p", type=float, default=1.0, help="distance power (1=median, 2=means)")
    parser.add_argument("--phi", type=int, required=True, help="per-layer sample size")
    parser.add_argument("--beta", type=float, default=0.5, help="cover fraction per layer")
    parser.add_argument("--epsilon", type=float, default=0.2, help="rebuild slack factor")
    parser.add_argument("--queries", type=int, default=100, help="evenly spaced query count")
    parser.add_argument(
        "--offset",
        choices=["none", "inv-n"],
        default="inv-n",
        help="additive distance offset mode (inv-n adds 1/n to all distances)",
    )
    parser.add_argument(
        "--baseline",
        default="none",
        help="'none' or 'static:<q>' to recompute a static solution at query "
        "points at most every q updates",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="metrics CSV output path")
    parser.add_argument("--shuffle-seed", type=int, help="shuffle input order first")
    parser.add_argument(
        "--check-every",
        type=int,
        default=0,
        help="run integrity checks every N updates (0: only at query points)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = ExperimentConfig(
            window=args.window,
            k=args.k,
            phi=args.phi,
            dataset=args.dataset,
            synthetic=_parse_synthetic(args.synthetic) if args.synthetic else None,
            limit=args.limit,
            p=args.p,
            beta=args.beta,
            epsilon=args.epsilon,
            queries=args.queries,
            offset_mode=args.offset,
            baseline_every=_parse_baseline(args.baseline),
            seed=args.seed,
            out=args.out,
            shuffle_seed=args.shuffle_seed,
            check_every=args.check_every,
        )
    except (ConfigError, argparse.ArgumentError, argparse.ArgumentTypeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    try:
        result = run_experiment(config)
    except DatasetError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return 2

    totals = result.summary["per_op"]
    print(
        json.dumps(
            {
                "updates": result.summary["total_updates"],
                "distance_evals": result.summary["total_distance_evals"],
                "queries": totals.get("query", {}).get("rows", 0),
                "violations": len(result.violations),
                "out": config.out,
            }
        )
    )
    if result.violations:
        for line in result.violations[:20]:
            print(f"invariant violation: {line}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
