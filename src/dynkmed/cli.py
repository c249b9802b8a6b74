"""Command-line entry point for the benchmark harness.

Exit codes: 0 success, 1 config error, 2 ingestion error, 3 invariant
violation detected during the run, 4 coordinates in the Euclidean kernel or
distances to the power p overflow float64, 5 an allocation failed.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import NoReturn, Optional, Sequence

from .bench import (
    ConfigError,
    DatasetError,
    ExperimentConfig,
    SyntheticSpec,
    run_experiment,
)
from .solver import PowerOverflowError


def _parse_synthetic(text: str) -> SyntheticSpec:
    parts = text.split(":")
    if len(parts) != 4 or parts[0] != "g":
        raise argparse.ArgumentTypeError("synthetic spec must look like g:<components>:<dim>:<count>")
    try:
        components, dim, count = (int(v) for v in parts[1:])
        return SyntheticSpec(components=components, dim=dim, count=count)
    except ConfigError as exc:  # a field below 1
        raise argparse.ArgumentTypeError(str(exc)) from None
    except ValueError:
        raise argparse.ArgumentTypeError("synthetic spec fields must be integers") from None


def _parse_baseline(text: str) -> Optional[int]:
    if text == "none":
        return None
    if text.startswith("static:"):
        try:
            return int(text.split(":", 1)[1])
        except ValueError:
            raise argparse.ArgumentTypeError("baseline period must be an integer") from None
    raise argparse.ArgumentTypeError("baseline must be 'none' or 'static:<q>'")


class _Parser(argparse.ArgumentParser):
    """Reports every usage error (a bad value, a missing required option, an
    unknown option) as a :class:`ConfigError`, so it exits 1, not with
    argparse's status 2, which is the ingestion code here."""

    def error(self, message: str) -> NoReturn:
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    """Options whose ``dest`` is an :class:`ExperimentConfig` field; an
    omitted option sets no attribute, so the field's default applies."""
    parser = _Parser(
        prog="dynkmed",
        description="Sliding-window benchmark for dynamic k-median clustering",
        argument_default=argparse.SUPPRESS,
    )
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--dataset", help="path to a numeric text dataset")
    source.add_argument(
        "--synthetic",
        type=_parse_synthetic,
        help="Gaussian mixture spec g:<components>:<dim>:<count>",
    )
    parser.add_argument("--limit", type=int, help="keep only the first N points")
    parser.add_argument("--window", type=int, required=True, help="sliding window size")
    parser.add_argument("--k", type=int, required=True, help="number of centers")
    parser.add_argument("--p", type=float, help="distance power (1=median, 2=means)")
    parser.add_argument("--phi", type=int, required=True, help="per-layer sample size")
    parser.add_argument("--beta", type=float, help="cover fraction per layer")
    parser.add_argument("--epsilon", type=float, help="rebuild slack factor")
    parser.add_argument("--queries", type=int, help="evenly spaced query count")
    parser.add_argument(
        "--offset",
        dest="offset_mode",
        choices=["none", "inv-n"],
        help="additive distance offset mode (inv-n adds 1/n to all distances)",
    )
    parser.add_argument(
        "--baseline",
        dest="baseline_every",
        metavar="BASELINE",
        type=_parse_baseline,
        help="'none' or 'static:<q>' to recompute a static solution at query "
        "points at most every q updates",
    )
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out", required=True, help="metrics CSV output path")
    parser.add_argument("--shuffle-seed", type=int, help="shuffle input order first")
    parser.add_argument(
        "--check-every",
        type=int,
        help="run integrity checks every N updates (0: only at query points)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = ExperimentConfig(**vars(build_parser().parse_args(argv)))
        result = run_experiment(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (DatasetError, OSError) as exc:
        print(f"ingestion error: {exc}", file=sys.stderr)
        return 2
    except PowerOverflowError as exc:  # coordinates or p too large for float64
        print(f"overflow error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:  # say, a query Gram of m * m floats
        print(f"memory error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 5

    totals = result.summary["per_op"]
    print(
        json.dumps(
            {
                "updates": result.summary["total_updates"],
                "distance_evals": result.summary["total_distance_evals"],
                "queries": totals["query"]["rows"],
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
