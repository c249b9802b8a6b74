"""Sliding-window benchmark harness.

Feeds a deterministic insert/delete stream into a dynamic clustering state,
issues evenly spaced queries, optionally runs a periodic static-recompute
baseline at query points, and emits one CSV row per update / query / baseline
evaluation plus a JSON run summary. Wall time is recorded but acceptance
gates read the distance-evaluation counter, which is hardware independent.
"""
from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from .dynamic import ClusteringState, DynamicParams, preprocess
from .metric import DistanceOracle, Point, points_from_array
from .solver import _check_int, _check_power, cost_set, query, weighted_solve

class ConfigError(ValueError):
    """Invalid experiment configuration."""


class DatasetError(ValueError):
    """Malformed or inconsistent input data."""


@dataclass
class SyntheticSpec:
    """Gaussian mixture: unit-variance blobs at uniform random means."""

    components: int
    dim: int
    count: int

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            _check_int(f"synthetic spec {name}", value, 1, ConfigError)
        for name in ("components", "count"):  # each times dim sizes an array, which numpy indexes by intp
            if getattr(self, name) * self.dim > np.iinfo(np.intp).max:
                raise ConfigError(f"synthetic spec {name} times dim exceeds {np.iinfo(np.intp).max}")


@dataclass
class MetricsRow:
    update_index: int
    op: str
    wall_nanos: int
    distance_evals_delta: int
    t: int
    n: int
    solution_cost: Optional[float] = None
    centers: Optional[int] = None


CSV_HEADER = [f.name for f in fields(MetricsRow)]


@dataclass
class ExperimentConfig:
    window: int
    k: int
    phi: int
    dataset: Optional[str] = None
    synthetic: Optional[SyntheticSpec] = None
    limit: Optional[int] = None
    p: float = 1.0
    beta: float = 0.5
    epsilon: float = 0.2
    queries: int = 100
    offset_mode: str = "inv-n"          # "none" | "inv-n"
    baseline_every: Optional[int] = None  # static recompute staleness, in updates
    seed: int = 0
    out: Optional[str] = None
    shuffle_seed: Optional[int] = None
    check_every: int = 0                 # extra integrity checks every N updates

    def validate(self) -> None:
        if (self.dataset is None) == (self.synthetic is None):
            raise ConfigError("exactly one of dataset / synthetic is required")
        _check_int("window", self.window, 1, ConfigError)
        _check_int("query count", self.queries, 0, ConfigError)
        _check_int("check_every", self.check_every, 0, ConfigError)
        _check_int("seed", self.seed, 0, ConfigError)
        if self.shuffle_seed is not None:
            _check_int("shuffle seed", self.shuffle_seed, 0, ConfigError)
        for name, value in (("limit", self.limit), ("baseline period", self.baseline_every)):
            if value is not None:
                _check_int(name, value, 1, ConfigError)
        if self.limit is not None and self.limit < self.window:
            raise ConfigError("limit must be at least the window size")
        if self.offset_mode not in ("none", "inv-n"):
            raise ConfigError(f"unknown offset mode {self.offset_mode!r}")
        if self.out and (Path(self.out).is_dir() or not Path(self.out).parent.is_dir()):
            raise ConfigError(f"out path {self.out!r} is a directory or its directory does not exist")
        try:  # the state's and the solver's own rules, with their messages
            DynamicParams(self.k, self.phi, self.beta, epsilon=self.epsilon)
            _check_power(self.p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc


@dataclass
class ExperimentResult:
    rows: list[MetricsRow]
    summary: dict
    violations: list[str]


def load_dataset(path: str | Path, limit: Optional[int] = None) -> list[Point]:
    """Read numeric rows (comma or whitespace separated, one point per line).

    Blank lines are skipped; malformed rows (non-UTF-8 bytes too) and dimension
    drift raise :class:`DatasetError` with the offending line number. Ids run
    0..n-1 in file order; ``limit``, when given, must be an integer of at least 1.
    """
    if limit is not None:
        # the type only, first: the bound below names the value
        _check_int("limit", limit, -math.inf, ConfigError)
        if limit < 1:
            raise ConfigError(f"limit must be at least 1, got {limit}")
    rows: list[list[float]] = []
    dim: Optional[int] = None
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            parts = text.replace(",", " ").split()
            try:
                values = [float(v) for v in parts]
            except ValueError:
                values = []
            if not values:  # a field that is not a number, or separators only
                raise DatasetError(f"{path}: malformed row at line {lineno}")
            if not all(math.isfinite(v) for v in values):
                raise DatasetError(f"{path}: non-finite value at line {lineno}")
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                raise DatasetError(
                    f"{path}: line {lineno} has {len(values)} fields, expected {dim}"
                )
            rows.append(values)
            if limit is not None and len(rows) >= limit:
                break
    if not rows:
        raise DatasetError(f"{path}: no data rows")
    return points_from_array(np.array(rows, dtype=np.float64))


def synthetic_points(spec: SyntheticSpec, seed: int | np.random.SeedSequence) -> list[Point]:
    """Deterministic Gaussian-mixture sample in stream order."""
    rng = np.random.default_rng(seed)
    means = rng.uniform(-5.0 * spec.components, 5.0 * spec.components,
                        size=(spec.components, spec.dim))
    labels = rng.integers(0, spec.components, size=spec.count)
    coords = means[labels] + rng.standard_normal((spec.count, spec.dim))
    return points_from_array(coords)


def sliding_window_stream(n: int, window: int) -> list[tuple[str, int]]:
    """Update sequence: step i inserts point i and deletes point i-window.

    Every point is inserted exactly once and deleted exactly once, for 2n
    updates total; at step boundaries, at most ``window`` points are live.
    Only steps that insert or delete are walked, so a window far above n
    costs nothing.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    updates: list[tuple[str, int]] = []
    for step in range(n):
        updates.append(("insert", step))
        if step >= window:
            updates.append(("delete", step - window))
    updates.extend(("delete", gone) for gone in range(max(0, n - window), n))
    return updates


def _resolve_points(config: ExperimentConfig) -> list[Point]:
    if config.dataset is not None:
        points = load_dataset(config.dataset, config.limit)
    else:
        assert config.synthetic is not None
        points = synthetic_points(config.synthetic, config.seed)
        if config.limit is not None:
            points = points[: config.limit]
    if config.shuffle_seed is not None:
        order = np.random.default_rng(config.shuffle_seed).permutation(len(points))
        coords = np.stack([points[i].coords for i in order])
        points = points_from_array(coords)
    return points


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Execute the configured stream and return rows plus a run summary.

    Queries land after updates floor(j*m/queries) for j=1..queries; a query
    that falls on an empty live set is skipped and counted in the summary.
    Asking for more queries than the stream has updates is a
    :class:`ConfigError`.
    Query timing covers instance extraction, the weighted solve and the
    answer's cost over the whole live set. The
    baseline, when enabled, recomputes a fresh static solution at a query
    point whenever at least ``baseline_every`` updates passed since its last
    recompute, and its current centers are re-costed at every query point.
    """
    config.validate()
    points = _resolve_points(config)
    offset = 1.0 / len(points) if config.offset_mode == "inv-n" else 0.0
    oracle = DistanceOracle(offset=offset)

    root_ss = np.random.SeedSequence(config.seed)
    state_ss, query_ss, baseline_ss = root_ss.spawn(3)
    params = DynamicParams(
        k=config.k,
        phi=config.phi,
        beta=config.beta,
        epsilon=config.epsilon,
        seed=state_ss,
    )
    state = ClusteringState(params, oracle)

    updates = sliding_window_stream(len(points), config.window)
    m = len(updates)
    if config.queries > m:
        raise ConfigError(f"{config.queries} queries exceed the {m} updates of the stream")
    # at most one query per update: queries <= m, so floor(j*m/queries) strictly increases
    query_after = {(j * m) // config.queries: j for j in range(1, config.queries + 1)}
    query_seeds = query_ss.spawn(config.queries)
    baseline_seeds = iter(baseline_ss.spawn(2 * config.queries + 2))

    rows: list[MetricsRow] = []
    violations: list[str] = []
    skipped_queries = 0
    baseline_centers: Optional[list[Point]] = None
    updates_since_baseline = 0
    eval_mark = oracle.evals

    def emit(index: int, op: str, wall: int, cost=None, centers=None) -> None:
        nonlocal eval_mark
        rows.append(
            MetricsRow(
                update_index=index,
                op=op,
                wall_nanos=wall,
                distance_evals_delta=oracle.evals - eval_mark,
                t=state.t,
                n=state.live_count,
                solution_cost=cost,
                centers=centers,
            )
        )
        eval_mark = oracle.evals

    for index, (op, pos) in enumerate(updates, start=1):
        start = time.perf_counter_ns()
        if op == "insert":
            state.insert(points[pos])
        else:
            state.delete(points[pos].id)
        emit(index, op, time.perf_counter_ns() - start)
        updates_since_baseline += 1

        j = query_after.get(index)
        if j is not None or config.check_every and index % config.check_every == 0:
            where = "update" if j is None else "query point"  # one check per update index
            violations.extend(f"{where} {index}: {v}" for v in state.integrity_check())

        if j is not None:
            if state.live_count == 0:
                skipped_queries += 1
                continue
            start = time.perf_counter_ns()
            answer = query(state, config.k, config.p, query_seeds[j - 1])
            emit(
                index,
                "query",
                time.perf_counter_ns() - start,
                cost=answer.cost,
                centers=len(answer.centers),
            )
            if config.baseline_every is not None:
                start = time.perf_counter_ns()
                if (
                    baseline_centers is None
                    or updates_since_baseline >= config.baseline_every
                ):
                    baseline_centers = _static_solution(
                        state, config.k, config.p, next(baseline_seeds), next(baseline_seeds)
                    )
                    updates_since_baseline = 0
                base_cost = cost_set(baseline_centers, state.store, config.p, oracle)
                emit(
                    index,
                    "baseline",
                    time.perf_counter_ns() - start,
                    cost=base_cost,
                    centers=len(baseline_centers),
                )

    summary = _summarize(config, rows, m, skipped_queries, violations, oracle)
    if config.out:
        out_path = Path(config.out)
        emit_metrics(rows, out_path)
        summary_path = out_path.with_suffix(".summary.json")
        summary_path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return ExperimentResult(rows=rows, summary=summary, violations=violations)


def _static_solution(
    state: ClusteringState, k: int, p: float, build_seed, solve_seed
) -> list[Point]:
    """From-scratch static build plus weighted solve over the live set, with
    the state's own parameters on a fresh sample stream."""
    live = state.live_points()
    if len(live) <= k:
        return live
    fresh = preprocess(live, replace(state.params, seed=build_seed), state.oracle)
    picked = weighted_solve(fresh.weighted_instance(), k, p, solve_seed, state.oracle)
    return [state.store.get(c) for c in sorted(picked.centers)]


def _summarize(
    config: ExperimentConfig,
    rows: Sequence[MetricsRow],
    total_updates: int,
    skipped_queries: int,
    violations: Sequence[str],
    oracle: DistanceOracle,
) -> dict:
    per_op: dict[str, dict] = {}
    for op in ("baseline", "delete", "insert", "query"):
        selected = [r for r in rows if r.op == op]
        per_op[op] = {
            "rows": len(selected),
            "distance_evals": int(sum(r.distance_evals_delta for r in selected)),
            "wall_nanos": int(sum(r.wall_nanos for r in selected)),
        }
    cfg = asdict(config)
    return {
        "config": cfg,
        "total_updates": total_updates,
        "total_distance_evals": int(oracle.evals),
        "distance_offset": oracle.offset,
        "queries_skipped_empty": skipped_queries,
        "invariant_violations": list(violations),
        "per_op": per_op,
        "timing_note": (
            "query wall time covers weighted-instance extraction, the weighted "
            "solve and the answer's cost over the whole live set; acceptance "
            "gates use distance_evals, not wall time"
        ),
    }


def emit_metrics(rows: Iterable[MetricsRow], path: str | Path) -> None:
    """Write rows as CSV, one column per :class:`MetricsRow` field in order;
    blanks for inapplicable (``None``) fields, floats as ``repr``.
    Deterministic row order and formatting."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for row in rows:
            writer.writerow(vars(row).values())
